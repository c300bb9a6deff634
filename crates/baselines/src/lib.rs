//! # retypd-baselines
//!
//! The comparison algorithms of §6.5, reimplemented from their published
//! descriptions:
//!
//! * [`unification`] — a SecondWrite/REWARDS-style *unification* algorithm:
//!   every value assignment merges types, callsites are monomorphic, and a
//!   single type is produced per variable. Sensitive to the §2 idioms by
//!   construction (over-unification).
//! * [`tie`] — a TIE-style *subtype-bounds* algorithm: upper and lower
//!   lattice bounds per variable, but monomorphic callsites and no
//!   recursive types (bounded-depth structural results).
//!
//! Both consume the *same* constraint programs produced by
//! `retypd_congen`, so comparisons isolate the type-system differences
//! the paper credits (polymorphism, subtyping, recursive sketches).
//!
//! The shared [`common::InfTy`] tree is the output format scored by the
//! evaluation crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod tie;
pub mod unification;

pub use common::{InfTy, InferredFunc, InferredProgram};
pub use tie::infer_tie;
pub use unification::infer_unification;
