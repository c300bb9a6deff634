//! # retypd-core
//!
//! A from-scratch reproduction of **Retypd** — *Polymorphic Type Inference
//! for Machine Code* (Noonan, Loginov, Cok; PLDI 2016).
//!
//! Retypd infers most-general, recursively constrained polymorphic type
//! schemes for machine-code procedures from subtyping constraints, models
//! solutions with *sketches* (regular trees marked with elements of a
//! customizable lattice Λ), and downgrades the results to readable C types.
//!
//! The crate is organized to mirror the paper:
//!
//! * [`label`], [`dtv`], [`constraint`] — the constraint language of §3.1
//!   (field labels with variance, derived type variables, constraint sets).
//! * [`lattice`] — the auxiliary lattice Λ of §3.5 / Appendix E.
//! * [`deduction`] — a direct (naive) implementation of the Figure 3 rules,
//!   used as a test oracle.
//! * [`graph`], [`saturation`], [`transducer`] — the pushdown-system
//!   encoding and saturation algorithm of §5.2 / Appendices C–D.
//! * [`simplify`], [`scheme`] — constraint-set simplification and type
//!   schemes (§5, Algorithm D.3).
//! * [`sketch`], [`shapes`] — sketches and shape inference (§3.5,
//!   Appendix E).
//! * [`addsub`] — additive-constraint propagation (Appendix A.6, Fig. 13).
//! * [`solver`] — the bottom-up, SCC-driven pipeline (Appendix F).
//! * [`ctype`] — conversion of sketches to C types, `const` inference, and
//!   the display policies of §4.3 / Appendix G.
//!
//! ## Quick start
//!
//! ```
//! use retypd_core::{ConstraintSet, Lattice, SchemeBuilder};
//!
//! // Constraints for a procedure `f` returning the int stored in its
//! // argument's first field: f.in_stack0.load.σ32@0 flows to f.out_eax.
//! let mut cs = ConstraintSet::new();
//! cs.add_sub_str("f.in_stack0", "t");
//! cs.add_sub_str("t.load.σ32@0", "int");
//! cs.add_sub_str("t.load.σ32@0", "f.out_eax");
//!
//! let lattice = Lattice::c_types();
//! let scheme = SchemeBuilder::new(&lattice).infer("f", &cs);
//! // The simplified scheme relates f's input capability to the constant.
//! assert!(!scheme.constraints().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addsub;
pub mod bitset;
pub mod constraint;
pub mod ctype;
pub mod deduction;
pub mod dtv;
pub mod fnv;
pub mod fuzzing;
pub mod fxhash;
pub mod graph;
mod intern;
pub mod label;
pub mod lattice;
pub mod parse;
pub mod saturation;
pub mod scheme;
pub mod shapes;
pub mod simplify;
pub mod sketch;
pub mod solver;
pub mod sync;
pub mod transducer;
pub mod variance;

pub use constraint::{AddSubConstraint, AddSubKind, ConstraintSet, SubtypeConstraint};
pub use ctype::{CType, CTypeBuilder, FuncSig, TypeTable};
pub use dtv::{BaseVar, DerivedVar};
pub use intern::{Interner, Symbol};
pub use label::{word_variance, Label, Loc};
pub use lattice::{Lattice, LatticeBuilder, LatticeDescriptor, LatticeElem, LatticeError};
pub use scheme::TypeScheme;
pub use shapes::ShapeQuotient;
pub use simplify::SchemeBuilder;
pub use sketch::Sketch;
pub use solver::{
    callsite_actuals, CallTarget, Callsite, Condensation, ProcResult, Procedure, Program,
    SccGraph, SccRefinement, SccSchemes, Solver, SolverResult, SolverStats,
};
pub use variance::Variance;

// The analysis data types are shared across worker threads by
// `retypd-driver`'s SCC-wave scheduler. Guarantee at compile time that the
// types crossing that boundary are `Send + Sync` (in particular `Symbol`,
// which carries a `&'static str` into a process-wide interner, and
// `Lattice`, whose tables are read concurrently by every worker).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Symbol>();
    assert_send_sync::<Lattice>();
    assert_send_sync::<LatticeDescriptor>();
    assert_send_sync::<LatticeElem>();
    assert_send_sync::<TypeScheme>();
    assert_send_sync::<Sketch>();
    assert_send_sync::<ConstraintSet>();
    assert_send_sync::<DerivedVar>();
    assert_send_sync::<Program>();
    assert_send_sync::<Procedure>();
    assert_send_sync::<SolverResult>();
    assert_send_sync::<Condensation>();
    assert_send_sync::<SccSchemes>();
    assert_send_sync::<SccRefinement>();
    assert_send_sync::<SccGraph>();
};
