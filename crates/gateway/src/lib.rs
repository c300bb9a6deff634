//! # retypd-gateway — a cross-process shard router for `retypd-serve`
//!
//! One `serve` process shards work across threads; this crate shards
//! work across *processes*. The gateway speaks the same length-prefixed
//! JSON wire protocol as `serve` on its front side, and on its back
//! side spawns, supervises, and routes to a fleet of `serve` backends,
//! each with its own persistent scheme store:
//!
//! ```text
//!                          ┌── health checker: probe / evict / restart / re-add
//!   client ──▶ gateway ────┤
//!              (consistent ├──▶ serve backend 0  ── store/slot-0/
//!               hash ring) ├──▶ serve backend 1  ── store/slot-1/
//!                          └──▶ serve backend 2  ── store/slot-2/
//! ```
//!
//! * [`ring`] — the consistent-hash ring: `(lattice_fp, module_fp)` →
//!   slot, stable under membership churn so re-submissions keep hitting
//!   their warm store.
//! * [`backend`] — one routed backend: spawned child (supervised,
//!   restartable, warm-starting from its persist dir) or an external
//!   address.
//! * [`health`] — the pure stats-reply classifier the supervisor (and
//!   the fuzzer) drive: malformed backend replies degrade the backend
//!   to unhealthy, never panic the router.
//! * [`forward`] — single-frame exchanges plus the hedged variant that
//!   races two backends and suppresses the duplicate reply.
//! * [`server`] — the front-end's per-frame handler: routing, batch
//!   decomposition and reassembly, stats/metrics aggregation, drain.
//!   Client sockets themselves (accept, polled reads, timeouts, budgets,
//!   the drain join) run on `serve`'s connection layer,
//!   [`retypd_serve::conn`], the same code `serve` runs.
//!
//! Because every backend runs the same deterministic solver, routing
//! topology is invisible in results: a batch solved through 1, 2, or 4
//! backends — even with a backend killed and restarted mid-run — is
//! byte-identical to the sequential solver's output. The gateway only
//! decides *which warm cache* answers, never *what* the answer is.

#![warn(missing_docs)]

pub mod backend;
pub mod forward;
pub mod health;
pub mod ring;
pub mod server;

pub use backend::{Backend, BackendSpec};
pub use health::{classify_stats_reply, ProbeReport};
pub use ring::{route_key, Ring, VNODES};
pub use server::{start, GatewayConfig, GatewayHandle};
