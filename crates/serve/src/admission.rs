//! Bounded admission control.
//!
//! A server resident behind a socket sees an unbounded stream of work; the
//! [`Admission`] gate is what turns overload into an immediate, honest
//! `overloaded` refusal instead of stacking latency. It is a single
//! compare-and-swap counter with a drain flag:
//!
//! * **All-or-nothing batches.** [`Admission::admit`] reserves `n` slots
//!   atomically or none at all — a partially admitted batch would strand
//!   its admitted prefix behind a refusal.
//! * **Exact release.** Every admitted slot is released exactly once:
//!   normally by the shard thread after the job finishes (panic included —
//!   the shard catches solver panics), or by the dispatcher itself when a
//!   drain races it between `admit` and the shard send. [`SlotGuard`]
//!   makes the shard-side release panic-proof by tying it to a drop.
//! * **Drain is sticky.** [`Admission::begin_drain`] flips a flag that
//!   every admit observes; exactly one caller wins the flip and performs
//!   the one-time teardown (hanging up shard queues, nudging the
//!   acceptor).
//!
//! Ordering: the counter and flag carry no payload — every cross-thread
//! handoff in the server travels through channels and mutexes, which
//! already synchronize — so all accesses are `Relaxed` except the
//! drain-claim RMW (see the policy in `retypd_core::sync`). The
//! model-checked regressions for this protocol (slot release on solver
//! panic, drain racing dispatch) live in `crates/conc-check`.

use retypd_core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The admission gate: a bounded in-flight counter, the count of
/// admitted batches, and the sticky drain flag. Overload refusals are
/// counted once, by the server's `serve.rejected_batches` counter.
#[derive(Debug)]
pub struct Admission {
    /// Maximum jobs admitted but not yet finished (≥ 1).
    limit: usize,
    /// Jobs admitted and not yet released.
    queued: AtomicUsize,
    /// Batches admitted over the gate's life.
    accepted: AtomicU64,
    draining: AtomicBool,
}

impl Admission {
    /// A gate admitting at most `limit` concurrent jobs. Clamped to at
    /// least 1: a limit of 0 would permanently reject all work.
    pub fn new(limit: usize) -> Admission {
        Admission {
            limit: limit.max(1),
            queued: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// The admission limit (clamped).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Jobs currently admitted and not yet released.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Batches admitted over the gate's life.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Whether a drain has begun (sticky).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Admits `n` jobs atomically (all or none), or reports the queue
    /// depth observed at refusal. Draining gates refuse everything.
    ///
    /// # Errors
    ///
    /// `Err(queued)` when the gate is draining or `n` slots do not fit.
    pub fn admit(&self, n: usize) -> Result<(), usize> {
        let mut cur = self.queued.load(Ordering::Relaxed);
        loop {
            if self.is_draining() {
                return Err(cur);
            }
            if cur + n > self.limit {
                return Err(cur);
            }
            match self
                .queued
                .compare_exchange(cur, cur + n, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `n` previously admitted slots.
    pub fn release(&self, n: usize) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
    }

    /// A guard releasing exactly one slot on drop — the shard thread holds
    /// one per job so the slot frees on every exit path.
    pub fn slot_guard(&self) -> SlotGuard<'_> {
        SlotGuard { gate: self }
    }

    /// Counts an admitted batch.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Flips the sticky drain flag; returns `true` for exactly one caller
    /// — the winner performs the one-time teardown (hanging up queues,
    /// nudging the acceptor).
    pub fn begin_drain(&self) -> bool {
        // AcqRel, not SeqCst: the RMW's atomicity alone elects the single
        // winner, and the teardown the winner performs synchronizes
        // through mutexes; there is no second location whose total order
        // matters.
        !self.draining.swap(true, Ordering::AcqRel)
    }
}

/// Releases one admission slot on drop (see [`Admission::slot_guard`]).
#[derive(Debug)]
pub struct SlotGuard<'a> {
    gate: &'a Admission,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.gate.release(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_all_or_nothing() {
        let gate = Admission::new(4);
        assert!(gate.admit(3).is_ok());
        assert_eq!(gate.admit(2), Err(3), "2 more would exceed the limit of 4");
        assert!(gate.admit(1).is_ok());
        assert_eq!(gate.queued(), 4);
        gate.release(4);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn zero_limit_is_clamped_to_one() {
        let gate = Admission::new(0);
        assert_eq!(gate.limit(), 1);
        assert!(gate.admit(1).is_ok());
    }

    #[test]
    fn drain_is_sticky_and_elects_one_winner() {
        let gate = Admission::new(8);
        assert!(gate.begin_drain(), "first caller wins");
        assert!(!gate.begin_drain(), "second caller loses");
        assert!(gate.is_draining());
        assert_eq!(gate.admit(1), Err(0), "draining refuses everything");
    }

    #[test]
    fn slot_guard_releases_on_drop_even_through_a_panic() {
        let gate = Admission::new(2);
        assert!(gate.admit(1).is_ok());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = gate.slot_guard();
            panic!("solver exploded");
        }));
        assert!(caught.is_err());
        assert_eq!(gate.queued(), 0, "the guard released through the unwind");
    }
}
