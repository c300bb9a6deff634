//! The workspace's model-checked concurrency regression suite.
//!
//! Every protocol the codebase routes through the sync facade
//! (`retypd_core::sync`) is a claim: *this ordering discipline is
//! sufficient*. This crate turns the important claims into bounded
//! model checks — each [`ModelDef`] is a small closed model whose
//! interleavings the vendored checker ([`loom`]) explores exhaustively
//! under a preemption bound, with vector-clock happens-before tracking
//! and a replayable schedule string on failure.
//!
//! Two registries:
//!
//! - [`registry`] — every model valid in the current build. The
//!   *abstract* models (message-passing publication, the drain/ack
//!   handshake, relaxed counters) use [`loom::modelled`] directly and
//!   are always compiled, so a plain `cargo test` already runs the
//!   checker against the protocols' shapes. The *product* models
//!   (Interner double-miss, `Admission`, `ShardStatsCells`, telemetry
//!   `Histogram`) exercise the real production types and therefore
//!   need the whole dependency tree compiled with
//!   `--cfg retypd_model_check`, which swaps the facade from std
//!   re-exports to the modelled doubles.
//! - [`mutations`] — deliberately broken variants (a weakened store, a
//!   lost wakeup) that the checker **must** catch. They pin the
//!   checker's teeth: if a mutation stops failing, the model checker
//!   itself has rotted and no green "models pass" result means
//!   anything.
//!
//! The `conc-check` binary runs both registries with a fixed seed and
//! emits a JSON run-stats report (per-model interleaving counts,
//! completeness, mutation schedules); CI archives it next to the fuzz
//! smoke artifact.

use loom::{Builder, Report};

/// One named model: a closed concurrent scenario the checker explores.
pub struct ModelDef {
    /// Stable identifier (used in test names and the JSON report).
    pub name: &'static str,
    /// What the model checks, one line.
    pub what: &'static str,
    /// Preemption bound to explore under. Tuned per model so the
    /// bounded schedule space stays both meaningful (≥1000 distinct
    /// interleavings for the passing models) and tractable.
    pub preemption_bound: u32,
    /// Per-model iteration cap. Most models exhaust their bounded
    /// space well below it; a model whose space is combinatorial (ten
    /// relaxed stores racing ten relaxed loads, each load free to
    /// observe several buffered values) declares a smaller cap and is
    /// explored to exactly that depth instead. Either way the run is
    /// deterministic: [`Report::complete`] says which case happened.
    pub cap: u64,
    /// The model body: one execution of the closed scenario. The
    /// checker runs it under every explored schedule.
    pub body: fn(),
}

impl ModelDef {
    /// Explores the model with this suite's conventions: the given
    /// seed, the model's preemption bound, and an iteration cap.
    pub fn check(&self, seed: u64, max_iterations: u64) -> Report {
        Builder::new()
            .seed(seed)
            .preemption_bound(self.preemption_bound)
            .max_iterations(self.cap.min(max_iterations))
            .check(self.body)
    }

    /// Replays exactly one schedule string (from a failure report)
    /// against the model body.
    pub fn replay(&self, schedule: &str) -> Report {
        Builder::new().replay(schedule, self.body)
    }
}

/// The default seed for CI runs and tests: fixed, so the exploration
/// order (and any failure schedule) is bit-identical across machines.
pub const DEFAULT_SEED: u64 = 1;

/// Default iteration cap, generous enough that every registry model
/// either exhausts its bounded space or reaches its own declared
/// [`ModelDef::cap`] (the self-check tests assert exactly that
/// dichotomy via the report's `complete` field).
pub const DEFAULT_MAX_ITERATIONS: u64 = 50_000;

// ---------------------------------------------------------------------------
// Abstract models: always compiled, loom::modelled used explicitly.

/// Release/acquire message passing: the pattern behind every
/// "publish a value, flip a flag" protocol in the workspace (the
/// connection loop's drain flags). The reader may only touch the plain
/// data after an acquire load observes the release store.
fn mp_publish() {
    use loom::cell::RaceCell;
    use loom::modelled::sync::atomic::{AtomicBool, Ordering};
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    // Two independent (data, flag) publication slots, one writer each:
    // the reader polls both flags and may consume the slots in either
    // order, so the schedule space covers the cross-product of the two
    // protocols' interleavings.
    let slots: Vec<_> = (0..2u64)
        .map(|i| Arc::new((RaceCell::new(0u64), AtomicBool::new(false), 42 + i)))
        .collect();
    let writers: Vec<_> = slots
        .iter()
        .map(|slot| {
            let slot = Arc::clone(slot);
            thread::spawn(move || {
                // SAFETY: readers access the cell only after observing
                // the release store below via an acquire load; the
                // model checks exactly that.
                unsafe { slot.0.with_mut(|d| *d = slot.2) };
                slot.1.store(true, Ordering::Release);
            })
        })
        .collect();
    for slot in &slots {
        if slot.1.load(Ordering::Acquire) {
            // SAFETY: the acquire load saw the release store, so the
            // writer's mutation happens-before this read (model-checked).
            let v = unsafe { slot.0.with(|d| *d) };
            assert_eq!(v, slot.2, "acquire read must see the published value");
        }
    }
    for w in writers {
        w.join().unwrap();
    }
    for slot in &slots {
        // SAFETY: both writers are joined, so their mutations
        // happen-before these reads (model-checked).
        let v = unsafe { slot.0.with(|d| *d) };
        assert_eq!(v, slot.2, "post-join read must see the final value");
    }
}

/// MUTATION of [`mp_publish`]: the flag store weakened from `Release`
/// to `Relaxed`. The reader's acquire load no longer synchronizes with
/// the write, so the cell access is a data race — the checker must
/// find an interleaving that proves it.
fn mp_publish_weakened() {
    use loom::modelled::sync::atomic::{AtomicBool, Ordering};
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    let data = Arc::new(loom::cell::RaceCell::new(0u64));
    let flag = Arc::new(AtomicBool::new(false));
    let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
    let writer = thread::spawn(move || {
        // SAFETY: deliberately NOT upheld — the weakened store below
        // breaks the protocol, and the model must say so.
        unsafe { d2.with_mut(|d| *d = 42) };
        f2.store(true, Ordering::Relaxed); // the mutation
    });
    if flag.load(Ordering::Acquire) {
        // SAFETY: deliberately NOT upheld (see above).
        let v = unsafe { data.with(|d| *d) };
        assert_eq!(v, 42);
    }
    writer.join().unwrap();
}

/// The serve shutdown-ack handshake (the PR-4 race, abstracted): the
/// drainer must observe the worker's ack exactly once, with the flag
/// and the wait under one mutex and the wait in a predicate loop.
fn handshake_ack() {
    use loom::modelled::sync::{Arc, Condvar, Mutex};
    use loom::modelled::thread;
    // Two workers ack under one mutex (the serve drain joins every
    // shard); the drainer's predicate loop must absorb the acks in any
    // arrival order, including both before it first takes the lock.
    let state = Arc::new((Mutex::new(0u32), Condvar::new()));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let s = Arc::clone(&state);
            thread::spawn(move || {
                let (lock, cv) = &*s;
                *lock.lock().unwrap() += 1;
                cv.notify_one();
            })
        })
        .collect();
    let (lock, cv) = &*state;
    let mut acks = lock.lock().unwrap();
    while *acks < 2 {
        acks = cv.wait(acks).unwrap();
    }
    drop(acks);
    for w in workers {
        w.join().unwrap();
    }
}

/// MUTATION of [`handshake_ack`]: the ack flag moved *outside* the
/// mutex (an atomic), reintroducing the lost-wakeup window — the
/// worker can store + notify between the drainer's flag check and its
/// wait, and nobody ever wakes the drainer. The checker must find the
/// deadlock.
fn handshake_lost_wakeup() {
    use loom::modelled::sync::atomic::{AtomicBool, Ordering};
    use loom::modelled::sync::{Arc, Condvar, Mutex};
    use loom::modelled::thread;
    let flag = Arc::new(AtomicBool::new(false));
    let state = Arc::new((Mutex::new(()), Condvar::new()));
    let (f2, s2) = (Arc::clone(&flag), Arc::clone(&state));
    let worker = thread::spawn(move || {
        f2.store(true, Ordering::Release);
        s2.1.notify_one();
    });
    let (lock, cv) = &*state;
    let guard = lock.lock().unwrap();
    if !flag.load(Ordering::Acquire) {
        // The mutation: check-then-wait with the flag outside the
        // mutex. If the notify lands in between, this waits forever.
        drop(cv.wait(guard).unwrap());
    } else {
        drop(guard);
    }
    worker.join().unwrap();
}

/// Relaxed counters (the driver/serve accounting idiom): concurrent
/// `fetch_add`s from three threads never lose an increment, and the
/// post-join read sees the exact total.
fn relaxed_counter_total() {
    use loom::modelled::sync::atomic::{AtomicU64, Ordering};
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    let n = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let n = Arc::clone(&n);
            thread::spawn(move || {
                n.fetch_add(1, Ordering::Relaxed);
                n.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(n.load(Ordering::Relaxed), 6, "RMWs must not lose increments");
}

// ---------------------------------------------------------------------------
// Product models: the real types, checkable only when the whole tree
// is compiled with `--cfg retypd_model_check` (facade → doubles).

/// Interner double-miss (the PR-1 protocol, per `crates/core/src/intern.rs`):
/// two threads miss on the same key concurrently; the write-lock
/// re-check must make exactly one insert win, and both callers must
/// get the same canonical pointer.
#[cfg(retypd_model_check)]
fn interner_double_miss() {
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    use retypd_core::Interner;
    let interner = Arc::new(Interner::new());
    let (i1, i2) = (Arc::clone(&interner), Arc::clone(&interner));
    let t1 = thread::spawn(move || i1.intern("rax").as_ptr() as usize);
    let t2 = thread::spawn(move || i2.intern("rax").as_ptr() as usize);
    let p1 = t1.join().unwrap();
    let p2 = t2.join().unwrap();
    assert_eq!(p1, p2, "double miss must canonicalize to one allocation");
    assert_eq!(interner.len(), 1, "exactly one insert may win");
}

/// Telemetry histogram (the PR-6 record path): lock-free concurrent
/// `record`s with a concurrent snapshot. Mid-flight snapshots may lag
/// (documented), but never over-count, and the post-join snapshot is
/// exact.
#[cfg(retypd_model_check)]
fn histogram_concurrent_record() {
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    use retypd_telemetry::Histogram;
    let h = Arc::new(Histogram::new());
    let (h1, h2) = (Arc::clone(&h), Arc::clone(&h));
    let t1 = thread::spawn(move || h1.record(3));
    let t2 = thread::spawn(move || h2.record(300));
    // Mid-flight probe: `count` may lag the in-flight records but can
    // never over-count. (A full snapshot here would read all 64 bucket
    // atomics concurrently with the recorders and blow the bounded
    // schedule space; the post-join snapshot below covers the rest.)
    assert!(h.count() <= 2, "count can lag but never over-count");
    t1.join().unwrap();
    t2.join().unwrap();
    let fin = h.snapshot();
    assert_eq!(fin.count, 2);
    assert_eq!(fin.sum, 303);
    assert_eq!(fin.buckets.iter().sum::<u64>(), 2);
}

/// Admission CAS loop (the PR-3 gate, `retypd_serve::admission`): a
/// batch either gets all its slots or none, the gate never exceeds its
/// limit in any interleaving, and every admitted slot is released.
#[cfg(retypd_model_check)]
fn admission_all_or_nothing() {
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    use retypd_serve::admission::Admission;
    let gate = Arc::new(Admission::new(2));
    let (g1, g2) = (Arc::clone(&gate), Arc::clone(&gate));
    let t1 = thread::spawn(move || {
        let ok = g1.admit(2).is_ok();
        if ok {
            g1.release(2);
        }
        ok
    });
    let t2 = thread::spawn(move || {
        let ok = g2.admit(1).is_ok();
        if ok {
            g2.release(1);
        }
        ok
    });
    assert!(gate.queued() <= 2, "the gate must never exceed its limit");
    t1.join().unwrap();
    t2.join().unwrap();
    assert_eq!(gate.queued(), 0, "every admitted slot must be released");
}

/// Admission drain election: any number of concurrent `begin_drain`
/// calls elect exactly one winner (the AcqRel swap), and the flag is
/// sticky.
#[cfg(retypd_model_check)]
fn admission_drain_election() {
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    use retypd_serve::admission::Admission;
    let gate = Arc::new(Admission::new(4));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let g = Arc::clone(&gate);
            thread::spawn(move || g.begin_drain())
        })
        .collect();
    let winners = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&won| won)
        .count();
    assert_eq!(winners, 1, "exactly one drain caller may win the election");
    assert!(gate.is_draining(), "the drain flag is sticky");
}

/// Admission slot guard: an admitted slot wrapped in the RAII guard is
/// released when the guard drops, even while another thread probes the
/// gate concurrently.
#[cfg(retypd_model_check)]
fn admission_slot_guard() {
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    use retypd_serve::admission::Admission;
    let gate = Arc::new(Admission::new(2));
    gate.admit(2).expect("uncontended admit of both slots");
    let holders: Vec<_> = (0..2)
        .map(|_| {
            let g = Arc::clone(&gate);
            thread::spawn(move || {
                let slot = g.slot_guard();
                assert!(g.queued() >= 1, "our own slot is still held here");
                drop(slot);
            })
        })
        .collect();
    assert!(gate.queued() <= 2, "the probe never sees more than the limit");
    for h in holders {
        h.join().unwrap();
    }
    assert_eq!(gate.queued(), 0, "every dropped guard must release its slot");
}

/// ShardStatsCells publish vs. snapshot (the PR-8 contention): a
/// concurrent snapshot may mix adjacent publishes field-by-field
/// (documented), but every field it returns is a value some publish
/// wrote, and the post-join snapshot equals the last publish exactly.
#[cfg(retypd_model_check)]
fn stats_cells_publish_snapshot() {
    use loom::modelled::sync::Arc;
    use loom::modelled::thread;
    use retypd_driver::{CacheStats, PersistStats};
    use retypd_serve::stats_cells::ShardStatsCells;
    let cells = Arc::new(ShardStatsCells::default());
    let c2 = Arc::clone(&cells);
    let publisher = thread::spawn(move || {
        let cache = CacheStats { hits: 1, ..CacheStats::default() };
        let persist = PersistStats { persisted_entries: 1, ..PersistStats::default() };
        c2.publish_counts(1, 0, &cache, &persist);
        let cache = CacheStats { hits: 2, ..CacheStats::default() };
        let persist = PersistStats { persisted_entries: 2, ..PersistStats::default() };
        c2.publish_counts(2, 0, &cache, &persist);
    });
    let mid = cells.snapshot(0);
    assert!(mid.jobs <= 2, "jobs must be a published value, saw {}", mid.jobs);
    assert!(mid.cache.hits <= 2, "hits must be a published value");
    assert!(mid.persisted_entries <= 2, "gauge must be a published value");
    publisher.join().unwrap();
    let fin = cells.snapshot(0);
    assert_eq!(fin.jobs, 2, "post-join snapshot sees the last publish");
    assert_eq!(fin.cache.hits, 2);
    assert_eq!(fin.persisted_entries, 2);
}

// ---------------------------------------------------------------------------
// Registries.

/// Every passing model valid in this build configuration. Under
/// `--cfg retypd_model_check` this includes the product models; in a
/// normal build, only the abstract (always-compiled) ones.
pub fn registry() -> Vec<ModelDef> {
    // `mut` is only exercised under --cfg retypd_model_check, where the
    // product models are appended below.
    #[cfg_attr(not(retypd_model_check), allow(unused_mut))]
    let mut models = vec![
        ModelDef {
            name: "mp_publish",
            what: "release/acquire publication: reader sees the value after the flag",
            preemption_bound: 5,
            cap: DEFAULT_MAX_ITERATIONS,
            body: mp_publish,
        },
        ModelDef {
            name: "handshake_ack",
            what: "shutdown-ack handshake (PR-4): predicate loop under one mutex",
            preemption_bound: 5,
            cap: DEFAULT_MAX_ITERATIONS,
            body: handshake_ack,
        },
        ModelDef {
            name: "relaxed_counter_total",
            what: "relaxed RMW counters: no increment lost across three threads",
            preemption_bound: 2,
            cap: DEFAULT_MAX_ITERATIONS,
            body: relaxed_counter_total,
        },
    ];
    #[cfg(retypd_model_check)]
    models.extend([
        ModelDef {
            name: "interner_double_miss",
            what: "Interner: concurrent double miss inserts once, one canonical pointer",
            preemption_bound: 4,
            cap: DEFAULT_MAX_ITERATIONS,
            body: interner_double_miss,
        },
        ModelDef {
            name: "histogram_concurrent_record",
            what: "telemetry Histogram: concurrent records + snapshot, exact after join",
            preemption_bound: 4,
            cap: DEFAULT_MAX_ITERATIONS,
            body: histogram_concurrent_record,
        },
        ModelDef {
            name: "admission_all_or_nothing",
            what: "Admission: batches admit all-or-nothing, limit never exceeded",
            preemption_bound: 3,
            cap: DEFAULT_MAX_ITERATIONS,
            body: admission_all_or_nothing,
        },
        ModelDef {
            name: "admission_drain_election",
            what: "Admission: concurrent begin_drain elects exactly one winner",
            preemption_bound: 3,
            cap: DEFAULT_MAX_ITERATIONS,
            body: admission_drain_election,
        },
        ModelDef {
            name: "admission_slot_guard",
            what: "Admission: RAII slot guard releases on drop under contention",
            preemption_bound: 5,
            cap: DEFAULT_MAX_ITERATIONS,
            body: admission_slot_guard,
        },
        ModelDef {
            name: "stats_cells_publish_snapshot",
            what: "ShardStatsCells (PR-8): snapshot mixes only published values",
            preemption_bound: 1,
            cap: 2_000,
            body: stats_cells_publish_snapshot,
        },
    ]);
    models
}

/// The deliberately broken models. Every one of these MUST fail under
/// exploration — they are the proof the checker still has teeth.
pub fn mutations() -> Vec<ModelDef> {
    vec![
        ModelDef {
            name: "mp_publish_weakened",
            what: "MUTATION: release store weakened to relaxed — a data race appears",
            preemption_bound: 5,
            cap: DEFAULT_MAX_ITERATIONS,
            body: mp_publish_weakened,
        },
        ModelDef {
            name: "handshake_lost_wakeup",
            what: "MUTATION: ack flag outside the mutex — a lost wakeup deadlocks",
            preemption_bound: 5,
            cap: DEFAULT_MAX_ITERATIONS,
            body: handshake_lost_wakeup,
        },
    ]
}
