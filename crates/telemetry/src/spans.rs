//! Structured tracing spans: per-thread ring buffers of
//! `{trace_id, span, start_ns, dur_ns}` events behind RAII guards.
//!
//! The subscriber is **off by default**. When off, [`span`] costs one relaxed
//! atomic load and its guard's `Drop` does nothing — instrumentation can stay
//! in release binaries with no measurable cost (perfbench's
//! `trace.overhead_ratio` measures this). When on, finishing a span writes one fixed-size event into a
//! preallocated per-thread ring buffer: no locks shared between threads on
//! the hot path, no allocation after a thread's first span.
//!
//! Events carry the *current trace id*, a thread-local value established with
//! [`set_current_trace`] (serve derives it from the wire `trace_id` envelope
//! field; the driver's scheduler forwards it into worker threads), so one
//! request's spans can be picked back out of a multi-tenant stream.
//!
//! [`drain_spans`] collects every thread's events (oldest dropped on ring
//! overflow) and [`chrome_trace_json`] renders them as Chrome-trace JSONL
//! (`about://tracing`, Perfetto, speedscope all open it).

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::{Arc, Mutex, OnceLock};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Per-thread ring capacity, in events. A solve emits a handful of spans per
/// SCC; 16Ki events absorb the largest bench corpus with room to spare.
const RING_CAPACITY: usize = 16 * 1024;

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide monotonic clock origin, fixed on first use so event
/// timestamps from different threads share one timeline.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide telemetry epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn the span subscriber on or off. Off is the default; while off, span
/// guards are no-ops.
pub fn set_spans_enabled(enabled: bool) {
    // Make sure the epoch predates every event so timestamps never underflow.
    let _ = epoch();
    SPANS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the span subscriber is currently on.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace this span belongs to (0 = untraced).
    pub trace_id: u64,
    /// Static span name, e.g. `"core.saturate"`.
    pub name: &'static str,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Ring {
    /// Dense id used as the Chrome-trace `tid`.
    thread: u64,
    buf: Vec<SpanEvent>,
    /// Next write position; wraps at capacity.
    next: usize,
    /// Total events ever written (so drain knows how much wrapped).
    written: u64,
}

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % RING_CAPACITY;
        self.written += 1;
    }

    fn drain(&mut self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == RING_CAPACITY {
            // Oldest-first: the slot after `next` is the oldest surviving.
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        self.buf.clear();
        self.next = 0;
        out
    }
}

fn ring_registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    // The thread's own ring. The inner mutex is uncontended except during a
    // drain; `Arc` keeps the ring alive in the registry after thread exit so
    // short-lived worker threads don't lose their events.
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

fn with_local_ring(f: impl FnOnce(&mut Ring)) {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring {
                thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
                buf: Vec::with_capacity(RING_CAPACITY.min(1024)),
                next: 0,
                written: 0,
            }));
            ring_registry().lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        f(&mut ring.lock().unwrap());
    });
}

/// The current thread's trace id (0 = untraced).
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// Establish `trace_id` as the current trace for this thread until the
/// returned guard drops (the previous value is restored — nesting works).
#[must_use = "the trace is only current while the guard lives"]
pub fn set_current_trace(trace_id: u64) -> TraceGuard {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace_id));
    TraceGuard { prev }
}

/// Restores the previously current trace id on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// FNV-1a hash of a wire trace-id string, for stamping span events. Stable
/// across processes so offline tooling can re-derive it from the string.
pub fn trace_id_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // Reserve 0 for "untraced".
    if h == 0 {
        1
    } else {
        h
    }
}

/// Start a span. Records on guard drop if the subscriber is enabled at both
/// start and finish; otherwise a no-op.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let start_ns = if spans_enabled() { now_ns() } else { u64::MAX };
    SpanGuard { name, start_ns }
}

/// RAII span handle from [`span`]; the span finishes when this drops.
#[derive(Debug)]
#[must_use = "a span measures until its guard drops"]
pub struct SpanGuard {
    name: &'static str,
    /// `u64::MAX` marks a disarmed (subscriber-off) guard.
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.start_ns == u64::MAX || !spans_enabled() {
            return;
        }
        let end = now_ns();
        let ev = SpanEvent {
            trace_id: current_trace(),
            name: self.name,
            thread: 0, // stamped by the ring below
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
        };
        with_local_ring(|ring| {
            let mut ev = ev;
            ev.thread = ring.thread;
            ring.push(ev);
        });
    }
}

/// Collect and clear every thread's buffered events, oldest-first per thread,
/// globally sorted by `(start_ns, thread)`. Also returns the number of events
/// lost to ring overflow since the last drain.
pub fn drain_spans() -> (Vec<SpanEvent>, u64) {
    let rings = ring_registry().lock().unwrap();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        let mut ring = ring.lock().unwrap();
        let kept = ring.drain();
        dropped += ring.written - kept.len() as u64;
        ring.written = 0;
        events.extend(kept);
    }
    events.sort_by_key(|e| (e.start_ns, e.thread));
    (events, dropped)
}

/// Render events as Chrome-trace JSONL: one complete-duration (`"ph":"X"`)
/// object per line, timestamps in microseconds as the format requires,
/// `trace_id` carried in `args`. An empty trailing newline terminates output.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"trace_id\":\"{:016x}\"}}}}\n",
            e.name,
            e.thread,
            e.start_ns / 1_000,
            e.start_ns % 1_000,
            e.dur_ns / 1_000,
            e.dur_ns % 1_000,
            e.trace_id,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state (the enable flag and ring
    // registry), so they run under one lock to stay order-independent.
    fn span_test_lock() -> loom::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = span_test_lock();
        set_spans_enabled(false);
        drop(drain_spans());
        {
            let _g = span("noop");
        }
        let (events, dropped) = drain_spans();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn spans_carry_trace_and_nest() {
        let _l = span_test_lock();
        set_spans_enabled(true);
        drop(drain_spans());
        {
            let _t = set_current_trace(7);
            let _outer = span("outer");
            {
                let _t2 = set_current_trace(9);
                let _inner = span("inner");
            }
            assert_eq!(current_trace(), 7);
        }
        assert_eq!(current_trace(), 0);
        set_spans_enabled(false);
        let (events, _) = drain_spans();
        let inner = events.iter().find(|e| e.name == "inner").expect("inner recorded");
        let outer = events.iter().find(|e| e.name == "outer").expect("outer recorded");
        assert_eq!(inner.trace_id, 9);
        assert_eq!(outer.trace_id, 7);
        // Inner finished first but started later; the outer span must
        // enclose it on the shared timeline.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);
    }

    #[test]
    fn cross_thread_events_share_the_timeline() {
        let _l = span_test_lock();
        set_spans_enabled(true);
        drop(drain_spans());
        // retypd-lint: allow(no-raw-thread) scoped spawns are not modeled
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _t = set_current_trace(5);
                    let _g = span("worker");
                });
            }
        });
        set_spans_enabled(false);
        let (events, _) = drain_spans();
        let workers: Vec<_> = events.iter().filter(|e| e.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        // Distinct ring/thread ids, same trace.
        let mut tids: Vec<u64> = workers.iter().map(|e| e.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3);
        assert!(workers.iter().all(|e| e.trace_id == 5));
        // Drained means drained.
        assert!(drain_spans().0.is_empty());
    }

    #[test]
    fn chrome_trace_lines_parse_shape() {
        let events = vec![SpanEvent {
            trace_id: 0xabc,
            name: "core.saturate",
            thread: 2,
            start_ns: 1_234_567,
            dur_ns: 89_012,
        }];
        let text = chrome_trace_json(&events);
        let line = text.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"name\":\"core.saturate\""));
        assert!(line.contains("\"ph\":\"X\""));
        assert!(line.contains("\"tid\":2"));
        assert!(line.contains("\"ts\":1234.567"));
        assert!(line.contains("\"dur\":89.012"));
        assert!(line.contains("\"trace_id\":\"0000000000000abc\""));
    }

    #[test]
    fn trace_id_hash_is_stable_and_nonzero() {
        assert_eq!(trace_id_hash("req-1"), trace_id_hash("req-1"));
        assert_ne!(trace_id_hash("req-1"), trace_id_hash("req-2"));
        assert_ne!(trace_id_hash(""), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut ring = Ring { thread: 1, buf: Vec::new(), next: 0, written: 0 };
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(SpanEvent {
                trace_id: 0,
                name: "x",
                thread: 1,
                start_ns: i,
                dur_ns: 0,
            });
        }
        let kept = ring.drain();
        assert_eq!(kept.len(), RING_CAPACITY);
        // Oldest-first and the 10 oldest are gone.
        assert_eq!(kept[0].start_ns, 10);
        assert_eq!(kept.last().unwrap().start_ns, RING_CAPACITY as u64 + 9);
        assert_eq!(ring.written - kept.len() as u64, 10);
    }
}
