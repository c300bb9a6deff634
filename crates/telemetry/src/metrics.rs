//! Metrics registry: atomic counters, gauges, and fixed-bucket log-scale
//! histograms.
//!
//! The record path is lock-free: every instrument is a fistful of atomics,
//! and callers hold an `Arc` to the instrument so recording never touches
//! the registry lock (the lock exists only for registration and snapshots).
//!
//! # Bucket scheme
//!
//! Histograms use a fixed 256-bucket layout chosen for *determinism under
//! merging*, not for minimal error:
//!
//! - values `0..16` land in sixteen exact unit buckets;
//! - values `>= 16` land in log2 octaves split into 4 sub-buckets each
//!   (the leading bit picks the octave, the next two bits the sub-bucket),
//!   covering the full `u64` range.
//!
//! A quantile is reported as the *inclusive upper bound* of the bucket that
//! contains the target rank. Because that bound is a pure function of the
//! bucket index, merged histograms report bit-identical quantiles no matter
//! how the same samples were sharded before the merge — the property the
//! serve layer's 1-vs-N-shard determinism tests pin.

use loom::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};

/// Number of exact unit buckets at the bottom of the range.
const LINEAR_BUCKETS: usize = 16;
/// Sub-buckets per log2 octave above the linear range.
const SUB_BUCKETS: usize = 4;
/// Total bucket count: 16 linear + 4 per octave for octaves 4..=63.
pub const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - 4) * SUB_BUCKETS;

/// Map a sample to its bucket index. Total (every `u64` has a bucket).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_BUCKETS as u64 {
        value as usize
    } else {
        // Leading-one position is >= 4 here; the two bits below it pick the
        // sub-bucket within the octave.
        let msb = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (msb - 2)) & 0b11) as usize;
        LINEAR_BUCKETS + (msb - 4) * SUB_BUCKETS + sub
    }
}

/// Inclusive upper bound of a bucket — the deterministic value quantiles
/// report. Pure function of the index, independent of recorded samples.
#[inline]
pub fn bucket_bound(index: usize) -> u64 {
    if index < LINEAR_BUCKETS {
        index as u64
    } else {
        let msb = 4 + (index - LINEAR_BUCKETS) / SUB_BUCKETS;
        let sub = (index - LINEAR_BUCKETS) % SUB_BUCKETS;
        // The bucket holds values [ (4+sub) << (msb-2), ((5+sub) << (msb-2)) - 1 ].
        let upper = ((4 + sub as u128) + 1) << (msb - 2);
        u64::try_from(upper - 1).unwrap_or(u64::MAX)
    }
}

/// Monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log-scale histogram with a lock-free record path.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        // `AtomicU64` is not Copy; build the boxed array through a Vec.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("bucket count");
        Self { buckets, count: AtomicU64::new(0), sum: AtomicU64::new(0) }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Three relaxed atomic adds; no locks, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy (concurrent recording may skew
    /// `count` vs buckets by in-flight samples; quiesced reads are exact).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Owned copy of a histogram's state. Merging is plain per-bucket addition,
/// so it is associative and commutative by construction.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { count: 0, sum: 0, buckets: [0; NUM_BUCKETS] }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.quantile(50, 100))
            .field("p99", &self.quantile(99, 100))
            .finish()
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot in (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    /// The `numer/denom` quantile as the inclusive upper bound of the bucket
    /// containing that rank. `quantile(50, 100)` is the median. Returns 0 on
    /// an empty histogram.
    pub fn quantile(&self, numer: u64, denom: u64) -> u64 {
        assert!(denom > 0 && numer <= denom);
        if self.count == 0 {
            return 0;
        }
        // ceil(count * numer / denom), clamped to at least rank 1.
        let rank =
            ((self.count as u128 * numer as u128 + denom as u128 - 1) / denom as u128).max(1);
        let mut seen: u128 = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u128;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(NUM_BUCKETS - 1)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs, in
    /// ascending bound order — the wire representation.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
            .collect()
    }

    /// Rebuild a snapshot from `(upper_bound, count)` pairs as produced by
    /// [`Self::nonzero_buckets`]. Pairs whose bound is not a bucket bound are
    /// ignored. `sum` cannot be reconstructed from bounds, so it is taken as
    /// an argument.
    pub fn from_buckets(pairs: &[(u64, u64)], sum: u64) -> Self {
        let mut s = HistogramSnapshot { count: 0, sum, buckets: [0; NUM_BUCKETS] };
        for &(bound, c) in pairs {
            let idx = bucket_index(bound);
            if bucket_bound(idx) == bound {
                s.buckets[idx] += c;
                s.count += c;
            }
        }
        s
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named instrument store. Registration and snapshots take a mutex; the
/// instruments themselves are handed out as `Arc`s so the record path never
/// comes back here.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Vec<(String, Instrument)>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Registry { .. }")
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter with this name.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different instrument
    /// kind — that is always a programming error worth failing loudly on.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        for (n, inst) in inner.iter() {
            if n == name {
                match inst {
                    Instrument::Counter(c) => return Arc::clone(c),
                    _ => panic!("metric {name:?} already registered with another kind"),
                }
            }
        }
        let c = Arc::new(Counter::new());
        inner.push((name.to_string(), Instrument::Counter(Arc::clone(&c))));
        c
    }

    /// Get or register the gauge with this name (same panic contract as
    /// [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        for (n, inst) in inner.iter() {
            if n == name {
                match inst {
                    Instrument::Gauge(g) => return Arc::clone(g),
                    _ => panic!("metric {name:?} already registered with another kind"),
                }
            }
        }
        let g = Arc::new(Gauge::new());
        inner.push((name.to_string(), Instrument::Gauge(Arc::clone(&g))));
        g
    }

    /// Get or register the histogram with this name (same panic contract as
    /// [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        for (n, inst) in inner.iter() {
            if n == name {
                match inst {
                    Instrument::Histogram(h) => return Arc::clone(h),
                    _ => panic!("metric {name:?} already registered with another kind"),
                }
            }
        }
        let h = Arc::new(Histogram::new());
        inner.push((name.to_string(), Instrument::Histogram(Arc::clone(&h))));
        h
    }

    /// Point-in-time copy of every instrument, name-sorted for determinism.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, inst) in inner.iter() {
            match inst {
                Instrument::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Instrument::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Instrument::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap.sort();
        snap
    }
}

/// Merged, name-sorted view of one or more registries — the `metrics`
/// reply on the wire (serve and the gateway, which merges its backends'
/// replies with [`Self::merge`]) and the text exposition's source.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Merge another snapshot in: counters and gauges with the same name sum
    /// (shard gauges are per-shard quantities, so the merged value is the
    /// fleet total); histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn by_name<V: Clone>(
            dst: &mut Vec<(String, V)>,
            src: &[(String, V)],
            add: fn(&mut V, &V),
        ) {
            for (name, v) in src {
                match dst.iter_mut().find(|(n, _)| n == name) {
                    Some((_, cur)) => add(cur, v),
                    None => dst.push((name.clone(), v.clone())),
                }
            }
        }
        by_name(&mut self.counters, &other.counters, |cur, v| *cur += v);
        by_name(&mut self.gauges, &other.gauges, |cur, v| *cur += v);
        by_name(&mut self.histograms, &other.histograms, HistogramSnapshot::merge);
        self.sort();
    }

    /// The counter with this name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The gauge with this name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The histogram with this name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Prometheus-style text exposition. Counter/gauge lines plus, per
    /// histogram, cumulative `_bucket{le=..}` lines and `_count`/`_sum`.
    pub fn to_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (bound, c) in h.nonzero_buckets() {
                cum += c;
                out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        // Spot-check monotonicity over a sweep of the whole range.
        let mut prev = bucket_index(0);
        let mut v = 0u64;
        loop {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index regressed at {v}");
            assert!(idx < NUM_BUCKETS);
            assert!(bucket_bound(idx) >= v, "bound below sample at {v}");
            prev = idx;
            v = if v < 1024 { v + 1 } else { v.saturating_mul(2).saturating_add(7) };
            if v == u64::MAX {
                assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
                break;
            }
        }
    }

    #[test]
    fn bucket_boundary_pins() {
        // Exact unit buckets below 16.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
        // First octave: 16..32 in four sub-buckets of width 4.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(19), 16);
        assert_eq!(bucket_index(20), 17);
        assert_eq!(bucket_index(31), 19);
        assert_eq!(bucket_bound(16), 19);
        assert_eq!(bucket_bound(19), 31);
        // Octave starts are always a fresh bucket whose lower bound is the
        // previous bucket's bound + 1.
        for msb in 4..63 {
            let start = 1u64 << msb;
            let idx = bucket_index(start);
            assert_eq!(bucket_bound(idx - 1) + 1, start);
        }
        // Top of the range.
        assert_eq!(bucket_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_bounds_and_deterministic() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 200, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        let p50 = s.quantile(50, 100);
        // Rank ceil(6*0.5)=3 → the bucket holding sample `3`.
        assert_eq!(p50, 3);
        // Every reported quantile is some bucket's bound.
        for (n, d) in [(1, 100), (50, 100), (95, 100), (99, 100), (1, 1)] {
            let q = s.quantile(n, d);
            assert_eq!(bucket_bound(bucket_index(q)), q);
        }
        assert_eq!(s.quantile(1, 1), bucket_bound(bucket_index(5000)));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(50, 100), 0);
    }

    #[test]
    fn merge_is_associative_and_commutative_across_shardings() {
        // Deterministic sample stream, sharded three different ways; merged
        // quantiles must be bit-identical to the unsharded histogram's.
        let samples: Vec<u64> =
            (0..5000u64).map(|i| (i.wrapping_mul(2654435761) >> 7) % 1_000_000).collect();

        let whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let reference = whole.snapshot();

        for shards in [1usize, 2, 3, 7] {
            let parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
            for (i, &s) in samples.iter().enumerate() {
                parts[i % shards].record(s);
            }
            // Merge left-to-right...
            let mut merged = HistogramSnapshot::default();
            for p in &parts {
                merged.merge(&p.snapshot());
            }
            // ...and right-to-left.
            let mut merged_rev = HistogramSnapshot::default();
            for p in parts.iter().rev() {
                merged_rev.merge(&p.snapshot());
            }
            for (n, d) in [(50u64, 100u64), (95, 100), (99, 100)] {
                let q = reference.quantile(n, d);
                assert_eq!(merged.quantile(n, d), q, "shards={shards} p{n}");
                assert_eq!(merged_rev.quantile(n, d), q, "shards={shards} rev p{n}");
            }
            assert_eq!(merged.count, reference.count);
            assert_eq!(merged.sum, reference.sum);
            assert_eq!(merged.buckets, reference.buckets);
        }

        // Associativity: (a+b)+c == a+(b+c) on an uneven 3-way split.
        let thirds: Vec<HistogramSnapshot> = [0..100, 100..1500, 1500..5000]
            .into_iter()
            .map(|r| {
                let h = Histogram::new();
                for &s in &samples[r] {
                    h.record(s);
                }
                h.snapshot()
            })
            .collect();
        let mut left = thirds[0].clone();
        left.merge(&thirds[1]);
        left.merge(&thirds[2]);
        let mut right = thirds[1].clone();
        right.merge(&thirds[2]);
        let mut outer = thirds[0].clone();
        outer.merge(&right);
        assert_eq!(left.buckets, outer.buckets);
        assert_eq!(left.count, outer.count);
        assert_eq!(left.sum, outer.sum);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 20_000u64;
        // retypd-lint: allow(no-raw-thread) scoped spawns are not modeled
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record((t as u64).wrapping_mul(1_000_003).wrapping_add(i) % 50_000);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads as u64 * per_thread);
        assert_eq!(s.buckets.iter().map(|&c| c as u128).sum::<u128>(), s.count as u128);
    }

    #[test]
    fn wire_bucket_round_trip_preserves_quantiles() {
        let h = Histogram::new();
        for v in 0..10_000u64 {
            h.record(v * 37 % 90_000);
        }
        let s = h.snapshot();
        let rebuilt = HistogramSnapshot::from_buckets(&s.nonzero_buckets(), s.sum);
        assert_eq!(rebuilt.count, s.count);
        assert_eq!(rebuilt.buckets, s.buckets);
        for (n, d) in [(50u64, 100u64), (95, 100), (99, 100)] {
            assert_eq!(rebuilt.quantile(n, d), s.quantile(n, d));
        }
    }

    #[test]
    fn registry_snapshot_and_text_exposition() {
        let r = Registry::new();
        r.counter("requests.total").add(3);
        r.gauge("cache.entries").set(42);
        let h = r.histogram("latency.ns");
        h.record(10);
        h.record(1000);
        // Re-registration returns the same instrument.
        r.counter("requests.total").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("requests.total".into(), 4)]);
        assert_eq!(snap.gauges, vec![("cache.entries".into(), 42)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 2);

        let text = snap.to_text();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 4"));
        assert!(text.contains("cache_entries 42"));
        assert!(text.contains("latency_ns_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn snapshot_merge_sums_by_name() {
        let a = Registry::new();
        a.counter("jobs").add(2);
        let ha = a.histogram("h");
        ha.record(5);
        let b = Registry::new();
        b.counter("jobs").add(3);
        b.counter("only_b").inc();
        let hb = b.histogram("h");
        hb.record(7);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counters, vec![("jobs".into(), 5), ("only_b".into(), 1)]);
        assert_eq!(m.histograms[0].1.count, 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
