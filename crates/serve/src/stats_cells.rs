//! Lock-free per-shard statistics cells.
//!
//! One shard thread `publish`es after every job and any number of `stats`
//! probes `snapshot` concurrently — plain relaxed stores and loads, one
//! atomic cell per field, no lock. The previous design republished a
//! whole `WireShardStats` under a `Mutex` per job, so a probe could
//! contend with the solve loop (and vice versa); independent counters
//! never need that coherence. A snapshot may mix fields from two adjacent
//! publishes, which is fine: every field is individually monotone over a
//! shard's life (entry gauges move with the cache but are re-read whole),
//! and the wire contract promises freshness, not a consistent cut.
//!
//! Ordering: every access is `Relaxed` by design — see the policy in
//! `retypd_core::sync`. The model-checked regression for this protocol
//! (publish concurrent with snapshot; counters never travel backwards)
//! lives in `crates/conc-check`.

use retypd_core::sync::atomic::{AtomicU64, Ordering};

use retypd_driver::{AnalysisDriver, CacheStats, PersistStats};

use crate::wire::WireShardStats;

/// One shard's published statistics, one atomic cell per field.
#[derive(Debug, Default)]
pub struct ShardStatsCells {
    jobs: AtomicU64,
    rebuilds: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    scheme_entries: AtomicU64,
    refine_entries: AtomicU64,
    persisted_entries: AtomicU64,
    replayed_entries: AtomicU64,
    replay_ns: AtomicU64,
}

impl ShardStatsCells {
    /// Refreshes every cell from the shard's driver. Runs on the shard
    /// thread (the only writer), so the driver walk never blocks a probe.
    pub fn publish(&self, driver: &AnalysisDriver<'static>, jobs: u64, rebuilds: u64) {
        let cache = driver.cache_stats();
        let persist = driver.persist_stats().unwrap_or_default();
        self.publish_counts(jobs, rebuilds, &cache, &persist);
    }

    /// The driver-independent publish: stores every field. Split out from
    /// [`ShardStatsCells::publish`] so the model-checked tests can drive
    /// the cells with synthetic counter values (no driver in a model).
    pub fn publish_counts(
        &self,
        jobs: u64,
        rebuilds: u64,
        cache: &CacheStats,
        persist: &PersistStats,
    ) {
        self.jobs.store(jobs, Ordering::Relaxed);
        self.rebuilds.store(rebuilds, Ordering::Relaxed);
        self.hits.store(cache.hits, Ordering::Relaxed);
        self.misses.store(cache.misses, Ordering::Relaxed);
        self.evictions.store(cache.evictions, Ordering::Relaxed);
        self.scheme_entries
            .store(cache.scheme_entries as u64, Ordering::Relaxed);
        self.refine_entries
            .store(cache.refine_entries as u64, Ordering::Relaxed);
        self.persisted_entries
            .store(persist.persisted_entries, Ordering::Relaxed);
        self.replayed_entries
            .store(persist.replayed_entries, Ordering::Relaxed);
        self.replay_ns.store(persist.replay_ns, Ordering::Relaxed);
    }

    /// Reads every cell into a wire snapshot, tagged with the shard index.
    pub fn snapshot(&self, shard: usize) -> WireShardStats {
        WireShardStats {
            shard,
            jobs: self.jobs.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            cache: CacheStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                evictions: self.evictions.load(Ordering::Relaxed),
                scheme_entries: self.scheme_entries.load(Ordering::Relaxed) as usize,
                refine_entries: self.refine_entries.load(Ordering::Relaxed) as usize,
            },
            persisted_entries: self.persisted_entries.load(Ordering::Relaxed),
            replayed_entries: self.replayed_entries.load(Ordering::Relaxed),
            replay_ns: self.replay_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_the_latest_publish() {
        let cells = ShardStatsCells::default();
        let cache = CacheStats {
            hits: 7,
            misses: 3,
            evictions: 1,
            scheme_entries: 5,
            refine_entries: 4,
        };
        let persist = PersistStats {
            persisted_entries: 9,
            replayed_entries: 2,
            replay_ns: 123,
            ..PersistStats::default()
        };
        cells.publish_counts(10, 1, &cache, &persist);
        let snap = cells.snapshot(3);
        assert_eq!(snap.shard, 3);
        assert_eq!(snap.jobs, 10);
        assert_eq!(snap.rebuilds, 1);
        assert_eq!((snap.cache.hits, snap.cache.misses), (7, 3));
        assert_eq!(snap.cache.evictions, 1);
        assert_eq!(
            (snap.cache.scheme_entries, snap.cache.refine_entries),
            (5, 4)
        );
        assert_eq!(snap.persisted_entries, 9);
        assert_eq!((snap.replayed_entries, snap.replay_ns), (2, 123));
    }
}
