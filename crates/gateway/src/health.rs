//! Backend health classification.
//!
//! The health checker periodically sends each backend the ordinary
//! `stats` wire request and feeds the raw reply bytes through
//! [`classify_stats_reply`] — a **pure, panic-free** function, separated
//! out precisely so the fuzzer can drive it with mutated backend replies:
//! a backend that answers with garbage must *degrade to unhealthy*, never
//! take the router down with it. (`retypd-fuzz`'s grammar tier mutates
//! real stats replies against this function, and the `gwstats_*` corpus
//! entries replay the survivors.)

use retypd_serve::wire::{Response, WireStats};

/// What a health probe learned about a backend.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// The decoded stats reply (pid, start time, admission counters,
    /// per-shard cache/persistence gauges).
    pub stats: WireStats,
}

/// Classifies one backend `stats` reply. `Ok` means the backend is
/// healthy and the report carries its vitals; `Err` names why the reply
/// disqualifies it (the supervisor marks the backend unhealthy and evicts
/// it from the ring).
///
/// Every failure mode a peer can express — non-JSON bytes, JSON of the
/// wrong shape, a non-`stats` response kind, missing or type-confused
/// required fields, a structurally valid reply describing an impossible
/// server — lands in `Err`, not a panic: this function is the router's
/// blast door against a compromised or confused backend.
pub fn classify_stats_reply(payload: &[u8]) -> Result<ProbeReport, String> {
    let stats = match Response::decode(payload) {
        Ok(Response::Stats(s)) => s,
        Ok(other) => {
            return Err(format!(
                "stats probe answered with {:?} instead of stats",
                response_kind(&other)
            ))
        }
        Err(e) => return Err(format!("unreadable stats reply: {e}")),
    };
    // Shape sanity: `serve` clamps its queue depth to ≥ 1 and always runs
    // ≥ 1 shard, so a reply violating either describes something that is
    // not a healthy retypd-serve — treat it as such even though it parsed.
    if stats.queue_limit == 0 {
        return Err("stats reply claims a zero admission limit".into());
    }
    if stats.shards.is_empty() {
        return Err("stats reply lists no shards".into());
    }
    if stats.queued > stats.queue_limit {
        return Err(format!(
            "stats reply claims {} queued over a limit of {}",
            stats.queued, stats.queue_limit
        ));
    }
    Ok(ProbeReport { stats })
}

/// The response discriminator, for error messages (avoids dragging a full
/// `Debug` of a potentially huge mutated reply into logs).
fn response_kind(r: &Response) -> &'static str {
    match r {
        Response::Solved(_) => "solved",
        Response::Report { .. } => "report",
        Response::BatchDone(_) => "batch_done",
        Response::Stats(_) => "stats",
        Response::Overloaded { .. } => "overloaded",
        Response::Metrics(_) => "metrics",
        Response::ShuttingDown => "shutting_down",
        Response::Error(_) => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_serve::wire::{WireShardStats, WireStats};
    use retypd_driver::CacheStats;

    fn healthy_reply() -> Vec<u8> {
        Response::Stats(WireStats {
            accepted: 10,
            rejected: 0,
            queued: 1,
            queue_limit: 256,
            pid: 4242,
            start_ns: 1_700_000_000_000_000_000,
            shards: vec![WireShardStats {
                shard: 0,
                jobs: 10,
                rebuilds: 0,
                cache: CacheStats::default(),
                persisted_entries: 3,
                replayed_entries: 3,
                replay_ns: 1000,
            }],
        })
        .encode()
    }

    #[test]
    fn healthy_reply_classifies_healthy() {
        let report = classify_stats_reply(&healthy_reply()).expect("healthy");
        assert_eq!(report.stats.pid, 4242);
        assert_eq!(report.stats.shards.len(), 1);
    }

    #[test]
    fn garbage_and_wrong_kinds_degrade_not_panic() {
        // Raw garbage, truncated JSON, wrong kind, shape violations (the
        // complete replies listing no shards, an over-full queue and a
        // zero limit): all Err, none panic.
        for bad in [
            &b"\xff\xfe\x00garbage"[..],
            br#"{"kind": "stats""#,
            br#"{"kind": "shutting_down"}"#,
            br#"{"kind": "stats"}"#,
            br#"{"kind": "stats", "accepted": "many", "rejected": 0, "queued": 0, "queue_limit": 1, "shards": []}"#,
            br#"{"kind": "stats", "accepted": 1, "rejected": 0, "queued": 0, "queue_limit": 1, "pid": 1, "start_ns": 1, "shards": []}"#,
            br#"{"kind": "stats", "accepted": 1, "rejected": 0, "queued": 9, "queue_limit": 1, "pid": 1, "start_ns": 1, "shards": [{"shard": 0, "jobs": 1, "rebuilds": 0, "hits": 0, "misses": 1, "evictions": 0, "scheme_entries": 1, "refine_entries": 1, "persisted_entries": 0, "replayed_entries": 0, "replay_ns": 0}]}"#,
            br#"{"kind": "stats", "accepted": 1, "rejected": 0, "queued": 0, "queue_limit": 0, "pid": 1, "start_ns": 1, "shards": [{"shard": 0, "jobs": 1, "rebuilds": 0, "hits": 0, "misses": 1, "evictions": 0, "scheme_entries": 1, "refine_entries": 1, "persisted_entries": 0, "replayed_entries": 0, "replay_ns": 0}]}"#,
            // No pid/start_ns and no persistence gauges: a reply missing a
            // field this build writes does not decode.
            br#"{"kind": "stats", "accepted": 1, "rejected": 0, "queued": 0, "queue_limit": 8, "shards": [{"shard": 0, "jobs": 1, "hits": 1, "misses": 0, "evictions": 0, "scheme_entries": 1, "refine_entries": 1}]}"#,
        ] {
            assert!(
                classify_stats_reply(bad).is_err(),
                "should degrade: {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
