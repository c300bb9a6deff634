//! End-to-end warm-restart tests: a server relaunched on the same
//! `persist_dir` must serve bit-identical reports to its previous
//! incarnation *from cache* — 100% hits on the resubmitted corpus, with
//! the shard stats reporting the replay — at 1 shard and at 3 shards
//! (routing is by content fingerprint, so the same shard count maps each
//! module back onto the shard that persisted it).

use std::path::PathBuf;

use retypd_core::sync::atomic::{AtomicU64, Ordering};

use retypd_driver::ModuleJob;
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};
use retypd_serve::{start, Client, ServeConfig};

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "retypd-serve-persist-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn corpus() -> Vec<ModuleJob> {
    let spec = ClusterSpec {
        name: "persist".into(),
        members: 3,
        shared_functions: 5,
        member_functions: 2,
        seed: 9091,
        call_depth: 4,
    };
    ProgramGenerator::generate_cluster(&spec)
        .iter()
        .map(|(name, module)| {
            let (mir, _) = compile(module).expect("cluster member compiles");
            ModuleJob {
                name: name.clone(),
                program: retypd_congen::generate(&mir),
            }
        })
        .collect()
}

fn config(shards: usize, dir: &TempDir) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        workers_per_shard: 1,
        queue_depth: 64,
        cache_capacity: Some(1024),
        persist_dir: Some(dir.0.clone()),
        ..ServeConfig::default()
    }
}

fn restart_round_trip(shards: usize) {
    let dir = TempDir::new();
    let jobs = corpus();

    // --- First incarnation: cold, populates the per-shard stores. ---
    let first: Vec<String> = {
        let handle = start(config(shards, &dir)).expect("bind first server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let reports = client.solve_batch(&jobs).expect("first solve");
        // A shard's store appends and flushes as each solve ends, and the
        // shard publishes its gauges before it replies, so one read after
        // the solve sees every persisted entry.
        let stats = client.stats().expect("stats");
        let replayed: u64 = stats.shards.iter().map(|s| s.replayed_entries).sum();
        let persisted: u64 = stats.shards.iter().map(|s| s.persisted_entries).sum();
        let misses: u64 = stats.shards.iter().map(|s| s.cache.misses).sum();
        assert_eq!(replayed, 0, "a fresh dir has nothing to replay");
        assert!(persisted > 0, "cold solves must persist scheme records");
        assert!(misses > 0, "first contact is cold");
        client.shutdown().expect("drain");
        handle.join();
        reports.iter().map(|r| r.canonical_text()).collect()
    };
    for shard_id in 0..shards {
        assert!(
            dir.0.join(format!("shard-{shard_id}.store")).exists(),
            "shard {shard_id} left no store file"
        );
    }

    // --- Second incarnation: same dir, same shard count — warm. ---
    let handle = start(config(shards, &dir)).expect("bind restarted server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // The replay gauges are visible before the first job arrives.
    let stats = client.stats().expect("stats before first job");
    let replayed: u64 = stats.shards.iter().map(|s| s.replayed_entries).sum();
    assert!(replayed > 0, "restart must replay the persisted stores");
    assert!(stats.shards.iter().all(|s| s.rebuilds == 0));

    let reports = client.solve_batch(&jobs).expect("restarted solve");
    let second: Vec<String> = reports.iter().map(|r| r.canonical_text()).collect();
    assert_eq!(second, first, "restart must be bit-identical");

    let stats = client.stats().expect("stats after warm solve");
    let hits: u64 = stats.shards.iter().map(|s| s.cache.hits).sum();
    let misses: u64 = stats.shards.iter().map(|s| s.cache.misses).sum();
    assert_eq!(misses, 0, "a replayed store leaves nothing to re-solve");
    assert!(hits > 0, "warm restart must hit the replayed cache");
    client.shutdown().expect("drain");
    handle.join();
}

#[test]
fn restart_is_bit_identical_and_fully_cached_at_1_shard() {
    restart_round_trip(1);
}

#[test]
fn restart_is_bit_identical_and_fully_cached_at_3_shards() {
    restart_round_trip(3);
}
