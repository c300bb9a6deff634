//! Durability suite for the persistent scheme store: restart warmness,
//! kill-at-any-byte replay, content-fingerprint rejection, and compaction
//! equivalence. Everything here runs against real files in a per-test
//! temp directory — the store's contract is about surviving process
//! boundaries, so the tests cross them (by dropping and rebuilding
//! drivers on the same path, which is exactly what a restart does).

use retypd_core::sync::atomic::{AtomicU64, Ordering};
use retypd_core::sync::Barrier;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use retypd_core::{Condensation, Lattice, LatticeDescriptor, SolverResult};
use retypd_driver::store::{frame_record, MAGIC};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};

/// A unique temp file path per call (no tempfile crate in the vendored
/// workspace; pid + counter keeps parallel test binaries apart).
fn temp_store_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "retypd-store-test-{}-{tag}-{n}.store",
        std::process::id()
    ))
}

/// RAII cleanup so failed assertions don't leave files behind forever.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        TempFile(temp_store_path(tag))
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn generated_job(seed: u64, functions: usize) -> ModuleJob {
    let module = ProgramGenerator::new(GenConfig {
        seed,
        functions,
        structs: 3,
        ..GenConfig::default()
    })
    .generate();
    let (mir, _) = compile(&module).expect("generated module compiles");
    ModuleJob {
        name: format!("m{seed}"),
        program: retypd_congen::generate(&mir),
    }
}

fn render(result: &SolverResult) -> String {
    let mut out = String::new();
    for (name, pr) in &result.procs {
        let _ = writeln!(out, "{name}: {}", pr.scheme);
        let _ = writeln!(out, "  sketch: {:?}", pr.sketch);
        let _ = writeln!(out, "  general: {:?}", pr.general_sketch);
    }
    let _ = writeln!(out, "{:?}", result.inconsistencies);
    out
}

fn persistent_config(path: &Path) -> DriverConfig {
    DriverConfig {
        workers: 1,
        cache_capacity: None,
        persist_path: Some(path.to_path_buf()),
    }
}

/// The headline contract: a restarted driver replaying its store answers a
/// previously-seen corpus with 100% cache hits and bit-identical results.
#[test]
fn restart_replays_to_all_hits() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("restart");
    let jobs: Vec<ModuleJob> = [(61u64, 8usize), (62, 10)]
        .iter()
        .map(|&(s, f)| generated_job(s, f))
        .collect();

    let (reference, cold_misses) = {
        let driver = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
        let results: Vec<String> = jobs
            .iter()
            .map(|j| render(&driver.solve(&j.program)))
            .collect();
        // Generated modules may share the odd SCC (hence hits > 0 is
        // possible even cold); every *miss* becomes a persisted record.
        let stats = driver.cache_stats();
        assert!(stats.misses > 0);
        (results, stats.misses)
        // Each solve flushed its records as it returned: everything is on
        // disk now.
    };

    let restarted = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let persist = restarted.persist_stats().expect("store configured");
    assert_eq!(
        persist.replayed_entries, cold_misses,
        "every miss became a persisted, replayed entry"
    );
    assert_eq!(persist.dropped_records, 0);
    assert!(persist.replay_ns > 0);

    for (j, want) in jobs.iter().zip(&reference) {
        let got = restarted.solve(&j.program);
        assert_eq!(
            got.stats.cache_misses, 0,
            "restart must answer {} entirely from the replayed store",
            j.name
        );
        assert!(got.stats.cache_hits > 0);
        assert_eq!(render(&got), *want, "{}: replayed result differs", j.name);
    }
}

/// Pass-2 entries solved against a non-default lattice round-trip too:
/// the store records the lattice descriptor and replays against a
/// rebuilt, fingerprint-verified lattice.
#[test]
fn restart_replays_non_default_lattice_entries() {
    let c_types = Lattice::c_types();
    let store = TempFile::new("lattice");
    let descriptor: LatticeDescriptor = {
        let mut b = Lattice::c_types_builder();
        b.add_under("#StoreTestTag", "int").expect("fresh tag");
        b.le("⊥", "#StoreTestTag").expect("known");
        b.set_name("c_types_store_test");
        b.build()
            .expect("extended c_types is a lattice")
            .descriptor()
            .clone()
    };
    let job = generated_job(63, 6);

    let reference = {
        let driver = AnalysisDriver::with_config(&c_types, persistent_config(store.path()));
        let lattice = descriptor.build().expect("descriptor is valid");
        render(&driver.solve_in(&lattice, &job.program))
    };

    let restarted = AnalysisDriver::with_config(&c_types, persistent_config(store.path()));
    assert!(restarted.persist_stats().expect("store").replayed_entries > 0);
    let lattice = descriptor.build().expect("descriptor is valid");
    let result = restarted.solve_in(&lattice, &job.program);
    assert_eq!(result.stats.cache_misses, 0);
    assert_eq!(render(&result), reference);
}

/// Kill-at-any-byte: for *every* prefix of a valid log, replay must not
/// panic, must yield a usable (possibly empty) cache, and the repaired
/// file must accept and persist new appends.
#[test]
fn kill_at_any_byte_yields_usable_prefix() {
    let lattice = Lattice::c_types();
    let full = TempFile::new("kill-src");
    let job = generated_job(64, 3);
    let reference = {
        let driver = AnalysisDriver::with_config(&lattice, persistent_config(full.path()));
        render(&driver.solve(&job.program))
    };
    let bytes = std::fs::read(full.path()).expect("store file exists");
    assert!(bytes.len() > MAGIC.len(), "corpus must persist something");

    let truncated = TempFile::new("kill-dst");
    let mut max_replayed = 0u64;
    for cut in 0..=bytes.len() {
        std::fs::write(truncated.path(), &bytes[..cut]).expect("write truncated copy");
        let driver = AnalysisDriver::with_config(&lattice, persistent_config(truncated.path()));
        let persist = driver.persist_stats().expect("store configured");
        max_replayed = max_replayed.max(persist.replayed_entries);
        // Whatever survived, the solve is bit-identical to the reference.
        let got = driver.solve(&job.program);
        assert_eq!(render(&got), reference, "cut at byte {cut}");
    }
    assert!(
        max_replayed > 0,
        "full-length replay must recover the corpus"
    );

    // A torn tail is *repaired*: after replaying a mid-record cut, new
    // appends land after the valid prefix and a further restart sees them.
    let cut = bytes.len() - 1;
    std::fs::write(truncated.path(), &bytes[..cut]).expect("write torn copy");
    {
        let driver = AnalysisDriver::with_config(&lattice, persistent_config(truncated.path()));
        driver.solve(&job.program);
    }
    let repaired = AnalysisDriver::with_config(&lattice, persistent_config(truncated.path()));
    let warm = repaired.solve(&job.program);
    assert_eq!(warm.stats.cache_misses, 0, "repaired log replays fully");
    assert_eq!(render(&warm), reference);
}

/// A record whose frame checksum is valid but whose *content* fingerprint
/// does not match its decoded value is dropped on replay (content
/// addressing, not just frame integrity).
#[test]
fn fingerprint_mismatch_drops_the_record() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("tamper");
    let job = generated_job(65, 4);
    let (reference, clean_replayed) = {
        let driver = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
        let reference = render(&driver.solve(&job.program));
        drop(driver);
        let replayed = AnalysisDriver::with_config(&lattice, persistent_config(store.path()))
            .persist_stats()
            .expect("store")
            .replayed_entries;
        (reference, replayed)
    };

    // Re-frame the log with one payload's trailing fingerprint byte
    // flipped: pass-1 payloads end in the last scheme's fingerprint,
    // pass-2 payloads carry per-sketch fingerprints — either way the
    // frame checksum is recomputed so only content validation can object.
    let bytes = std::fs::read(store.path()).expect("store file exists");
    let mut rewritten = MAGIC.to_vec();
    let mut tampered = false;
    let mut pos = MAGIC.len();
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let mut payload = bytes[pos + 12..pos + 12 + len].to_vec();
        if !tampered && payload.first() == Some(&2) {
            *payload.last_mut().unwrap() ^= 0xff;
            tampered = true;
        }
        rewritten.extend_from_slice(&frame_record(&payload));
        pos += 12 + len;
    }
    assert!(tampered, "log must contain a pass-1 record");
    std::fs::write(store.path(), &rewritten).expect("rewrite tampered log");

    let driver = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let persist = driver.persist_stats().expect("store configured");
    assert_eq!(
        persist.replayed_entries,
        clean_replayed - 1,
        "exactly the tampered record is rejected"
    );
    assert!(persist.dropped_records >= 1);
    let got = driver.solve(&job.program);
    assert!(
        got.stats.cache_misses > 0,
        "the dropped entry re-solves as a miss"
    );
    assert_eq!(render(&got), reference, "rejection never corrupts results");
}

/// Compaction equivalence: replaying the compacted log reproduces the
/// live cache bit-identically (100% hits, identical results, same entry
/// count), and the log shrinks under eviction churn instead of growing
/// without bound.
#[test]
fn compaction_preserves_cache_contents() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("compact");
    let jobs: Vec<ModuleJob> = [(66u64, 6usize), (67, 8), (68, 7)]
        .iter()
        .map(|&(s, f)| generated_job(s, f))
        .collect();

    let driver = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let reference: Vec<String> = jobs
        .iter()
        .map(|j| render(&driver.solve(&j.program)))
        .collect();
    driver.flush_store();
    let appended_len = std::fs::metadata(store.path()).expect("store file").len();
    let live_entries = {
        let s = driver.cache_stats();
        (s.scheme_entries + s.refine_entries) as u64
    };

    driver.compact_store();
    let compacted_len = std::fs::metadata(store.path()).expect("store file").len();
    assert!(compacted_len <= appended_len);
    assert_eq!(driver.persist_stats().expect("store").compactions, 1);
    drop(driver);

    let restarted = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let persist = restarted.persist_stats().expect("store configured");
    assert_eq!(
        persist.replayed_entries, live_entries,
        "compacted log holds exactly the live entries"
    );
    for (j, want) in jobs.iter().zip(&reference) {
        let got = restarted.solve(&j.program);
        assert_eq!(
            got.stats.cache_misses, 0,
            "{}: compaction lost entries",
            j.name
        );
        assert_eq!(
            render(&got),
            *want,
            "{}: compaction changed results",
            j.name
        );
    }

    // Under eviction churn with a tiny capacity, dead records pile up in
    // the log; the auto-compaction threshold must eventually fire and keep
    // the file within a constant factor of the live set.
    let churn_store = TempFile::new("churn");
    let churn = AnalysisDriver::with_config(
        &lattice,
        DriverConfig {
            workers: 1,
            cache_capacity: Some(4),
            persist_path: Some(churn_store.path().to_path_buf()),
        },
    );
    for round in 0..30 {
        for j in &jobs {
            let _ = churn.solve(&j.program);
        }
        let _ = round;
    }
    let stats = churn.persist_stats().expect("store configured");
    assert!(stats.compactions > 0, "churn must trigger auto-compaction");
    assert!(
        stats.persisted_entries <= 8,
        "mirror tracks the bounded cache: {stats:?}"
    );
}

/// 64-bit FNV-1a over raw bytes: the digest the compaction golden test
/// pins the log with.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compaction output is pinned byte for byte: a fixed job set churned
/// through a small cache compacts to a known length and digest, and
/// replaying that log and compacting again rewrites the same bytes. Any
/// change to the record format, the compaction order or which records
/// survive shows here.
#[test]
fn compaction_bytes_are_pinned() {
    const COMPACTED_LEN: u64 = 9_444;
    const COMPACTED_FNV: u64 = 0x44a5_5b0b_d71d_15b7;
    let lattice = Lattice::c_types();
    let store = TempFile::new("golden");
    let jobs: Vec<ModuleJob> = [(71u64, 5usize), (72, 6), (73, 4), (74, 5)]
        .iter()
        .map(|&(s, f)| generated_job(s, f))
        .collect();
    let config = || DriverConfig {
        workers: 1,
        cache_capacity: Some(6),
        persist_path: Some(store.path().to_path_buf()),
    };

    let driver = AnalysisDriver::with_config(&lattice, config());
    for _round in 0..3 {
        for j in &jobs {
            let _ = driver.solve(&j.program);
        }
    }
    assert!(
        driver.cache_stats().evictions > 0,
        "the job set must churn the cache"
    );
    driver.compact_store();
    let compacted = std::fs::read(store.path()).expect("store file");
    drop(driver);
    assert_eq!(
        compacted.len() as u64,
        COMPACTED_LEN,
        "compacted log length"
    );
    assert_eq!(fnv1a64(&compacted), COMPACTED_FNV, "compacted log digest");

    let restarted = AnalysisDriver::with_config(&lattice, config());
    assert_eq!(restarted.persist_stats().expect("store").dropped_records, 0);
    restarted.compact_store();
    let again = std::fs::read(store.path()).expect("store file");
    assert_eq!(
        again, compacted,
        "replay + compaction must rewrite the same bytes"
    );
}

/// A live frame damaged on disk is dropped at compaction: the log is the
/// only copy of a persisted record, so compaction verifies every frame it
/// copies and leaves a damaged one out. A restart then replays every
/// other entry, rejects nothing, and re-solves exactly the lost SCC.
#[test]
fn damaged_live_frame_is_dropped_at_compaction() {
    use std::io::{Seek, SeekFrom, Write as _};

    let lattice = Lattice::c_types();
    let store = TempFile::new("damaged");
    let jobs: Vec<ModuleJob> = [(75u64, 6usize), (76, 5)]
        .iter()
        .map(|&(s, f)| generated_job(s, f))
        .collect();
    let driver = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let reference: Vec<String> = jobs
        .iter()
        .map(|j| render(&driver.solve(&j.program)))
        .collect();
    driver.flush_store();
    let live = driver.persist_stats().expect("store").persisted_entries;

    // Flip the last payload byte of the first pass-1 record in place,
    // leaving its frame checksum stale.
    let bytes = std::fs::read(store.path()).expect("store file exists");
    let mut pos = MAGIC.len();
    let target = loop {
        assert!(pos + 12 < bytes.len(), "log must contain a pass-1 record");
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if bytes[pos + 12] == 2 {
            break pos + 12 + len - 1;
        }
        pos += 12 + len;
    };
    let mut log = std::fs::OpenOptions::new()
        .write(true)
        .open(store.path())
        .expect("open log");
    log.seek(SeekFrom::Start(target as u64)).expect("seek");
    log.write_all(&[bytes[target] ^ 0xff])
        .expect("damage one byte");
    drop(log);

    driver.compact_store();
    drop(driver);

    let restarted = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let persist = restarted.persist_stats().expect("store configured");
    assert_eq!(
        persist.replayed_entries,
        live - 1,
        "exactly the damaged frame is gone"
    );
    assert_eq!(
        persist.dropped_records, 0,
        "compaction left no damaged frame behind"
    );
    let mut misses = 0;
    for (j, want) in jobs.iter().zip(&reference) {
        let got = restarted.solve(&j.program);
        misses += got.stats.cache_misses;
        assert_eq!(
            render(&got),
            *want,
            "{}: damaged frame changed results",
            j.name
        );
    }
    assert_eq!(
        misses, 1,
        "exactly the SCC whose frame was damaged re-solves"
    );
}

/// The widest pass-1 wave of a job's condensation: how many SCCs a
/// multi-worker driver solves at once.
fn widest_wave(job: &ModuleJob) -> usize {
    let waves = Condensation::compute(&job.program).waves();
    waves.iter().map(Vec::len).max().unwrap_or(0)
}

/// Generated jobs whose pass-1 waves run several SCCs side by side.
fn wide_jobs() -> Vec<ModuleJob> {
    let jobs: Vec<ModuleJob> = (81u64..87).map(|s| generated_job(s, 16)).collect();
    assert!(
        jobs.iter().all(|j| widest_wave(j) >= 2),
        "every job needs a wave 2 wide"
    );
    jobs
}

/// The worker count does not reach the log: the same job sequence on an
/// unbounded persisting driver leaves the same bytes at 1 and at 4
/// workers, before any compaction. A solve's inserts reach the writer in
/// task order, not in the order parallel wave workers finish.
#[test]
fn log_bytes_do_not_depend_on_worker_count() {
    let lattice = Lattice::c_types();
    let jobs = wide_jobs();
    let log_at = |workers: usize| {
        let store = TempFile::new(&format!("workers-{workers}"));
        let driver = AnalysisDriver::with_config(
            &lattice,
            DriverConfig {
                workers,
                ..persistent_config(store.path())
            },
        );
        for j in &jobs {
            let _ = driver.solve(&j.program);
        }
        driver.flush_store();
        assert_eq!(driver.persist_stats().expect("store").compactions, 0);
        std::fs::read(store.path()).expect("store file")
    };
    let sequential = log_at(1);
    assert!(
        sequential.len() > MAGIC.len(),
        "the jobs must append records"
    );
    assert!(
        log_at(4) == sequential,
        "4 workers wrote a different log than 1"
    );
}

/// With a cache smaller than a wave, each insert and the evictions it
/// causes reach the writer in the order the cache saw them, so after
/// every solve the store indexes exactly the entries the cache holds —
/// no evicted entry's frame stays indexed.
#[test]
fn bounded_store_indexes_exactly_the_cached_entries() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("bounded");
    let jobs = wide_jobs();
    let driver = AnalysisDriver::with_config(
        &lattice,
        DriverConfig {
            workers: 4,
            cache_capacity: Some(2),
            persist_path: Some(store.path().to_path_buf()),
        },
    );
    for round in 0..2 {
        for j in &jobs {
            let _ = driver.solve(&j.program);
            driver.flush_store();
            let cache = driver.cache_stats();
            assert_eq!(
                driver.persist_stats().expect("store").persisted_entries,
                (cache.scheme_entries + cache.refine_entries) as u64,
                "round {round}, {}: the store indexes entries the cache no longer holds",
                j.name
            );
        }
    }
    assert!(
        driver.cache_stats().evictions > 0,
        "the job set must churn the cache"
    );
}

/// A batch solves its modules one after another, each at the driver's
/// full wave parallelism, so with a cache smaller than a wave the store
/// still indexes exactly the entries the cache holds after every round.
/// Batches solved modules side by side once, and one module's solve
/// could evict an entry another had not yet handed to the store, leaving
/// a dead frame indexed.
#[test]
fn batch_store_indexes_exactly_the_cached_entries() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("batch");
    let jobs: Vec<ModuleJob> = (81u64..=92).map(|s| generated_job(s, 8)).collect();
    let driver = AnalysisDriver::with_config(
        &lattice,
        DriverConfig {
            workers: 4,
            cache_capacity: Some(2),
            persist_path: Some(store.path().to_path_buf()),
        },
    );
    for round in 0..5 {
        let _ = driver.solve_batch(&jobs);
        driver.flush_store();
        let cache = driver.cache_stats();
        assert_eq!(
            driver.persist_stats().expect("store").persisted_entries,
            (cache.scheme_entries + cache.refine_entries) as u64,
            "round {round}: the store indexes entries the cache no longer holds"
        );
    }
}

/// Two threads solving on one driver keep the store exact: each insert
/// and the evictions it causes reach the log under the store's lock, in
/// the order the cache saw them, so with a cache smaller than a wave the
/// store indexes exactly the entries the cache holds after every round.
/// With a writer thread fed one batch per solve, two solves' batches
/// could reach it in another order than their cache inserts, and an
/// eviction then missed a frame not yet indexed.
#[test]
fn concurrent_solves_keep_the_store_exact() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("concurrent");
    let jobs = wide_jobs();
    let (left, right) = jobs.split_at(jobs.len() / 2);
    let driver = AnalysisDriver::with_config(
        &lattice,
        DriverConfig {
            workers: 2,
            cache_capacity: Some(2),
            persist_path: Some(store.path().to_path_buf()),
        },
    );
    // Both threads start each round together, so their solves overlap.
    let start = Barrier::new(2);
    for round in 0..5 {
        // retypd-lint: allow(no-raw-thread) scoped spawns are not modeled
        std::thread::scope(|scope| {
            for half in [left, right] {
                let (driver, start) = (&driver, &start);
                scope.spawn(move || {
                    start.wait();
                    for j in half {
                        let _ = driver.solve(&j.program);
                    }
                });
            }
        });
        driver.flush_store();
        let cache = driver.cache_stats();
        assert_eq!(
            driver.persist_stats().expect("store").persisted_entries,
            (cache.scheme_entries + cache.refine_entries) as u64,
            "round {round}: the store indexes entries the cache no longer holds"
        );
    }
    assert!(
        driver.cache_stats().evictions > 0,
        "the job set must churn the cache"
    );
}

/// A solve's records are in the file when it returns, with no
/// `flush_store`: the file is as long as the store says, and a second
/// driver opened on the same path while the first is still alive replays
/// every entry the first one persisted.
#[test]
fn solve_leaves_its_records_on_disk() {
    let lattice = Lattice::c_types();
    let store = TempFile::new("on-disk");
    let jobs: Vec<ModuleJob> = [(61u64, 8usize), (62, 10)]
        .iter()
        .map(|&(s, f)| generated_job(s, f))
        .collect();
    let driver = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    for j in &jobs {
        let _ = driver.solve(&j.program);
    }
    let persist = driver.persist_stats().expect("store");
    let cache = driver.cache_stats();
    assert!(
        persist.persisted_entries > 0,
        "the jobs must persist entries"
    );
    assert_eq!(
        persist.persisted_entries,
        (cache.scheme_entries + cache.refine_entries) as u64,
        "the store has not indexed every entry the solves made"
    );
    let len = std::fs::metadata(store.path()).expect("store file").len();
    assert_eq!(
        len, persist.log_bytes,
        "the solve's records are not all in the file"
    );

    let second = AnalysisDriver::with_config(&lattice, persistent_config(store.path()));
    let replayed = second.persist_stats().expect("store");
    assert_eq!(replayed.replayed_entries, persist.persisted_entries);
    assert_eq!(replayed.dropped_records, 0);
    drop(driver);
}
