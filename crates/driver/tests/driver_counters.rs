//! The process-global driver counters agree with the driver's own
//! statistics when one driver solves a batch at full wave parallelism and
//! appends to its store as it solves. This file holds a single test, so
//! its test binary is the only thing touching the global registry.

use std::path::PathBuf;

use retypd_core::Lattice;
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};

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

/// Removes the store file even when an assertion fails.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn global_counters_match_driver_stats_under_a_concurrent_batch() {
    let store = TempFile(std::env::temp_dir().join(format!(
        "retypd-driver-counters-{}.store",
        std::process::id()
    )));
    let counter = |name: &str| retypd_telemetry::global().counter(name).get();
    let evictions_before = counter("driver.cache_evictions");
    let appends_before = counter("driver.store_append_frames");

    let lattice = Lattice::c_types();
    let driver = AnalysisDriver::with_config(
        &lattice,
        DriverConfig {
            workers: 4,
            cache_capacity: Some(2),
            persist_path: Some(store.0.clone()),
        },
    );
    let jobs: Vec<ModuleJob> = (0..8u64)
        .map(|i| generated_job(80 + i, 6 + i as usize))
        .collect();
    let reports = driver.solve_batch(&jobs);
    assert_eq!(reports.len(), jobs.len());
    driver.flush_store();

    let cache = driver.cache_stats();
    let persist = driver.persist_stats().expect("store opened");
    assert!(cache.evictions > 0, "capacity 2 must evict");
    assert_eq!(
        counter("driver.cache_evictions") - evictions_before,
        cache.evictions
    );
    assert!(persist.appended_entries > 0, "cold solves append");
    assert_eq!(
        counter("driver.store_append_frames") - appends_before,
        persist.appended_entries
    );
}
