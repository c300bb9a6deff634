//! Parallel-determinism and cache-correctness tests on the benchmark
//! generators: `AnalysisDriver` must produce bit-identical schemes and
//! sketches at any worker count — equal to the sequential
//! `Solver::infer` — and a re-submitted module must be answered entirely
//! from the fingerprint cache.

use std::fmt::Write as _;

use retypd_core::{Condensation, Lattice, Solver, SolverResult};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, GenConfig, ProgramGenerator};

fn generated_program(seed: u64, functions: usize) -> retypd_core::Program {
    let module = ProgramGenerator::new(GenConfig {
        seed,
        functions,
        structs: 3,
        ..GenConfig::default()
    })
    .generate();
    let (mir, _) = compile(&module).expect("generated module compiles");
    retypd_congen::generate(&mir)
}

/// Canonical rendering of everything inference produced: schemes, refined
/// and general sketches (structure, marks, and intervals via `Debug`), and
/// inconsistencies. Excludes timing/cache counters by construction.
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

fn sketch_count(result: &SolverResult) -> usize {
    result.stats.sketch_states
}

#[test]
fn workers_do_not_change_results_on_bench_generators() {
    let lattice = Lattice::c_types();
    for (seed, functions) in [(3, 10), (7, 18), (11, 26)] {
        let program = generated_program(seed, functions);
        let sccs = Condensation::compute(&program).sccs.len();
        let seq = Solver::new(&lattice).infer(&program);
        let seq_render = render(&seq);
        // One saturation per SCC: pass 1 builds each SCC's graph once for
        // all its members, and pass 2 reuses it.
        assert_eq!(
            seq.stats.phases.saturations, sccs as u64,
            "seed {seed}: Solver::infer"
        );
        for workers in [1usize, 2, 4, 8] {
            let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(workers));
            let got = driver.solve(&program);
            assert_eq!(
                render(&got),
                seq_render,
                "seed {seed}, {functions} fns, {workers} workers: schemes/sketches diverged"
            );
            assert_eq!(
                sketch_count(&got),
                sketch_count(&seq),
                "seed {seed}, {functions} fns, {workers} workers: sketch counts diverged"
            );
            // The wave-scheduled solve does exactly one pass-1 and one
            // pass-2 unit of work per SCC on a cold cache, and saturates
            // each SCC once.
            assert_eq!(got.stats.cache_misses, 2 * sccs as u64);
            assert_eq!(
                got.stats.phases.saturations, sccs as u64,
                "seed {seed}, {workers} workers"
            );
            // A warm solve answers every SCC from cache and saturates none.
            let warm = driver.solve(&program);
            assert_eq!(warm.stats.cache_misses, 0);
            assert_eq!(
                warm.stats.phases.saturations, 0,
                "seed {seed}, {workers} workers: warm"
            );
        }
    }
}

#[test]
fn resubmitted_module_is_pure_fingerprint_hit() {
    let lattice = Lattice::c_types();
    let program = generated_program(5, 16);
    let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(2));
    let first = driver.solve(&program);
    assert_eq!(first.stats.cache_hits, 0, "cold cache cannot hit");
    assert!(first.stats.cache_misses > 0);
    let second = driver.solve(&program);
    assert_eq!(
        second.stats.cache_misses, 0,
        "identical module must be answered 100% from the cache"
    );
    assert_eq!(second.stats.cache_hits, first.stats.cache_misses);
    assert_eq!(render(&first), render(&second));
    // Exact stats parity too: cached entries carry their stats deltas.
    assert_eq!(first.stats.sketch_states, second.stats.sketch_states);
    assert_eq!(first.stats.graph_nodes, second.stats.graph_nodes);
    assert_eq!(first.stats.constraints, second.stats.constraints);
}

#[test]
fn batch_shares_scheme_work_across_cluster_members() {
    // Cluster members share a library module; the driver must recognize the
    // shared SCCs by fingerprint and re-solve only member-specific code.
    // The deep input appends a `call_depth`-long call chain to every member,
    // so each module condenses to at least that many waves. Each batch ends
    // with a verbatim re-submission of its first member.
    let lattice = Lattice::c_types();
    for call_depth in [0usize, 6] {
        let spec = ClusterSpec {
            name: "t".into(),
            members: 3,
            shared_functions: 6,
            member_functions: 3,
            seed: 99,
            call_depth,
        };
        let mut jobs: Vec<ModuleJob> = ProgramGenerator::generate_cluster(&spec)
            .iter()
            .map(|(name, module)| {
                let (mir, _) = compile(module).expect("cluster member compiles");
                ModuleJob {
                    name: name.clone(),
                    program: retypd_congen::generate(&mir),
                }
            })
            .collect();
        let members = jobs.len();
        jobs.push(ModuleJob {
            name: format!("{}+resubmit", jobs[0].name),
            program: jobs[0].program.clone(),
        });
        for j in &jobs {
            let waves = Condensation::compute(&j.program).waves().len();
            assert!(
                waves >= call_depth,
                "call_depth {call_depth}: {} condenses to only {waves} waves",
                j.name
            );
        }
        // Sequential batch: deterministic hit accounting.
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
        let reports = driver.solve_batch(&jobs);
        assert_eq!(reports[0].result.stats.cache_hits, 0);
        for r in &reports[1..members] {
            assert!(
                r.result.stats.cache_hits > 0,
                "member {} shares library SCCs but hit nothing",
                r.name
            );
        }
        for r in &reports[members..] {
            assert_eq!(
                r.result.stats.cache_misses, 0,
                "{} was not a pure hit",
                r.name
            );
        }
        // A parallel batch produces the same per-module results.
        let par = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(4));
        let preports = par.solve_batch(&jobs);
        for (a, b) in reports.iter().zip(&preports) {
            assert_eq!(a.name, b.name);
            assert_eq!(render(&a.result), render(&b.result), "module {}", a.name);
        }
    }
}

#[test]
fn solve_batch_reports_in_job_order() {
    let lattice = Lattice::c_types();
    let jobs: Vec<ModuleJob> = [(21u64, 6usize), (22, 8), (23, 10), (24, 12)]
        .iter()
        .map(|&(seed, fns)| ModuleJob {
            name: format!("m{seed}"),
            program: generated_program(seed, fns),
        })
        .collect();
    let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(3));
    let reports = driver.solve_batch(&jobs);
    let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["m21", "m22", "m23", "m24"]);
}
