//! Per-lattice solve tests: lattices passed to `solve_in` segregate the
//! scheme cache (two lattices never share entries), descriptor-built
//! lattices converge to the default lattice's cache when they describe the
//! same lattice, and a parallel batch is bit-identical to a sequential one.

use std::fmt::Write as _;

use retypd_core::{Lattice, LatticeBuilder, SolverResult};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};

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

fn sample_job() -> ModuleJob {
    let mut prog = retypd_core::Program::new();
    prog.add_proc(retypd_core::Procedure {
        name: retypd_core::Symbol::intern("f"),
        constraints: retypd_core::parse::parse_constraint_set(
            "f.in_stack0 <= x; int <= f.out_eax; uint <= f.out_eax",
        )
        .expect("sample constraints parse"),
        callsites: vec![],
    });
    ModuleJob {
        name: "sample".into(),
        program: prog,
    }
}

/// A deliberately *different* lattice sharing c_types' constant names:
/// `int` and `uint` sit directly under ⊤, so `join(int, uint) = ⊤` where
/// c_types gives `integral32` — same module, different answers.
fn flat_lattice() -> Lattice {
    let mut b = LatticeBuilder::named("flat");
    for e in ["⊤", "int", "uint", "⊥"] {
        b.add(e).expect("fresh");
    }
    b.le("int", "⊤").expect("known");
    b.le("uint", "⊤").expect("known");
    b.le("⊥", "int").expect("known");
    b.le("⊥", "uint").expect("known");
    b.build().expect("flat is a lattice")
}

#[test]
fn two_lattices_segregate_the_cache_and_answer_per_lattice() {
    let c_types = Lattice::c_types();
    let driver = AnalysisDriver::with_config(&c_types, DriverConfig::with_workers(1));
    let job = sample_job();

    // Cold solve under the default lattice.
    let under_default = driver.solve(&job.program);
    let s1 = driver.cache_stats();
    assert_eq!(s1.hits, 0);
    assert!(s1.misses > 0);

    // The same module under a structurally different lattice carrying the
    // same constant names: every lookup must MISS — cross-lattice hits
    // would silently answer with the wrong lattice's schemes.
    let flat = flat_lattice()
        .descriptor()
        .build()
        .expect("flat descriptor builds");
    let under_flat = driver.solve_in(&flat, &job.program);
    let s2 = driver.cache_stats();
    assert_eq!(s2.hits, 0, "cross-lattice lookups must never hit");
    assert_eq!(s2.misses, 2 * s1.misses);
    assert_eq!(
        s2.scheme_entries,
        2 * s1.scheme_entries,
        "each lattice owns its own entries"
    );

    // And the answers really are per-lattice: join(int, uint) differs.
    assert_ne!(
        render(&under_default),
        render(&under_flat),
        "flat lattice must change the inferred bounds"
    );
    assert_ne!(c_types.fingerprint(), flat.fingerprint());

    // Re-submission under each lattice is a 100% hit *within* its lattice.
    for lattice in [&c_types, &flat] {
        let warm = driver.solve_in(lattice, &job.program);
        assert_eq!(warm.stats.cache_misses, 0, "warm per-lattice re-solve");
        assert!(warm.stats.cache_hits > 0);
    }
}

#[test]
fn canonical_descriptor_of_the_default_lattice_shares_its_cache() {
    let c_types = Lattice::c_types();
    let driver = AnalysisDriver::with_config(&c_types, DriverConfig::with_workers(1));
    let jobs = [sample_job()];
    let cold = driver.solve_batch(&jobs);
    assert!(cold[0].result.stats.cache_misses > 0);

    // A request naming c_types *as data* (its canonical descriptor) builds
    // a fingerprint-identical lattice, so it re-hits the default lattice's
    // cache entries — descriptions of the same lattice converge.
    let rebuilt = c_types
        .descriptor()
        .build()
        .expect("canonical c_types descriptor builds");
    let via_descriptor = driver.solve_in(&rebuilt, &jobs[0].program);
    assert_eq!(via_descriptor.stats.cache_misses, 0);
    assert_eq!(render(&via_descriptor), render(&cold[0].result));
    assert_eq!(rebuilt.fingerprint(), c_types.fingerprint());
}

#[test]
fn parallel_batch_matches_the_sequential_batch_bit_for_bit() {
    let spec = ClusterSpec {
        name: "batch".into(),
        members: 3,
        shared_functions: 5,
        member_functions: 2,
        seed: 99,
        call_depth: 3,
    };
    let jobs: Vec<ModuleJob> = ProgramGenerator::generate_cluster(&spec)
        .iter()
        .map(|(name, module)| {
            let (mir, _) = compile(module).expect("cluster member compiles");
            ModuleJob {
                name: name.clone(),
                program: retypd_congen::generate(&mir),
            }
        })
        .collect();
    let lattice = Lattice::c_types();

    let reference: Vec<String> = {
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
        driver
            .solve_batch(&jobs)
            .iter()
            .map(|r| render(&r.result))
            .collect()
    };

    for workers in [1usize, 4] {
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(workers));
        let returned = driver.solve_batch(&jobs);
        assert_eq!(returned.len(), jobs.len());
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(
                &render(&returned[i].result),
                want,
                "report {i} diverged at {workers} workers"
            );
        }
    }
}
