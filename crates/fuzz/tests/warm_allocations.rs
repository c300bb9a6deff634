//! A warm solve shares what the cache holds instead of copying it.
//!
//! Schemes and sketches are immutable and `clone` shares their bodies, so
//! a solve whose every SCC hits the cache assembles its result from
//! reference-count bumps: it makes fewer than 10 allocations per
//! procedure. Copying each cached scheme and sketch into the merges and
//! the result costs several allocations per constraint and per sketch
//! state, so that check fails on a solve that deep-copies them.
//!
//! `WireReport::from_result` renders every scheme and sketch into one
//! reused buffer and copies each out at its final length: at most one
//! allocation per string it returns, plus its `Vec`s and the buffer's
//! doublings up to the longest string.
//!
//! This file holds a single test, so nothing else in its binary allocates
//! while the counter is read.

use retypd_core::Lattice;
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_fuzz::alloc::CountingAlloc;
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};
use retypd_serve::{WireModule, WireReport};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn generated(seed: u64, functions: usize) -> ModuleJob {
    let module = ProgramGenerator::new(GenConfig {
        seed,
        functions,
        ..GenConfig::default()
    })
    .generate();
    let (mir, _) = compile(&module).expect("generated module compiles");
    ModuleJob {
        name: format!("g{seed}x{functions}"),
        program: retypd_congen::generate(&mir),
    }
}

/// Allocations a `String` makes growing by doubling from 8 bytes to `n`.
fn doublings(n: usize) -> usize {
    let (mut cap, mut allocs) = (8, usize::from(n > 0));
    while cap < n {
        cap *= 2;
        allocs += 1;
    }
    allocs
}

#[test]
fn a_warm_solve_shares_what_the_cache_holds() {
    let lattice = Lattice::c_types();
    for (seed, functions) in [(3, 10), (4, 40)] {
        let job = generated(seed, functions);
        let text = WireModule::from_job(&job)
            .into_text()
            .expect("the module's structure resolves");
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
        driver
            .solve_text(&lattice, &text)
            .expect("the cold solve parses");

        let before = CountingAlloc::allocations();
        let warm = driver
            .solve_text(&lattice, &text)
            .expect("a warm solve parses nothing");
        let made = CountingAlloc::allocations() - before;
        let procs = job.program.procs.len();
        assert_eq!(warm.stats.cache_misses, 0, "{}: every SCC hits", job.name);
        assert!(
            made < 10 * procs,
            "{}: a warm solve made {made} allocations for {procs} procedures",
            job.name
        );

        let before = CountingAlloc::allocations();
        let report = WireReport::from_result(&job.name, &warm);
        let made = CountingAlloc::allocations() - before;
        let texts = report.procs.iter().flat_map(|p| {
            [
                Some(&p.name),
                Some(&p.scheme),
                p.sketch.as_ref(),
                p.general.as_ref(),
            ]
            .into_iter()
            .flatten()
        });
        let (strings, longest) = texts.fold((1, report.name.len()), |(n, longest), t| {
            (n + 1, longest.max(t.len()))
        });
        let strings = strings + 2 * report.inconsistencies.len();
        let vecs =
            usize::from(!report.procs.is_empty()) + usize::from(!report.inconsistencies.is_empty());
        let budget = strings + vecs + doublings(longest);
        assert!(
            made <= budget,
            "{}: from_result made {made} allocations, budget {budget} \
             ({strings} strings, {vecs} vecs, longest {longest} bytes)",
            job.name
        );
    }
}
