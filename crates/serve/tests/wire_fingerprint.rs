//! `WireModule::fingerprint` hashes a module's wire strings with
//! `program_fp`'s byte stream, so serve and the gateway route a module
//! without rebuilding it, and the driver keys a module's SCCs from the
//! same strings, so a warm solve never parses them:
//!
//! * the route key equals `ModuleJob::fingerprint`, and the pass-1 and
//!   pass-2 cache keys of the module's text equal those of the job's
//!   program, for every module `from_job` renders — generated modules,
//!   cluster members at call depth 0 and 6, and a module with constant
//!   globals and a constant external subject;
//! * a warm solve of the text parses nothing, and text that does not
//!   parse fails the solve that misses on it with `to_job`'s error;
//! * a non-canonical rendering of the same constraints reconstructs to an
//!   equal job but fingerprints apart, so it misses, parses and solves to
//!   the canonical answer (keying by text can cost warm hits, never an
//!   answer);
//! * the route key interns nothing.
//!
//! This file holds a single test, so nothing else in its binary interns
//! while the interner's size is watched.

use std::collections::BTreeSet;

use retypd_core::{BaseVar, ConstraintSet, Interner, Lattice, SolverResult, Symbol, TypeScheme};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, GenConfig, ProgramGenerator};
use retypd_minic::Module;
use retypd_serve::wire::{WireCallsite, WireProc, WireScheme};
use retypd_serve::{WireModule, WireReport};

fn lift(name: String, module: &Module) -> ModuleJob {
    let (mir, _) = compile(module).expect("generated module compiles");
    ModuleJob {
        name,
        program: retypd_congen::generate(&mir),
    }
}

fn generated(seed: u64, functions: usize) -> ModuleJob {
    let module = ProgramGenerator::new(GenConfig {
        seed,
        functions,
        ..GenConfig::default()
    })
    .generate();
    lift(format!("g{seed}x{functions}"), &module)
}

fn canonical(result: &SolverResult) -> String {
    WireReport::from_result("", result).canonical_text()
}

/// A one-worker driver over `c_types` that has solved `job`'s program.
fn primed<'l>(lattice: &'l Lattice, job: &ModuleJob) -> (AnalysisDriver<'l>, SolverResult) {
    let driver = AnalysisDriver::with_config(lattice, DriverConfig::with_workers(1));
    let solved = driver.solve(&job.program);
    (driver, solved)
}

/// The route key and every cache key of the job's wire text are the
/// job's own: after the program's solve, its text hits every entry that
/// solve made, in both passes, and answers the same.
fn assert_routes_like_the_job(job: &ModuleJob) {
    let wire = WireModule::from_job(job);
    assert_eq!(
        wire.fingerprint(),
        job.fingerprint(),
        "{}: the wire fingerprint differs from the job's",
        job.name
    );
    let lattice = Lattice::c_types();
    let (driver, cold) = primed(&lattice, job);
    let text = wire
        .into_text()
        .expect("a rendered module's structure checks");
    let warm = driver
        .solve_text(&lattice, &text)
        .expect("a warm solve parses nothing");
    assert_eq!(
        (warm.stats.cache_hits, warm.stats.cache_misses),
        (cold.stats.cache_hits + cold.stats.cache_misses, 0),
        "{}: the text's keys differ from the program's",
        job.name
    );
    assert_eq!(canonical(&warm), canonical(&cold), "{}", job.name);
}

/// A module no earlier code has seen: every name is fresh.
fn never_seen_module() -> WireModule {
    WireModule {
        name: "unseen".into(),
        procs: vec![
            WireProc {
                name: "unseen_caller".into(),
                constraints: "unseen_caller.in_stack0 ⊑ unseen_t\n\
                              unseen_t ⊑ unseen_callee@unseen_c1.in_stack0"
                    .into(),
                callsites: vec![
                    WireCallsite {
                        external: false,
                        callee: "unseen_callee".into(),
                        tag: "unseen_c1".into(),
                    },
                    WireCallsite {
                        external: true,
                        callee: "unseen_extern".into(),
                        tag: "unseen_c2".into(),
                    },
                ],
            },
            WireProc {
                name: "unseen_callee".into(),
                constraints: "unseen_callee.in_stack0 ⊑ unseen_global".into(),
                callsites: vec![],
            },
        ],
        externals: vec![WireScheme {
            name: "unseen_extern".into(),
            subject: "unseen_extern".into(),
            existentials: vec!["unseen_tau".into()],
            constraints: "unseen_extern.in_stack0 ⊑ unseen_tau".into(),
        }],
        globals: vec!["unseen_global".into(), "$unseen_const".into()],
    }
}

#[test]
fn wire_fingerprint_is_the_job_fingerprint_without_interning() {
    // Interns nothing: measured first, before any other part of this test
    // interns a name.
    let interner = Interner::global();
    let unseen = never_seen_module();
    let before = interner.len();
    let fp = unseen.fingerprint();
    assert_eq!(interner.len(), before, "fingerprinting interned a name");
    let job = unseen.to_job().expect("the unseen module reconstructs");
    assert!(
        interner.len() > before,
        "the module's names were already interned"
    );
    assert_eq!(fp, unseen.fingerprint(), "stable across calls");
    assert_eq!(fp, job.fingerprint(), "the hand-written text is canonical");

    // Generated modules of three sizes.
    for seed in 0..40u64 {
        for functions in [3usize, 10, 40] {
            assert_routes_like_the_job(&generated(seed, functions));
        }
    }

    // Cluster members, shallow and with a deep shared call chain.
    for call_depth in [0usize, 6] {
        let spec = ClusterSpec {
            name: "fp".into(),
            members: 3,
            shared_functions: 6,
            member_functions: 3,
            seed: 17,
            call_depth,
        };
        for (name, module) in ProgramGenerator::generate_cluster(&spec) {
            assert_routes_like_the_job(&lift(name, &module));
        }
    }

    // Constant globals hash as their display text (`$g`, `#tag`), which
    // is what the wire carries, so they never alias a variable global.
    // An external's subject travels in display form as well.
    let mut constants = generated(5, 10);
    constants.name = "constants".into();
    constants.program.globals.insert(BaseVar::constant("gx"));
    constants
        .program
        .globals
        .insert(BaseVar::constant("#FileDescriptor"));
    let subject = BaseVar::constant("ext_c");
    let scheme = TypeScheme::new(subject, BTreeSet::new(), ConstraintSet::new());
    constants
        .program
        .externals
        .insert(Symbol::intern("ext_c"), scheme);
    assert_routes_like_the_job(&constants);
    let back = WireModule::from_job(&constants)
        .to_job()
        .expect("reconstructs");
    assert_eq!(
        back.program.externals[&Symbol::intern("ext_c")].subject(),
        subject
    );
    let mut variable = constants.clone();
    variable.program.globals.remove(&BaseVar::constant("gx"));
    variable.program.globals.insert(BaseVar::var("gx"));
    assert_ne!(
        WireModule::from_job(&variable).fingerprint(),
        WireModule::from_job(&constants).fingerprint(),
        "`gx` and `$gx` route as one module"
    );

    // A warm solve parses nothing: an external no callsite names is in no
    // cache key, so text that cannot parse there goes unread — a parse
    // would fail the solve.
    let job = generated(7, 10);
    let lattice = Lattice::c_types();
    let (driver, cold) = primed(&lattice, &job);
    let mut unread = WireModule::from_job(&job);
    unread.externals.push(WireScheme {
        name: "never_called".into(),
        subject: "never_called".into(),
        existentials: vec![],
        constraints: ")(".into(),
    });
    let warm = driver.solve_text(&lattice, &unread.into_text().expect("structure checks"));
    let warm = warm.expect("a warm solve parses nothing");
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(canonical(&warm), canonical(&cold));
    // Text that does not parse fails the solve that misses on it, with
    // the error `to_job` gives.
    let mut bad = WireModule::from_job(&job);
    bad.procs[0].constraints = ")(".into();
    let refused = bad.to_job().expect_err("the text does not parse");
    let failed = driver
        .solve_text(&lattice, &bad.into_text().expect("structure checks"))
        .expect_err("the changed procedure misses and its text does not parse");
    assert_eq!(failed, refused);

    // A non-canonical rendering — one procedure's constraint lines in
    // reverse — parses back to the same job, yet routes as other text and
    // keys as other text: it misses, parses and solves to the canonical
    // answer.
    let canonical_wire = WireModule::from_job(&job);
    let mut reordered = canonical_wire.clone();
    let proc = reordered
        .procs
        .iter_mut()
        .find(|p| p.constraints.lines().count() > 1)
        .expect("some procedure has several constraint lines");
    proc.constraints = proc
        .constraints
        .lines()
        .rev()
        .collect::<Vec<_>>()
        .join("\n");
    let back = reordered.to_job().expect("reordered text parses");
    assert_eq!(back.fingerprint(), job.fingerprint(), "the same job");
    assert_ne!(
        reordered.fingerprint(),
        canonical_wire.fingerprint(),
        "the text differs, so the route key may too"
    );
    let solved = driver.solve_text(&lattice, &reordered.into_text().expect("structure checks"));
    let solved = solved.expect("reordered text parses");
    assert!(
        solved.stats.cache_misses > 0,
        "reordered text hit the canonical entries"
    );
    assert_eq!(
        canonical(&solved),
        canonical(&cold),
        "reordered text solved differently"
    );
}
