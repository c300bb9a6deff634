//! The shared-graph pipeline against an independent reference that keeps
//! the per-pass call order: pass 1 runs one `SchemeBuilder::simplify`
//! (graph build, saturation, quotient, extraction) per SCC *member*, and
//! pass 2 combines, builds and saturates every SCC afresh. `Solver::infer`
//! and `AnalysisDriver` — which build each SCC's graph once and hand it
//! from pass 1 to pass 2 — must render bit-identically to it, on modules
//! with mutual-recursion SCCs of 2–8 members and on a cluster batch whose
//! library SCCs hit in pass 1 but miss in pass 2 (the graph-rebuild path).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use retypd_core::addsub::{apply_addsubs, augment_with_addsubs};
use retypd_core::graph::ConstraintGraph;
use retypd_core::parse::{parse_constraint_set, parse_derived_var};
use retypd_core::saturation::saturate;
use retypd_core::transducer::scalar_violations;
use retypd_core::{
    callsite_actuals, AddSubConstraint, AddSubKind, BaseVar, CallTarget, Callsite, Condensation,
    Lattice, Procedure, Program, SchemeBuilder, ShapeQuotient, Sketch, Solver, SolverResult,
    Symbol, TypeScheme,
};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::ast::{BinKind, CmpKind, Expr, FuncDef, Module, SrcType, Stmt};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, GenConfig, ProgramGenerator};

/// Schemes, refined and general sketches, and inconsistencies (no stats).
fn render(procs: &BTreeMap<Symbol, (String, String, String)>, inc: &[(Symbol, Symbol)]) -> String {
    let mut out = String::new();
    for (name, (scheme, sketch, general)) in procs {
        let _ = writeln!(
            out,
            "{name}: {scheme}\n  sketch: {sketch}\n  general: {general}"
        );
    }
    let _ = writeln!(out, "{inc:?}");
    out
}

fn render_result(r: &SolverResult) -> String {
    let procs = r
        .procs
        .iter()
        .map(|(n, p)| {
            let parts = (
                p.scheme.to_string(),
                format!("{:?}", p.sketch),
                format!("{:?}", p.general_sketch),
            );
            (*n, parts)
        })
        .collect();
    render(&procs, &r.inconsistencies)
}

/// The reference solver: pass 1 simplifies each member separately against
/// the SCC's combined constraints; pass 2 rebuilds the combined set, the
/// saturated graph and the additive-constraint quotient per SCC.
fn reference(lattice: &Lattice, program: &Program) -> String {
    let solver = Solver::new(lattice);
    let builder = SchemeBuilder::new(lattice);
    let cond = Condensation::compute(program);
    let combined = |scc: &[usize], schemes: &BTreeMap<Symbol, TypeScheme>| {
        augment_with_addsubs(
            &solver.scc_constraints(program, scc, &cond.scc_of, schemes),
            lattice,
        )
    };
    let mut schemes = program.externals.clone();
    for scc in &cond.sccs {
        let cs = combined(scc, &schemes);
        for &p in scc {
            let name = program.procs[p].name;
            let mut interesting: BTreeSet<BaseVar> = program.globals.clone();
            interesting.insert(BaseVar::Var(name));
            let (constraints, existentials) = builder.simplify(&cs, &interesting);
            schemes.insert(
                name,
                TypeScheme::new(BaseVar::Var(name), existentials, constraints),
            );
        }
    }

    let actuals = callsite_actuals(program);
    let mut sketches: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
    let mut general: BTreeMap<Symbol, Sketch> = BTreeMap::new();
    let mut inconsistencies = Vec::new();
    for scc in cond.sccs.iter().rev() {
        let cs = combined(scc, &schemes);
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        let mut quotient = ShapeQuotient::build(&cs);
        apply_addsubs(&cs, &mut quotient, lattice);
        let consts: Vec<BaseVar> = cs
            .base_vars()
            .into_iter()
            .filter(|b| b.is_const())
            .collect();
        inconsistencies.extend(scalar_violations(&g, lattice));
        let mut overlay: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
        for &p in scc {
            let proc = &program.procs[p];
            let pv = BaseVar::Var(proc.name);
            if let Some(own) = Sketch::infer(pv, &g, &quotient, lattice, &consts) {
                general.insert(proc.name, own.clone());
                let mut uses: Option<Sketch> = None;
                for a in actuals.get(&proc.name).into_iter().flatten() {
                    if let Some(s) = overlay.get(a).or_else(|| sketches.get(a)) {
                        uses = Some(match uses {
                            None => s.clone(),
                            Some(u) => u.join(s, lattice),
                        });
                    }
                }
                let refined = match uses {
                    Some(u) => own.meet(&u, lattice),
                    None => own,
                };
                overlay.insert(pv, refined);
            }
            for cs in &proc.callsites {
                let tagged = BaseVar::var(&format!("{}@{}", cs.callee_name(program), cs.tag));
                if let Some(s) = Sketch::infer(tagged, &g, &quotient, lattice, &consts) {
                    overlay.insert(tagged, s);
                }
            }
        }
        sketches.extend(overlay);
    }
    inconsistencies.sort();
    inconsistencies.dedup();

    let procs = program
        .procs
        .iter()
        .map(|p| {
            let pv = BaseVar::Var(p.name);
            let scheme = schemes
                .get(&p.name)
                .cloned()
                .unwrap_or_else(|| TypeScheme::empty(pv));
            let parts = (
                scheme.to_string(),
                format!("{:?}", sketches.get(&pv)),
                format!("{:?}", general.get(&p.name)),
            );
            (p.name, parts)
        })
        .collect();
    render(&procs, &inconsistencies)
}

/// Appends ring `r` of `k` mutually recursive functions: `ring<r>_<i>(p)`
/// returns `ring<r>_<i+1 mod k>(p->next)`, plus `p->f0` in odd members and
/// after storing to `p->f0` in even ones. Struct 0 of a generated module
/// always has both fields.
fn add_ring(module: &mut Module, r: usize, k: usize) {
    let p = || Expr::Var("p".into());
    let field = |f: &str| Expr::Field(Box::new(p()), f.into());
    for i in 0..k {
        let call = Expr::Call(format!("ring{r}_{}", (i + 1) % k), vec![field("next")]);
        let writer = i % 2 == 0;
        let mut body = vec![Stmt::If(
            Expr::Cmp(CmpKind::Eq, Box::new(p()), Box::new(Expr::Int(0))),
            vec![Stmt::Return(Some(Expr::Int(0)))],
            vec![],
        )];
        if writer {
            body.push(Stmt::StoreField(p(), "f0".into(), Expr::Int(i as i64)));
            body.push(Stmt::Return(Some(call)));
        } else {
            let sum = Expr::Bin(BinKind::Add, Box::new(call), Box::new(field("f0")));
            body.push(Stmt::Return(Some(sum)));
        }
        let param = if writer {
            SrcType::ptr
        } else {
            SrcType::const_ptr
        };
        module.funcs.push(FuncDef {
            name: format!("ring{r}_{i}"),
            params: vec![("p".into(), param(SrcType::Struct(0)))],
            ret: SrcType::Int,
            body,
            fastcall: false,
        });
    }
}

fn lift(module: &Module) -> Program {
    let (mir, _) = compile(module).expect("module compiles");
    retypd_congen::generate(&mir)
}

fn ringed_program(seed: u64, functions: usize, rings: &[usize]) -> Program {
    let mut module = ProgramGenerator::new(GenConfig {
        seed,
        functions,
        structs: 3,
        ..GenConfig::default()
    })
    .generate();
    for (r, &k) in rings.iter().enumerate() {
        add_ring(&mut module, r, k);
    }
    lift(&module)
}

/// Two mutually recursive procedures where `f` computes `z = p + i` from a
/// pointer `p` and an integer `i` and returns `z`: applying the additive
/// constraint gives `z` (and so `f`'s return) `p`'s pointee shape. Pass 1
/// extracts against the quotient without that unification, pass 2 solves
/// sketches with it, so an SCC graph handed over in the wrong state
/// changes the output.
fn pointer_arithmetic_ring() -> Program {
    let mut program = Program::new();
    let mut f = parse_constraint_set(
        "f.in_stack0 <= p; p.load.σ32@0 <= int32; i <= int32; z <= f.out_eax; p <= g@c.in_stack0",
    )
    .expect("f parses");
    let dv = |s: &str| parse_derived_var(s).expect("variable parses");
    f.add_addsub(AddSubConstraint {
        kind: AddSubKind::Add,
        x: dv("p"),
        y: dv("i"),
        z: dv("z"),
    });
    let g = parse_constraint_set("g.in_stack0 <= q; q <= f@d.in_stack0; f@d.out_eax <= g.out_eax")
        .expect("g parses");
    for (name, constraints, callee, tag) in [("f", f, 1, "c"), ("g", g, 0, "d")] {
        program.add_proc(Procedure {
            name: Symbol::intern(name),
            constraints,
            callsites: vec![Callsite {
                callee: CallTarget::Internal(callee),
                tag: tag.into(),
            }],
        });
    }
    program
}

fn rebuilds() -> u64 {
    retypd_telemetry::global()
        .counter("driver.scc_graph_rebuilds")
        .get()
}

#[test]
fn shared_graphs_match_the_reference_on_mutual_recursion() {
    let lattice = Lattice::c_types();
    let plans: [(u64, usize, &[usize]); 3] =
        [(31, 8, &[2, 5]), (32, 12, &[3, 8]), (33, 16, &[4, 6, 7])];
    for (seed, functions, rings) in plans {
        let program = ringed_program(seed, functions, rings);
        let cond = Condensation::compute(&program);
        let mut sizes: Vec<usize> = cond.sccs.iter().map(Vec::len).filter(|&k| k > 1).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, rings, "seed {seed}: ring SCCs");

        let want = reference(&lattice, &program);
        let seq = Solver::new(&lattice).infer(&program);
        assert_eq!(render_result(&seq), want, "seed {seed}: Solver::infer");
        assert_eq!(
            seq.stats.phases.saturations,
            cond.sccs.len() as u64,
            "seed {seed}"
        );
        for workers in [1, 4] {
            let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(workers));
            let got = driver.solve(&program);
            assert_eq!(render_result(&got), want, "seed {seed}, {workers} workers");
            assert_eq!(
                got.stats.phases.saturations,
                cond.sccs.len() as u64,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn additive_constraints_reach_each_pass_as_in_the_reference() {
    let lattice = Lattice::c_types();
    let program = pointer_arithmetic_ring();
    let want = reference(&lattice, &program);
    assert_eq!(render_result(&Solver::new(&lattice).infer(&program)), want);
    for workers in [1, 4] {
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(workers));
        assert_eq!(
            render_result(&driver.solve(&program)),
            want,
            "{workers} workers"
        );
    }
}

#[test]
fn rebuilt_graphs_match_the_reference_on_a_cluster_batch() {
    let lattice = Lattice::c_types();
    let spec = ClusterSpec {
        name: "refc".into(),
        members: 3,
        shared_functions: 16,
        member_functions: 6,
        seed: 5,
        call_depth: 0,
    };
    let jobs: Vec<ModuleJob> = ProgramGenerator::generate_cluster(&spec)
        .iter()
        .map(|(name, module)| ModuleJob {
            name: name.clone(),
            program: lift(module),
        })
        .collect();
    let want: Vec<String> = jobs
        .iter()
        .map(|j| reference(&lattice, &j.program))
        .collect();
    for workers in [1, 4] {
        let before = rebuilds();
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(workers));
        let reports = driver.solve_batch(&jobs);
        // One worker solves the members in order, so later members hit the
        // library SCCs in pass 1 and, with new callers, miss them in pass 2.
        // (The counter is process-global and only grows, so the delta
        // counts this batch's rebuilds at least.) Four workers race the
        // members, so which SCCs rebuild is left open there.
        if workers == 1 {
            assert!(rebuilds() > before, "no library SCC took the rebuild path");
        }
        for ((report, want), job) in reports.iter().zip(&want).zip(&jobs) {
            assert_eq!(
                &render_result(&report.result),
                want,
                "{}, {workers} workers",
                report.name
            );
            // At most one saturation per SCC, and one for every SCC that
            // missed in either pass.
            let stats = &report.result.stats;
            let sccs = Condensation::compute(&job.program).sccs.len() as u64;
            assert!(stats.phases.saturations <= sccs, "{}", report.name);
            assert!(
                stats.phases.saturations <= stats.cache_misses
                    && stats.cache_misses <= 2 * stats.phases.saturations,
                "{}: {} saturations for {} misses",
                report.name,
                stats.phases.saturations,
                stats.cache_misses
            );
        }
    }
}
