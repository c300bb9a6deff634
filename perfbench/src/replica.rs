//! `Solver::infer`, replayed from outside through the public `core` calls
//! in the same order, with a span around each layer. The result must be
//! bit-identical to `Solver::infer` (the benchmark checks it), so the
//! per-layer split belongs to the real pipeline.
//!
//! A phase's span also covers freeing the structures it used last (pass-1
//! graphs in `extract`, pass-2 graphs in `sketch`), so span times sum to
//! the replica's wall.

use std::collections::{BTreeMap, BTreeSet};

use retypd_core::addsub::{apply_addsubs, augment_with_addsubs};
use retypd_core::graph::ConstraintGraph;
use retypd_core::saturation::saturate;
use retypd_core::transducer::scalar_violations;
use retypd_core::{
    callsite_actuals, BaseVar, CallTarget, Condensation, Lattice, ProcResult, Program,
    SchemeBuilder, ShapeQuotient, Sketch, Solver, SolverResult, SolverStats, Symbol, TypeScheme,
};

use crate::trace::Tracer;

/// Work counted by one replica solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounts {
    pub saturations: u64,
    pub graph_nodes: u64,
    pub graph_edges: u64,
}

impl CoreCounts {
    pub fn add(&mut self, o: CoreCounts) {
        self.saturations += o.saturations;
        self.graph_nodes += o.graph_nodes;
        self.graph_edges += o.graph_edges;
    }

    /// `core.saturations`, `core.graph_nodes`, `core.graph_edges`: per
    /// replica solve.
    pub fn set_metrics(&self, m: &mut crate::report::Metrics, solves: usize) {
        let per = |x: u64| x as f64 / solves.max(1) as f64;
        m.set("core.saturations", per(self.saturations), "count");
        m.set("core.graph_nodes", per(self.graph_nodes), "count");
        m.set("core.graph_edges", per(self.graph_edges), "count");
    }

    fn graph(&mut self, g: &ConstraintGraph) {
        self.saturations += 1;
        self.graph_nodes += g.node_count() as u64;
        self.graph_edges += g.edge_count() as u64;
    }
}

/// One replica solve: the result, its work counts, and the callsite-actual
/// sketches pass 2 recorded (the driver's refinement fingerprints read
/// them; they are returned rather than freed inside the replica).
pub struct Solved {
    pub result: SolverResult,
    pub counts: CoreCounts,
    pub actual_sketches: BTreeMap<BaseVar, Sketch>,
}

/// Solves `program` as `Solver::infer` does, recording `core.*` spans
/// under one `replica.solve` span for request `req`.
pub fn solve(lattice: &Lattice, program: &Program, tr: &Tracer, req: u64) -> Solved {
    tr.span("replica.solve", req, || {
        solve_inner(lattice, program, tr, req)
    })
}

fn solve_inner(lattice: &Lattice, program: &Program, tr: &Tracer, req: u64) -> Solved {
    let solver = Solver::new(lattice);
    let builder = &SchemeBuilder::new(lattice);
    let mut counts = CoreCounts::default();
    let (cond, actuals) = tr.span("core.condense", req, || {
        (Condensation::compute(program), callsite_actuals(program))
    });
    let actuals = &actuals;
    let mut schemes: BTreeMap<Symbol, TypeScheme> = program.externals.clone();

    // Pass 1 (callees first), as `Solver::solve_scc`: one simplification
    // per SCC member over the SCC's combined constraints.
    for scc in &cond.sccs {
        let combined = tr.span("core.p1.combine", req, || {
            augment_with_addsubs(
                &solver.scc_constraints(program, scc, &cond.scc_of, &schemes),
                lattice,
            )
        });
        let mut out = Vec::with_capacity(scc.len());
        for &p in scc {
            let name = program.procs[p].name;
            let mut interesting: BTreeSet<BaseVar> = program.globals.clone();
            interesting.insert(BaseVar::Var(name));
            let g = tr.span("core.p1.saturate", req, || {
                let mut g = ConstraintGraph::build(&combined);
                saturate(&mut g);
                g
            });
            counts.graph(&g);
            let q = tr.span("core.p1.quotient", req, || ShapeQuotient::build(&combined));
            let (cs, existentials) = tr.span("core.p1.extract", req, move || {
                let r = builder.extract(&g, &q, &interesting);
                drop((g, q, interesting));
                r
            });
            out.push((name, TypeScheme::new(BaseVar::Var(name), existentials, cs)));
        }
        schemes.extend(out);
    }

    // Pass 2 (callers first), as `Solver::refine_scc`.
    let mut sketches: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
    let mut general: BTreeMap<Symbol, Sketch> = BTreeMap::new();
    let mut inconsistencies = Vec::new();
    for scc in cond.sccs.iter().rev() {
        let combined = tr.span("core.p2.combine", req, || {
            augment_with_addsubs(
                &solver.scc_constraints(program, scc, &cond.scc_of, &schemes),
                lattice,
            )
        });
        let g = tr.span("core.p2.saturate", req, || {
            let mut g = ConstraintGraph::build(&combined);
            saturate(&mut g);
            g
        });
        counts.graph(&g);
        let quotient = tr.span("core.p2.quotient", req, || {
            let mut q = ShapeQuotient::build(&combined);
            apply_addsubs(&combined, &mut q, lattice);
            q
        });
        let found = tr.span("core.p2.transducer", req, || scalar_violations(&g, lattice));
        inconsistencies.extend(found);
        let snapshot = &sketches;
        let (overlay, own) = tr.span("core.p2.sketch", req, move || {
            let consts: Vec<BaseVar> = combined
                .base_vars()
                .into_iter()
                .filter(|b| b.is_const())
                .collect();
            let mut overlay: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
            let mut own_general = Vec::new();
            for &p in scc {
                let proc = &program.procs[p];
                let pv = BaseVar::Var(proc.name);
                if let Some(own) = Sketch::infer(pv, &g, &quotient, lattice, &consts) {
                    own_general.push((proc.name, own.clone()));
                    let mut refined = own;
                    if let Some(tags) = actuals.get(&proc.name) {
                        let mut use_join: Option<Sketch> = None;
                        for a in tags {
                            if let Some(s) = overlay.get(a).or_else(|| snapshot.get(a)) {
                                use_join = Some(match use_join {
                                    None => s.clone(),
                                    Some(u) => u.join(s, lattice),
                                });
                            }
                        }
                        if let Some(u) = use_join {
                            refined = refined.meet(&u, lattice);
                        }
                    }
                    overlay.insert(pv, refined);
                }
                for cs in &proc.callsites {
                    let callee = match cs.callee {
                        CallTarget::Internal(i) => program.procs[i].name,
                        CallTarget::External(n) => n,
                    };
                    let tagged = BaseVar::var(&format!("{callee}@{}", cs.tag));
                    if let Some(s) = Sketch::infer(tagged, &g, &quotient, lattice, &consts) {
                        overlay.insert(tagged, s);
                    }
                }
            }
            drop((g, quotient, combined));
            (overlay, own_general)
        });
        general.extend(own);
        sketches.extend(overlay);
    }

    let mut procs = BTreeMap::new();
    for proc in &program.procs {
        let pv = BaseVar::Var(proc.name);
        procs.insert(
            proc.name,
            ProcResult {
                scheme: schemes
                    .remove(&proc.name)
                    .unwrap_or_else(|| TypeScheme::empty(pv)),
                sketch: sketches.remove(&pv),
                general_sketch: general.remove(&proc.name),
            },
        );
    }
    inconsistencies.sort();
    inconsistencies.dedup();
    Solved {
        result: SolverResult {
            procs,
            inconsistencies,
            stats: SolverStats::default(),
        },
        counts,
        actual_sketches: sketches,
    }
}
