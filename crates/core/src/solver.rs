//! The bottom-up, SCC-driven type inference pipeline (§4.2, Appendix F).
//!
//! Inference runs in two passes over the strongly connected components of
//! the call graph:
//!
//! 1. **`INFERPROCTYPES`** (Algorithm F.1), callees first: each SCC's
//!    combined constraint set — with callee schemes instantiated at tagged
//!    callsites (Appendix A.4) and intra-SCC calls linked monomorphically —
//!    is saturated once, and a type scheme per procedure is extracted from
//!    that one graph.
//! 2. **`INFERTYPES`** (Algorithm F.2), callers first: the same saturated
//!    graphs are solved into sketches; each procedure's sketch is
//!    specialized to its observed uses (`REFINEPARAMETERS`, Algorithm F.3)
//!    by meeting it with the join of the actual sketches recorded at its
//!    callsites.
//!
//! Consistency checking is deferred (§3: satisfiability reduces to scalar
//! constraint checks `κ₁ <: κ₂`): violations are *reported*, never fatal,
//! which is what lets Retypd survive type-unsafe idioms (§2.6).
//!
//! Both passes are exposed as reusable per-SCC steps — [`Solver::solve_scc`]
//! and [`Solver::refine_scc`] — operating on immutable snapshots of the
//! cross-SCC state, so external drivers (e.g. `retypd-driver`) can schedule
//! independent SCCs concurrently and merge the outputs deterministically.
//! The steps share one [`SccGraph`] per SCC: `solve_scc` builds it and
//! returns it beside the schemes, and `refine_scc` consumes it, rebuilding
//! it only when handed none (e.g. after a pass-1 cache hit).
//! [`Solver::infer`] itself is a thin sequential composition of the two.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::addsub::{apply_addsubs, augment_in_place};
use crate::constraint::ConstraintSet;
use crate::dtv::BaseVar;
use crate::graph::ConstraintGraph;
use crate::intern::Symbol;
use crate::lattice::Lattice;
use crate::saturation::saturate;
use crate::scheme::TypeScheme;
use crate::shapes::ShapeQuotient;
use crate::simplify::SchemeBuilder;
use crate::sketch::Sketch;

/// A procedure's constraints and callsites, as produced by constraint
/// generation.
#[derive(Clone, Debug)]
pub struct Procedure {
    /// The procedure's type-variable name (also the key for its scheme).
    pub name: Symbol,
    /// Body constraints. References to callees use the tagged form
    /// `callee@tag` matching [`Callsite::tag`].
    pub constraints: ConstraintSet,
    /// Callsites within the body.
    pub callsites: Vec<Callsite>,
}

/// One callsite: an index into [`Program::procs`] plus the tag used for
/// the callee's variables in the caller's constraints.
#[derive(Clone, Debug)]
pub struct Callsite {
    /// Callee index in the program's procedure list, or `None` for an
    /// external with a pre-computed scheme.
    pub callee: CallTarget,
    /// Instantiation tag: the caller references the callee's variables as
    /// `name@tag`.
    pub tag: String,
}

impl Callsite {
    /// The callee's name: the internal procedure's, or the external's.
    pub fn callee_name(&self, program: &Program) -> Symbol {
        match self.callee {
            CallTarget::Internal(i) => program.procs[i].name,
            CallTarget::External(n) => n,
        }
    }
}

/// Target of a call: an internal procedure or an external function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// Index into [`Program::procs`].
    Internal(usize),
    /// External function resolved via [`Program::externals`].
    External(Symbol),
}

/// A whole program: procedures, external schemes, and global variables.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All procedures.
    pub procs: Vec<Procedure>,
    /// Pre-computed schemes for externally linked functions (e.g. `malloc`,
    /// `free`, `memcpy`, `fopen` — §2.2).
    pub externals: BTreeMap<Symbol, TypeScheme>,
    /// Global variables: never renamed during instantiation.
    pub globals: BTreeSet<BaseVar>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a procedure, returning its index.
    pub fn add_proc(&mut self, p: Procedure) -> usize {
        self.procs.push(p);
        self.procs.len() - 1
    }
}

/// Per-procedure inference output.
#[derive(Clone, Debug)]
pub struct ProcResult {
    /// The inferred (most general) type scheme.
    pub scheme: TypeScheme,
    /// The solved sketch for the procedure's type variable, after
    /// use-based specialization.
    pub sketch: Option<Sketch>,
    /// The most general sketch, before `REFINEPARAMETERS`.
    pub general_sketch: Option<Sketch>,
}

/// Aggregate size statistics, used by the evaluation's memory model, plus
/// timing and cache counters, so driver runs and plain [`Solver::infer`]
/// runs report the same figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Total constraint-graph nodes across SCC solves.
    pub graph_nodes: usize,
    /// Total constraint-graph edges across SCC solves (post saturation).
    pub graph_edges: usize,
    /// Total quotient nodes.
    pub quotient_nodes: usize,
    /// Total sketch states retained.
    pub sketch_states: usize,
    /// Total constraints processed.
    pub constraints: usize,
    /// Wall-clock nanoseconds of the solve that produced this result.
    pub solve_ns: u64,
    /// SCC solves answered from a scheme cache (0 for the plain solver;
    /// filled in by `retypd-driver`).
    pub cache_hits: u64,
    /// SCC solves that missed the scheme cache (0 for the plain solver).
    pub cache_misses: u64,
    /// Phase work *performed*: the driver takes it out of cached entries,
    /// so cache hits replay size statistics but no phase work, and the
    /// store never persists it.
    pub phases: PhaseNs,
}

impl SolverStats {
    /// Accumulates another stats record into this one (counting fields sum;
    /// `solve_ns` sums too, which is correct for per-SCC deltas that carry
    /// zero and lets callers overwrite with a measured wall-clock at the
    /// end).
    pub fn merge(&mut self, other: &SolverStats) {
        self.graph_nodes += other.graph_nodes;
        self.graph_edges += other.graph_edges;
        self.quotient_nodes += other.quotient_nodes;
        self.sketch_states += other.sketch_states;
        self.constraints += other.constraints;
        self.solve_ns += other.solve_ns;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.phases += other.phases;
    }
}

/// Per-phase solve work: timings plus the saturation count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    /// Nanoseconds combining SCC constraint sets (both passes' input).
    pub combine_ns: u64,
    /// Nanoseconds building + saturating graphs and quotients, once per SCC.
    pub saturate_ns: u64,
    /// Nanoseconds extracting scalar violations via the transducer (pass 2).
    pub transducer_ns: u64,
    /// Nanoseconds extracting type schemes from saturated graphs (pass 1).
    pub simplify_ns: u64,
    /// Nanoseconds inferring and refining sketches (pass 2).
    pub sketch_ns: u64,
    /// Constraint graphs built and saturated: one per SCC solved cold.
    pub saturations: u64,
}

impl std::ops::AddAssign for PhaseNs {
    fn add_assign(&mut self, p: PhaseNs) {
        self.combine_ns += p.combine_ns;
        self.saturate_ns += p.saturate_ns;
        self.transducer_ns += p.transducer_ns;
        self.simplify_ns += p.simplify_ns;
        self.sketch_ns += p.sketch_ns;
        self.saturations += p.saturations;
    }
}

/// Runs `f` under the span `name`, adding its wall time to `ns`: the one
/// phase guard that feeds both the trace and the [`PhaseNs`] fields.
fn timed<R>(name: &'static str, ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let _span = retypd_telemetry::span(name);
    let start = Instant::now();
    let out = f();
    *ns += start.elapsed().as_nanos() as u64;
    out
}

/// Result of whole-program inference.
#[derive(Clone, Debug)]
pub struct SolverResult {
    /// Per-procedure results keyed by procedure name.
    pub procs: BTreeMap<Symbol, ProcResult>,
    /// Scalar consistency violations `(κ₁, κ₂)` where `κ₁ ⊑ κ₂` was
    /// entailed but does not hold in Λ.
    pub inconsistencies: Vec<(Symbol, Symbol)>,
    /// Size statistics for the memory model.
    pub stats: SolverStats,
}

/// Pass-1 output for one SCC: the inferred scheme per member procedure plus
/// the size of the combined constraint set that was simplified.
#[derive(Clone, Debug)]
pub struct SccSchemes {
    /// `(procedure name, inferred scheme)`, in SCC member order.
    pub schemes: Vec<(Symbol, TypeScheme)>,
    /// Number of combined constraints processed for this SCC.
    pub constraints: usize,
    /// Work performed (combine, saturate, simplify, one saturation), which
    /// the driver counts only on cache misses.
    pub phases: PhaseNs,
}

/// One SCC's solved constraint graph, built once and shared by both passes:
/// the saturated [`ConstraintGraph`] of the SCC's combined constraint set,
/// its [`ShapeQuotient`] with the additive constraints applied, and the
/// type constants the set mentions. [`Solver::solve_scc`] returns it after
/// extracting every member's scheme; [`Solver::refine_scc`] consumes it.
#[derive(Debug)]
pub struct SccGraph {
    graph: ConstraintGraph,
    quotient: ShapeQuotient,
    consts: Vec<BaseVar>,
}

/// Pass-2 output for one SCC: every sketch the SCC's processing inserted
/// (procedure sketches and callsite-actual sketches), ready to be merged
/// into the global maps in SCC order.
#[derive(Clone, Debug)]
pub struct SccRefinement {
    /// Solved sketches: procedure variables (refined) and tagged callsite
    /// actuals, exactly the keys the sequential pass would have inserted.
    pub sketches: BTreeMap<BaseVar, Sketch>,
    /// Most general (pre-`REFINEPARAMETERS`) sketches per procedure.
    pub general: Vec<(Symbol, Sketch)>,
    /// Scalar violations found in this SCC's saturated graph.
    pub inconsistencies: Vec<(Symbol, Symbol)>,
    /// Size-statistics delta contributed by this SCC.
    pub stats: SolverStats,
}

/// The call-graph condensation: SCCs in reverse topological order plus the
/// cross-SCC dependency edges (Algorithm F.1/F.2's processing structure),
/// exposed so external drivers can schedule independent SCCs concurrently.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// SCCs in reverse topological order (callees before callers): the
    /// pass-1 processing order.
    pub sccs: Vec<Vec<usize>>,
    /// Procedure index → index into `sccs`.
    pub scc_of: Vec<usize>,
    /// `deps[i]`: the SCCs of `sccs[i]`'s cross-SCC internal callees. Every
    /// dependency index is `< i` (reverse topological order), so pass 1 may
    /// run SCC `i` once all of `deps[i]` finished, and pass 2 (callers
    /// first) may run `i` once every SCC that depends on `i` finished.
    pub deps: Vec<BTreeSet<usize>>,
}

impl Condensation {
    /// Computes the condensation of a program's call graph.
    pub fn compute(program: &Program) -> Condensation {
        let sccs = tarjan_sccs(program);
        let mut scc_of = vec![0usize; program.procs.len()];
        for (i, scc) in sccs.iter().enumerate() {
            for &p in scc {
                scc_of[p] = i;
            }
        }
        let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); sccs.len()];
        for (i, scc) in sccs.iter().enumerate() {
            for &p in scc {
                for cs in &program.procs[p].callsites {
                    if let CallTarget::Internal(q) = cs.callee {
                        let j = scc_of[q];
                        if j != i {
                            deps[i].insert(j);
                        }
                    }
                }
            }
        }
        Condensation { sccs, scc_of, deps }
    }

    /// Groups SCCs into dependency waves for pass 1 (callees first): wave
    /// `k` contains every SCC whose dependencies all lie in waves `< k`, so
    /// the members of one wave are mutually independent and can be solved
    /// concurrently.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        group_waves(0..self.sccs.len(), |i| &self.deps[i])
    }

    /// Dependency waves for pass 2 (callers first): wave `k` contains every
    /// SCC all of whose *dependents* lie in waves `< k`.
    ///
    /// Note the concatenated waves do **not** enumerate SCCs in the exact
    /// `sccs.iter().rev()` order (an isolated SCC surfaces in wave 0
    /// regardless of its index). Merging wave outputs is nevertheless
    /// equivalent to the sequential merge because distinct SCCs write
    /// disjoint result keys — procedure names are unique per program and
    /// callsite tags are unique per callsite — and every *read* an SCC
    /// performs is of keys written by its dependents, which prior waves
    /// have fully merged. Within a wave, descending SCC order additionally
    /// matches the sequential tie-break should a degenerate program ever
    /// produce colliding keys inside one wave.
    pub fn refine_waves(&self) -> Vec<Vec<usize>> {
        // rdeps[j] = SCCs that call into j (all have index > j).
        let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); self.sccs.len()];
        for (i, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                rdeps[d].push(i);
            }
        }
        // Visiting in descending order keeps each wave in descending SCC
        // order (the sequential rev() order), so deterministic merges match
        // the sequential solver.
        group_waves((0..self.sccs.len()).rev(), |i| &rdeps[i])
    }
}

/// Puts each SCC, visited in `order`, in the wave after the latest wave of
/// its predecessors `preds` (all visited before it); each wave lists its
/// SCCs in visiting order.
fn group_waves<'a, P: IntoIterator<Item = &'a usize>>(
    order: impl ExactSizeIterator<Item = usize>,
    preds: impl Fn(usize) -> P,
) -> Vec<Vec<usize>> {
    let mut level = vec![0usize; order.len()];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for i in order {
        let l = preds(i).into_iter().map(|&d| level[d] + 1).max().unwrap_or(0);
        level[i] = l;
        if out.len() <= l {
            out.resize(l + 1, Vec::new());
        }
        out[l].push(i);
    }
    out
}

/// Builds the callsite-actuals index: callee name → tagged variables used
/// for that callee at every callsite in the program (`REFINEPARAMETERS`'s
/// uses-of-a-procedure relation).
pub fn callsite_actuals(program: &Program) -> BTreeMap<Symbol, Vec<BaseVar>> {
    let mut actuals: BTreeMap<Symbol, Vec<BaseVar>> = BTreeMap::new();
    for proc in &program.procs {
        for cs in &proc.callsites {
            let callee_name = cs.callee_name(program);
            actuals
                .entry(callee_name)
                .or_default()
                .push(BaseVar::var(&format!("{callee_name}@{}", cs.tag)));
        }
    }
    actuals
}

/// The whole-program solver.
#[derive(Clone, Debug)]
pub struct Solver<'l> {
    lattice: &'l Lattice,
}

impl<'l> Solver<'l> {
    /// Creates a solver over the given lattice.
    pub fn new(lattice: &'l Lattice) -> Solver<'l> {
        Solver { lattice }
    }

    /// Runs the two-pass pipeline on a program: sequential composition of
    /// [`Solver::solve_scc`] over the condensation in reverse topological
    /// order, then [`Solver::refine_scc`] in topological order.
    pub fn infer(&self, program: &Program) -> SolverResult {
        let start = Instant::now();
        let cond = Condensation::compute(program);
        let mut schemes: BTreeMap<Symbol, TypeScheme> = program.externals.clone();
        let mut stats = SolverStats::default();

        // ---- Pass 1: INFERPROCTYPES (callees first). ----
        let mut graphs = Vec::with_capacity(cond.sccs.len());
        for scc in &cond.sccs {
            let (out, graph) = self.solve_scc(program, scc, &cond.scc_of, &schemes);
            stats.constraints += out.constraints;
            stats.phases += out.phases;
            schemes.extend(out.schemes);
            graphs.push(graph);
        }

        // ---- Pass 2: INFERTYPES (callers first), on pass 1's graphs. ----
        let actuals = callsite_actuals(program);
        let mut sketches: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
        let mut general: BTreeMap<Symbol, Sketch> = BTreeMap::new();
        let mut inconsistencies = Vec::new();
        for (scc, graph) in cond.sccs.iter().zip(graphs).rev() {
            let r = self.refine_scc(
                program, scc, &cond.scc_of, &schemes, &actuals, &sketches, Some(graph),
            );
            stats.merge(&r.stats);
            inconsistencies.extend(r.inconsistencies);
            general.extend(r.general);
            sketches.extend(r.sketches);
        }

        let mut procs = BTreeMap::new();
        for proc in &program.procs {
            let pv = BaseVar::Var(proc.name);
            procs.insert(
                proc.name,
                ProcResult {
                    scheme: schemes
                        .get(&proc.name)
                        .cloned()
                        .unwrap_or_else(|| TypeScheme::empty(pv)),
                    sketch: sketches.get(&pv).cloned(),
                    general_sketch: general.get(&proc.name).cloned(),
                },
            );
        }
        inconsistencies.sort();
        inconsistencies.dedup();
        stats.solve_ns = start.elapsed().as_nanos() as u64;
        SolverResult {
            procs,
            inconsistencies,
            stats,
        }
    }

    /// Pass-1 step (`INFERPROCTYPES`, Algorithm F.1) for one SCC: combines
    /// the members' constraints with instantiated callee schemes, saturates
    /// the combined graph once, and extracts a type scheme per member from
    /// it. The SCC's [`SccGraph`] is returned beside the schemes for pass 2.
    /// Reads only the `schemes` snapshot (which must contain every
    /// cross-SCC callee), so independent SCCs may run concurrently against
    /// the same snapshot.
    pub fn solve_scc(
        &self,
        program: &Program,
        scc: &[usize],
        scc_of: &[usize],
        schemes: &BTreeMap<Symbol, TypeScheme>,
    ) -> (SccSchemes, SccGraph) {
        let builder = SchemeBuilder::new(self.lattice);
        let mut phases = PhaseNs::default();
        let (graph, constraints, out) =
            self.scc_graph(program, scc, scc_of, schemes, &mut phases, |g, quotient| {
                scc.iter()
                    .map(|&p| {
                        let name = program.procs[p].name;
                        let mut interesting: BTreeSet<BaseVar> = program.globals.clone();
                        interesting.insert(BaseVar::Var(name));
                        let (cs, existentials) = builder.extract(g, quotient, &interesting);
                        (name, TypeScheme::new(BaseVar::Var(name), existentials, cs))
                    })
                    .collect()
            });
        (SccSchemes { schemes: out, constraints, phases }, graph)
    }

    /// Pass-2 step (`INFERTYPES` + `REFINEPARAMETERS`, Algorithms F.2/F.3)
    /// for one SCC: solves the SCC's saturated graph into sketches and
    /// specializes each member by the join of the actual sketches recorded
    /// at its callsites.
    ///
    /// `graph` is the [`SccGraph`] pass 1 returned for this SCC; with
    /// `None` (pass 1 was answered from a cache) it is rebuilt, without
    /// scheme extraction, from `schemes`.
    ///
    /// `sketches` is a read-only snapshot of the sketches produced by
    /// already-processed (caller-side) SCCs; insertions made while
    /// processing this SCC are layered on top (intra-SCC callsites observe
    /// them, exactly as in the sequential pass) and returned in
    /// [`SccRefinement::sketches`] for the caller to merge.
    pub fn refine_scc(
        &self,
        program: &Program,
        scc: &[usize],
        scc_of: &[usize],
        schemes: &BTreeMap<Symbol, TypeScheme>,
        actuals: &BTreeMap<Symbol, Vec<BaseVar>>,
        sketches: &BTreeMap<BaseVar, Sketch>,
        graph: Option<SccGraph>,
    ) -> SccRefinement {
        let mut stats = SolverStats::default();
        let SccGraph { graph: g, quotient, consts } = match graph {
            Some(built) => built,
            None => {
                self.scc_graph(program, scc, scc_of, schemes, &mut stats.phases, |_, _| ()).0
            }
        };
        stats.graph_nodes += g.node_count();
        stats.graph_edges += g.edge_count();
        stats.quotient_nodes += quotient.node_count();
        let inconsistencies = timed("core.transducer", &mut stats.phases.transducer_ns, || {
            crate::transducer::scalar_violations(&g, self.lattice)
        });
        let mut overlay: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
        let mut general = Vec::new();
        timed("core.sketch", &mut stats.phases.sketch_ns, || {
            for &p in scc {
                let proc = &program.procs[p];
                let pv = BaseVar::Var(proc.name);
                let own = Sketch::infer(pv, &g, &quotient, self.lattice, &consts);
                if let Some(own) = own {
                    stats.sketch_states += own.len();
                    general.push((proc.name, own.clone()));
                    // REFINEPARAMETERS: meet with the join of actual sketches
                    // recorded at processed callsites.
                    let use_join = actuals
                        .get(&proc.name)
                        .into_iter()
                        .flatten()
                        .filter_map(|a| overlay.get(a).or_else(|| sketches.get(a)))
                        .fold(None, |u: Option<Sketch>, s| {
                            Some(u.map_or_else(|| s.clone(), |u| u.join(s, self.lattice)))
                        });
                    let refined = match use_join {
                        Some(u) => own.meet(&u, self.lattice),
                        None => own,
                    };
                    overlay.insert(pv, refined);
                }
                // Record sketches for this procedure's callsite actuals so
                // lower SCCs can specialize against them.
                for csite in &proc.callsites {
                    let callee_name = csite.callee_name(program);
                    let tagged = BaseVar::var(&format!("{callee_name}@{}", csite.tag));
                    if let Some(s) = Sketch::infer(tagged, &g, &quotient, self.lattice, &consts) {
                        stats.sketch_states += s.len();
                        overlay.insert(tagged, s);
                    }
                }
            }
        });
        SccRefinement {
            sketches: overlay,
            general,
            inconsistencies,
            stats,
        }
    }

    /// The one builder of an [`SccGraph`]: combines the SCC's constraints,
    /// saturates their graph, runs `extract` (pass 1's scheme extraction)
    /// against the plain shape quotient, then applies the additive
    /// constraints to the quotient for pass 2 and drops the combined set.
    /// Returns the graph, the combined constraint count and the extraction.
    fn scc_graph<R>(
        &self,
        program: &Program,
        scc: &[usize],
        scc_of: &[usize],
        schemes: &BTreeMap<Symbol, TypeScheme>,
        phases: &mut PhaseNs,
        extract: impl FnOnce(&ConstraintGraph, &ShapeQuotient) -> R,
    ) -> (SccGraph, usize, R) {
        let combined = timed("core.combine", &mut phases.combine_ns, || {
            let mut cs = self.scc_constraints(program, scc, scc_of, schemes);
            augment_in_place(&mut cs, self.lattice);
            cs
        });
        let (graph, mut quotient) = timed("core.saturate", &mut phases.saturate_ns, || {
            let mut g = ConstraintGraph::build(&combined);
            saturate(&mut g);
            (g, ShapeQuotient::build(&combined))
        });
        phases.saturations += 1;
        let extracted = timed("core.simplify", &mut phases.simplify_ns, || {
            extract(&graph, &quotient)
        });
        let consts = timed("core.saturate", &mut phases.saturate_ns, || {
            // Without additive constraints the call changes nothing.
            if combined.addsubs().next().is_some() {
                apply_addsubs(&combined, &mut quotient, self.lattice);
            }
            combined.constants()
        });
        (SccGraph { graph, quotient, consts }, combined.len(), extracted)
    }

    /// Combines the constraint sets of an SCC: bodies plus instantiated
    /// schemes for cross-SCC callees, plus monomorphic links for intra-SCC
    /// calls.
    pub fn scc_constraints(
        &self,
        program: &Program,
        scc: &[usize],
        scc_of: &[usize],
        schemes: &BTreeMap<Symbol, TypeScheme>,
    ) -> ConstraintSet {
        let mut combined = ConstraintSet::new();
        let my_scc = scc_of[scc[0]];
        for &p in scc {
            let proc = &program.procs[p];
            combined.extend(&proc.constraints);
            for csite in &proc.callsites {
                match csite.callee {
                    CallTarget::Internal(i) if scc_of[i] == my_scc => {
                        // Monomorphic within the SCC: the tagged variable is
                        // the callee itself.
                        let callee = program.procs[i].name;
                        let tagged = crate::DerivedVar::var(&format!("{callee}@{}", csite.tag));
                        let own = crate::DerivedVar::new(BaseVar::Var(callee));
                        combined.add_sub(tagged.clone(), own.clone());
                        combined.add_sub(own, tagged);
                    }
                    _ => {
                        if let Some(s) = schemes.get(&csite.callee_name(program)) {
                            let (inst, _) = s.instantiate(&csite.tag, &program.globals);
                            combined.extend(&inst);
                        }
                    }
                }
            }
        }
        combined
    }
}

/// Tarjan's strongly-connected-components algorithm over the call graph;
/// returned in reverse topological order (callees before callers), which is
/// the processing order for Pass 1.
pub fn tarjan_sccs(program: &Program) -> Vec<Vec<usize>> {
    struct State<'a> {
        program: &'a Program,
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(s: &mut State<'_>, v: usize) {
        s.index[v] = Some(s.next);
        s.low[v] = s.next;
        s.next += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        let callees: Vec<usize> = s.program.procs[v]
            .callsites
            .iter()
            .filter_map(|c| match c.callee {
                CallTarget::Internal(i) => Some(i),
                CallTarget::External(_) => None,
            })
            .collect();
        for w in callees {
            if s.index[w].is_none() {
                strongconnect(s, w);
                s.low[v] = s.low[v].min(s.low[w]);
            } else if s.on_stack[w] {
                s.low[v] = s.low[v].min(s.index[w].expect("indexed"));
            }
        }
        if s.low[v] == s.index[v].expect("indexed") {
            let mut scc = Vec::new();
            loop {
                let w = s.stack.pop().expect("stack nonempty");
                s.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            scc.sort_unstable();
            s.out.push(scc);
        }
    }
    let n = program.procs.len();
    let mut st = State {
        program,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(&mut st, v);
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_constraint_set;

    fn call(i: usize, tag: &str) -> Callsite {
        Callsite {
            callee: CallTarget::Internal(i),
            tag: tag.into(),
        }
    }

    fn proc(name: &str, cs: &str, callsites: Vec<Callsite>) -> Procedure {
        Procedure {
            name: Symbol::intern(name),
            constraints: parse_constraint_set(cs).unwrap(),
            callsites,
        }
    }

    #[test]
    fn sccs_respect_call_order() {
        // main → helper → leaf; leaf must come first.
        let mut prog = Program::new();
        prog.add_proc(proc(
            "main",
            "main.in_stack0 <= x",
            vec![call(1, "c1")],
        ));
        prog.add_proc(proc(
            "helper",
            "helper.in_stack0 <= y",
            vec![call(2, "c2")],
        ));
        prog.add_proc(proc("leaf", "leaf.out_eax <= int", vec![]));
        let sccs = tarjan_sccs(&prog);
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn mutual_recursion_is_one_scc() {
        let mut prog = Program::new();
        prog.add_proc(proc(
            "even",
            "",
            vec![call(1, "e")],
        ));
        prog.add_proc(proc(
            "odd",
            "",
            vec![call(0, "o")],
        ));
        let sccs = tarjan_sccs(&prog);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], vec![0, 1]);
    }

    #[test]
    fn polymorphic_identity_not_unified_across_callsites() {
        // id(x) = x, called once with int-ish and once with a pointer. The
        // callsite instantiations must stay independent: the int bound from
        // one callsite must not contaminate the other.
        let lattice = Lattice::c_types();
        let mut prog = Program::new();
        prog.add_proc(proc(
            "id",
            "id.in_stack0 <= v; v <= id.out_eax",
            vec![],
        ));
        prog.add_proc(proc(
            "caller",
            "
                int32 <= id@a.in_stack0
                id@a.out_eax <= caller.out_eax
                p.load.σ32@0 <= q
                p <= id@b.in_stack0
                id@b.out_eax <= r2
            ",
            vec![call(0, "a"), call(0, "b")],
        ));
        let result = Solver::new(&lattice).infer(&prog);
        // The scheme for id is input ⊑ output, polymorphically.
        let id = &result.procs[&Symbol::intern("id")];
        let printed = id.scheme.to_string();
        assert!(printed.contains("in_stack0"), "{printed}");
        assert!(printed.contains("out_eax"), "{printed}");
        // Callsite a's int flows to caller's return...
        let caller = &result.procs[&Symbol::intern("caller")];
        let sk = caller.sketch.as_ref().expect("caller sketch");
        let out = sk
            .walk(&[crate::Label::out_reg("eax")])
            .expect("out capability");
        let (low, _) = sk.interval(out);
        assert_eq!(lattice.name(low), "int32");
        // ...but callsite b's pointer does not contaminate it: the return
        // value gained no load capability.
        assert!(sk
            .step(out, crate::Label::Load)
            .is_none());
    }

    #[test]
    fn recursive_list_walker_end_to_end() {
        // close_last-like: walks a list, returns the int handle field.
        let lattice = Lattice::c_types();
        let mut prog = Program::new();
        prog.add_proc(proc(
            "close_last",
            "
                close_last.in_stack0 <= t
                t.load.σ32@0 <= t
                t.load.σ32@4 <= #FileDescriptor
                int <= close_last.out_eax
            ",
            vec![],
        ));
        let result = Solver::new(&lattice).infer(&prog);
        let r = &result.procs[&Symbol::intern("close_last")];
        let sk = r.sketch.as_ref().expect("sketch inferred");
        let w = |s: &str| {
            crate::parse::parse_derived_var(&format!("x.{s}"))
                .unwrap()
                .path()
                .to_vec()
        };
        assert!(sk.contains_word(&w("in_stack0.load.σ32@0.load.σ32@4")));
        assert!(result.inconsistencies.is_empty());
    }

    #[test]
    fn inconsistency_reported_not_fatal() {
        let lattice = Lattice::c_types();
        let mut prog = Program::new();
        prog.add_proc(proc(
            "weird",
            "int32 <= x; x <= float32; weird.in_stack0 <= x",
            vec![],
        ));
        let result = Solver::new(&lattice).infer(&prog);
        assert!(!result.inconsistencies.is_empty());
        assert!(result.procs.contains_key(&Symbol::intern("weird")));
    }
}
