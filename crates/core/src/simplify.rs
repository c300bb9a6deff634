//! Constraint-set simplification and type-scheme inference (§5,
//! Algorithm D.3).
//!
//! Given a constraint set `C` and a set of *interesting* base variables
//! (procedure variables, globals — type constants are always interesting),
//! simplification produces a small constraint set `C′` mentioning only
//! interesting variables and fresh existential variables, such that `C′`
//! entails every interesting consequence of `C` (Definition 5.1):
//! capability constraints `VAR τ.u`, recursive constraints `τ.u ⊑ τ.v`, and
//! constant bounds `τ.u ⊑ κ` / `κ ⊑ τ.u`.
//!
//! The algorithm saturates the constraint graph (Appendix D), restricts it
//! to states on accepted pops-then-pushes paths between interesting
//! endpoints (Appendix D.4 "shadowing"), and re-reads each surviving edge as
//! a constraint over per-state variables (Algorithm D.3). Soundness of the
//! per-edge readings follows by substituting each synthesized variable with
//! the derived type variable it names; completeness follows from the
//! invariant that a pop-phase state `(d,⊕)` reached from entry `X` with pop
//! word `u` witnesses `X.u ⊑ d` (and dually for `⊖`).
//!
//! The restriction needs reachability in both directions, and the backward
//! walk reads predecessors from forward edges. By Lemma D.7 the saturated
//! graph is symmetric under the mirror involution `(d,v) ↦ (d,¬v)` with pop
//! and push exchanged (`k̄`): `s --k--> n` exists iff `n.mirror() --k̄-->
//! s.mirror()` does. ε edges are only inserted in mirrored pairs (the
//! build's constraint duals and [`ConstraintGraph::add_eps_pair`]), and
//! the pop edge `(x,v) → (x.ℓ, v·⟨ℓ⟩)` is built beside its mirror, the push
//! edge `(x.ℓ, ¬(v·⟨ℓ⟩)) → (x, ¬v)`. So no reverse adjacency is built.

use std::collections::BTreeSet;

use crate::constraint::ConstraintSet;
use crate::dtv::{BaseVar, DerivedVar};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::graph::{ConstraintGraph, DtvId, EdgeKind, NodeId};
use crate::intern::Symbol;
use crate::lattice::Lattice;
use crate::saturation::saturate;
use crate::scheme::TypeScheme;
use crate::shapes::ShapeQuotient;
use crate::variance::Variance;

/// Per-extraction fresh-variable source. Numbering restarts at `τ0` for
/// every extraction (in the deterministic edge-iteration order), so a
/// scheme's rendered form is a *canonical* function of its input constraint
/// set — independent of process history and of how many schemes other
/// threads are extracting concurrently. That canonicity is what lets the
/// parallel driver produce bit-identical schemes for any worker count and
/// lets its cache key schemes by content fingerprint. Collisions between
/// schemes are harmless: existentials only ever meet other constraint sets
/// through `TypeScheme::instantiate`, which `@tag`-renames them per
/// callsite.
struct FreshVars(u64);

impl FreshVars {
    fn new() -> FreshVars {
        FreshVars(0)
    }

    fn next(&mut self) -> BaseVar {
        let n = self.0;
        self.0 += 1;
        BaseVar::var(&format!("τ{n}"))
    }
}

/// Phase of the pops-then-pushes discipline (Appendix D.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Pop,
    Push,
}

/// Dense set over `(node, phase)` pairs — a [`crate::bitset::BitSet`] with
/// the phase folded into the low index bit.
struct PhaseSet {
    bits: crate::bitset::BitSet,
}

impl PhaseSet {
    fn new(node_count: usize) -> PhaseSet {
        PhaseSet {
            bits: crate::bitset::BitSet::new(node_count * 2),
        }
    }

    fn idx(n: NodeId, p: Phase) -> usize {
        (n.0 as usize) * 2 + (p == Phase::Push) as usize
    }

    /// Inserts; returns true if newly added.
    fn insert(&mut self, n: NodeId, p: Phase) -> bool {
        self.bits.insert(Self::idx(n, p))
    }

    fn contains(&self, n: NodeId, p: Phase) -> bool {
        self.bits.contains(Self::idx(n, p))
    }
}

/// Infers simplified type schemes from constraint sets.
///
/// ```
/// use retypd_core::{ConstraintSet, Lattice, SchemeBuilder};
///
/// let mut cs = ConstraintSet::new();
/// cs.add_sub_str("id.in_stack0", "v");
/// cs.add_sub_str("v", "id.out_eax");
/// let lattice = Lattice::c_types();
/// let scheme = SchemeBuilder::new(&lattice).infer("id", &cs);
/// // The identity function's scheme relates input to output.
/// let printed = scheme.constraints().to_string();
/// assert!(printed.contains("in_stack0"));
/// assert!(printed.contains("out_eax"));
/// ```
#[derive(Clone, Debug)]
pub struct SchemeBuilder<'l> {
    #[allow(dead_code)]
    lattice: &'l Lattice,
}

impl<'l> SchemeBuilder<'l> {
    /// Creates a builder.
    pub fn new(lattice: &'l Lattice) -> SchemeBuilder<'l> {
        SchemeBuilder { lattice }
    }

    /// Infers the type scheme of procedure `func` from its constraint set,
    /// keeping only `func` itself, type constants, and fresh existentials.
    pub fn infer(&self, func: &str, cs: &ConstraintSet) -> TypeScheme {
        let subject = BaseVar::var(func);
        let mut interesting = BTreeSet::new();
        interesting.insert(subject);
        self.infer_with_interesting(subject, &interesting, cs)
    }

    /// Infers a scheme keeping all of `interesting` (procedure variables of
    /// an SCC, globals) as endpoints.
    pub fn infer_with_interesting(
        &self,
        subject: BaseVar,
        interesting: &BTreeSet<BaseVar>,
        cs: &ConstraintSet,
    ) -> TypeScheme {
        let (constraints, existentials) = self.simplify(cs, interesting);
        TypeScheme::new(subject, existentials, constraints)
    }

    /// Simplifies `cs` down to constraints over `interesting` variables,
    /// type constants, and fresh existentials (returned alongside).
    pub fn simplify(
        &self,
        cs: &ConstraintSet,
        interesting: &BTreeSet<BaseVar>,
    ) -> (ConstraintSet, BTreeSet<Symbol>) {
        let mut g = ConstraintGraph::build(cs);
        saturate(&mut g);
        let quotient = ShapeQuotient::build(cs);
        self.extract(&g, &quotient, interesting)
    }

    /// Runs extraction on an already saturated graph.
    ///
    /// `quotient` supplies the capability language: graph nodes whose
    /// derived variable denotes no derivable capability (phantom siblings
    /// materialized for the unconditional `∆ptr` rules) are excluded, so
    /// schemes never leak phantom capabilities into callers.
    pub fn extract(
        &self,
        g: &ConstraintGraph,
        quotient: &ShapeQuotient,
        interesting: &BTreeSet<BaseVar>,
    ) -> (ConstraintSet, BTreeSet<Symbol>) {
        let is_endpoint =
            |b: BaseVar| -> bool { b.is_const() || interesting.contains(&b) };

        // Reality filter: a node participates iff its word is a derivable
        // capability of its base.
        let real: Vec<bool> = g
            .nodes()
            .map(|n| quotient.has_var(g.dtv(n)))
            .collect();
        let is_real = |n: NodeId| real[n.0 as usize];

        // Entry/exit nodes: bare interesting variables and constants.
        let mut endpoints: Vec<NodeId> = Vec::new();
        for n in g.nodes() {
            let d = g.dtv(n);
            if d.is_empty() && is_endpoint(d.base()) && is_real(n) {
                endpoints.push(n);
            }
        }
        if endpoints.is_empty() {
            return (ConstraintSet::new(), BTreeSet::new());
        }

        // Forward phase-aware reachability.
        let fwd = forward_states(g, &endpoints, &is_real);
        // Backward phase-aware reachability.
        let bwd = backward_states(g, &endpoints, &is_real);

        // Collect live edges. Iteration is node-major over the CSR
        // partitions, so the order (and with it the fresh-variable
        // numbering) is deterministic without a sorted set.
        let mut live_edges: Vec<(NodeId, NodeId, EdgeKind)> = Vec::new();
        for n in g.nodes() {
            if !is_real(n) {
                continue;
            }
            for e in g.edges_out(n) {
                if !is_real(e.to) {
                    continue;
                }
                let live = phase_transitions(e.kind)
                    .iter()
                    .any(|&(ps, pt)| fwd.contains(n, ps) && bwd.contains(e.to, pt));
                if live {
                    live_edges.push((n, e.to, e.kind));
                }
            }
        }

        // The extraction below covers the relational core; the capability
        // skeleton (VAR facts that never reach a constant) is emitted
        // separately from the shape quotient — see after the edge loop.
        //
        // Emit constraints. Synthesized names are keyed by the graph's
        // interned dtv ids — no derived-variable cloning or path hashing.
        let mut fresh = FreshVars::new();
        let mut names: FxHashMap<DtvId, BaseVar> = FxHashMap::default();
        let mut existentials: BTreeSet<Symbol> = BTreeSet::new();
        let var_of = |n: NodeId,
                          fresh: &mut FreshVars,
                          names: &mut FxHashMap<DtvId, BaseVar>,
                          existentials: &mut BTreeSet<Symbol>|
         -> DerivedVar {
            let d = g.dtv(n);
            if is_endpoint(d.base()) {
                return d.clone();
            }
            let base = *names.entry(n.dtv_id()).or_insert_with(|| fresh.next());
            existentials.insert(base.name());
            DerivedVar::new(base)
        };

        let mut out = ConstraintSet::new();
        let add = |l: DerivedVar, r: DerivedVar, out: &mut ConstraintSet| {
            if l == r {
                return;
            }
            if l.is_const() && r.is_const() && l.is_empty() && r.is_empty() {
                return;
            }
            out.add_sub(l, r);
        };

        for &(s, t, kind) in &live_edges {
            // Capabilities of interesting variables must survive even when
            // the chain-edge constraint below would be a skipped reflexive
            // (var(x).ℓ ⊑ var(x.ℓ) with both literal): declare them.
            if let EdgeKind::Pop(_) = kind {
                let dt = g.dtv(t);
                if is_endpoint(dt.base()) && !dt.base().is_const() {
                    out.add_var_decl(dt.clone());
                }
            }
            match kind {
                EdgeKind::Eps => {
                    let vs = var_of(s, &mut fresh, &mut names, &mut existentials);
                    let vt = var_of(t, &mut fresh, &mut names, &mut existentials);
                    match s.variance() {
                        Variance::Covariant => add(vs, vt, &mut out),
                        Variance::Contravariant => add(vt, vs, &mut out),
                    }
                }
                EdgeKind::Pop(l) => {
                    // s = (x, v), t = (x.ℓ, v·⟨ℓ⟩).
                    let vx = var_of(s, &mut fresh, &mut names, &mut existentials).push(l);
                    let vxl = var_of(t, &mut fresh, &mut names, &mut existentials);
                    match t.variance() {
                        Variance::Covariant => add(vx, vxl, &mut out),
                        Variance::Contravariant => add(vxl, vx, &mut out),
                    }
                }
                EdgeKind::Push(l) => {
                    // s = (x.ℓ, v), t = (x, v·⟨ℓ⟩).
                    let vxl = var_of(s, &mut fresh, &mut names, &mut existentials);
                    let vx = var_of(t, &mut fresh, &mut names, &mut existentials).push(l);
                    match s.variance() {
                        Variance::Covariant => add(vxl, vx, &mut out),
                        Variance::Contravariant => add(vx, vxl, &mut out),
                    }
                }
            }
        }

        // Capability skeleton: capabilities transfer across ⊑ in both
        // directions (T-INHERIT-L/R), so the right structure is the shape
        // quotient's sub-automaton rooted at each interesting variable
        // (Theorem 3.1). One fresh variable per reachable class; the chain
        // constraints reproduce the capability words, and `X ⊑ τ_root`
        // grafts them onto the interesting variable. The fresh variables
        // carry no lattice constants, so no bounds can leak through them.
        let mut class_var: FxHashMap<crate::shapes::ClassId, BaseVar> = FxHashMap::default();
        let mut emitted: FxHashSet<crate::shapes::ClassId> = FxHashSet::default();
        for base in interesting {
            if base.is_const() {
                continue;
            }
            let Some(root) = quotient.walk(*base, &[]) else {
                continue;
            };
            let root_var = *class_var.entry(root).or_insert_with(|| fresh.next());
            existentials.insert(root_var.name());
            out.add_sub(DerivedVar::new(*base), DerivedVar::new(root_var));
            let mut stack = vec![root];
            while let Some(c) = stack.pop() {
                if !emitted.insert(c) {
                    continue;
                }
                let cv = *class_var.entry(c).or_insert_with(|| fresh.next());
                existentials.insert(cv.name());
                for (l, t) in quotient.successors(c) {
                    let tv = *class_var.entry(t).or_insert_with(|| fresh.next());
                    existentials.insert(tv.name());
                    out.add_sub(DerivedVar::new(cv).push(l), DerivedVar::new(tv));
                    stack.push(t);
                }
            }
        }
        (out, existentials)
    }
}

fn phase_transitions(kind: EdgeKind) -> &'static [(Phase, Phase)] {
    match kind {
        EdgeKind::Eps => &[(Phase::Pop, Phase::Pop), (Phase::Push, Phase::Push)],
        EdgeKind::Pop(_) => &[(Phase::Pop, Phase::Pop)],
        EdgeKind::Push(_) => &[(Phase::Pop, Phase::Push), (Phase::Push, Phase::Push)],
    }
}

fn forward_states(
    g: &ConstraintGraph,
    entries: &[NodeId],
    is_real: &dyn Fn(NodeId) -> bool,
) -> PhaseSet {
    let mut seen = PhaseSet::new(g.node_count());
    let mut stack: Vec<(NodeId, Phase)> = Vec::new();
    for &n in entries {
        if seen.insert(n, Phase::Pop) {
            stack.push((n, Phase::Pop));
        }
    }
    while let Some((n, p)) = stack.pop() {
        for e in g.edges_out(n) {
            if !is_real(e.to) {
                continue;
            }
            for &(ps, pt) in phase_transitions(e.kind) {
                if ps == p && seen.insert(e.to, pt) {
                    stack.push((e.to, pt));
                }
            }
        }
    }
    seen
}

/// Backward phase-aware reachability to `exits`: `s --k--> n` exists iff
/// `n.mirror() --k̄--> s.mirror()` does (Lemma D.7, see module docs).
fn backward_states(
    g: &ConstraintGraph,
    exits: &[NodeId],
    is_real: &dyn Fn(NodeId) -> bool,
) -> PhaseSet {
    let mut seen = PhaseSet::new(g.node_count());
    let mut stack: Vec<(NodeId, Phase)> = Vec::new();
    for &n in exits {
        for p in [Phase::Pop, Phase::Push] {
            if seen.insert(n, p) {
                stack.push((n, p));
            }
        }
    }
    while let Some((n, p)) = stack.pop() {
        for e in g.edges_out(n.mirror()) {
            let src = e.to.mirror();
            if !is_real(src) {
                continue;
            }
            let kind = match e.kind {
                EdgeKind::Eps => EdgeKind::Eps,
                EdgeKind::Pop(l) => EdgeKind::Push(l),
                EdgeKind::Push(l) => EdgeKind::Pop(l),
            };
            for &(ps, pt) in phase_transitions(kind) {
                if pt == p && seen.insert(src, ps) {
                    stack.push((src, ps));
                }
            }
        }
    }
    seen
}

/// Builds and saturates the constraint graph of `cs` (a convenience for
/// entailment queries and diagnostics).
pub fn saturated_graph(cs: &ConstraintSet) -> ConstraintGraph {
    let mut g = ConstraintGraph::build(cs);
    saturate(&mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deduction::Oracle;
    use crate::parse::{parse_constraint_set, parse_derived_var};
    use crate::transducer::accepts;

    fn simplify(src: &str, func: &str) -> TypeScheme {
        let cs = parse_constraint_set(src).unwrap();
        let lat = Lattice::c_types();
        SchemeBuilder::new(&lat).infer(func, &cs)
    }

    #[test]
    fn keeps_constant_bounds() {
        // f's argument is loaded and passed to a function wanting int.
        let scheme = simplify(
            "f.in_stack0 <= v; v.load.σ32@0 <= w; w <= int",
            "f",
        );
        // The simplified constraints must still entail
        // f.in_stack0.load.σ32@0 ⊑ int.
        let g = saturated_graph(scheme.constraints());
        let lhs = parse_derived_var("f.in_stack0.load.σ32@0").unwrap();
        let rhs = parse_derived_var("int").unwrap();
        assert!(
            accepts(&g, &lhs, &rhs),
            "scheme lost the bound: {}",
            scheme
        );
    }

    #[test]
    fn backward_walk_matches_reversed_edges() {
        // The mirrored walk must reach exactly the states a walk over
        // explicitly reversed edges reaches, from every bare exit.
        for src in [
            "f.in_stack0 <= v; v.load.σ32@0 <= w; w <= int",
            "f.in_stack0 <= p; int <= p.store.σ32@0; p.load.σ32@4 <= f.out_eax",
            "f.in_stack0 <= v; v.load.σ32@0 <= v; int <= f.out_eax",
            "x <= p.store.σ32@0; p.load.σ32@0 <= y; y <= q.store; q.load <= f.out_eax",
        ] {
            let g = saturated_graph(&parse_constraint_set(src).unwrap());
            let mut rev = vec![Vec::new(); g.node_count()];
            for n in g.nodes() {
                for e in g.edges_out(n) {
                    rev[e.to.0 as usize].push((n, e.kind));
                }
            }
            for exit in g.nodes().filter(|&n| g.dtv(n).is_empty()) {
                let mut want = PhaseSet::new(g.node_count());
                let mut stack = Vec::new();
                for p in [Phase::Pop, Phase::Push] {
                    want.insert(exit, p);
                    stack.push((exit, p));
                }
                while let Some((n, p)) = stack.pop() {
                    for &(s, kind) in &rev[n.0 as usize] {
                        for &(ps, pt) in phase_transitions(kind) {
                            if pt == p && want.insert(s, ps) {
                                stack.push((s, ps));
                            }
                        }
                    }
                }
                let got = backward_states(&g, &[exit], &|_| true);
                for n in g.nodes() {
                    for p in [Phase::Pop, Phase::Push] {
                        assert_eq!(
                            got.contains(n, p),
                            want.contains(n, p),
                            "{src}: exit {}, state ({}, {p:?})",
                            g.dtv(exit),
                            g.dtv(n)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eliminates_internal_variables() {
        let scheme = simplify("f.in_stack0 <= v; v <= w; w <= f.out_eax", "f");
        for c in scheme.constraints().subtypes() {
            for side in [&c.lhs, &c.rhs] {
                let b = side.base();
                let name = b.name().as_str();
                assert!(
                    b.is_const() || name == "f" || name.starts_with('τ'),
                    "unexpected variable {side} in {}",
                    scheme
                );
            }
        }
        // And the input/output relation survives.
        let g = saturated_graph(scheme.constraints());
        let lhs = parse_derived_var("f.in_stack0").unwrap();
        let rhs = parse_derived_var("f.out_eax").unwrap();
        assert!(accepts(&g, &lhs, &rhs), "lost in→out flow: {scheme}");
    }

    #[test]
    fn recursive_structure_survives() {
        // A linked-list walk: the value loaded at offset 0 flows back into
        // the loop variable (Figure 2's shape).
        let src = "
            f.in_stack0 <= v
            v.load.σ32@0 <= v
            v.load.σ32@4 <= #FileDescriptor
            int <= f.out_eax
        ";
        let scheme = simplify(src, "f");
        let g = saturated_graph(scheme.constraints());
        // One unrolling of the recursion must still be derivable.
        let deep =
            parse_derived_var("f.in_stack0.load.σ32@0.load.σ32@4").unwrap();
        let fd = parse_derived_var("#FileDescriptor").unwrap();
        assert!(accepts(&g, &deep, &fd), "recursion lost: {scheme}");
        let out = parse_derived_var("f.out_eax").unwrap();
        let int = parse_derived_var("int").unwrap();
        assert!(accepts(&g, &int, &out));
    }

    #[test]
    fn capability_skeleton_preserved() {
        // f reads a field of its argument but the value is unconstrained:
        // no constant endpoint, yet the capability must survive so callers
        // know the argument is a pointer to a ≥8-byte struct.
        let scheme = simplify("f.in_stack0 <= v; v.load.σ32@4 <= w", "f");
        let cs = scheme.constraints();
        let oracle = Oracle::close(cs, 3);
        let cap = parse_derived_var("f.in_stack0.load.σ32@4").unwrap();
        assert!(
            oracle.entails_var(&cap),
            "capability lost: {scheme}"
        );
    }

    #[test]
    fn soundness_no_invented_relations() {
        // x and y are unrelated in C; the scheme must not relate them.
        let src = "f.in_stack0 <= x; y <= f.out_eax; x <= int; int <= y";
        let scheme = simplify(src, "f");
        let g = saturated_graph(scheme.constraints());
        let input = parse_derived_var("f.in_stack0").unwrap();
        let output = parse_derived_var("f.out_eax").unwrap();
        // in ⊑ int ⊑ out IS derivable in C (through int), so this must hold:
        assert!(accepts(&g, &input, &output));
        // but out ⊑ in must not appear.
        assert!(!accepts(&g, &output, &input));
    }

    #[test]
    fn contravariant_input_position() {
        // A function that stores int through its pointer argument:
        // int ⊑ f.in_stack0.store.σ32@0.
        let src = "f.in_stack0 <= p; int <= p.store.σ32@0";
        let scheme = simplify(src, "f");
        let g = saturated_graph(scheme.constraints());
        let lhs = parse_derived_var("int").unwrap();
        let rhs = parse_derived_var("f.in_stack0.store.σ32@0").unwrap();
        assert!(accepts(&g, &lhs, &rhs), "store bound lost: {scheme}");
    }
}
