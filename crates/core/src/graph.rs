//! The constraint graph: a finite encoding of the unconstrained pushdown
//! system `P_C` of Appendix D.
//!
//! Nodes are pairs *(derived type variable, variance)*; the variance
//! component tracks whether the ambient subtyping direction has been flipped
//! by contravariant labels (the `⊕`/`⊖` superscripts on control states in
//! Definition D.3). Edges come in three kinds:
//!
//! * **ε edges** encode constraints: `l ⊑ r` yields `(l,⊕) → (r,⊕)` and the
//!   dual `(r,⊖) → (l,⊖)` (the `rule⊕`/`rule⊖` constructions).
//! * **pop edges** `(x,v) --pop ℓ--> (x.ℓ, v·⟨ℓ⟩)` read a capability label
//!   from the input (the `∆start`-side chains).
//! * **push edges** `(x.ℓ,v) --push ℓ--> (x, v·⟨ℓ⟩)` write a capability
//!   label to the output (the `∆end`-side chains).
//!
//! A proof of `X.u ⊑ Y.v` in the Figure 3 system corresponds to a path from
//! `(X, ⟨u⟩)` to `(Y, ⟨v⟩)` whose stack-operation word reduces to
//! `pop u ⊗ push v` (Theorem D.1). [`crate::saturation`] closes the graph so
//! that balanced push/pop excursions become explicit ε edges.
//!
//! # Data plane
//!
//! The representation is index-based throughout, honoring the paper's point
//! that the finite `∆` encoding is what makes saturation tractable:
//!
//! * Derived type variables are interned per graph into a dense [`DtvId`]
//!   table (the per-process analogue is [`crate::intern::Symbol`]). The
//!   interner is *structural*: a dtv is a base variable or a
//!   `(parent, label)` child, so lookups walk one small hash per label
//!   instead of hashing and cloning whole path vectors.
//! * Adjacency is CSR-style and partitioned by [`EdgeKind`]: three flat
//!   target arrays (ε / pop / push) with per-node ranges, sealed once at the
//!   end of [`ConstraintGraph::build`]. Consumers that only care about one
//!   kind (saturation's shortcut rule pops, ε-closure queries) index their
//!   partition directly instead of filtering a mixed edge list.
//! * ε edges added *after* sealing — saturation's shortcut edges — go to an
//!   append-only per-node delta lane, so saturation can interleave reads and
//!   inserts without snapshotting adjacency.
//!
//! All ε insertions go through [`ConstraintGraph::add_eps_pair`], which adds
//! an edge together with its Lemma D.7 mirror and asserts (in debug builds)
//! that the graph stays mirror-symmetric at the insertion site.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use crate::constraint::ConstraintSet;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::dtv::{BaseVar, DerivedVar};
use crate::label::Label;
use crate::variance::Variance;

/// Dense per-graph index of an interned derived type variable.
///
/// Ids are assigned in first-materialization order; the two graph nodes of a
/// dtv (one per variance) are `2*id` and `2*id + 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DtvId(pub(crate) u32);

impl DtvId {
    /// The raw index (usable as a dense table key).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense index of a node `(derived type variable, variance)`.
///
/// The two variances of a derived variable occupy adjacent indices so that
/// the mirror involution of Lemma D.7 is `id ^ 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The mirror node `(d, ¬v)` (Lemma D.7's involution).
    pub fn mirror(self) -> NodeId {
        NodeId(self.0 ^ 1)
    }

    /// The variance component of this node.
    pub fn variance(self) -> Variance {
        if self.0 & 1 == 0 {
            Variance::Covariant
        } else {
            Variance::Contravariant
        }
    }

    /// The interned derived-variable id of this node.
    pub fn dtv_id(self) -> DtvId {
        DtvId(self.0 >> 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Kind of a graph edge (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// A subtype step (weight 1 in the `StackOp` semiring).
    Eps,
    /// Reads label `ℓ` from the input stack.
    Pop(Label),
    /// Writes label `ℓ` to the output stack.
    Push(Label),
}

/// A directed edge to `to` with the given kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Target node.
    pub to: NodeId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// Packs an ε edge into the dedup-set key.
fn eps_key(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

/// The constraint graph for one constraint set (see module docs for the
/// CSR layout).
#[derive(Clone, Debug)]
pub struct ConstraintGraph {
    /// Interned derived variables, one per [`DtvId`].
    dtvs: Vec<DerivedVar>,
    /// Structural interner roots: base variable → id of the bare dtv.
    base_ids: FxHashMap<BaseVar, DtvId>,
    /// Structural interner steps: `(parent, label)` → child id.
    children: FxHashMap<(DtvId, Label), DtvId>,
    /// CSR ε partition: `eps_tgt[eps_idx[n] .. eps_idx[n+1]]`.
    eps_idx: Vec<u32>,
    eps_tgt: Vec<NodeId>,
    /// Append-only ε delta lane for post-seal (saturation) insertions.
    eps_delta: Vec<Vec<NodeId>>,
    /// ε dedup set over `eps_key` (covers base + delta lanes).
    eps_set: FxHashSet<u64>,
    /// CSR pop partition (chain edges; immutable after sealing).
    pop_idx: Vec<u32>,
    pop_tgt: Vec<(Label, NodeId)>,
    /// CSR push partition (chain edges; immutable after sealing).
    push_idx: Vec<u32>,
    push_tgt: Vec<(Label, NodeId)>,
}

/// Pre-seal staging: per-node edge vectors, flattened into CSR by
/// [`GraphBuilder::seal`].
struct GraphBuilder {
    dtvs: Vec<DerivedVar>,
    base_ids: FxHashMap<BaseVar, DtvId>,
    children: FxHashMap<(DtvId, Label), DtvId>,
    eps: Vec<Vec<NodeId>>,
    pop: Vec<Vec<(Label, NodeId)>>,
    push: Vec<Vec<(Label, NodeId)>>,
    eps_set: FxHashSet<u64>,
}

impl GraphBuilder {
    fn new() -> GraphBuilder {
        GraphBuilder {
            dtvs: Vec::new(),
            base_ids: FxHashMap::default(),
            children: FxHashMap::default(),
            eps: Vec::new(),
            pop: Vec::new(),
            push: Vec::new(),
            eps_set: FxHashSet::default(),
        }
    }

    fn node_of(id: DtvId, v: Variance) -> NodeId {
        NodeId(id.0 * 2 + if v.is_covariant() { 0 } else { 1 })
    }

    fn new_dtv(&mut self, dv: DerivedVar) -> DtvId {
        let id = DtvId(self.dtvs.len() as u32);
        self.dtvs.push(dv);
        self.eps.push(Vec::new());
        self.eps.push(Vec::new());
        self.pop.push(Vec::new());
        self.pop.push(Vec::new());
        self.push.push(Vec::new());
        self.push.push(Vec::new());
        id
    }

    fn ensure_base(&mut self, base: BaseVar) -> DtvId {
        if let Some(&id) = self.base_ids.get(&base) {
            return id;
        }
        let id = self.new_dtv(DerivedVar::new(base));
        self.base_ids.insert(base, id);
        id
    }

    /// Materializes the child `parent.ℓ` with its pop/push chain edges in
    /// both variance rows.
    fn ensure_child(&mut self, parent: DtvId, label: Label) -> DtvId {
        if let Some(&id) = self.children.get(&(parent, label)) {
            return id;
        }
        let dv = self.dtvs[parent.index()].clone().push(label);
        let id = self.new_dtv(dv);
        self.children.insert((parent, label), id);
        // Chain edges in both variance rows:
        //   (x, v)   --pop ℓ-->  (x.ℓ, v·⟨ℓ⟩)
        //   (x.ℓ, v) --push ℓ--> (x,   v·⟨ℓ⟩)
        for v in [Variance::Covariant, Variance::Contravariant] {
            let x = Self::node_of(parent, v);
            let xl = Self::node_of(id, v.compose(label.variance()));
            self.pop[x.index()].push((label, xl));
            let xl_src = Self::node_of(id, v);
            let x_tgt = Self::node_of(parent, v.compose(label.variance()));
            self.push[xl_src.index()].push((label, x_tgt));
        }
        id
    }

    /// Interns a derived variable (and all its prefixes), walking the
    /// structural interner one label at a time.
    fn ensure_dtv(&mut self, dv: &DerivedVar) -> DtvId {
        let mut id = self.ensure_base(dv.base());
        for &l in dv.path() {
            id = self.ensure_child(id, l);
        }
        id
    }

    /// Adds the ε edges for constraint `l ⊑ r` and its dual `(r,⊖) → (l,⊖)`
    /// — which is exactly the Lemma D.7 mirror of the primary edge.
    fn add_constraint_edges(&mut self, lid: DtvId, rid: DtvId) {
        let from = Self::node_of(lid, Variance::Covariant);
        let to = Self::node_of(rid, Variance::Covariant);
        for (f, t) in [(from, to), (to.mirror(), from.mirror())] {
            if f != t && self.eps_set.insert(eps_key(f, t)) {
                self.eps[f.index()].push(t);
            }
        }
    }

    /// Flattens the per-node lanes into the sealed CSR graph.
    fn seal(self) -> ConstraintGraph {
        fn csr<T: Copy>(lanes: Vec<Vec<T>>) -> (Vec<u32>, Vec<T>) {
            let mut idx = Vec::with_capacity(lanes.len() + 1);
            let total = lanes.iter().map(Vec::len).sum();
            let mut tgt = Vec::with_capacity(total);
            idx.push(0);
            for lane in lanes {
                tgt.extend_from_slice(&lane);
                idx.push(tgt.len() as u32);
            }
            (idx, tgt)
        }
        let n = self.eps.len();
        let (eps_idx, eps_tgt) = csr(self.eps);
        let (pop_idx, pop_tgt) = csr(self.pop);
        let (push_idx, push_tgt) = csr(self.push);
        ConstraintGraph {
            dtvs: self.dtvs,
            base_ids: self.base_ids,
            children: self.children,
            eps_idx,
            eps_tgt,
            eps_delta: vec![Vec::new(); n],
            eps_set: self.eps_set,
            pop_idx,
            pop_tgt,
            push_idx,
            push_tgt,
        }
    }
}

impl ConstraintGraph {
    /// Builds the graph for a constraint set: materializes every prefix of
    /// every mentioned derived variable (in both variances) with its
    /// push/pop chains, and adds the ε edges for each subtype constraint
    /// and its dual.
    ///
    /// The materialized set is additionally closed under swapping `.load` ↔
    /// `.store` at any position. The pushdown system's `∆ptr` rule family
    /// (`v.store ⊑ v.load` for *every* derived variable `v`) can rewrite a
    /// pointer label mid-derivation, so the sibling chain must exist for
    /// saturation's lazy S-POINTER clause to find its pop edge. Sibling
    /// chains that correspond to no real capability are pruned later by the
    /// shape quotient (see [`crate::simplify`]).
    pub fn build(cs: &ConstraintSet) -> ConstraintGraph {
        let mut b = GraphBuilder::new();
        // Materialize every mention, caching the interned constraint
        // endpoints so the ε-edge pass below need not re-walk the paths.
        let endpoint_ids: Vec<(DtvId, DtvId)> = cs
            .subtypes()
            .map(|c| (b.ensure_dtv(&c.lhs), b.ensure_dtv(&c.rhs)))
            .collect();
        for v in cs.var_decls() {
            b.ensure_dtv(v);
        }
        for a in cs.addsubs() {
            b.ensure_dtv(&a.x);
            b.ensure_dtv(&a.y);
            b.ensure_dtv(&a.z);
        }
        // Sibling closure: `dtvs` grows monotonically, so a plain index scan
        // reaches a fixpoint (each variable has finitely many load/store
        // positions to toggle).
        let mut idx = 0;
        while idx < b.dtvs.len() {
            for i in 0..b.dtvs[idx].path().len() {
                let l = b.dtvs[idx].path()[i];
                let swapped = match l {
                    Label::Load => Label::Store,
                    Label::Store => Label::Load,
                    _ => continue,
                };
                let mut path = b.dtvs[idx].path().to_vec();
                path[i] = swapped;
                let base = b.dtvs[idx].base();
                b.ensure_dtv(&DerivedVar::with_path(base, path));
            }
            idx += 1;
        }
        for (lid, rid) in endpoint_ids {
            b.add_constraint_edges(lid, rid);
        }
        b.seal()
    }

    fn node_of(id: DtvId, v: Variance) -> NodeId {
        GraphBuilder::node_of(id, v)
    }

    /// Adds the ε edge `from → to` *and its Lemma D.7 mirror*
    /// `to.mirror() → from.mirror()` to the delta lane. Returns which of the
    /// two was new. This is the only post-seal mutation: saturation's
    /// shortcut rule inserts summary ε edges through it.
    pub fn add_eps_pair(&mut self, from: NodeId, to: NodeId) -> (bool, bool) {
        let a = self.insert_eps(from, to);
        let b = self.insert_eps(to.mirror(), from.mirror());
        // Lemma D.7: every ε insertion must leave the ε relation closed
        // under the mirror involution. `has_eps` consults the dedup set, so
        // a lane/set divergence (a representation bug) fails here, at the
        // insertion site, rather than in a downstream symmetry test.
        debug_assert!(
            (from == to || self.has_eps(from, to))
                && (from == to || self.has_eps(to.mirror(), from.mirror())),
            "ε insertion broke Lemma D.7 mirror symmetry: {from:?} → {to:?}"
        );
        (a, b)
    }

    fn insert_eps(&mut self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        if self.eps_set.insert(eps_key(from, to)) {
            self.eps_delta[from.index()].push(to);
            true
        } else {
            false
        }
    }

    /// True if the ε edge `from → to` is present.
    pub fn has_eps(&self, from: NodeId, to: NodeId) -> bool {
        self.eps_set.contains(&eps_key(from, to))
    }

    /// Looks up the interned id of a derived variable by walking the
    /// structural interner (no path cloning or whole-path hashing).
    pub fn dtv_id(&self, dv: &DerivedVar) -> Option<DtvId> {
        let mut id = *self.base_ids.get(&dv.base())?;
        for &l in dv.path() {
            id = *self.children.get(&(id, l))?;
        }
        Some(id)
    }

    /// Looks up the node for `(dv, variance)` if the dtv is materialized.
    pub fn node(&self, dv: &DerivedVar, v: Variance) -> Option<NodeId> {
        self.dtv_id(dv).map(|id| Self::node_of(id, v))
    }

    /// True if the derived variable is materialized (mentioned in the
    /// constraint set, a prefix of a mention, or in the load/store sibling
    /// closure thereof). Entailment queries between materialized variables
    /// are complete with respect to Figure 3; deeper words are supported
    /// only through the untouched-suffix mechanism (see
    /// [`crate::transducer::accepts`]).
    pub fn contains(&self, dv: &DerivedVar) -> bool {
        self.dtv_id(dv).is_some()
    }

    /// The derived variable of a node.
    pub fn dtv(&self, n: NodeId) -> &DerivedVar {
        &self.dtvs[n.dtv_id().index()]
    }

    /// ε successors of a node (base CSR lane, then the delta lane).
    pub fn eps_out(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let r = self.eps_idx[n.index()] as usize..self.eps_idx[n.index() + 1] as usize;
        self.eps_tgt[r]
            .iter()
            .chain(self.eps_delta[n.index()].iter())
            .copied()
    }

    /// Number of ε successors of `n` right now. Paired with
    /// [`ConstraintGraph::eps_out_nth`] this supports stable indexed
    /// iteration while the delta lane grows (it is append-only).
    pub fn eps_out_len(&self, n: NodeId) -> usize {
        (self.eps_idx[n.index() + 1] - self.eps_idx[n.index()]) as usize
            + self.eps_delta[n.index()].len()
    }

    /// The `i`-th ε successor of `n` (base lane first, then delta).
    pub fn eps_out_nth(&self, n: NodeId, i: usize) -> NodeId {
        let base = (self.eps_idx[n.index() + 1] - self.eps_idx[n.index()]) as usize;
        if i < base {
            self.eps_tgt[self.eps_idx[n.index()] as usize + i]
        } else {
            self.eps_delta[n.index()][i - base]
        }
    }

    /// Pop successors of a node: `(label, target)` pairs.
    pub fn pop_out(&self, n: NodeId) -> &[(Label, NodeId)] {
        &self.pop_tgt[self.pop_idx[n.index()] as usize..self.pop_idx[n.index() + 1] as usize]
    }

    /// The range of `n`'s pop edges within [`ConstraintGraph::pop_edges`]
    /// (the pop partition is immutable after build, so indices are stable).
    pub fn pop_range(&self, n: NodeId) -> Range<usize> {
        self.pop_idx[n.index()] as usize..self.pop_idx[n.index() + 1] as usize
    }

    /// The flat pop partition (indexable via [`ConstraintGraph::pop_range`]).
    pub fn pop_edges(&self) -> &[(Label, NodeId)] {
        &self.pop_tgt
    }

    /// Push successors of a node: `(label, target)` pairs.
    pub fn push_out(&self, n: NodeId) -> &[(Label, NodeId)] {
        &self.push_tgt[self.push_idx[n.index()] as usize..self.push_idx[n.index() + 1] as usize]
    }

    /// All outgoing edges of a node, ε partition first. Prefer the
    /// partitioned accessors ([`ConstraintGraph::eps_out`],
    /// [`ConstraintGraph::pop_out`], [`ConstraintGraph::push_out`]) in hot
    /// loops — this combined view exists for whole-graph walks (display,
    /// extraction).
    pub fn edges_out(&self, n: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.eps_out(n)
            .map(|to| Edge {
                to,
                kind: EdgeKind::Eps,
            })
            .chain(self.pop_out(n).iter().map(|&(l, to)| Edge {
                to,
                kind: EdgeKind::Pop(l),
            }))
            .chain(self.push_out(n).iter().map(|&(l, to)| Edge {
                to,
                kind: EdgeKind::Push(l),
            }))
    }

    /// Number of nodes (twice the number of materialized dtvs).
    pub fn node_count(&self) -> usize {
        self.dtvs.len() * 2
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.eps_set.len() + self.pop_tgt.len() + self.push_tgt.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over all materialized derived variables.
    pub fn dtvs(&self) -> impl Iterator<Item = &DerivedVar> {
        self.dtvs.iter()
    }

    /// All nodes whose dtv is the bare `base` variable.
    pub fn base_nodes(&self, base: BaseVar) -> Vec<NodeId> {
        match self.base_ids.get(&base) {
            Some(&id) => vec![
                Self::node_of(id, Variance::Covariant),
                Self::node_of(id, Variance::Contravariant),
            ],
            None => vec![],
        }
    }

    /// The set of base variables appearing in the graph.
    pub fn bases(&self) -> BTreeSet<BaseVar> {
        self.dtvs.iter().map(|d| d.base()).collect()
    }
}

impl fmt::Display for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in self.nodes() {
            for e in self.edges_out(n) {
                let kind = match e.kind {
                    EdgeKind::Eps => "ε".to_owned(),
                    EdgeKind::Pop(l) => format!("pop {l}"),
                    EdgeKind::Push(l) => format!("push {l}"),
                };
                writeln!(
                    f,
                    "({}, {}) --{}--> ({}, {})",
                    self.dtv(n),
                    n.variance(),
                    kind,
                    self.dtv(e.to),
                    e.to.variance()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_constraint_set;

    #[test]
    fn chains_materialize_with_variance() {
        let cs = parse_constraint_set("p.load.σ32@0 <= x").unwrap();
        let g = ConstraintGraph::build(&cs);
        // dtvs: p, p.load, p.load.σ32@0, x, plus the sibling-closure chain
        // p.store, p.store.σ32@0 → 12 nodes.
        assert_eq!(g.node_count(), 12);
        let p = crate::parse::parse_derived_var("p").unwrap();
        let pl = crate::parse::parse_derived_var("p.load").unwrap();
        let n_p = g.node(&p, Variance::Covariant).unwrap();
        // (p,⊕) --pop load--> (p.load,⊕)
        let has_pop = g
            .pop_out(n_p)
            .iter()
            .any(|&(l, to)| l == Label::Load && g.dtv(to) == &pl);
        assert!(has_pop);
    }

    #[test]
    fn store_chain_flips_variance() {
        let cs = parse_constraint_set("x <= p.store").unwrap();
        let g = ConstraintGraph::build(&cs);
        let p = crate::parse::parse_derived_var("p").unwrap();
        let ps = crate::parse::parse_derived_var("p.store").unwrap();
        let n_ps_co = g.node(&ps, Variance::Covariant).unwrap();
        // (p.store,⊕) --push store--> (p,⊖): variance flips through store.
        let pushes: Vec<_> = g
            .push_out(n_ps_co)
            .iter()
            .filter(|(l, _)| *l == Label::Store)
            .collect();
        assert_eq!(pushes.len(), 1);
        assert_eq!(g.dtv(pushes[0].1), &p);
        assert_eq!(pushes[0].1.variance(), Variance::Contravariant);
    }

    #[test]
    fn constraint_edges_have_duals() {
        let cs = parse_constraint_set("a <= b").unwrap();
        let g = ConstraintGraph::build(&cs);
        let a = DerivedVar::var("a");
        let b = DerivedVar::var("b");
        let a_co = g.node(&a, Variance::Covariant).unwrap();
        let b_contra = g.node(&b, Variance::Contravariant).unwrap();
        assert!(g.eps_out(a_co).any(|to| g.dtv(to) == &b));
        assert!(g.eps_out(b_contra).any(|to| g.dtv(to) == &a));
    }

    #[test]
    fn mirror_involution() {
        let n = NodeId(4);
        assert_eq!(n.variance(), Variance::Covariant);
        assert_eq!(n.mirror().variance(), Variance::Contravariant);
        assert_eq!(n.mirror().mirror(), n);
    }

    #[test]
    fn dtv_interning_is_structural() {
        let cs = parse_constraint_set("p.load.σ32@0 <= x").unwrap();
        let g = ConstraintGraph::build(&cs);
        let pl = crate::parse::parse_derived_var("p.load").unwrap();
        let id = g.dtv_id(&pl).expect("materialized");
        assert_eq!(&g.dtvs[id.index()], &pl);
        // Unmaterialized words miss without panicking.
        let deep = crate::parse::parse_derived_var("p.load.load").unwrap();
        assert!(g.dtv_id(&deep).is_none());
        assert!(!g.contains(&deep));
    }

    #[test]
    fn eps_pair_insertion_is_mirror_symmetric() {
        let cs = parse_constraint_set("a <= b; c <= d").unwrap();
        let mut g = ConstraintGraph::build(&cs);
        let a = g
            .node(&DerivedVar::var("a"), Variance::Covariant)
            .unwrap();
        let d = g
            .node(&DerivedVar::var("d"), Variance::Covariant)
            .unwrap();
        let (new_fwd, new_mirror) = g.add_eps_pair(a, d);
        assert!(new_fwd && new_mirror);
        assert!(g.has_eps(a, d));
        assert!(g.has_eps(d.mirror(), a.mirror()));
        // Re-insertion is a no-op in both lanes.
        assert_eq!(g.add_eps_pair(a, d), (false, false));
        assert!(g.eps_out(a).any(|t| t == d));
        assert!(g.eps_out(d.mirror()).any(|t| t == a.mirror()));
    }
}
