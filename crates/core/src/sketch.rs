//! Sketches: the semantic model of the type system (§3.5, Appendix E).
//!
//! A sketch is a possibly infinite, finitely-branching regular tree with
//! edges labeled by field labels and nodes marked with elements of the
//! auxiliary lattice Λ. Collapsing isomorphic subtrees represents a sketch
//! as a deterministic finite automaton whose every state is accepting
//! (the language is prefix-closed).
//!
//! Sketches form a lattice (Figure 18):
//!
//! * `L(X ⊓ Y) = L(X) ∪ L(Y)` — *more* capabilities is *lower* (more
//!   constrained);
//! * `L(X ⊔ Y) = L(X) ∩ L(Y)`;
//! * node marks combine by `∧`/`∨` according to the variance of the word
//!   reaching the node.
//!
//! Sketch shapes are inferred from the [`crate::shapes::ShapeQuotient`]
//! (Theorem 3.1) and the marks are solved from the saturated constraint
//! graph (Algorithm F.2's `SOLVE`): at each node, lower bounds are joined
//! into the mark and upper bounds are met into it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::bitset::BitSet;
use crate::dtv::{BaseVar, DerivedVar};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::graph::{ConstraintGraph, NodeId};
use crate::intern::Symbol;
use crate::label::{Label, Loc};
use crate::lattice::{Lattice, LatticeElem};
use crate::shapes::{ClassId, ShapeQuotient};
use crate::variance::Variance;

/// State index within a [`Sketch`].
pub type SketchState = u32;

/// One state of a [`Sketch`] in decomposed form: the mark, the
/// `[lower, upper]` bound interval, and the labeled successors. This is the
/// serialization surface — [`Sketch::from_states`] reconstructs an
/// automaton from a state list, and the read accessors ([`Sketch::mark`],
/// [`Sketch::interval`], [`Sketch::edges`]) produce one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchStateSpec {
    /// The state's Λ mark.
    pub mark: LatticeElem,
    /// Lower constant bound (`⋁` of entailed lower bounds).
    pub lower: LatticeElem,
    /// Upper constant bound (`⋀` of entailed upper bounds).
    pub upper: LatticeElem,
    /// Labeled successors; labels must be distinct (the automaton is
    /// deterministic).
    pub edges: Vec<(Label, SketchState)>,
}

#[derive(Clone, PartialEq, Eq)]
struct Node {
    mark: LatticeElem,
    lower: LatticeElem,
    upper: LatticeElem,
    edges: BTreeMap<Label, SketchState>,
}

/// A sketch: a rooted, deterministic, prefix-closed automaton over field
/// labels with Λ-marked states.
///
/// A sketch is immutable once built: its states live in one shared
/// allocation, so `clone` bumps a reference count and shares them.
#[derive(Clone, PartialEq, Eq)]
pub struct Sketch {
    nodes: Arc<[Node]>,
    root: SketchState,
}

impl Sketch {
    /// The trivial sketch `{ε}` with the given root mark.
    pub fn leaf(mark: LatticeElem) -> Sketch {
        Sketch::leaf_with_interval(mark, mark, mark)
    }

    /// The trivial sketch `{ε}` with an explicit `[lower, upper]` interval.
    pub fn leaf_with_interval(
        mark: LatticeElem,
        lower: LatticeElem,
        upper: LatticeElem,
    ) -> Sketch {
        Sketch {
            nodes: Arc::new([Node {
                mark,
                lower,
                upper,
                edges: BTreeMap::new(),
            }]),
            root: 0,
        }
    }

    /// The ⊤ sketch: language `{ε}`, marked ⊤ (the greatest sketch).
    pub fn top(lattice: &Lattice) -> Sketch {
        Sketch::leaf(lattice.top())
    }

    /// Reconstructs a sketch from a decomposed state list (the inverse of
    /// walking [`Sketch::mark`] / [`Sketch::interval`] / [`Sketch::edges`]
    /// over `0..len`). Returns `None` if the list is empty, the root or any
    /// edge target is out of range, or a state carries duplicate edge
    /// labels — a deserializer must treat that as a corrupt record, not a
    /// panic.
    pub fn from_states(states: Vec<SketchStateSpec>, root: SketchState) -> Option<Sketch> {
        let n = states.len();
        if n == 0 || root as usize >= n {
            return None;
        }
        let mut nodes = Vec::with_capacity(n);
        for spec in states {
            let mut edges = BTreeMap::new();
            for (label, target) in spec.edges {
                if target as usize >= n || edges.insert(label, target).is_some() {
                    return None;
                }
            }
            nodes.push(Node {
                mark: spec.mark,
                lower: spec.lower,
                upper: spec.upper,
                edges,
            });
        }
        let nodes = nodes.into();
        Some(Sketch { nodes, root })
    }

    /// The root state.
    pub fn root(&self) -> SketchState {
        self.root
    }

    /// The mark of a state.
    pub fn mark(&self, s: SketchState) -> LatticeElem {
        self.nodes[s as usize].mark
    }

    /// The `[lower, upper]` bound interval of a state (used by the
    /// TIE-style evaluation metrics: interval size and conservativeness).
    pub fn interval(&self, s: SketchState) -> (LatticeElem, LatticeElem) {
        let n = &self.nodes[s as usize];
        (n.lower, n.upper)
    }

    /// The labeled successors of a state.
    pub fn edges(&self, s: SketchState) -> impl Iterator<Item = (Label, SketchState)> + '_ {
        self.nodes[s as usize].edges.iter().map(|(&l, &t)| (l, t))
    }

    /// Follows one label.
    pub fn step(&self, s: SketchState, l: Label) -> Option<SketchState> {
        self.nodes[s as usize].edges.get(&l).copied()
    }

    /// Follows a word from the root.
    pub fn walk(&self, word: &[Label]) -> Option<SketchState> {
        let mut cur = self.root;
        for &l in word {
            cur = self.step(cur, l)?;
        }
        Some(cur)
    }

    /// True if the word is in the sketch's language.
    pub fn contains_word(&self, word: &[Label]) -> bool {
        self.walk(word).is_some()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A sketch always has at least the root state.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Infers the sketch of `base` from the shape quotient, solving marks
    /// from the saturated graph (Algorithm F.2's `SOLVE`):
    ///
    /// * shape: the sub-automaton of the quotient reachable from `base`'s
    ///   class, with states split by path variance;
    /// * marks: initialized to ⊤ at covariant nodes and ⊥ at contravariant
    ///   nodes, then `ν := (ν ∨ ⋁ lowers) ∧ ⋀ uppers` where the bounds are
    ///   the type constants κ with `κ ⊑ base.u` / `base.u ⊑ κ` entailed.
    ///
    /// Returns `None` if `base` has no class (never mentioned).
    pub fn infer(
        base: BaseVar,
        g: &ConstraintGraph,
        quotient: &ShapeQuotient,
        lattice: &Lattice,
        consts: &[BaseVar],
    ) -> Option<Sketch> {
        let root_class = quotient.walk(base, &[])?;
        // BFS over (class, variance). The first-discovery tree — each
        // state's (parent, label) — is the trie of shortest representative
        // words the batched bound sweep walks below.
        let mut index: FxHashMap<(ClassId, Variance), SketchState> = FxHashMap::default();
        let mut nodes: Vec<Node> = Vec::new();
        let mut state_variance: Vec<Variance> = Vec::new();
        let mut tree_children: Vec<Vec<(Label, SketchState)>> = Vec::new();
        let mut queue: VecDeque<(ClassId, Variance)> = VecDeque::new();
        index.insert((root_class, Variance::Covariant), 0);
        nodes.push(Node {
            mark: lattice.top(),
            lower: lattice.bottom(),
            upper: lattice.top(),
            edges: BTreeMap::new(),
        });
        state_variance.push(Variance::Covariant);
        tree_children.push(Vec::new());
        queue.push_back((root_class, Variance::Covariant));
        while let Some((c, v)) = queue.pop_front() {
            let sid = index[&(c, v)];
            for (l, tc) in quotient.successors(c) {
                let tv = v * l.variance();
                let entry = (tc, tv);
                let tid = match index.get(&entry) {
                    Some(&t) => t,
                    None => {
                        let t = nodes.len() as SketchState;
                        index.insert(entry, t);
                        nodes.push(Node {
                            mark: lattice.top(),
                            lower: lattice.bottom(),
                            upper: lattice.top(),
                            edges: BTreeMap::new(),
                        });
                        state_variance.push(tv);
                        tree_children.push(Vec::new());
                        tree_children[sid as usize].push((l, t));
                        queue.push_back(entry);
                        t
                    }
                };
                nodes[sid as usize].edges.insert(l, tid);
            }
        }
        // One batched reachability sweep computes every state's constant
        // bounds at once (was: two `accepts` pushdown walks per state per
        // type constant).
        let bounds = solve_bounds(g, base, lattice, consts, &tree_children, &state_variance);
        // Solve the marks. Display policy per Figure 5: a covariant node
        // (output-like) shows the join of its lower bounds — everything
        // that flows into it; a contravariant node (input-like) shows the
        // meet of its upper bounds — everything demanded of it. The other
        // bound is used as a fallback when the primary one is degenerate.
        for (i, node) in nodes.iter_mut().enumerate() {
            let variance = state_variance[i];
            let (lower, upper) = bounds[i];
            let conflicted =
                lower != lattice.bottom() && upper != lattice.top() && !lattice.leq(lower, upper);
            let mark = if conflicted {
                // Inconsistent interval: signal ⊥ so the C-type conversion
                // applies the union policy (Example 4.2).
                lattice.bottom()
            } else {
                match variance {
                    Variance::Covariant if lower != lattice.bottom() => lower,
                    Variance::Covariant if upper != lattice.top() => upper,
                    Variance::Contravariant if upper != lattice.top() => upper,
                    Variance::Contravariant if lower != lattice.bottom() => lower,
                    _ => lattice.top(),
                }
            };
            node.mark = mark;
            node.lower = lower;
            node.upper = upper;
        }
        let nodes = nodes.into();
        Some(Sketch { nodes, root: 0 })
    }

    /// Meet (`⊓`): language union, marks combined by variance
    /// (Figure 18).
    pub fn meet(&self, other: &Sketch, lattice: &Lattice) -> Sketch {
        self.combine(other, lattice, true)
    }

    /// Join (`⊔`): language intersection, marks combined by variance
    /// (Figure 18).
    pub fn join(&self, other: &Sketch, lattice: &Lattice) -> Sketch {
        self.combine(other, lattice, false)
    }

    fn combine(&self, other: &Sketch, lattice: &Lattice, is_meet: bool) -> Sketch {
        type PState = (Option<SketchState>, Option<SketchState>, Variance);
        let mut index: FxHashMap<PState, SketchState> = FxHashMap::default();
        let mut nodes: Vec<Node> = Vec::new();
        let mut queue: VecDeque<PState> = VecDeque::new();
        let start = (Some(self.root), Some(other.root), Variance::Covariant);
        index.insert(start, 0);
        nodes.push(Node {
            mark: lattice.top(),
            lower: lattice.bottom(),
            upper: lattice.top(),
            edges: BTreeMap::new(),
        });
        queue.push_back(start);
        while let Some(st @ (a, b, v)) = queue.pop_front() {
            let sid = index[&st];
            // Mark (Figure 18).
            let blend = |xa: Option<LatticeElem>, xb: Option<LatticeElem>| match (xa, xb) {
                (Some(ma), Some(mb)) => match (is_meet, v) {
                    (true, Variance::Covariant) | (false, Variance::Contravariant) => {
                        lattice.meet(ma, mb)
                    }
                    (true, Variance::Contravariant) | (false, Variance::Covariant) => {
                        lattice.join(ma, mb)
                    }
                },
                (Some(ma), None) => ma,
                (None, Some(mb)) => mb,
                (None, None) => unreachable!("product state with no sides"),
            };
            nodes[sid as usize].mark = blend(a.map(|s| self.mark(s)), b.map(|s| other.mark(s)));
            nodes[sid as usize].lower = blend(
                a.map(|s| self.nodes[s as usize].lower),
                b.map(|s| other.nodes[s as usize].lower),
            );
            nodes[sid as usize].upper = blend(
                a.map(|s| self.nodes[s as usize].upper),
                b.map(|s| other.nodes[s as usize].upper),
            );
            // Successor labels: union for meet, intersection for join.
            let mut labels: Vec<Label> = Vec::new();
            if let Some(s) = a {
                labels.extend(self.edges(s).map(|(l, _)| l));
            }
            if let Some(s) = b {
                labels.extend(other.edges(s).map(|(l, _)| l));
            }
            labels.sort();
            labels.dedup();
            for l in labels {
                let ta = a.and_then(|s| self.step(s, l));
                let tb = b.and_then(|s| other.step(s, l));
                let keep = if is_meet {
                    ta.is_some() || tb.is_some()
                } else {
                    ta.is_some() && tb.is_some()
                };
                if !keep {
                    continue;
                }
                let nv = v * l.variance();
                let key = (ta, tb, nv);
                let tid = match index.get(&key) {
                    Some(&t) => t,
                    None => {
                        let t = nodes.len() as SketchState;
                        index.insert(key, t);
                        nodes.push(Node {
                            mark: lattice.top(),
                            lower: lattice.bottom(),
                            upper: lattice.top(),
                            edges: BTreeMap::new(),
                        });
                        queue.push_back(key);
                        t
                    }
                };
                nodes[sid as usize].edges.insert(l, tid);
            }
        }
        let nodes = nodes.into();
        Sketch { nodes, root: 0 }
    }

    /// The partial order `X ⊑ Y` on sketches: `L(Y) ⊆ L(X)` and for every
    /// word `w ∈ L(Y)`, the marks satisfy `νX(w) ≤ νY(w)` at covariant `w`
    /// and `νY(w) ≤ νX(w)` at contravariant `w`.
    pub fn leq(&self, other: &Sketch, lattice: &Lattice) -> bool {
        // Walk the product over other's language.
        let mut seen: FxHashMap<(SketchState, SketchState, Variance), ()> = FxHashMap::default();
        let mut queue: VecDeque<(SketchState, SketchState, Variance)> = VecDeque::new();
        queue.push_back((self.root, other.root, Variance::Covariant));
        seen.insert((self.root, other.root, Variance::Covariant), ());
        while let Some((a, b, v)) = queue.pop_front() {
            let (ma, mb) = (self.mark(a), other.mark(b));
            let ok = match v {
                Variance::Covariant => lattice.leq(ma, mb),
                Variance::Contravariant => lattice.leq(mb, ma),
            };
            if !ok {
                return false;
            }
            for (l, tb) in other.edges(b) {
                match self.step(a, l) {
                    None => return false, // L(other) ⊄ L(self)
                    Some(ta) => {
                        let key = (ta, tb, v * l.variance());
                        if seen.insert(key, ()).is_none() {
                            queue.push_back(key);
                        }
                    }
                }
            }
        }
        true
    }

    /// Structural equality up to bisimulation (language and marks).
    pub fn equivalent(&self, other: &Sketch, lattice: &Lattice) -> bool {
        self.leq(other, lattice) && other.leq(self, lattice)
    }

    /// Renders the sketch with one state per line (cyclic references shown
    /// by state number).
    pub fn render(&self, lattice: &Lattice) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(out, "%{i}: {}", lattice.name(n.mark));
            for (l, t) in &n.edges {
                let _ = write!(out, "  .{l} → %{t}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Computes every sketch state's constant-bound interval `[⋁ lowers, ⋀
/// uppers]` in one batch — the Appendix D.4 queries "which derived type
/// variables are bound above/below by which type constants", asked for all
/// representative words at once.
///
/// The per-state pushdown query `κ ⊑ base.w` (resp. `base.w ⊑ κ`) runs from
/// the constant's covariant entry node and pushes `w` back-to-front (resp.
/// pops `w` front-to-back) interleaved with ε steps, entering/leaving at the
/// `base` node of `w`'s variance. Instead of re-walking the graph per
/// (state, constant) pair, we take the product of the graph with the trie of
/// representative words (`tree_children`):
///
/// * **uppers** — forward sweep from `(base, V)`: ε edges keep the trie
///   state, a pop edge labeled `ℓ` advances to the trie child along `ℓ`.
///   Reaching a constant's covariant node at trie state `s` witnesses
///   `base.w_s ⊑ κ`.
/// * **lowers** — the same sweep on the *reversed* graph (reversed ε and
///   push edges): undoing the pushes of `κ ⇝ base.w_s` consumes `w_s`
///   front-to-back, i.e. exactly a root-to-`s` trie walk. Reaching the
///   constant's covariant node witnesses `κ ⊑ base.w_s`.
///
/// Both sweeps run once per entry variance `V`; a state's bounds are
/// recorded only by the sweep matching its full-word variance (the entry
/// node of its per-state query). The result is bit-identical to the former
/// per-constant `accepts` walks (see the `bounds_match_accepts_oracle`
/// test) at the cost of four product traversals total.
fn solve_bounds(
    g: &ConstraintGraph,
    base: BaseVar,
    lattice: &Lattice,
    consts: &[BaseVar],
    tree_children: &[Vec<(Label, SketchState)>],
    state_variance: &[Variance],
) -> Vec<(LatticeElem, LatticeElem)> {
    let n_states = state_variance.len();
    let mut lowers = vec![lattice.bottom(); n_states];
    let mut uppers = vec![lattice.top(); n_states];
    // Covariant entry nodes of the lattice-resolvable constants the caller
    // asked about (constants outside Λ contribute no bounds, as before).
    let allowed: FxHashSet<Symbol> = consts.iter().map(|b| b.name()).collect();
    let mut const_elem: FxHashMap<u32, LatticeElem> = FxHashMap::default();
    for n in g.nodes() {
        if n.variance() != Variance::Covariant {
            continue;
        }
        let d = g.dtv(n);
        if d.is_empty() && d.base().is_const() && allowed.contains(&d.base().name()) {
            if let Some(e) = lattice.element_sym(d.base().name()) {
                const_elem.insert(n.0, e);
            }
        }
    }
    if const_elem.is_empty() {
        return lowers.into_iter().zip(uppers).collect();
    }
    // Reversed ε / push adjacency for the lower-bound sweeps.
    let nc = g.node_count();
    let mut rev_eps: Vec<Vec<NodeId>> = vec![Vec::new(); nc];
    let mut rev_push: Vec<Vec<(Label, NodeId)>> = vec![Vec::new(); nc];
    for n in g.nodes() {
        for to in g.eps_out(n) {
            rev_eps[to.0 as usize].push(n);
        }
        for &(l, to) in g.push_out(n) {
            rev_push[to.0 as usize].push((l, n));
        }
    }
    let enc = |n: NodeId, s: SketchState| n.0 as usize * n_states + s as usize;
    let child_of = |s: SketchState, l: Label| {
        tree_children[s as usize]
            .iter()
            .find(|&&(cl, _)| cl == l)
            .map(|&(_, c)| c)
    };
    for v in [Variance::Covariant, Variance::Contravariant] {
        let entry = match g.node(&DerivedVar::new(base), v) {
            Some(n) => n,
            None => continue,
        };
        // Upper bounds: forward product sweep popping representative words.
        let mut seen = BitSet::new(nc * n_states);
        let mut stack: Vec<(NodeId, SketchState)> = vec![(entry, 0)];
        seen.insert(enc(entry, 0));
        while let Some((n, s)) = stack.pop() {
            if state_variance[s as usize] == v {
                if let Some(&e) = const_elem.get(&n.0) {
                    uppers[s as usize] = lattice.meet(uppers[s as usize], e);
                }
            }
            for to in g.eps_out(n) {
                if seen.insert(enc(to, s)) {
                    stack.push((to, s));
                }
            }
            for &(l, to) in g.pop_out(n) {
                if let Some(c) = child_of(s, l) {
                    if seen.insert(enc(to, c)) {
                        stack.push((to, c));
                    }
                }
            }
        }
        // Lower bounds: the same sweep over the reversed graph.
        let mut seen = BitSet::new(nc * n_states);
        let mut stack: Vec<(NodeId, SketchState)> = vec![(entry, 0)];
        seen.insert(enc(entry, 0));
        while let Some((n, s)) = stack.pop() {
            if state_variance[s as usize] == v {
                if let Some(&e) = const_elem.get(&n.0) {
                    lowers[s as usize] = lattice.join(lowers[s as usize], e);
                }
            }
            for &m in &rev_eps[n.0 as usize] {
                if seen.insert(enc(m, s)) {
                    stack.push((m, s));
                }
            }
            for &(l, m) in &rev_push[n.0 as usize] {
                if let Some(c) = child_of(s, l) {
                    if seen.insert(enc(m, c)) {
                        stack.push((m, c));
                    }
                }
            }
        }
    }
    lowers.into_iter().zip(uppers).collect()
}

impl fmt::Display for Sketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            write!(f, "%{i}:")?;
            for (l, t) in &n.edges {
                write!(f, " .{l}→%{t}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The wire's `sketch`/`general` text: the bytes `#[derive(Debug)]`
/// prints for `{:?}`, written piece by piece. `{:#?}` prints the same
/// one-line form.
impl fmt::Debug for Sketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sketch { nodes: [")?;
        for (i, n) in self.nodes.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { ", " })?;
            f.write_str("Node { mark: LatticeElem(")?;
            fmt::Display::fmt(&n.mark.0, f)?;
            f.write_str("), lower: LatticeElem(")?;
            fmt::Display::fmt(&n.lower.0, f)?;
            f.write_str("), upper: LatticeElem(")?;
            fmt::Display::fmt(&n.upper.0, f)?;
            f.write_str("), edges: {")?;
            for (j, (&l, t)) in n.edges.iter().enumerate() {
                f.write_str(if j == 0 { "" } else { ", " })?;
                debug_label(l, f)?;
                f.write_str(": ")?;
                fmt::Display::fmt(t, f)?;
            }
            f.write_str("} }")?;
        }
        f.write_str("], root: ")?;
        fmt::Display::fmt(&self.root, f)?;
        f.write_str(" }")
    }
}

/// A label as its derived `{:?}` prints it, in one line.
fn debug_label(l: Label, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let (variant, loc) = match l {
        Label::In(loc) => ("In(", loc),
        Label::Out(loc) => ("Out(", loc),
        Label::Sigma { bits, offset } => {
            f.write_str("Sigma { bits: ")?;
            fmt::Display::fmt(&bits, f)?;
            f.write_str(", offset: ")?;
            fmt::Display::fmt(&offset, f)?;
            return f.write_str(" }");
        }
        // `Load` and `Store` print their bare names in any mode.
        Label::Load | Label::Store => return fmt::Debug::fmt(&l, f),
    };
    f.write_str(variant)?;
    match loc {
        Loc::Stack(k) => {
            f.write_str("Stack(")?;
            fmt::Display::fmt(&k, f)?;
        }
        Loc::Reg(r) => {
            f.write_str("Reg(")?;
            fmt::Debug::fmt(r.as_str(), f)?;
        }
    }
    f.write_str("))")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_constraint_set;
    use crate::saturation::saturate;

    fn infer(src: &str, base: &str) -> (Sketch, Lattice) {
        let cs = parse_constraint_set(src).unwrap();
        let lattice = Lattice::c_types();
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        let quotient = ShapeQuotient::build(&cs);
        let consts = cs.constants();
        let sk = Sketch::infer(BaseVar::var(base), &g, &quotient, &lattice, &consts)
            .expect("base has a class");
        (sk, lattice)
    }

    fn word(s: &str) -> Vec<Label> {
        crate::parse::parse_derived_var(&format!("x.{s}"))
            .unwrap()
            .path()
            .to_vec()
    }

    #[test]
    fn figure2_like_sketch() {
        // A linked-list handle reader (Figure 2 / Figure 16 shape).
        let src = "
            f.in_stack0 <= t
            t.load.σ32@0 <= t
            t.load.σ32@4 <= #FileDescriptor
        ";
        let (sk, lat) = infer(src, "f");
        assert!(sk.contains_word(&word("in_stack0.load.σ32@0")));
        assert!(sk.contains_word(&word("in_stack0.load.σ32@0.load.σ32@4")));
        // The recursive state folds back: deep words stay in the language.
        assert!(sk.contains_word(&word(
            "in_stack0.load.σ32@0.load.σ32@0.load.σ32@4"
        )));
        // The handle field is marked #FileDescriptor (an upper bound at a
        // contravariant-path... here ⟨in.load.σ⟩ = ⊖, so the mark joins the
        // lower bounds: the field type must be *at most* #FileDescriptor).
        let s = sk.walk(&word("in_stack0.load.σ32@4")).unwrap();
        let mark = sk.mark(s);
        assert_eq!(lat.name(mark), "#FileDescriptor");
    }

    #[test]
    fn no_store_capability_for_const_param() {
        let src = "f.in_stack0 <= p; p.load.σ32@0 <= int";
        let (sk, _) = infer(src, "f");
        assert!(sk.contains_word(&word("in_stack0.load")));
        assert!(!sk.contains_word(&word("in_stack0.store")));
    }

    #[test]
    fn meet_unions_languages() {
        let (a, lat) = infer("f.in_stack0 <= x; x.load <= int", "f");
        let (b, _) = infer("f.out_eax <= y; int <= f.out_eax", "f");
        let m = a.meet(&b, &lat);
        assert!(m.contains_word(&word("in_stack0.load")));
        assert!(m.contains_word(&word("out_eax")));
        // Meet is the lattice glb: m ⊑ a and m ⊑ b.
        assert!(m.leq(&a, &lat));
        assert!(m.leq(&b, &lat));
    }

    #[test]
    fn join_intersects_languages() {
        let (a, lat) = infer("f.in_stack0 <= x; f.out_eax <= y", "f");
        let (b, _) = infer("f.in_stack0 <= z", "f");
        let j = a.join(&b, &lat);
        assert!(j.contains_word(&word("in_stack0")));
        assert!(!j.contains_word(&word("out_eax")));
        assert!(a.leq(&j, &lat));
        assert!(b.leq(&j, &lat));
    }

    #[test]
    fn lattice_laws_on_sketches() {
        let (a, lat) = infer("f.in_stack0 <= x; x.load <= int", "f");
        let (b, _) = infer("f.in_stack0 <= z; int <= z.store", "f");
        let (c, _) = infer("f.out_eax <= w", "f");
        // Idempotence, commutativity, absorption (up to bisimulation).
        assert!(a.meet(&a, &lat).equivalent(&a, &lat));
        assert!(a.join(&a, &lat).equivalent(&a, &lat));
        assert!(a.meet(&b, &lat).equivalent(&b.meet(&a, &lat), &lat));
        assert!(a.join(&b, &lat).equivalent(&b.join(&a, &lat), &lat));
        assert!(a.meet(&a.join(&c, &lat), &lat).equivalent(&a, &lat));
        assert!(a.join(&a.meet(&c, &lat), &lat).equivalent(&a, &lat));
    }

    #[test]
    fn bounds_match_accepts_oracle() {
        // Replicates the pre-batching bound computation — two `accepts`
        // pushdown walks per (state, constant) over the BFS representative
        // words — and checks the swept intervals are bit-identical.
        use crate::transducer::accepts;
        let sources = [
            "f.in_stack0 <= t; t.load.σ32@0 <= t; t.load.σ32@4 <= #FileDescriptor; int <= f.out_eax",
            "f.in_stack0 <= p; p.load.σ32@0 <= int; int32 <= p.store.σ32@0",
            "f.in_stack0 <= x; x <= int32; x <= #FileDescriptor; #SuccessZ <= x",
            "f.out_eax <= y; int32 <= y; y <= float32",
            "a <= f.in_stack0; f.in_stack0.store.σ32@0 <= b; int <= a; b <= uint",
            "int <= p.store.σ32@0; p.load.σ32@0 <= f.out_eax; f.in_stack0 <= p",
        ];
        let lattice = Lattice::c_types();
        for src in sources {
            let cs = parse_constraint_set(src).unwrap();
            let mut g = ConstraintGraph::build(&cs);
            saturate(&mut g);
            let quotient = ShapeQuotient::build(&cs);
            let consts = cs.constants();
            let base = BaseVar::var("f");
            let sk =
                Sketch::infer(base, &g, &quotient, &lattice, &consts).expect("f has a class");
            // Re-run the state BFS to recover the representative words.
            let root_class = quotient.walk(base, &[]).unwrap();
            let mut index: FxHashMap<(ClassId, Variance), u32> = FxHashMap::default();
            let mut reps: Vec<Vec<Label>> = vec![Vec::new()];
            let mut queue: VecDeque<(ClassId, Variance)> = VecDeque::new();
            index.insert((root_class, Variance::Covariant), 0);
            queue.push_back((root_class, Variance::Covariant));
            while let Some((c, v)) = queue.pop_front() {
                let sid = index[&(c, v)];
                let rep = reps[sid as usize].clone();
                for (l, tc) in quotient.successors(c) {
                    let tv = v * l.variance();
                    if !index.contains_key(&(tc, tv)) {
                        index.insert((tc, tv), reps.len() as u32);
                        let mut w = rep.clone();
                        w.push(l);
                        reps.push(w);
                        queue.push_back((tc, tv));
                    }
                }
            }
            assert_eq!(reps.len(), sk.len(), "state count, src={src}");
            for word in &reps {
                let dv = DerivedVar::with_path(base, word.clone());
                let mut lower = lattice.bottom();
                let mut upper = lattice.top();
                for &k in &consts {
                    let kd = DerivedVar::new(k);
                    let ke = match lattice.element_sym(k.name()) {
                        Some(e) => e,
                        None => continue,
                    };
                    if accepts(&g, &kd, &dv) {
                        lower = lattice.join(lower, ke);
                    }
                    if accepts(&g, &dv, &kd) {
                        upper = lattice.meet(upper, ke);
                    }
                }
                let sid = sk.walk(word).expect("rep word in language");
                assert_eq!(
                    sk.interval(sid),
                    (lower, upper),
                    "src = {src}, word = {word:?}"
                );
            }
        }
    }

    #[test]
    fn top_is_greatest() {
        let (a, lat) = infer("f.in_stack0 <= x; x.load <= int", "f");
        let top = Sketch::top(&lat);
        assert!(a.leq(&top, &lat));
        assert!(!top.leq(&a, &lat));
    }
}
