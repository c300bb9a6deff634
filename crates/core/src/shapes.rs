//! Shape inference: the quotient graph of Theorem 3.1 / Algorithm E.1.
//!
//! The *shape quotient* determines, for every base variable, the regular
//! language of capability words it supports — `C ⊢ VAR τ.w` iff the word `w`
//! is readable from `τ`'s equivalence class. It is computed in almost-linear
//! time in the style of Steensgaard's pointer analysis:
//!
//! 1. one node per derived type variable (and prefix) mentioned in `C`, with
//!    a labeled edge `n(α) →ℓ n(α.ℓ)`;
//! 2. quotient by `∼`, where `n(α) ∼ n(β)` for each constraint `α ⊑ β`, and
//!    congruence propagates: if `n(α) ∼ n(β)` with edges `n(α) →ℓ n(α′)`,
//!    `n(β) →ℓ′ n(β′)` and `ℓ = ℓ′` (or `ℓ = .load`, `ℓ′ = .store` — the
//!    S-POINTER clause), then `n(α′) ∼ n(β′)`.
//!
//! The resulting classes are also the skeleton from which sketches are
//! built (Appendix E): the language of a sketch is the set of words readable
//! from a class, and [`crate::sketch`] decorates those states with lattice
//! marks.

use std::collections::{BTreeMap, VecDeque};

use crate::constraint::ConstraintSet;
use crate::dtv::{BaseVar, DerivedVar};
use crate::fxhash::FxHashMap;
use crate::label::Label;

/// An equivalence class of the shape quotient.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClassId(pub u32);

/// The shape quotient of a constraint set (Algorithm E.1's `G/∼`).
///
/// Like [`crate::graph::ConstraintGraph`], nodes are interned structurally:
/// a node is a base variable or a `(parent node, label)` child, so lookups
/// walk one small hash per label instead of hashing whole derived-variable
/// paths. (Node ids here are pre-quotient; classes come from the union-find
/// overlay.)
#[derive(Clone, Debug)]
pub struct ShapeQuotient {
    parent: Vec<u32>,
    /// Edge maps per node; only the representative's map is authoritative.
    edges: Vec<BTreeMap<Label, u32>>,
    /// The derived variable of each (pre-quotient) node.
    dtvs: Vec<DerivedVar>,
    /// Structural interner roots: base variable → node.
    base_nodes: FxHashMap<BaseVar, u32>,
    /// Structural interner steps: `(parent node, label)` → child node.
    child_nodes: FxHashMap<(u32, Label), u32>,
}

impl ShapeQuotient {
    /// Builds the quotient for a constraint set.
    pub fn build(cs: &ConstraintSet) -> ShapeQuotient {
        let mut q = ShapeQuotient {
            parent: Vec::new(),
            edges: Vec::new(),
            dtvs: Vec::new(),
            base_nodes: FxHashMap::default(),
            child_nodes: FxHashMap::default(),
        };
        let mut pending: VecDeque<(u32, u32)> = VecDeque::new();
        for c in cs.subtypes() {
            let a = q.ensure(&c.lhs);
            let b = q.ensure(&c.rhs);
            pending.push_back((a, b));
        }
        for v in cs.var_decls() {
            q.ensure(v);
        }
        for a in cs.addsubs() {
            q.ensure(&a.x);
            q.ensure(&a.y);
            q.ensure(&a.z);
        }
        while let Some((a, b)) = pending.pop_front() {
            q.union(a, b, &mut pending);
        }
        // Same-class load/store congruence for classes never unioned.
        let roots: Vec<u32> = (0..q.parent.len() as u32)
            .filter(|&i| q.find(i) == i)
            .collect();
        let mut more: VecDeque<(u32, u32)> = VecDeque::new();
        for r in roots {
            if let (Some(&l), Some(&s)) = (
                q.edges[r as usize].get(&Label::Load),
                q.edges[r as usize].get(&Label::Store),
            ) {
                more.push_back((l, s));
            }
        }
        while let Some((a, b)) = more.pop_front() {
            q.union(a, b, &mut more);
        }
        q
    }

    fn ensure(&mut self, dv: &DerivedVar) -> u32 {
        let mut n = self.ensure_base(dv.base());
        for &l in dv.path() {
            n = self.ensure_child(n, l);
        }
        n
    }

    fn ensure_base(&mut self, base: BaseVar) -> u32 {
        if let Some(&n) = self.base_nodes.get(&base) {
            return n;
        }
        let n = self.new_node(DerivedVar::new(base));
        self.base_nodes.insert(base, n);
        n
    }

    fn ensure_child(&mut self, p: u32, l: Label) -> u32 {
        if let Some(&n) = self.child_nodes.get(&(p, l)) {
            return n;
        }
        let dv = self.dtvs[p as usize].clone().push(l);
        let n = self.new_node(dv);
        self.child_nodes.insert((p, l), n);
        let pr = self.find(p);
        // A merged class may already carry an ℓ-edge; keep the existing
        // target and remember that `n` aliases it.
        if let Some(&t) = self.edges[pr as usize].get(&l) {
            self.parent[n as usize] = self.find(t);
        } else {
            self.edges[pr as usize].insert(l, n);
        }
        n
    }

    fn new_node(&mut self, dv: DerivedVar) -> u32 {
        let n = self.parent.len() as u32;
        self.parent.push(n);
        self.edges.push(BTreeMap::new());
        self.dtvs.push(dv);
        n
    }

    /// The (pre-quotient) node of a materialized derived variable, found by
    /// walking the structural interner.
    fn node_of_ro(&self, dv: &DerivedVar) -> Option<u32> {
        let mut n = *self.base_nodes.get(&dv.base())?;
        for &l in dv.path() {
            n = *self.child_nodes.get(&(n, l))?;
        }
        Some(n)
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn find_ro(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32, pending: &mut VecDeque<(u32, u32)>) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            self.check_pointer_congruence(ra, pending);
            return;
        }
        let (keep, drop) = if self.edges[ra as usize].len() >= self.edges[rb as usize].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[drop as usize] = keep;
        let dropped = std::mem::take(&mut self.edges[drop as usize]);
        for (l, t) in dropped {
            if let Some(&t2) = self.edges[keep as usize].get(&l) {
                if self.find(t) != self.find(t2) {
                    pending.push_back((t, t2));
                }
            } else {
                self.edges[keep as usize].insert(l, t);
            }
        }
        self.check_pointer_congruence(keep, pending);
    }

    /// The S-POINTER congruence clause: if a class has both `.load` and
    /// `.store` edges, their targets share a class (the pointee).
    fn check_pointer_congruence(&mut self, r: u32, pending: &mut VecDeque<(u32, u32)>) {
        if let (Some(&l), Some(&s)) = (
            self.edges[r as usize].get(&Label::Load),
            self.edges[r as usize].get(&Label::Store),
        ) {
            if self.find(l) != self.find(s) {
                pending.push_back((l, s));
            }
        }
    }

    /// The class of a materialized derived variable, if any.
    pub fn class_of(&self, dv: &DerivedVar) -> Option<ClassId> {
        self.node_of_ro(dv).map(|n| ClassId(self.find_ro(n)))
    }

    /// Walks the label word from `base`'s class, returning the class
    /// reached — this accepts exactly the capability language of `base`.
    pub fn walk(&self, base: BaseVar, word: &[Label]) -> Option<ClassId> {
        let mut cur = ClassId(self.find_ro(*self.base_nodes.get(&base)?));
        for &l in word {
            cur = self.step(cur, l)?;
        }
        Some(cur)
    }

    /// Follows one label from a class.
    pub fn step(&self, c: ClassId, l: Label) -> Option<ClassId> {
        let r = self.find_ro(c.0);
        self.edges[r as usize]
            .get(&l)
            .map(|&t| ClassId(self.find_ro(t)))
    }

    /// True if `C ⊢ VAR dv` (the word is in the capability language).
    pub fn has_var(&self, dv: &DerivedVar) -> bool {
        self.walk(dv.base(), dv.path()).is_some()
    }

    /// The outgoing labeled edges of a class (to representative classes).
    pub fn successors(&self, c: ClassId) -> Vec<(Label, ClassId)> {
        let r = self.find_ro(c.0);
        self.edges[r as usize]
            .iter()
            .map(|(&l, &t)| (l, ClassId(self.find_ro(t))))
            .collect()
    }

    /// Merges the classes of two derived variables (used when applying
    /// additive constraints, Algorithm E.1's `APPLYADDSUB` loop).
    pub fn unify(&mut self, a: &DerivedVar, b: &DerivedVar) {
        let na = self.ensure(a);
        let nb = self.ensure(b);
        let mut pending = VecDeque::new();
        pending.push_back((na, nb));
        while let Some((x, y)) = pending.pop_front() {
            self.union(x, y, &mut pending);
        }
    }

    /// Every bare base variable with its class, in no particular order.
    pub fn bases(&self) -> impl Iterator<Item = (BaseVar, ClassId)> + '_ {
        self.base_nodes
            .iter()
            .map(|(&b, &n)| (b, ClassId(self.find_ro(n))))
    }

    /// Iterates over all representative classes.
    pub fn classes(&self) -> Vec<ClassId> {
        (0..self.parent.len() as u32)
            .filter(|&i| self.find_ro(i) == i)
            .map(ClassId)
            .collect()
    }

    /// Number of nodes (pre-quotient).
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_constraint_set, parse_derived_var};

    fn quotient(src: &str) -> ShapeQuotient {
        ShapeQuotient::build(&parse_constraint_set(src).unwrap())
    }

    fn hv(q: &ShapeQuotient, s: &str) -> bool {
        q.has_var(&parse_derived_var(s).unwrap())
    }

    #[test]
    fn capabilities_flow_across_subtyping() {
        let q = quotient("a <= b; b.load.σ32@0 <= c");
        assert!(hv(&q, "a.load"));
        assert!(hv(&q, "a.load.σ32@0"));
        assert!(hv(&q, "b.load.σ32@0"));
        assert!(!hv(&q, "a.store"));
        assert!(!hv(&q, "c.load"));
    }

    #[test]
    fn pointer_congruence_merges_pointee() {
        // Both load and store mentioned: the pointee classes merge, and
        // values stored become comparable with values loaded.
        let q = quotient("x <= p.store.σ32@0; p.load.σ32@0 <= y");
        assert!(hv(&q, "p.load.σ32@0"));
        assert!(hv(&q, "p.store.σ32@0"));
        let x = q
            .class_of(&parse_derived_var("x").unwrap())
            .expect("x has a class");
        let y = q
            .class_of(&parse_derived_var("y").unwrap())
            .expect("y has a class");
        assert_eq!(x, y);
    }

    #[test]
    fn sibling_capabilities_after_pointer_merge() {
        // Both c.load.load and c.store.store exist, so the S-POINTER
        // congruence makes the mixed words part of the language.
        let q = quotient("a <= c.load.load; a <= c.store.store");
        assert!(hv(&q, "c.store.load"));
        assert!(hv(&q, "c.load.store"));
    }

    #[test]
    fn no_phantom_store_capability() {
        let q = quotient("a <= c.load.load");
        assert!(hv(&q, "c.load.load"));
        assert!(!hv(&q, "c.store"));
        assert!(!hv(&q, "c.store.load"));
    }

    #[test]
    fn recursion_yields_cyclic_classes() {
        let q = quotient("t.load.σ32@0 <= t; t.load.σ32@4 <= int");
        assert!(hv(&q, "t.load.σ32@0.load.σ32@0.load.σ32@4"));
        let t = q.class_of(&parse_derived_var("t").unwrap()).unwrap();
        let deep = q
            .walk(
                parse_derived_var("t").unwrap().base(),
                parse_derived_var("t.load.σ32@0").unwrap().path(),
            )
            .unwrap();
        assert_eq!(t, deep);
    }

    #[test]
    fn unify_merges() {
        let mut q = quotient("a.load <= x; b.store <= y");
        let a = parse_derived_var("a").unwrap();
        let b = parse_derived_var("b").unwrap();
        q.unify(&a, &b);
        assert!(hv(&q, "a.store"));
        assert!(hv(&q, "b.load"));
    }

    #[test]
    fn quotient_symmetrizes_subtyping() {
        // The shape quotient deliberately symmetrizes ⊑ (Theorem 3.1): both
        // supertypes of p.load land in one class. Only the *shape* is
        // unified; subtype direction is retained by the saturation solver.
        let q = quotient("p.load <= a; p.load <= b");
        let a = q.class_of(&parse_derived_var("a").unwrap()).unwrap();
        let b = q.class_of(&parse_derived_var("b").unwrap()).unwrap();
        let pl = q.class_of(&parse_derived_var("p.load").unwrap()).unwrap();
        assert_eq!(pl, a);
        assert_eq!(pl, b);
        assert_eq!(a, b);
    }
}
