//! Queries over the saturated constraint graph, viewed as the transducer `Q`
//! of Theorem 5.1.
//!
//! The saturated graph accepts a pair `(X.u, Y.v)` — meaning
//! `C ⊢ X.u ⊑ Y.v` — iff there is a path from `(X, ⟨u⟩)` to `(Y, ⟨v⟩)` that
//! first pops exactly `u` (interleaved with ε steps) and then pushes exactly
//! `v` (Appendix D.4's "shadowing" discipline: all pops precede all pushes).

use crate::bitset::BitSet;
use crate::dtv::DerivedVar;
use crate::graph::{ConstraintGraph, NodeId};
use crate::lattice::Lattice;
use crate::variance::Variance;

/// True if the saturated graph witnesses `C ⊢ lhs ⊑ rhs` in the pushdown
/// system of Appendix D.
///
/// A subtype judgement `X.u ⊑ Y.v` may share a common label suffix `s`
/// (`u = u′s`, `v = v′s`) that no rule of the derivation touches: in the
/// pushdown encoding the suffix simply stays on the stack (Definition 5.3
/// allows any stack suffix), and deduction-wise it corresponds to trailing
/// S-FIELD applications.
///
/// Note that the pushdown system applies S-POINTER *unconditionally* (its
/// `∆ptr` contains `v.store ⊑ v.load` for every derived variable), so
/// acceptance slightly over-approximates the Figure 3 rules on words that
/// denote no derivable capability; gate queries with
/// [`crate::shapes::ShapeQuotient::has_var`] where that distinction
/// matters.
pub fn accepts(g: &ConstraintGraph, lhs: &DerivedVar, rhs: &DerivedVar) -> bool {
    if lhs == rhs {
        return true;
    }
    let u = lhs.path();
    let v = rhs.path();
    let max_suffix = u.len().min(v.len());
    for k in 0..=max_suffix {
        if k > 0 && u[u.len() - k] != v[v.len() - k] {
            break;
        }
        if accepts_trimmed(g, lhs, rhs, k) {
            return true;
        }
    }
    false
}

/// The base acceptance test with `k` trailing labels of both words left on
/// the stack untouched.
fn accepts_trimmed(g: &ConstraintGraph, lhs: &DerivedVar, rhs: &DerivedVar, k: usize) -> bool {
    let u = &lhs.path()[..lhs.path().len() - k];
    let v = &rhs.path()[..rhs.path().len() - k];
    // Entry and exit variances are those of the *full* words (the control
    // tags of ∆start/∆end match ⟨u⟩ and ⟨v⟩).
    let entry = match g.node(&DerivedVar::new(lhs.base()), lhs.variance()) {
        Some(n) => n,
        None => return false,
    };
    let exit = match g.node(&DerivedVar::new(rhs.base()), rhs.variance()) {
        Some(n) => n,
        None => return false,
    };

    // States are (node, pops done, pushes done); the pops-then-pushes
    // discipline bounds both counters, so the whole space packs into a
    // dense bitset with no hashing.
    let iw = u.len() + 1;
    let jw = v.len() + 1;
    let encode = |n: NodeId, i: usize, j: usize| (n.0 as usize * iw + i) * jw + j;
    let mut seen = BitSet::new(g.node_count() * iw * jw);
    let mut stack: Vec<(NodeId, usize, usize)> = Vec::with_capacity(64);
    seen.insert(encode(entry, 0, 0));
    stack.push((entry, 0, 0));
    while let Some((n, i, j)) = stack.pop() {
        if n == exit && i == u.len() && j == v.len() {
            return true;
        }
        for to in g.eps_out(n) {
            if seen.insert(encode(to, i, j)) {
                stack.push((to, i, j));
            }
        }
        if j == 0 && i < u.len() {
            for &(l, to) in g.pop_out(n) {
                if l == u[i] && seen.insert(encode(to, i + 1, j)) {
                    stack.push((to, i + 1, j));
                }
            }
        }
        if i == u.len() && j < v.len() {
            for &(l, to) in g.push_out(n) {
                if l == v[v.len() - 1 - j] && seen.insert(encode(to, i, j + 1)) {
                    stack.push((to, i, j + 1));
                }
            }
        }
    }
    false
}

/// Deferred consistency checking (§3): finds entailed scalar constraints
/// `κ₁ ⊑ κ₂` between type constants that do not hold in the lattice.
pub fn scalar_violations(g: &ConstraintGraph, lattice: &Lattice) -> Vec<(crate::Symbol, crate::Symbol)> {
    let mut out = Vec::new();
    let const_nodes: Vec<(NodeId, crate::Symbol)> = g
        .nodes()
        .filter_map(|n| {
            let d = g.dtv(n);
            if d.is_empty() && d.base().is_const() && n.variance() == Variance::Covariant {
                Some((n, d.base().name()))
            } else {
                None
            }
        })
        .collect();
    for &(n, k1) in &const_nodes {
        let (Some(e1),) = (lattice.element_sym(k1),) else {
            continue;
        };
        for m in eps_reachable(g, n) {
            let d = g.dtv(m);
            if d.is_empty() && d.base().is_const() && m.variance() == Variance::Covariant {
                let k2 = d.base().name();
                if let Some(e2) = lattice.element_sym(k2) {
                    if !lattice.leq(e1, e2) {
                        out.push((k1, k2));
                    }
                }
            }
        }
    }
    out
}

fn eps_reachable(g: &ConstraintGraph, from: NodeId) -> Vec<NodeId> {
    let mut seen = BitSet::new(g.node_count());
    let mut stack = vec![from];
    seen.insert(from.0 as usize);
    let mut out = Vec::new();
    while let Some(n) = stack.pop() {
        for to in g.eps_out(n) {
            if seen.insert(to.0 as usize) {
                stack.push(to);
                out.push(to);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_constraint_set, parse_derived_var};
    use crate::saturation::saturate;

    fn saturated(src: &str) -> ConstraintGraph {
        let cs = parse_constraint_set(src).unwrap();
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        g
    }

    #[test]
    fn reflexive_accepts() {
        let g = saturated("a <= b");
        let a = parse_derived_var("a.load").unwrap();
        assert!(accepts(&g, &a, &a));
    }

    #[test]
    fn missing_vars_reject() {
        let g = saturated("a <= b");
        let z = parse_derived_var("zz").unwrap();
        let a = parse_derived_var("a").unwrap();
        assert!(!accepts(&g, &z, &a));
    }
}
