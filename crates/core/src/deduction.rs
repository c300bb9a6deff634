//! A naive, bounded entailment oracle implementing the deduction rules of
//! Figure 3 directly.
//!
//! This exists to cross-validate the pushdown-system saturation solver
//! ([`crate::saturation`]): on small constraint sets, every constraint the
//! oracle derives (within the explored universe) must be accepted by the
//! transducer, and vice versa. It is exponential in the word-length bound
//! and must only be used on small inputs (tests, examples).
//!
//! The implemented rules are exactly Figure 3:
//!
//! * `T-LEFT` / `T-RIGHT`: `α ⊑ β ⟹ VAR α, VAR β`
//! * `T-PREFIX`: `VAR α.ℓ ⟹ VAR α`
//! * `T-INHERIT-L/R`: `α ⊑ β ⟹` capabilities transfer both ways
//! * `S-REFL`, `S-TRANS`
//! * `S-FIELD⊕` / `S-FIELD⊖`
//! * `S-POINTER`: `VAR α.load ∧ VAR α.store ⟹ α.store ⊑ α.load`

use std::collections::BTreeSet;

use crate::constraint::ConstraintSet;
use crate::dtv::DerivedVar;
use crate::label::Label;
use crate::variance::Variance;

/// Bounded deductive closure of a constraint set under the Figure 3 rules.
///
/// The universe of derived type variables explored is: every prefix of every
/// variable mentioned in the constraint set, extended by label words of
/// length at most `max_len` over the labels mentioned in the set (plus
/// `.load`/`.store`). Beware: the universe grows as `|Σ|^max_len`.
#[derive(Clone, Debug)]
pub struct Oracle {
    subs: BTreeSet<(DerivedVar, DerivedVar)>,
    vars: BTreeSet<DerivedVar>,
}

impl Oracle {
    /// Computes the closure. `max_len` bounds the length of label words in
    /// the explored universe.
    pub fn close(cs: &ConstraintSet, max_len: usize) -> Oracle {
        // Universe construction.
        let mut alphabet: BTreeSet<Label> = BTreeSet::new();
        for dv in cs.mentioned_vars() {
            for l in dv.path() {
                alphabet.insert(*l);
            }
        }
        alphabet.insert(Label::Load);
        alphabet.insert(Label::Store);

        let mut universe: BTreeSet<DerivedVar> = BTreeSet::new();
        let bases: BTreeSet<_> = cs.mentioned_vars().iter().map(|d| d.base()).collect();
        for base in &bases {
            let mut frontier = vec![DerivedVar::new(*base)];
            universe.insert(DerivedVar::new(*base));
            for _ in 0..max_len {
                let mut next = Vec::new();
                for d in &frontier {
                    for &l in &alphabet {
                        let e = d.clone().push(l);
                        if universe.insert(e.clone()) {
                            next.push(e);
                        }
                    }
                }
                frontier = next;
            }
        }
        // Seed facts. Mentioned variables and their prefixes exist
        // (closure assumptions of Appendix B), plus declared VARs.
        let mut subs: BTreeSet<(DerivedVar, DerivedVar)> = BTreeSet::new();
        let mut vars: BTreeSet<DerivedVar> = BTreeSet::new();
        for c in cs.subtypes() {
            subs.insert((c.lhs.clone(), c.rhs.clone()));
        }
        for d in cs.mentioned_vars() {
            for p in d.prefixes() {
                vars.insert(p);
            }
        }
        for d in cs.var_decls() {
            for p in d.prefixes() {
                vars.insert(p);
            }
        }

        // Fixpoint.
        let in_universe = |d: &DerivedVar| d.len() <= max_len && universe.contains(d);
        loop {
            let mut changed = false;
            // T-LEFT / T-RIGHT (+ T-PREFIX closure).
            let snapshot: Vec<_> = subs.iter().cloned().collect();
            for (l, r) in &snapshot {
                for side in [l, r] {
                    for p in side.prefixes() {
                        if in_universe(&p) && vars.insert(p) {
                            changed = true;
                        }
                    }
                }
            }
            // T-INHERIT both directions: if α ⊑ β and VAR α.ℓ then VAR β.ℓ
            // (and symmetrically).
            let var_snapshot: Vec<_> = vars.iter().cloned().collect();
            for (l, r) in &snapshot {
                for v in &var_snapshot {
                    if v.len() > l.len() && v.prefixes().any(|p| p == *l) {
                        // v = l.w — transfer the suffix to r.
                        let suffix = &v.path()[l.len()..];
                        let w = r.clone().extend(suffix.iter().copied());
                        if in_universe(&w) && vars.insert(w) {
                            changed = true;
                        }
                    }
                    if v.len() > r.len() && v.prefixes().any(|p| p == *r) {
                        let suffix = &v.path()[r.len()..];
                        let w = l.clone().extend(suffix.iter().copied());
                        if in_universe(&w) && vars.insert(w) {
                            changed = true;
                        }
                    }
                }
            }
            // S-FIELD⊕ / S-FIELD⊖.
            for (l, r) in &snapshot {
                for &lab in &alphabet {
                    let ll = l.clone().push(lab);
                    let rl = r.clone().push(lab);
                    if !in_universe(&ll) || !in_universe(&rl) {
                        continue;
                    }
                    // Fig. 3 requires VAR β.ℓ for both rules; existence of
                    // the other side follows by T-INHERIT.
                    if !vars.contains(&rl) && !vars.contains(&ll) {
                        continue;
                    }
                    let c = match lab.variance() {
                        Variance::Covariant => (ll, rl),
                        Variance::Contravariant => (rl, ll),
                    };
                    if subs.insert(c) {
                        changed = true;
                    }
                }
            }
            // S-POINTER.
            for v in &var_snapshot {
                if v.last_label() == Some(Label::Load) {
                    let base = v.parent().expect("load has a parent");
                    let store = base.clone().push(Label::Store);
                    if vars.contains(&store) && in_universe(v) {
                        if subs.insert((store, v.clone())) {
                            changed = true;
                        }
                    }
                }
            }
            // S-TRANS (semi-naive would be faster; inputs are tiny).
            let rhs_index: Vec<_> = subs.iter().cloned().collect();
            for (a, b) in &rhs_index {
                for (b2, c) in &rhs_index {
                    if b == b2 {
                        let cand = (a.clone(), c.clone());
                        if !subs.contains(&cand) {
                            subs.insert(cand);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Oracle { subs, vars }
    }

    /// True if `lhs ⊑ rhs` is in the bounded closure (S-REFL included).
    pub fn entails_sub(&self, lhs: &DerivedVar, rhs: &DerivedVar) -> bool {
        if lhs == rhs && self.vars.contains(lhs) {
            return true;
        }
        self.subs.contains(&(lhs.clone(), rhs.clone()))
    }

    /// True if `VAR v` is in the bounded closure.
    pub fn entails_var(&self, v: &DerivedVar) -> bool {
        self.vars.contains(v)
    }

    /// All subtype facts in the closure, for inspection.
    pub fn subtype_facts(&self) -> impl Iterator<Item = &(DerivedVar, DerivedVar)> {
        self.subs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_constraint_set, parse_derived_var};

    fn entails(cs: &str, query: &str, max_len: usize) -> bool {
        let cs = parse_constraint_set(cs).unwrap();
        let oracle = Oracle::close(&cs, max_len);
        let q = crate::parse::parse_constraint(query).unwrap();
        oracle.entails_sub(&q.lhs, &q.rhs)
    }

    #[test]
    fn transitivity() {
        assert!(entails("a <= b; b <= c", "a <= c", 1));
        assert!(!entails("a <= b; b <= c", "c <= a", 1));
    }

    #[test]
    fn field_covariant() {
        assert!(entails("a <= b; VAR b.load", "a.load <= b.load", 2));
    }

    #[test]
    fn field_contravariant() {
        assert!(entails("a <= b; VAR b.store", "b.store <= a.store", 2));
    }

    #[test]
    fn figure4_first_program() {
        // C′1 = {Q ⊑ P, X ⊑ P.store, Q.load ⊑ Y} ⊢ X ⊑ Y (§3.3).
        let cs = "q <= p; x <= p.store; q.load <= y";
        assert!(entails(cs, "x <= y", 2));
        assert!(!entails(cs, "y <= x", 2));
    }

    #[test]
    fn figure4_second_program() {
        // C′2 = {Q ⊑ P, X ⊑ Q.store, P.load ⊑ Y} ⊢ X ⊑ Y (§3.3).
        let cs = "q <= p; x <= q.store; p.load <= y";
        assert!(entails(cs, "x <= y", 2));
        assert!(!entails(cs, "y <= x", 2));
    }

    #[test]
    fn figure14_saturation_example() {
        // {y ⊑ p, p ⊑ x, A ⊑ x.store, y.load ⊑ B} ⊢ A ⊑ B.
        let cs = "y <= p; p <= x; A <= x.store; y.load <= B";
        assert!(entails(cs, "A <= B", 2));
        assert!(!entails(cs, "B <= A", 2));
    }

    #[test]
    fn capabilities_inherit() {
        let cs = parse_constraint_set("a <= b; VAR b.load.σ32@0").unwrap();
        let oracle = Oracle::close(&cs, 2);
        assert!(oracle.entails_var(&parse_derived_var("a.load").unwrap()));
        assert!(oracle.entails_var(&parse_derived_var("a.load.σ32@0").unwrap()));
    }

    #[test]
    fn no_spurious_pointer_rule() {
        // S-POINTER must not fire when only .load exists.
        let cs = parse_constraint_set("a.load <= b").unwrap();
        let oracle = Oracle::close(&cs, 2);
        let store = parse_derived_var("a.store").unwrap();
        let load = parse_derived_var("a.load").unwrap();
        assert!(!oracle.entails_sub(&store, &load));
    }
}
