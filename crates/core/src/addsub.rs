//! Additive-constraint propagation: `ADD(X,Y;Z)` / `SUB(X,Y;Z)`
//! (Appendix A.6, Figure 13).
//!
//! Machine-code addition and subtraction conflate pointer arithmetic and
//! integer arithmetic. When neither operand is a statically known constant,
//! constraint generation emits a three-place additive constraint; this
//! module implements the Figure 13 inference table, conditionally
//! propagating *pointer-like* and *integer-like* classifications between
//! the operands and the result:
//!
//! | premise (ADD)          | conclusion              |
//! |------------------------|-------------------------|
//! | `x:int ∧ y:int`        | `z:int`                 |
//! | `z:int`                | `x:int ∧ y:int`         |
//! | `x:ptr`                | `y:int ∧ z:ptr`         |
//! | `y:ptr`                | `x:int ∧ z:ptr`         |
//! | `z:ptr ∧ x:int`        | `y:ptr`                 |
//! | `z:ptr ∧ y:int`        | `x:ptr`                 |
//!
//! and for `SUB` (`z = x − y`):
//!
//! | premise                | conclusion              |
//! |------------------------|-------------------------|
//! | `y:int ∧ z:int`        | `x:int`                 |
//! | `y:int ∧ z:ptr`        | `x:ptr`                 |
//! | `y:ptr`                | `x:ptr ∧ z:int`         |
//! | `x:ptr ∧ z:int`        | `y:ptr`                 |
//! | `x:ptr ∧ y:int`        | `z:ptr`                 |
//! | `x:ptr ∧ z:ptr`        | `y:int`                 |
//!
//! Following Appendix A.6, fully applied pointer conclusions also update
//! the shape quotient: `p ± i` shares its pointee shape with `p` (the
//! common array-indexing idiom), which is how "new subtype constraints are
//! added as the additive constraints are applied".
//!
//! The fixpoint starts from seed marks: pointer-like for a class with a
//! `.load` or `.store` edge, integer-like for one holding an integral
//! constant, found in one pass over the quotient's bare base variables.
//! The rules act only through additive constraints, so a set without any
//! is left unchanged by augmentation and skipped by the solver.

use std::collections::HashMap;

use crate::constraint::{AddSubKind, ConstraintSet};
use crate::dtv::DerivedVar;

use crate::lattice::Lattice;
use crate::shapes::{ClassId, ShapeQuotient};

/// Pointer/integer classification of a shape class.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PiMark {
    /// Classified integer-like.
    pub int_like: bool,
    /// Classified pointer-like.
    pub ptr_like: bool,
}

impl PiMark {
    /// True if both classifications apply — a cross-cast or bit-twiddling
    /// conflict (§2.6); resolved during C-type conversion with a union.
    pub fn conflicted(self) -> bool {
        self.int_like && self.ptr_like
    }
}

/// The result of additive-constraint application.
#[derive(Clone, Debug, Default)]
pub struct AddSubSolution {
    marks: HashMap<ClassId, PiMark>,
    /// Number of pointer-result unifications applied to the quotient.
    pub unified: usize,
}

impl AddSubSolution {
    /// The classification of a class (empty if never classified).
    pub fn mark(&self, c: ClassId) -> PiMark {
        self.marks.get(&c).copied().unwrap_or_default()
    }
}

/// Lattice elements considered integer-like for seeding the marks.
fn is_integral(lattice: &Lattice, name: crate::Symbol) -> bool {
    let Some(e) = lattice.element_sym(name) else {
        return false;
    };
    for root in [
        "int64", "uint64", "int32", "uint32", "int16", "uint16", "int8", "uint8", "char",
    ] {
        if let Some(r) = lattice.element(root) {
            if lattice.leq(e, r) && e != lattice.bottom() {
                return true;
            }
        }
    }
    false
}

/// Applies every additive constraint of `cs` to the quotient, computing
/// pointer/integer marks by fixpoint over the Figure 13 rules and unifying
/// pointer results with their pointer operand.
pub fn apply_addsubs(
    cs: &ConstraintSet,
    quotient: &mut ShapeQuotient,
    lattice: &Lattice,
) -> AddSubSolution {
    let mut sol = AddSubSolution::default();

    // Seed marks (see module docs); marks only ever grow.
    let seed = |q: &ShapeQuotient, sol: &mut AddSubSolution| {
        for c in q.classes() {
            if q.successors(c).iter().any(|(l, _)| l.is_pointer_access()) {
                sol.marks.entry(c).or_default().ptr_like = true;
            }
        }
        for (b, c) in q.bases() {
            if b.is_const() && is_integral(lattice, b.name()) {
                sol.marks.entry(c).or_default().int_like = true;
            }
        }
    };
    seed(quotient, &mut sol);

    let class = |q: &ShapeQuotient, d: &DerivedVar| q.walk(d.base(), d.path());

    // Fixpoint over the inference table.
    loop {
        let mut changed = false;
        for a in cs.addsubs() {
            let (Some(cx), Some(cy), Some(cz)) = (
                class(quotient, &a.x),
                class(quotient, &a.y),
                class(quotient, &a.z),
            ) else {
                continue;
            };
            let mut mx = sol.mark(cx);
            let mut my = sol.mark(cy);
            let mut mz = sol.mark(cz);
            let before = (mx, my, mz);
            match a.kind {
                AddSubKind::Add => {
                    if mx.int_like && my.int_like {
                        mz.int_like = true;
                    }
                    if mz.int_like {
                        mx.int_like = true;
                        my.int_like = true;
                    }
                    if mx.ptr_like {
                        my.int_like = true;
                        mz.ptr_like = true;
                    }
                    if my.ptr_like {
                        mx.int_like = true;
                        mz.ptr_like = true;
                    }
                    if mz.ptr_like && mx.int_like {
                        my.ptr_like = true;
                    }
                    if mz.ptr_like && my.int_like {
                        mx.ptr_like = true;
                    }
                }
                AddSubKind::Sub => {
                    if my.int_like && mz.int_like {
                        mx.int_like = true;
                    }
                    if my.int_like && mz.ptr_like {
                        mx.ptr_like = true;
                    }
                    if my.ptr_like {
                        mx.ptr_like = true;
                        mz.int_like = true;
                    }
                    if mx.ptr_like && mz.int_like {
                        my.ptr_like = true;
                    }
                    if mx.ptr_like && my.int_like {
                        mz.ptr_like = true;
                    }
                    if mx.ptr_like && mz.ptr_like {
                        my.int_like = true;
                    }
                }
            }
            if (mx, my, mz) != before {
                changed = true;
            }
            sol.marks.insert(cx, mx);
            sol.marks.insert(cy, my);
            sol.marks.insert(cz, mz);
        }
        if !changed {
            break;
        }
    }

    // Apply pointer-result unifications: z shares shape with the pointer
    // operand when the other operand is integral.
    for a in cs.addsubs() {
        let (Some(cx), Some(cy)) = (class(quotient, &a.x), class(quotient, &a.y)) else {
            continue;
        };
        let mx = sol.mark(cx);
        let my = sol.mark(cy);
        match a.kind {
            AddSubKind::Add => {
                if mx.ptr_like && !my.ptr_like {
                    quotient.unify(&a.z, &a.x);
                    sol.unified += 1;
                } else if my.ptr_like && !mx.ptr_like {
                    quotient.unify(&a.z, &a.y);
                    sol.unified += 1;
                }
            }
            AddSubKind::Sub => {
                if mx.ptr_like && !my.ptr_like {
                    quotient.unify(&a.z, &a.x);
                    sol.unified += 1;
                }
            }
        }
    }
    // Unification can merge classes with stale marks; reseed and refresh.
    seed(quotient, &mut sol);
    sol
}

/// The constraints implied by the final marks (Appendix A.6: "the
/// constraint set also should be updated with new subtype constraints as
/// the additive constraints are applied"): every bare variable in a class
/// classified integer-like (and not pointer-like) is bounded above by
/// `integral32`.
pub fn integral_bound_constraints(
    cs: &ConstraintSet,
    quotient: &ShapeQuotient,
    sol: &AddSubSolution,
    lattice: &Lattice,
) -> Vec<(DerivedVar, DerivedVar)> {
    let Some(_) = lattice.element("integral32") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut touched = std::collections::BTreeSet::new();
    for a in cs.addsubs() {
        for d in [&a.x, &a.y, &a.z] {
            if d.is_const() {
                continue;
            }
            let Some(c) = quotient.walk(d.base(), d.path()) else {
                continue;
            };
            let m = sol.mark(c);
            if m.int_like && !m.ptr_like && touched.insert(d.clone()) {
                out.push((d.clone(), DerivedVar::constant("integral32")));
            }
        }
    }
    out
}

/// Applies additive constraints and folds the implied integral bounds back
/// into a copy of the constraint set (one augmentation round).
pub fn augment_with_addsubs(cs: &ConstraintSet, lattice: &Lattice) -> ConstraintSet {
    let mut out = cs.clone();
    augment_in_place(&mut out, lattice);
    out
}

/// [`augment_with_addsubs`] without the copy. A set with no additive
/// constraints is left as it is, without building a quotient.
pub(crate) fn augment_in_place(cs: &mut ConstraintSet, lattice: &Lattice) {
    if cs.addsubs().next().is_none() {
        return;
    }
    let mut quotient = ShapeQuotient::build(cs);
    let sol = apply_addsubs(cs, &mut quotient, lattice);
    for (l, r) in integral_bound_constraints(cs, &quotient, &sol, lattice) {
        cs.add_sub(l, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AddSubConstraint;
    use crate::parse::{parse_constraint_set, parse_derived_var};

    fn dv(s: &str) -> DerivedVar {
        parse_derived_var(s).unwrap()
    }

    fn run(src: &str, addsubs: &[(AddSubKind, &str, &str, &str)]) -> (ShapeQuotient, AddSubSolution, ConstraintSet) {
        let mut cs = parse_constraint_set(src).unwrap();
        for (k, x, y, z) in addsubs {
            cs.add_addsub(AddSubConstraint {
                kind: *k,
                x: dv(x),
                y: dv(y),
                z: dv(z),
            });
        }
        let mut q = ShapeQuotient::build(&cs);
        let lat = Lattice::c_types();
        let sol = apply_addsubs(&cs, &mut q, &lat);
        (q, sol, cs)
    }

    #[test]
    fn int_plus_int_is_int() {
        let (q, sol, _) = run("x <= int32; y <= int32; z <= out", &[(
            AddSubKind::Add,
            "x",
            "y",
            "z",
        )]);
        let cz = q.walk(dv("z").base(), &[]).unwrap();
        assert!(sol.mark(cz).int_like);
        assert!(!sol.mark(cz).ptr_like);
    }

    #[test]
    fn pointer_plus_int_is_pointer_and_unifies() {
        let (q, sol, _) = run(
            "p.load.σ32@0 <= int32; i <= int32",
            &[(AddSubKind::Add, "p", "i", "z")],
        );
        let cz = q.walk(dv("z").base(), &[]).unwrap();
        assert!(sol.mark(cz).ptr_like);
        // z was unified with p: it has the same pointee shape.
        assert!(q.has_var(&dv("z.load.σ32@0")));
    }

    #[test]
    fn pointer_minus_pointer_is_int() {
        let (q, sol, _) = run(
            "a.load <= x; b.load <= y",
            &[(AddSubKind::Sub, "a", "b", "d")],
        );
        let cd = q.walk(dv("d").base(), &[]).unwrap();
        assert!(sol.mark(cd).int_like);
        assert!(!sol.mark(cd).ptr_like);
    }

    #[test]
    fn int_result_propagates_back() {
        // z known int ⟹ both ADD operands are int.
        let (q, sol, _) = run("z <= int32", &[(AddSubKind::Add, "x", "y", "z")]);
        for v in ["x", "y"] {
            let c = q.walk(dv(v).base(), &[]).unwrap();
            assert!(sol.mark(c).int_like, "{v} should be int-like");
        }
    }

    #[test]
    fn ptr_result_with_int_operand_infers_other_ptr() {
        let (q, sol, _) = run(
            "z.load <= w; x <= int32",
            &[(AddSubKind::Add, "x", "y", "z")],
        );
        let cy = q.walk(dv("y").base(), &[]).unwrap();
        assert!(sol.mark(cy).ptr_like);
    }

    #[test]
    fn seeding_reaches_constants_through_unions() {
        // x meets int32 only through the chain x ~ y ~ z ~ int32.
        let (q, sol, _) = run("x <= y; z <= y; z <= int32", &[]);
        let cx = q.walk(dv("x").base(), &[]).unwrap();
        assert!(sol.mark(cx).int_like);
        assert!(!sol.mark(cx).ptr_like);
    }

    #[test]
    fn seeding_ignores_non_integral_constants() {
        let (q, sol, _) = run("x <= y; y <= float32", &[]);
        let cx = q.walk(dv("x").base(), &[]).unwrap();
        assert_eq!(sol.mark(cx), PiMark::default());
    }

    #[test]
    fn seeding_marks_pointer_capabilities() {
        let (q, sol, _) = run("x <= y; y.store <= w", &[]);
        let cx = q.walk(dv("x").base(), &[]).unwrap();
        assert!(sol.mark(cx).ptr_like);
        assert!(!sol.mark(cx).int_like);
    }

    #[test]
    fn augment_without_addsubs_is_identity() {
        let cs = parse_constraint_set("x <= int32; p.load.σ32@0 <= x; y <= p.store").unwrap();
        assert_eq!(augment_with_addsubs(&cs, &Lattice::c_types()), cs);
    }

    #[test]
    fn conflict_detection() {
        let (q, sol, _) = run(
            "x.load <= w; x <= int32",
            &[],
        );
        let cx = q.walk(dv("x").base(), &[]).unwrap();
        assert!(sol.mark(cx).conflicted());
    }
}
