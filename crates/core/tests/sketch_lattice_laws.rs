//! Property tests: the sketches of §3.5 really do form a lattice
//! (Figure 18), with `⊑` a partial order compatible with meet and join.

use proptest::prelude::*;
use retypd_core::graph::ConstraintGraph;
use retypd_core::saturation::saturate;
use retypd_core::shapes::ShapeQuotient;
use retypd_core::{BaseVar, ConstraintSet, DerivedVar, Label, Lattice, Sketch};

/// Builds a random constraint set rooted at `f` and infers f's sketch.
fn sketch_from_seed(ops: &[(u8, u8, i32)], lattice: &Lattice) -> Sketch {
    let mut cs = ConstraintSet::new();
    let f = DerivedVar::var("f");
    cs.add_sub(
        f.clone().push(Label::in_stack(0)),
        DerivedVar::var("v0"),
    );
    for (i, &(kind, var, off)) in ops.iter().enumerate() {
        let src = DerivedVar::var(&format!("v{}", var as usize % (i + 1)));
        let dst = DerivedVar::var(&format!("v{}", i + 1));
        match kind % 5 {
            0 => cs.add_sub(
                src.push(Label::Load).push(Label::sigma(32, off.rem_euclid(5) * 4)),
                dst.clone(),
            ),
            1 => cs.add_sub(
                dst.clone(),
                src.push(Label::Store).push(Label::sigma(32, off.rem_euclid(5) * 4)),
            ),
            2 => cs.add_sub(src, dst.clone()),
            3 => cs.add_sub(src, DerivedVar::constant("int")),
            _ => cs.add_sub(DerivedVar::constant("#FileDescriptor"), src),
        }
        // Occasionally tie back to f's output for variety.
        if i % 3 == 2 {
            cs.add_sub(dst, f.clone().push(Label::out_reg("eax")));
        }
    }
    let mut g = ConstraintGraph::build(&cs);
    saturate(&mut g);
    let quotient = ShapeQuotient::build(&cs);
    let consts = cs.constants();
    Sketch::infer(BaseVar::var("f"), &g, &quotient, &lattice.clone(), &consts)
        .expect("f is mentioned")
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, i32)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), 0..6i32), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn meet_join_laws(a_ops in ops_strategy(), b_ops in ops_strategy(), c_ops in ops_strategy()) {
        let lattice = Lattice::c_types();
        let a = sketch_from_seed(&a_ops, &lattice);
        let b = sketch_from_seed(&b_ops, &lattice);
        let c = sketch_from_seed(&c_ops, &lattice);

        // Idempotence.
        prop_assert!(a.meet(&a, &lattice).equivalent(&a, &lattice));
        prop_assert!(a.join(&a, &lattice).equivalent(&a, &lattice));
        // Commutativity.
        prop_assert!(a.meet(&b, &lattice).equivalent(&b.meet(&a, &lattice), &lattice));
        prop_assert!(a.join(&b, &lattice).equivalent(&b.join(&a, &lattice), &lattice));
        // Absorption.
        prop_assert!(a.meet(&a.join(&b, &lattice), &lattice).equivalent(&a, &lattice));
        prop_assert!(a.join(&a.meet(&b, &lattice), &lattice).equivalent(&a, &lattice));
        // Associativity of meet (join follows by duality; checked anyway).
        let m1 = a.meet(&b, &lattice).meet(&c, &lattice);
        let m2 = a.meet(&b.meet(&c, &lattice), &lattice);
        prop_assert!(m1.equivalent(&m2, &lattice));
        let j1 = a.join(&b, &lattice).join(&c, &lattice);
        let j2 = a.join(&b.join(&c, &lattice), &lattice);
        prop_assert!(j1.equivalent(&j2, &lattice));
    }

    #[test]
    fn order_is_consistent_with_ops(a_ops in ops_strategy(), b_ops in ops_strategy()) {
        let lattice = Lattice::c_types();
        let a = sketch_from_seed(&a_ops, &lattice);
        let b = sketch_from_seed(&b_ops, &lattice);
        let m = a.meet(&b, &lattice);
        let j = a.join(&b, &lattice);
        // Meet is a lower bound; join is an upper bound.
        prop_assert!(m.leq(&a, &lattice));
        prop_assert!(m.leq(&b, &lattice));
        prop_assert!(a.leq(&j, &lattice));
        prop_assert!(b.leq(&j, &lattice));
        // leq agreement: a ⊑ b ⟺ a ⊓ b ≡ a ⟺ a ⊔ b ≡ b.
        let ab = a.leq(&b, &lattice);
        prop_assert_eq!(ab, a.meet(&b, &lattice).equivalent(&a, &lattice));
        prop_assert_eq!(ab, a.join(&b, &lattice).equivalent(&b, &lattice));
        // Reflexivity and top.
        prop_assert!(a.leq(&a, &lattice));
        prop_assert!(a.leq(&Sketch::top(&lattice), &lattice));
    }
}
