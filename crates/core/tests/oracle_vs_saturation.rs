//! Cross-validation of the pushdown saturation solver against the naive
//! Figure 3 deduction oracle.
//!
//! * **Completeness**: every subtype fact the bounded oracle derives
//!   *between materialized derived variables* must be accepted by the
//!   saturated-graph transducer (Theorem D.1, ⇒ direction). The
//!   materialization scope — mentions, prefixes, and their load/store
//!   sibling closure — is the documented completeness envelope: like the
//!   paper's Algorithm D.2, the saturation does not instantiate the
//!   pushdown `∆ptr` rules at arbitrary unmentioned depths, so Fig. 3
//!   entailments reachable only by repeatedly S-FIELD-lifting S-POINTER
//!   conclusions beyond that envelope are out of scope.
//! * **Soundness**: every pair the transducer accepts between *derivable
//!   capabilities* (shape-quotient-real words) must be derivable by the
//!   oracle. On phantom words the pushdown system deliberately
//!   over-approximates (its `∆ptr` has no `VAR` gates).

use proptest::prelude::*;
use retypd_core::deduction::Oracle;
use retypd_core::graph::{ConstraintGraph, EdgeKind};
use retypd_core::saturation::saturate;
use retypd_core::shapes::ShapeQuotient;
use retypd_core::transducer::accepts;
use retypd_core::{BaseVar, ConstraintSet, DerivedVar, Label};

fn label_strategy() -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::Load),
        Just(Label::Store),
        Just(Label::sigma(32, 0)),
    ]
}

fn base_strategy() -> impl Strategy<Value = BaseVar> {
    prop_oneof![
        4 => prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(BaseVar::var),
        1 => Just(BaseVar::constant("int")),
    ]
}

fn dtv_strategy(max_len: usize) -> impl Strategy<Value = DerivedVar> {
    (
        base_strategy(),
        proptest::collection::vec(label_strategy(), 0..=max_len),
    )
        .prop_map(|(b, path)| {
            if b.is_const() {
                // Constants carry no capabilities in generated sets.
                DerivedVar::new(b)
            } else {
                DerivedVar::with_path(b, path)
            }
        })
}

fn constraint_set_strategy(
    max_word: usize,
    max_constraints: usize,
) -> impl Strategy<Value = ConstraintSet> {
    proptest::collection::vec(
        (dtv_strategy(max_word), dtv_strategy(max_word)),
        1..=max_constraints,
    )
    .prop_map(|pairs| {
        let mut cs = ConstraintSet::new();
        for (l, r) in pairs {
            cs.add_sub(l, r);
        }
        cs
    })
}

/// Constraints shaped like real constraint-generation output: at most one
/// side carries a label word (value copies `x ⊑ y`, loads `p.load.σ ⊑ x`,
/// stores `x ⊑ p.store.σ`, formals `f.in ⊑ x`), and the two sides have
/// distinct base variables. The abstract interpreter of Appendix A never
/// emits deep words on both sides of one constraint nor relates a variable
/// to its own derived variable (each definition site gets a fresh
/// variable); restricting the generator to this shape keeps the
/// completeness check within the engine's documented envelope (see module
/// docs).
fn machine_shaped_strategy(
    max_word: usize,
    max_constraints: usize,
) -> impl Strategy<Value = ConstraintSet> {
    proptest::collection::vec(
        (dtv_strategy(max_word), dtv_strategy(max_word), any::<bool>()),
        1..=max_constraints,
    )
    .prop_map(|triples| {
        let mut cs = ConstraintSet::new();
        for (l, r, left_deep) in triples {
            if l.base() == r.base() {
                continue;
            }
            let (l, r) = if left_deep {
                (l, DerivedVar::new(r.base()))
            } else {
                (DerivedVar::new(l.base()), r)
            };
            cs.add_sub(l, r);
        }
        if cs.is_empty() {
            cs.add_sub(DerivedVar::var("a"), DerivedVar::var("b"));
        }
        cs
    })
}

/// All query dtvs: bases and constants extended by words up to length 2
/// over the test alphabet.
fn query_universe(cs: &ConstraintSet) -> Vec<DerivedVar> {
    let labels = [Label::Load, Label::Store, Label::sigma(32, 0)];
    let mut out = Vec::new();
    for base in cs.base_vars() {
        let root = DerivedVar::new(base);
        out.push(root.clone());
        if base.is_const() {
            continue;
        }
        for &l1 in &labels {
            let d1 = root.clone().push(l1);
            out.push(d1.clone());
            for &l2 in &labels {
                out.push(d1.clone().push(l2));
            }
        }
    }
    out
}

/// A tiny deterministic xorshift generator, so the larger randomized
/// workloads below reproduce exactly across runs and machines (no
/// proptest shrinking needed at this size — failures print the seed).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Builds a load/store aliasing chain: values flow `v0 ⊑ v1 ⊑ … ⊑ vN` with
/// interleaved stores through one pointer alias and loads through another
/// (`pi.load.σ ⊑ vi`, `vi ⊑ p(i+1).store.σ`, `pi ⊑ p(i+1)`), the pattern
/// whose saturation requires the S-POINTER shortcut edges.
fn aliasing_chain(rng: &mut XorShift, links: usize) -> ConstraintSet {
    let mut cs = ConstraintSet::new();
    for i in 0..links {
        cs.add_sub(
            DerivedVar::var(&format!("v{i}")),
            DerivedVar::var(&format!("v{}", i + 1)),
        );
        match rng.below(3) {
            0 => {
                cs.add_sub(
                    DerivedVar::var(&format!("p{i}"))
                        .push(Label::Load)
                        .push(Label::sigma(32, 0)),
                    DerivedVar::var(&format!("v{i}")),
                );
                cs.add_sub(
                    DerivedVar::var(&format!("v{i}")),
                    DerivedVar::var(&format!("p{}", i + 1))
                        .push(Label::Store)
                        .push(Label::sigma(32, 0)),
                );
            }
            1 => {
                cs.add_sub(
                    DerivedVar::var(&format!("p{i}")),
                    DerivedVar::var(&format!("p{}", i + 1)),
                );
            }
            _ => {}
        }
    }
    cs.add_sub(DerivedVar::var("v0"), DerivedVar::constant("int"));
    cs
}

/// Builds a recursive-loop constraint set in the Figure 2 shape: one or
/// more list walkers `ti.load.σ32@0 ⊑ ti` with handle fields, linked by
/// random value flows.
fn recursive_loops(rng: &mut XorShift, loops: usize) -> ConstraintSet {
    let mut cs = ConstraintSet::new();
    for i in 0..loops {
        let t = DerivedVar::var(&format!("t{i}"));
        cs.add_sub(t.clone().push(Label::Load).push(Label::sigma(32, 0)), t.clone());
        cs.add_sub(
            t.clone().push(Label::Load).push(Label::sigma(32, 4)),
            DerivedVar::constant("int"),
        );
        if i > 0 && rng.below(2) == 0 {
            cs.add_sub(DerivedVar::var(&format!("t{}", rng.below(i as u64))), t);
        }
    }
    cs
}

/// The refactored saturation must agree with the bounded Figure 3 oracle on
/// every derivable fact between materialized variables — on constraint sets
/// an order of magnitude larger than the proptest cases below.
#[test]
fn saturation_complete_on_large_aliasing_chains() {
    for seed in [3, 7, 11, 2024] {
        let mut rng = XorShift(seed);
        let cs = aliasing_chain(&mut rng, 12);
        let oracle = Oracle::close(&cs, 2);
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        let mut checked = 0usize;
        for (l, r) in oracle.subtype_facts() {
            if l == r || !g.contains(l) || !g.contains(r) {
                continue;
            }
            checked += 1;
            assert!(
                accepts(&g, l, r),
                "seed {seed}: oracle derives {l} ⊑ {r} but transducer rejects\n{cs}"
            );
        }
        assert!(checked > 50, "seed {seed}: trivial workload ({checked} facts)");
    }
}

#[test]
fn saturation_complete_on_recursive_loops() {
    for seed in [5, 17, 4242] {
        let mut rng = XorShift(seed);
        let cs = recursive_loops(&mut rng, 6);
        let oracle = Oracle::close(&cs, 3);
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        for (l, r) in oracle.subtype_facts() {
            if l == r || !g.contains(l) || !g.contains(r) {
                continue;
            }
            assert!(
                accepts(&g, l, r),
                "seed {seed}: oracle derives {l} ⊑ {r} but transducer rejects\n{cs}"
            );
        }
        // The loop shape must also admit an unrolled deep query.
        let deep = DerivedVar::var("t0")
            .push(Label::Load)
            .push(Label::sigma(32, 0))
            .push(Label::Load)
            .push(Label::sigma(32, 4));
        assert!(accepts(&g, &deep, &DerivedVar::constant("int")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transducer_complete_wrt_oracle(cs in machine_shaped_strategy(2, 5)) {
        let oracle = Oracle::close(&cs, 2);
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        for (l, r) in oracle.subtype_facts() {
            if l == r || !g.contains(l) || !g.contains(r) {
                continue;
            }
            prop_assert!(
                accepts(&g, l, r),
                "oracle derives {l} ⊑ {r} but transducer rejects it\nconstraints:\n{cs}"
            );
        }
    }

    #[test]
    fn saturated_graph_is_mirror_symmetric(cs in constraint_set_strategy(2, 5)) {
        // Lemma D.7 over every edge kind: `a --k--> b` implies
        // `mirror(b) --k̄--> mirror(a)`, where k̄ swaps pop ℓ and push ℓ.
        // Extraction's backward walk reads predecessors through this.
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        for a in g.nodes() {
            for e in g.edges_out(a) {
                let dual = match e.kind {
                    EdgeKind::Eps => EdgeKind::Eps,
                    EdgeKind::Pop(l) => EdgeKind::Push(l),
                    EdgeKind::Push(l) => EdgeKind::Pop(l),
                };
                prop_assert!(
                    g.edges_out(e.to.mirror())
                        .any(|m| m.to == a.mirror() && m.kind == dual),
                    "edge {a:?} --{:?}--> {:?} has no mirror\nconstraints:\n{cs}",
                    e.kind,
                    e.to
                );
            }
        }
    }

    #[test]
    fn transducer_sound_wrt_oracle(cs in constraint_set_strategy(1, 4)) {
        let oracle = Oracle::close(&cs, 3);
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        let quotient = ShapeQuotient::build(&cs);
        let universe = query_universe(&cs);
        let mut deep_oracle: Option<Oracle> = None;
        for l in &universe {
            for r in &universe {
                if l == r || !accepts(&g, l, r) {
                    continue;
                }
                // The pushdown system over-approximates on words that are
                // not derivable capabilities (§ module docs); skip those.
                if !quotient.has_var(l) || !quotient.has_var(r) {
                    continue;
                }
                if oracle.entails_sub(l, r) {
                    continue;
                }
                // Retry with a deeper universe before failing: the minimal
                // derivation may pass through longer intermediate words.
                let deep = deep_oracle.get_or_insert_with(|| Oracle::close(&cs, 5));
                prop_assert!(
                    deep.entails_sub(l, r),
                    "transducer accepts {l} ⊑ {r} but the oracle cannot derive it\nconstraints:\n{cs}"
                );
            }
        }
    }

    #[test]
    fn quotient_capabilities_agree_with_oracle(cs in constraint_set_strategy(2, 5)) {
        // Shape-quotient capability language ⟺ Figure 3 `VAR` derivability.
        let oracle = Oracle::close(&cs, 2);
        let quotient = ShapeQuotient::build(&cs);
        let universe = query_universe(&cs);
        for d in &universe {
            if d.is_const() {
                continue;
            }
            // Strict direction: the quotient must never *lose* a derivable
            // capability (a lost capability means a lost struct field).
            // The converse inclusion holds by the Theorem 3.1 construction
            // but is indistinguishable from oracle bound truncation on
            // adversarial self-referential inputs, so it is not asserted.
            if oracle.entails_var(d) {
                prop_assert!(
                    quotient.has_var(d),
                    "quotient lost capability {}\nconstraints:\n{}",
                    d,
                    cs
                );
            }
        }
    }

    #[test]
    fn simplification_preserves_interesting_constraints(
        cs in constraint_set_strategy(2, 5)
    ) {
        // Simplify with `a` interesting; every oracle-derivable constraint
        // between a-rooted materialized dtvs and constants must survive
        // simplification.
        let lattice = retypd_core::Lattice::c_types();
        let builder = retypd_core::SchemeBuilder::new(&lattice);
        let mut interesting = std::collections::BTreeSet::new();
        interesting.insert(BaseVar::var("a"));
        let (simplified, _) = builder.simplify(&cs, &interesting);

        let oracle = Oracle::close(&cs, 2);
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        let quotient = ShapeQuotient::build(&cs);
        let mut g2 = ConstraintGraph::build(&simplified);
        saturate(&mut g2);
        for (l, r) in oracle.subtype_facts() {
            if l == r || !g.contains(l) || !g.contains(r) {
                continue;
            }
            if !quotient.has_var(l) || !quotient.has_var(r) {
                continue;
            }
            let l_ok = l.base() == BaseVar::var("a") || l.is_const();
            let r_ok = r.base() == BaseVar::var("a") || r.is_const();
            if !(l_ok && r_ok) {
                continue;
            }
            if l.is_const() && r.is_const() {
                continue;
            }
            prop_assert!(
                accepts(&g2, l, r),
                "simplification lost {l} ⊑ {r}\noriginal:\n{cs}\nsimplified:\n{simplified}"
            );
        }
    }
}
