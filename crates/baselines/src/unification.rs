//! A SecondWrite/REWARDS-style unification baseline (§6.5, §7).
//!
//! Every subtype constraint is treated as a type *equation*, callsites are
//! linked monomorphically (no per-callsite instantiation), and each
//! equivalence class receives a single scalar type — the meet of every
//! constant in the class, falling back to the join on conflict. This is
//! exactly the design the paper argues against: the §2.1/§2.5 idioms
//! (semi-syntactic constants, false register parameters, stack-slot
//! aliasing through merged classes) make unrelated types collapse, which
//! is visible in the evaluation as lost conservativeness and larger
//! distances.

use std::collections::{BTreeMap, BTreeSet};

use retypd_core::shapes::ShapeQuotient;
use retypd_core::{
    BaseVar, ConstraintSet, DerivedVar, Label, Lattice, Program, Symbol,
};

use crate::common::{InfTy, InferredFunc, InferredProgram};

/// Runs the unification baseline on a constraint program.
pub fn infer_unification(program: &Program, lattice: &Lattice) -> InferredProgram {
    // One monolithic constraint set: all bodies, external schemes expanded
    // ONCE per callee (not per callsite), and every callsite variable
    // unified with the callee itself.
    let mut cs = ConstraintSet::new();
    let mut seen_ext: BTreeSet<Symbol> = BTreeSet::new();
    for proc in &program.procs {
        cs.extend(&proc.constraints);
        for site in &proc.callsites {
            let callee_name = match site.callee {
                retypd_core::CallTarget::Internal(i) => program.procs[i].name,
                retypd_core::CallTarget::External(n) => n,
            };
            let tagged = DerivedVar::new(BaseVar::tagged(callee_name.as_str(), &site.tag));
            let own = DerivedVar::new(BaseVar::Var(callee_name));
            // Monomorphic: both directions — a unification.
            cs.add_sub(tagged.clone(), own.clone());
            cs.add_sub(own, tagged);
            if let retypd_core::CallTarget::External(n) = site.callee {
                if seen_ext.insert(n) {
                    if let Some(scheme) = program.externals.get(&n) {
                        // Expand the external's constraints monomorphically.
                        let (inst, _) = scheme.instantiate("mono", &program.globals);
                        cs.extend(&inst);
                        cs.add_sub(
                            DerivedVar::var(&format!("{n}@mono")),
                            DerivedVar::new(BaseVar::Var(n)),
                        );
                        cs.add_sub(
                            DerivedVar::new(BaseVar::Var(n)),
                            DerivedVar::var(&format!("{n}@mono")),
                        );
                    }
                }
            }
        }
    }
    // The shape quotient *is* unification: classes merge on every
    // constraint, and the pointer congruence merges pointees. Additive
    // constraints are applied with their Figure 13 integral feedback.
    let cs = retypd_core::addsub::augment_with_addsubs(&cs, lattice);
    let quotient = ShapeQuotient::build(&cs);

    // Single type per class: the meet of the bare constants in the class.
    let mut class_meet = BTreeMap::new();
    for (b, class) in quotient.bases().filter(|(b, _)| b.is_const()) {
        if let Some(e) = lattice.element_sym(b.name()) {
            let m = class_meet.entry(class).or_insert_with(|| lattice.top());
            *m = lattice.meet(*m, e);
        }
    }
    let class_type = |class: retypd_core::shapes::ClassId| -> Option<String> {
        class_meet.get(&class).map(|&m| lattice.name(m).to_owned())
    };

    let mut out = InferredProgram::new();
    for proc in &program.procs {
        let mut inferred = InferredFunc::default();
        let pv = BaseVar::Var(proc.name);
        // Parameter locations: every in_L capability of the proc class.
        if let Some(root) = quotient.walk(pv, &[]) {
            for (l, c) in quotient.successors(root) {
                match l {
                    Label::In(loc) => {
                        inferred
                            .params
                            .insert(loc, class_to_infty(&quotient, c, lattice, &class_type, 0));
                        let has_load = quotient.step(c, Label::Load).is_some();
                        let has_store = quotient.step(c, Label::Store).is_some();
                        if has_load || has_store {
                            // Unification cannot distinguish read/write: a
                            // merged pointee always looks written.
                            inferred.const_params.insert(loc, has_load && !has_store);
                        }
                    }
                    Label::Out(_) => {
                        inferred.ret =
                            Some(class_to_infty(&quotient, c, lattice, &class_type, 0));
                    }
                    _ => {}
                }
            }
        }
        out.insert(proc.name, inferred);
    }
    out
}

fn class_to_infty(
    quotient: &ShapeQuotient,
    class: retypd_core::shapes::ClassId,
    lattice: &Lattice,
    class_type: &dyn Fn(retypd_core::shapes::ClassId) -> Option<String>,
    depth: u32,
) -> InfTy {
    if depth > 4 {
        return InfTy::Unknown;
    }
    let pointee = quotient
        .step(class, Label::Load)
        .or_else(|| quotient.step(class, Label::Store));
    if let Some(p) = pointee {
        // Structured pointee?
        let fields: Vec<(i32, InfTy)> = quotient
            .successors(p)
            .into_iter()
            .filter_map(|(l, c)| match l {
                Label::Sigma { offset, .. } => Some((
                    offset,
                    class_to_infty(quotient, c, lattice, class_type, depth + 1),
                )),
                _ => None,
            })
            .collect();
        if fields.is_empty() {
            return InfTy::Ptr(Box::new(class_to_infty(
                quotient,
                p,
                lattice,
                class_type,
                depth + 1,
            )));
        }
        if fields.len() == 1 && fields[0].0 == 0 {
            return InfTy::Ptr(Box::new(fields.into_iter().next().expect("one field").1));
        }
        return InfTy::Ptr(Box::new(InfTy::Struct(fields)));
    }
    match class_type(class) {
        Some(name) => InfTy::Scalar {
            mark: name.clone(),
            lower: name.clone(),
            upper: name,
        },
        None => {
            let _ = lattice;
            InfTy::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_core::parse::parse_constraint_set;
    use retypd_core::{CallTarget, Callsite, Loc, Procedure};

    fn proc(name: &str, cs: &str, callsites: Vec<Callsite>) -> Procedure {
        Procedure {
            name: Symbol::intern(name),
            constraints: parse_constraint_set(cs).unwrap(),
            callsites,
        }
    }

    #[test]
    fn overunification_merges_polymorphic_callsites() {
        // id is used at an int callsite and a pointer callsite; unification
        // merges them (the failure mode Retypd avoids).
        let lattice = Lattice::c_types();
        let mut program = Program::new();
        program.add_proc(proc(
            "id",
            "id.in_stack0 <= v; v <= id.out_eax",
            vec![],
        ));
        program.add_proc(proc(
            "caller",
            "
                int32 <= id@caller_a.in_stack0
                p.load.σ32@0 <= float32
                p <= id@caller_b.in_stack0
                id@caller_b.out_eax <= q
                caller.in_stack0 <= p
            ",
            vec![
                Callsite {
                    callee: CallTarget::Internal(0),
                    tag: "caller_a".into(),
                },
                Callsite {
                    callee: CallTarget::Internal(0),
                    tag: "caller_b".into(),
                },
            ],
        ));
        let result = infer_unification(&program, &lattice);
        // The caller's pointer parameter exists; through over-unification
        // its pointee has absorbed int32 (conflicting with float32 → ⊥-ish
        // or int-ish display, depending on meet order). The key observable:
        // id's input class merged with BOTH callsites.
        let id = &result[&Symbol::intern("id")];
        assert!(id.params.contains_key(&Loc::Stack(0)));
        let ty = &id.params[&Loc::Stack(0)];
        // Unification forced a single answer that is a pointer (the two
        // callsites merged), demonstrating the §2.5 failure mode.
        assert!(matches!(ty, InfTy::Ptr(_)), "{ty}");
    }

    #[test]
    fn simple_int_param() {
        let lattice = Lattice::c_types();
        let mut program = Program::new();
        program.add_proc(proc("f", "f.in_stack0 <= int32", vec![]));
        let result = infer_unification(&program, &lattice);
        let f = &result[&Symbol::intern("f")];
        match &f.params[&Loc::Stack(0)] {
            InfTy::Scalar { upper, .. } => assert_eq!(upper, "int32"),
            other => panic!("{other}"),
        }
    }
}
