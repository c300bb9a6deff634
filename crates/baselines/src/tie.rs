//! A TIE-style subtype-bounds baseline (§6.5, §7).
//!
//! TIE tracks subtyping (not unification) and reports an *interval* — an
//! upper and lower lattice bound — per variable. Compared with Retypd it
//! lacks two things, both reproduced here:
//!
//! * **polymorphism**: callsites link to the callee's one type variable,
//!   so uses at different types pollute each other (though less severely
//!   than unification, since only directional bounds flow);
//! * **recursive types**: structural results are cut at a fixed depth, so
//!   linked-list shapes degrade to bounded nestings.

use retypd_core::graph::ConstraintGraph;
use retypd_core::saturation::saturate;
use retypd_core::shapes::ShapeQuotient;
use retypd_core::transducer::accepts;
use retypd_core::{
    BaseVar, ConstraintSet, DerivedVar, Label, Lattice, Program,
};

use crate::common::{InfTy, InferredFunc, InferredProgram};

/// Maximum structural depth TIE-style results retain (no recursive types).
const MAX_DEPTH: u32 = 2;

/// Runs the TIE-style baseline on a constraint program.
pub fn infer_tie(program: &Program, lattice: &Lattice) -> InferredProgram {
    // Monolithic constraint set with monomorphic callsite links, but keep
    // the subtyping direction (actual ⊑ formal flows are already in the
    // bodies; we bridge tagged callee vars to the callee monomorphically).
    let mut cs = ConstraintSet::new();
    for proc in &program.procs {
        cs.extend(&proc.constraints);
        for site in &proc.callsites {
            let callee_name = match site.callee {
                retypd_core::CallTarget::Internal(i) => program.procs[i].name,
                retypd_core::CallTarget::External(n) => n,
            };
            let tagged = DerivedVar::new(BaseVar::tagged(callee_name.as_str(), &site.tag));
            let own = DerivedVar::new(BaseVar::Var(callee_name));
            cs.add_sub(tagged.clone(), own.clone());
            cs.add_sub(own, tagged);
        }
    }
    // External models, expanded once (monomorphic).
    for (name, scheme) in &program.externals {
        let (inst, subject) = scheme.instantiate("mono", &program.globals);
        cs.extend(&inst);
        let own = DerivedVar::new(BaseVar::Var(*name));
        let tagged = DerivedVar::new(subject);
        cs.add_sub(tagged.clone(), own.clone());
        cs.add_sub(own, tagged);
    }

    let cs = retypd_core::addsub::augment_with_addsubs(&cs, lattice);
    let mut g = ConstraintGraph::build(&cs);
    saturate(&mut g);
    let quotient = ShapeQuotient::build(&cs);
    let consts = cs.constants();

    let mut out = InferredProgram::new();
    for proc in &program.procs {
        let mut inferred = InferredFunc::default();
        let pv = BaseVar::Var(proc.name);
        if let Some(root) = quotient.walk(pv, &[]) {
            for (l, c) in quotient.successors(root) {
                match l {
                    Label::In(loc) => {
                        let dv = DerivedVar::new(pv).push(l);
                        inferred.params.insert(
                            loc,
                            to_infty(&quotient, c, &g, lattice, &consts, &dv, 0),
                        );
                        let has_load = quotient.step(c, Label::Load).is_some();
                        let has_store = quotient.step(c, Label::Store).is_some();
                        if has_load || has_store {
                            inferred.const_params.insert(loc, has_load && !has_store);
                        }
                    }
                    Label::Out(_) => {
                        let dv = DerivedVar::new(pv).push(l);
                        inferred.ret =
                            Some(to_infty(&quotient, c, &g, lattice, &consts, &dv, 0));
                    }
                    _ => {}
                }
            }
        }
        out.insert(proc.name, inferred);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn to_infty(
    quotient: &ShapeQuotient,
    class: retypd_core::shapes::ClassId,
    g: &ConstraintGraph,
    lattice: &Lattice,
    consts: &[BaseVar],
    dv: &DerivedVar,
    depth: u32,
) -> InfTy {
    // No recursive types: cut at a fixed depth.
    if depth > MAX_DEPTH {
        return InfTy::Unknown;
    }
    let pointee = quotient
        .step(class, Label::Load)
        .or_else(|| quotient.step(class, Label::Store));
    if let Some(p) = pointee {
        let via = if quotient.step(class, Label::Load).is_some() {
            Label::Load
        } else {
            Label::Store
        };
        let fields: Vec<(i32, InfTy)> = quotient
            .successors(p)
            .into_iter()
            .filter_map(|(l, c)| match l {
                Label::Sigma { offset, .. } => Some((
                    offset,
                    to_infty(
                        quotient,
                        c,
                        g,
                        lattice,
                        consts,
                        &dv.clone().push(via).push(l),
                        depth + 1,
                    ),
                )),
                _ => None,
            })
            .collect();
        if fields.is_empty() {
            return InfTy::Ptr(Box::new(to_infty(
                quotient,
                p,
                g,
                lattice,
                consts,
                &dv.clone().push(via),
                depth + 1,
            )));
        }
        if fields.len() == 1 && fields[0].0 == 0 {
            return InfTy::Ptr(Box::new(fields.into_iter().next().expect("one").1));
        }
        return InfTy::Ptr(Box::new(InfTy::Struct(fields)));
    }
    // Scalar: query bounds on this derived variable.
    let mut lower = lattice.bottom();
    let mut upper = lattice.top();
    for k in consts {
        let Some(e) = lattice.element_sym(k.name()) else {
            continue;
        };
        let kd = DerivedVar::new(*k);
        if accepts(g, &kd, dv) {
            lower = lattice.join(lower, e);
        }
        if accepts(g, dv, &kd) {
            upper = lattice.meet(upper, e);
        }
    }
    if lower == lattice.bottom() && upper == lattice.top() {
        return InfTy::Unknown;
    }
    // TIE's display policy: prefer the lower bound when informative.
    let mark = if lower != lattice.bottom() { lower } else { upper };
    InfTy::Scalar {
        mark: lattice.name(mark).to_owned(),
        lower: lattice.name(lower).to_owned(),
        upper: lattice.name(upper).to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_core::parse::parse_constraint_set;
    use retypd_core::{CallTarget, Callsite, Loc, Procedure, Symbol};

    fn proc(name: &str, cs: &str, callsites: Vec<Callsite>) -> Procedure {
        Procedure {
            name: Symbol::intern(name),
            constraints: parse_constraint_set(cs).unwrap(),
            callsites,
        }
    }

    #[test]
    fn reports_intervals() {
        let lattice = Lattice::c_types();
        let mut program = Program::new();
        program.add_proc(proc(
            "f",
            "f.in_stack0 <= x; x <= int; #FileDescriptor <= x",
            vec![],
        ));
        let result = infer_tie(&program, &lattice);
        let f = &result[&Symbol::intern("f")];
        match &f.params[&Loc::Stack(0)] {
            InfTy::Scalar { lower, upper, .. } => {
                // Upper bounds flow back to the formal (x ⊑ int); lower
                // bounds on x do not lower-bound the formal.
                assert_eq!(upper, "int");
                assert_eq!(lower, "⊥");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn recursion_is_cut() {
        // A linked list: TIE's bounded depth loses the recursive tail.
        let lattice = Lattice::c_types();
        let mut program = Program::new();
        program.add_proc(proc(
            "w",
            "
                w.in_stack0 <= t
                t.load.σ32@0 <= t
                t.load.σ32@4 <= int
            ",
            vec![],
        ));
        let result = infer_tie(&program, &lattice);
        let w = &result[&Symbol::intern("w")];
        let ty = &w.params[&Loc::Stack(0)];
        // There is a pointer, but nested Unknown appears within 3 levels.
        fn has_unknown(t: &InfTy, d: u32) -> bool {
            match t {
                InfTy::Unknown => true,
                InfTy::Ptr(p) => has_unknown(p, d + 1),
                InfTy::Struct(fs) => fs.iter().any(|(_, t)| has_unknown(t, d + 1)),
                InfTy::Scalar { .. } => false,
            }
        }
        assert!(matches!(ty, InfTy::Ptr(_)));
        assert!(has_unknown(ty, 0), "{ty}");
    }

    #[test]
    fn monomorphic_callsites_share_bounds() {
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
                int32 <= id@a.in_stack0
                float32 <= id@b.in_stack0
                id@b.out_eax <= r
            ",
            vec![
                Callsite {
                    callee: CallTarget::Internal(0),
                    tag: "a".into(),
                },
                Callsite {
                    callee: CallTarget::Internal(0),
                    tag: "b".into(),
                },
            ],
        ));
        let result = infer_tie(&program, &lattice);
        let id = &result[&Symbol::intern("id")];
        match &id.params[&Loc::Stack(0)] {
            // Both callsites' lower bounds join at the shared formal:
            // join(int32, float32) = reg32.
            InfTy::Scalar { lower, .. } => assert_eq!(lower, "reg32"),
            other => panic!("{other}"),
        }
    }
}
