//! Recursively constrained type schemes `∀α.(∃τ.C) ⇒ α` (Definition 3.4)
//! and their instantiation at callsites (Appendix A.4).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::constraint::ConstraintSet;
use crate::dtv::{BaseVar, DerivedVar};
use crate::intern::Symbol;

/// A type scheme for a procedure: the procedure's type variable, a set of
/// existentially quantified internal variables, and a constraint set
/// relating the procedure's capabilities to type constants and to each
/// other.
///
/// The Figure 2 example renders as
/// `∀close_last. (∃τ. close_last.in_stack0 ⊑ τ ∧ …) ⇒ close_last`.
///
/// A scheme is immutable: its existentials and constraints live behind
/// shared pointers, so `clone` bumps two reference counts and shares them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeScheme {
    subject: BaseVar,
    existentials: Arc<BTreeSet<Symbol>>,
    constraints: Arc<ConstraintSet>,
}

impl TypeScheme {
    /// Creates a scheme.
    pub fn new(
        subject: BaseVar,
        existentials: BTreeSet<Symbol>,
        constraints: ConstraintSet,
    ) -> TypeScheme {
        TypeScheme {
            subject,
            existentials: Arc::new(existentials),
            constraints: Arc::new(constraints),
        }
    }

    /// An empty scheme for a procedure with no constraints (used as the
    /// initial assumption for procedures in the same SCC, Algorithm F.1).
    pub fn empty(subject: BaseVar) -> TypeScheme {
        TypeScheme::new(subject, BTreeSet::new(), ConstraintSet::new())
    }

    /// The procedure's type variable.
    pub fn subject(&self) -> BaseVar {
        self.subject
    }

    /// The quantified internal variables.
    pub fn existentials(&self) -> &BTreeSet<Symbol> {
        &self.existentials
    }

    /// The constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Instantiates the scheme at a callsite: every base variable except
    /// type constants and the variables in `keep` (globals, by convention)
    /// is renamed with the `@tag` suffix, yielding fresh variables per
    /// callsite — the let-polymorphism of Appendix A.4.
    ///
    /// Returns the instantiated constraint set together with the renamed
    /// subject variable to which actuals should be linked.
    pub fn instantiate(&self, tag: &str, keep: &BTreeSet<BaseVar>) -> (ConstraintSet, BaseVar) {
        let mut rename: HashMap<BaseVar, BaseVar> = HashMap::new();
        let renamed = |v: BaseVar, rename: &mut HashMap<BaseVar, BaseVar>| -> BaseVar {
            if v.is_const() || keep.contains(&v) {
                return v;
            }
            *rename
                .entry(v)
                .or_insert_with(|| BaseVar::tagged(v.name().as_str(), tag))
        };
        let mut out = ConstraintSet::new();
        for c in self.constraints.subtypes() {
            let l = DerivedVar::with_path(
                renamed(c.lhs.base(), &mut rename),
                c.lhs.path().to_vec(),
            );
            let r = DerivedVar::with_path(
                renamed(c.rhs.base(), &mut rename),
                c.rhs.path().to_vec(),
            );
            out.add_sub(l, r);
        }
        for v in self.constraints.var_decls() {
            out.add_var_decl(DerivedVar::with_path(
                renamed(v.base(), &mut rename),
                v.path().to_vec(),
            ));
        }
        let subject = renamed(self.subject, &mut rename);
        (out, subject)
    }
}

impl fmt::Display for TypeScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("∀")?;
        self.subject.fmt(f)?;
        f.write_str(". (")?;
        if !self.existentials.is_empty() {
            f.write_str("∃")?;
            for e in self.existentials.iter() {
                f.write_str(" ")?;
                f.write_str(e.as_str())?;
            }
            f.write_str(". ")?;
        }
        let mut sep = "";
        for c in self.constraints.subtypes() {
            f.write_str(sep)?;
            c.fmt(f)?;
            sep = " ∧ ";
        }
        if sep.is_empty() {
            f.write_str("⊤")?;
        }
        f.write_str(") ⇒ ")?;
        self.subject.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_constraint_set;

    #[test]
    fn instantiation_renames_internals_only() {
        let cs = parse_constraint_set("f.in_stack0 <= t; t.load <= int; g_global <= t").unwrap();
        let mut ex = BTreeSet::new();
        ex.insert(Symbol::intern("t"));
        let scheme = TypeScheme::new(BaseVar::var("f"), ex, cs);
        let mut keep = BTreeSet::new();
        keep.insert(BaseVar::var("g_global"));
        let (inst, subject) = scheme.instantiate("cs1", &keep);
        assert_eq!(subject, BaseVar::var("f@cs1"));
        let rendered = inst.to_string();
        assert!(rendered.contains("f@cs1.in_stack0 ⊑ t@cs1"));
        assert!(rendered.contains("t@cs1.load ⊑ int"), "{rendered}");
        assert!(rendered.contains("g_global ⊑ t@cs1"), "{rendered}");
    }

    #[test]
    fn two_callsites_are_independent() {
        let cs = parse_constraint_set("malloc.out_eax <= t").unwrap();
        let scheme = TypeScheme::new(BaseVar::var("malloc"), BTreeSet::new(), cs);
        let keep = BTreeSet::new();
        let (a, sa) = scheme.instantiate("p1", &keep);
        let (b, sb) = scheme.instantiate("p2", &keep);
        assert_ne!(sa, sb);
        assert_ne!(a.to_string(), b.to_string());
    }

    #[test]
    fn display_matches_paper_shape() {
        let cs = parse_constraint_set("f.in_stack0 <= t").unwrap();
        let mut ex = BTreeSet::new();
        ex.insert(Symbol::intern("t"));
        let s = TypeScheme::new(BaseVar::var("f"), ex, cs).to_string();
        assert!(s.starts_with("∀f. (∃ t. "), "{s}");
        assert!(s.ends_with(") ⇒ f"), "{s}");
    }
}
