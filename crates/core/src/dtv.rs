//! Base type variables and derived type variables (Definition 3.1).

use std::fmt;

use crate::intern::Symbol;
use crate::label::Label;
use crate::variance::Variance;
use crate::word_variance;

/// A base type variable: either an abstract variable or a type constant.
///
/// Type constants are symbolic names of elements of the auxiliary lattice Λ
/// (§3.1: "symbolic representations κ of elements belonging to some
/// lattice"). They are uninterpreted at the constraint level; the solver
/// resolves them against a [`crate::Lattice`] by name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BaseVar {
    /// An abstract type variable, e.g. the variable for a procedure or for a
    /// register at a program point.
    Var(Symbol),
    /// A type constant naming a lattice element, e.g. `int` or
    /// `#FileDescriptor`.
    Const(Symbol),
}

impl BaseVar {
    /// Creates an abstract variable with the given name.
    pub fn var(name: &str) -> BaseVar {
        BaseVar::Var(Symbol::intern(name))
    }

    /// Creates a type constant with the given lattice-element name.
    pub fn constant(name: &str) -> BaseVar {
        BaseVar::Const(Symbol::intern(name))
    }

    /// The variable `name@tag`: callee `name` instantiated at the callsite
    /// tagged `tag` (Appendix F). The solver, scheme instantiation, the
    /// constraint generator and the baselines all name a callsite's
    /// actuals with this one spelling, so pass 2 finds the sketches pass 1
    /// recorded under it.
    pub fn tagged(name: &str, tag: &str) -> BaseVar {
        let mut text = String::with_capacity(name.len() + 1 + tag.len());
        text.push_str(name);
        text.push('@');
        text.push_str(tag);
        BaseVar::var(&text)
    }

    /// The variable's name.
    pub fn name(self) -> Symbol {
        match self {
            BaseVar::Var(s) | BaseVar::Const(s) => s,
        }
    }

    /// True if this is a type constant.
    pub fn is_const(self) -> bool {
        matches!(self, BaseVar::Const(_))
    }
}

impl fmt::Display for BaseVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseVar::Var(s) => f.write_str(s.as_str()),
            BaseVar::Const(s) => {
                let name = s.as_str();
                // Constants must render in a form the parser reads back as
                // a constant: `#tag` and well-known names are self-marking,
                // anything else (a custom-lattice element) needs its `$`
                // sigil or the round trip degrades it to a variable.
                if !name.starts_with('#') && !crate::parse::WELL_KNOWN_CONSTANTS.contains(&name) {
                    f.write_str("$")?;
                }
                f.write_str(name)
            }
        }
    }
}

/// A derived type variable `α.w`: a base variable and a word of field labels
/// (Definition 3.1).
///
/// ```
/// use retypd_core::{BaseVar, DerivedVar, Label};
///
/// let f = DerivedVar::new(BaseVar::var("f"))
///     .push(Label::in_stack(0))
///     .push(Label::Load)
///     .push(Label::sigma(32, 4));
/// assert_eq!(f.to_string(), "f.in_stack0.load.σ32@4");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DerivedVar {
    base: BaseVar,
    path: Vec<Label>,
}

impl DerivedVar {
    /// A derived variable with an empty label word.
    pub fn new(base: BaseVar) -> DerivedVar {
        DerivedVar {
            base,
            path: Vec::new(),
        }
    }

    /// A derived variable with the given label word.
    pub fn with_path(base: BaseVar, path: Vec<Label>) -> DerivedVar {
        DerivedVar { base, path }
    }

    /// Shorthand: an abstract variable with no labels.
    pub fn var(name: &str) -> DerivedVar {
        DerivedVar::new(BaseVar::var(name))
    }

    /// Shorthand: a type constant with no labels.
    pub fn constant(name: &str) -> DerivedVar {
        DerivedVar::new(BaseVar::constant(name))
    }

    /// The base variable.
    pub fn base(&self) -> BaseVar {
        self.base
    }

    /// The label word.
    pub fn path(&self) -> &[Label] {
        &self.path
    }

    /// Extends the label word by one label, consuming `self`.
    #[must_use]
    pub fn push(mut self, label: Label) -> DerivedVar {
        self.path.push(label);
        self
    }

    /// Extends the label word by `labels`.
    #[must_use]
    pub fn extend(mut self, labels: impl IntoIterator<Item = Label>) -> DerivedVar {
        self.path.extend(labels);
        self
    }

    /// The parent `α.w` of `α.wℓ`, or `None` for a bare variable.
    pub fn parent(&self) -> Option<DerivedVar> {
        if self.path.is_empty() {
            return None;
        }
        Some(DerivedVar {
            base: self.base,
            path: self.path[..self.path.len() - 1].to_vec(),
        })
    }

    /// The last label of the word, if any.
    pub fn last_label(&self) -> Option<Label> {
        self.path.last().copied()
    }

    /// Iterates over all proper and improper prefixes, from the bare base
    /// variable up to `self`.
    pub fn prefixes(&self) -> impl Iterator<Item = DerivedVar> + '_ {
        (0..=self.path.len()).map(move |i| DerivedVar {
            base: self.base,
            path: self.path[..i].to_vec(),
        })
    }

    /// The variance `⟨w⟩` of the label word (Definition 3.2).
    pub fn variance(&self) -> Variance {
        word_variance(&self.path)
    }

    /// The number of labels in the word.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// True if the label word is empty.
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// True if the base variable is a type constant.
    pub fn is_const(&self) -> bool {
        self.base.is_const()
    }
}

impl From<BaseVar> for DerivedVar {
    fn from(base: BaseVar) -> DerivedVar {
        DerivedVar::new(base)
    }
}

impl fmt::Display for DerivedVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.base.fmt(f)?;
        for l in &self.path {
            f.write_str(".")?;
            l.fmt(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_enumerate_bottom_up() {
        let d = DerivedVar::var("p").push(Label::Load).push(Label::sigma(32, 0));
        let ps: Vec<String> = d.prefixes().map(|p| p.to_string()).collect();
        assert_eq!(ps, vec!["p", "p.load", "p.load.σ32@0"]);
    }

    #[test]
    fn parent_of_bare_var_is_none() {
        assert_eq!(DerivedVar::var("x").parent(), None);
        let d = DerivedVar::var("x").push(Label::Load);
        assert_eq!(d.parent(), Some(DerivedVar::var("x")));
    }

    #[test]
    fn variance_of_path() {
        let d = DerivedVar::var("f").push(Label::in_stack(0)).push(Label::Load);
        assert_eq!(d.variance(), Variance::Contravariant);
        assert_eq!(DerivedVar::var("x").variance(), Variance::Covariant);
    }

    #[test]
    fn consts_are_flagged() {
        assert!(DerivedVar::constant("int").is_const());
        assert!(!DerivedVar::var("int_var").is_const());
    }
}
