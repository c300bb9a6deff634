//! Type constraints and constraint sets (Definition 3.3).

use std::collections::BTreeSet;
use std::fmt;

use crate::dtv::DerivedVar;

/// A subtyping constraint `X ⊑ Y` between derived type variables.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubtypeConstraint {
    /// The subtype side.
    pub lhs: DerivedVar,
    /// The supertype side.
    pub rhs: DerivedVar,
}

impl SubtypeConstraint {
    /// Creates the constraint `lhs ⊑ rhs`.
    pub fn new(lhs: DerivedVar, rhs: DerivedVar) -> SubtypeConstraint {
        SubtypeConstraint { lhs, rhs }
    }
}

impl fmt::Display for SubtypeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.lhs.fmt(f)?;
        f.write_str(" ⊑ ")?;
        self.rhs.fmt(f)
    }
}

/// Whether an additive constraint arose from an addition or a subtraction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AddSubKind {
    /// `z = x + y`
    Add,
    /// `z = x - y`
    Sub,
}

/// A three-place additive constraint `ADD(X, Y; Z)` or `SUB(X, Y; Z)`
/// (Appendix A.6, Figure 13).
///
/// These conditionally propagate pointer-ness and integer-ness between the
/// operands and result of an addition/subtraction whose operands are not
/// statically constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AddSubConstraint {
    /// Addition or subtraction.
    pub kind: AddSubKind,
    /// First operand type variable.
    pub x: DerivedVar,
    /// Second operand type variable.
    pub y: DerivedVar,
    /// Result type variable (`z = x ± y`).
    pub z: DerivedVar,
}

impl fmt::Display for AddSubConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.kind {
            AddSubKind::Add => "Add(",
            AddSubKind::Sub => "Sub(",
        })?;
        self.x.fmt(f)?;
        f.write_str(", ")?;
        self.y.fmt(f)?;
        f.write_str("; ")?;
        self.z.fmt(f)?;
        f.write_str(")")
    }
}

/// A finite set of constraints over derived type variables
/// (Definition 3.3).
///
/// The set stores subtype constraints, explicit capability (`VAR`)
/// declarations, and additive constraints. Iteration order is deterministic.
///
/// ```
/// use retypd_core::ConstraintSet;
///
/// let mut c = ConstraintSet::new();
/// c.add_sub_str("y", "p");
/// c.add_sub_str("p.load", "x");
/// assert_eq!(c.subtypes().count(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ConstraintSet {
    subtypes: BTreeSet<SubtypeConstraint>,
    var_decls: BTreeSet<DerivedVar>,
    addsubs: BTreeSet<AddSubConstraint>,
}

impl ConstraintSet {
    /// Creates an empty constraint set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds `lhs ⊑ rhs`.
    pub fn add_sub(&mut self, lhs: DerivedVar, rhs: DerivedVar) {
        self.subtypes.insert(SubtypeConstraint::new(lhs, rhs));
    }

    /// Adds a subtype constraint given in the textual syntax of
    /// [`crate::parse`] (e.g. `"p.load.σ32@0 <= x"`).
    ///
    /// # Panics
    ///
    /// Panics if either side fails to parse; intended for tests and
    /// examples. Use [`crate::parse::parse_derived_var`] for fallible
    /// parsing.
    pub fn add_sub_str(&mut self, lhs: &str, rhs: &str) {
        let l = crate::parse::parse_derived_var(lhs)
            .unwrap_or_else(|e| panic!("bad derived var {lhs:?}: {e}"));
        let r = crate::parse::parse_derived_var(rhs)
            .unwrap_or_else(|e| panic!("bad derived var {rhs:?}: {e}"));
        self.add_sub(l, r);
    }

    /// Adds an explicit capability declaration `VAR X`.
    pub fn add_var_decl(&mut self, v: DerivedVar) {
        self.var_decls.insert(v);
    }

    /// Adds an additive constraint.
    pub fn add_addsub(&mut self, c: AddSubConstraint) {
        self.addsubs.insert(c);
    }

    /// Iterates over the subtype constraints in deterministic order.
    pub fn subtypes(&self) -> impl Iterator<Item = &SubtypeConstraint> {
        self.subtypes.iter()
    }

    /// Iterates over explicit `VAR` declarations.
    pub fn var_decls(&self) -> impl Iterator<Item = &DerivedVar> {
        self.var_decls.iter()
    }

    /// Iterates over additive constraints.
    pub fn addsubs(&self) -> impl Iterator<Item = &AddSubConstraint> {
        self.addsubs.iter()
    }

    /// Number of subtype constraints.
    pub fn len(&self) -> usize {
        self.subtypes.len()
    }

    /// True if there are no constraints of any kind.
    pub fn is_empty(&self) -> bool {
        self.subtypes.is_empty() && self.var_decls.is_empty() && self.addsubs.is_empty()
    }

    /// Every mention of a derived type variable, repeats included.
    fn mentions(&self) -> impl Iterator<Item = &DerivedVar> {
        let sides = self.subtypes.iter().flat_map(|c| [&c.lhs, &c.rhs]);
        let addsubs = self.addsubs.iter().flat_map(|a| [&a.x, &a.y, &a.z]);
        sides.chain(&self.var_decls).chain(addsubs)
    }

    /// Returns every derived type variable mentioned anywhere in the set
    /// (both sides of subtype constraints, `VAR` declarations, and additive
    /// constraints), without prefix-closure.
    pub fn mentioned_vars(&self) -> BTreeSet<DerivedVar> {
        self.mentions().cloned().collect()
    }

    /// Returns all base variables mentioned in the set.
    pub fn base_vars(&self) -> BTreeSet<crate::BaseVar> {
        self.mentions().map(DerivedVar::base).collect()
    }

    /// The type constants mentioned in the set, sorted and deduplicated.
    pub fn constants(&self) -> Vec<crate::BaseVar> {
        let consts: BTreeSet<_> = self
            .mentions()
            .map(DerivedVar::base)
            .filter(|b| b.is_const())
            .collect();
        consts.into_iter().collect()
    }

    /// Merges another constraint set into this one.
    pub fn extend(&mut self, other: &ConstraintSet) {
        self.subtypes.extend(other.subtypes.iter().cloned());
        self.var_decls.extend(other.var_decls.iter().cloned());
        self.addsubs.extend(other.addsubs.iter().cloned());
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for c in &self.subtypes {
            f.write_str(sep)?;
            c.fmt(f)?;
            sep = "\n";
        }
        for v in &self.var_decls {
            f.write_str(sep)?;
            f.write_str("VAR ")?;
            v.fmt(f)?;
            sep = "\n";
        }
        for a in &self.addsubs {
            f.write_str(sep)?;
            a.fmt(f)?;
            sep = "\n";
        }
        Ok(())
    }
}

impl FromIterator<SubtypeConstraint> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = SubtypeConstraint>>(iter: I) -> ConstraintSet {
        let mut c = ConstraintSet::new();
        for s in iter {
            c.add_sub(s.lhs, s.rhs);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    #[test]
    fn dedup_and_order() {
        let mut c = ConstraintSet::new();
        c.add_sub_str("b", "c");
        c.add_sub_str("a", "b");
        c.add_sub_str("a", "b");
        assert_eq!(c.len(), 2);
        let rendered = c.to_string();
        // BTreeSet ordering puts a ⊑ b first.
        assert!(rendered.starts_with("a ⊑ b"));
    }

    #[test]
    fn mentioned_vars_includes_everything() {
        let mut c = ConstraintSet::new();
        c.add_sub_str("x.load", "y");
        c.add_var_decl(DerivedVar::var("z").push(Label::Store));
        let vars = c.mentioned_vars();
        assert!(vars.contains(&crate::parse::parse_derived_var("x.load").unwrap()));
        assert!(vars.contains(&DerivedVar::var("y")));
        assert!(vars.contains(&DerivedVar::var("z").push(Label::Store)));
    }
}
