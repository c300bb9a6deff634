//! Field labels (type capabilities) — the alphabet Σ of Table 1.
//!
//! A derived type variable is a base variable followed by a word of field
//! labels; each label records one *capability* of the type:
//!
//! | label      | variance | capability                              |
//! |------------|----------|-----------------------------------------|
//! | `.in_L`    | ⊖        | function with input in location `L`     |
//! | `.out_L`   | ⊕        | function with output in location `L`    |
//! | `.load`    | ⊕        | readable pointer                        |
//! | `.store`   | ⊖        | writable pointer                        |
//! | `.σN@k`    | ⊕        | has an `N`-bit field at offset `k`      |

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::intern::Symbol;
use crate::variance::Variance;

/// A parameter or return-value location used by `.in_L` / `.out_L` labels.
///
/// Locations abstract over the calling convention: a stack slot at a byte
/// offset in the incoming parameter area, or a named register.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Loc {
    /// Parameter passed on the stack at the given byte offset (0, 4, 8, …).
    Stack(u32),
    /// Parameter or result passed in the named register.
    Reg(#[serde(with = "symbol_serde")] Symbol),
}

impl Loc {
    /// Convenience constructor for a register location.
    pub fn reg(name: &str) -> Loc {
        Loc::Reg(Symbol::intern(name))
    }

    /// Convenience constructor for a stack location.
    pub fn stack(offset: u32) -> Loc {
        Loc::Stack(offset)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Stack(k) => f.write_str("stack").and_then(|()| k.fmt(f)),
            Loc::Reg(r) => f.write_str(r.as_str()),
        }
    }
}

// With the offline no-op serde shim the derive ignores `#[serde(with)]`,
// leaving these helpers uncalled; the real serde derive wires them up.
#[allow(dead_code)]
mod symbol_serde {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    use crate::intern::Symbol;

    pub fn serialize<S: Serializer>(sym: &Symbol, ser: S) -> Result<S::Ok, S::Error> {
        sym.as_str().serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Symbol, D::Error> {
        let s = String::deserialize(de)?;
        Ok(Symbol::intern(&s))
    }
}

/// A field label (element of the alphabet Σ, Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Label {
    /// `.in_L` — the function-input capability at location `L`. Contravariant.
    In(Loc),
    /// `.out_L` — the function-output capability at location `L`. Covariant.
    Out(Loc),
    /// `.load` — the readable-pointer capability. Covariant.
    Load,
    /// `.store` — the writable-pointer capability. Contravariant.
    Store,
    /// `.σN@k` — an `N`-bit field at byte offset `k`. Covariant.
    Sigma {
        /// Field width in bits.
        bits: u16,
        /// Byte offset of the field within the pointed-to cell.
        offset: i32,
    },
}

impl Label {
    /// The variance `⟨ℓ⟩` of this label (Table 1).
    pub fn variance(self) -> Variance {
        match self {
            Label::In(_) | Label::Store => Variance::Contravariant,
            Label::Out(_) | Label::Load | Label::Sigma { .. } => Variance::Covariant,
        }
    }

    /// Constructs the `.in_stackK` label used by the cdecl convention.
    pub fn in_stack(offset: u32) -> Label {
        Label::In(Loc::Stack(offset))
    }

    /// Constructs the `.out_REG` label (`.out_eax` by convention on x86).
    pub fn out_reg(name: &str) -> Label {
        Label::Out(Loc::reg(name))
    }

    /// Constructs a `.σN@k` field label.
    pub fn sigma(bits: u16, offset: i32) -> Label {
        Label::Sigma { bits, offset }
    }

    /// True for `.load` / `.store` (pointer capabilities).
    pub fn is_pointer_access(self) -> bool {
        matches!(self, Label::Load | Label::Store)
    }
}

/// Computes the variance `⟨w⟩` of a word of labels (Definition 3.2).
///
/// The empty word is covariant; otherwise variances compose in the sign
/// monoid.
///
/// ```
/// use retypd_core::{word_variance, Label, Variance};
/// let w = [Label::Store, Label::sigma(32, 0)];
/// assert_eq!(word_variance(&w), Variance::Contravariant);
/// ```
pub fn word_variance(word: &[Label]) -> Variance {
    word.iter()
        .fold(Variance::Covariant, |acc, l| acc * l.variance())
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::In(loc) => f.write_str("in_").and_then(|()| loc.fmt(f)),
            Label::Out(loc) => f.write_str("out_").and_then(|()| loc.fmt(f)),
            Label::Load => f.write_str("load"),
            Label::Store => f.write_str("store"),
            Label::Sigma { bits, offset } => {
                f.write_str("σ")?;
                bits.fmt(f)?;
                f.write_str("@")?;
                offset.fmt(f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_variances() {
        assert_eq!(Label::in_stack(0).variance(), Variance::Contravariant);
        assert_eq!(Label::out_reg("eax").variance(), Variance::Covariant);
        assert_eq!(Label::Load.variance(), Variance::Covariant);
        assert_eq!(Label::Store.variance(), Variance::Contravariant);
        assert_eq!(Label::sigma(32, 4).variance(), Variance::Covariant);
    }

    #[test]
    fn word_variance_composes() {
        assert_eq!(word_variance(&[]), Variance::Covariant);
        assert_eq!(
            word_variance(&[Label::Load, Label::sigma(32, 0)]),
            Variance::Covariant
        );
        assert_eq!(
            word_variance(&[Label::Store, Label::Store]),
            Variance::Covariant
        );
        assert_eq!(
            word_variance(&[Label::in_stack(0), Label::Load]),
            Variance::Contravariant
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Label::in_stack(0).to_string(), "in_stack0");
        assert_eq!(Label::out_reg("eax").to_string(), "out_eax");
        assert_eq!(Label::sigma(32, 4).to_string(), "σ32@4");
        assert_eq!(Label::Load.to_string(), "load");
        assert_eq!(Label::Store.to_string(), "store");
    }

    #[test]
    fn labels_are_ordered() {
        // Ordering is only required to be total and deterministic.
        let mut v = vec![Label::Store, Label::Load, Label::sigma(8, 0)];
        v.sort();
        let mut w = v.clone();
        w.sort();
        assert_eq!(v, w);
    }
}
