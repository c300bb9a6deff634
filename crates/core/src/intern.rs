//! Global string interner for type-variable and label names.
//!
//! Compiler-style symbol interning: strings are leaked into a process-wide
//! table and referenced by a small copyable [`Symbol`]. Interning the same
//! string twice yields the same symbol, so equality and hashing are O(1).
//!
//! The symbol carries the canonical `&'static str` itself, so every
//! read-side operation — [`Symbol::as_str`], equality, hashing, and
//! crucially [`Ord`] — is lock-free: only [`Symbol::intern`] touches the
//! global table. (An earlier id-based representation took two interner
//! read-locks and a table lookup per comparison, which made ordered
//! collections of symbols — `BTreeSet<BaseVar>` and friends — a hot-path
//! hazard.)
//!
//! The table itself is an [`Interner`] behind the workspace sync facade
//! ([`crate::sync`]): its double-checked read-then-write locking is one
//! of the protocols `crates/conc-check` model-checks (two threads miss
//! on the same key; exactly one insert must win and both must get the
//! same canonical pointer).
//!
//! ```
//! use retypd_core::Symbol;
//!
//! let a = Symbol::intern("eax");
//! let b = Symbol::intern("eax");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "eax");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::sync::{OnceLock, PoisonError, RwLock};

/// An interned string.
///
/// Symbols are cheap to copy and compare: equality and hashing use the
/// canonical pointer (interning guarantees one allocation per distinct
/// string), and ordering is by string content (not interning order) so that
/// data structures built from symbols iterate in a deterministic order
/// regardless of interning history.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

/// A string-interning table: double-checked read-then-write locking
/// around a canonicalizing map.
///
/// [`Symbol::intern`] goes through one process-wide instance; separate
/// instances exist so the protocol itself is testable (and
/// model-checkable) without global state.
#[derive(Default)]
pub struct Interner {
    table: RwLock<HashMap<&'static str, &'static str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Canonicalizes `s`, leaking it on first sight.
    ///
    /// Fast path: a read lock and a lookup. On a miss, re-check under
    /// the write lock (another thread may have inserted between the
    /// locks) before leaking — the re-check is what makes concurrent
    /// double misses insert exactly once.
    pub fn intern(&self, s: &str) -> &'static str {
        {
            let guard = self.table.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&canon) = guard.get(s) {
                return canon;
            }
        }
        let mut guard = self.table.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&canon) = guard.get(s) {
            return canon;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        guard.insert(leaked, leaked);
        leaked
    }

    /// The process-wide table behind [`Symbol::intern`].
    pub fn global() -> &'static Interner {
        static INTERNER: OnceLock<Interner> = OnceLock::new();
        INTERNER.get_or_init(Interner::new)
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Total length in bytes of the distinct strings interned so far.
    /// Sums the table under its read lock — a gauge read, not a hot path.
    pub fn bytes(&self) -> usize {
        self.table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .map(|s| s.len())
            .sum()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner").field("len", &self.len()).finish()
    }
}

impl Symbol {
    /// Interns `s`, returning its canonical symbol.
    pub fn intern(s: &str) -> Symbol {
        Symbol(Interner::global().intern(s))
    }

    /// Returns the interned string (no lock: the symbol carries it).
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Interning canonicalizes: content equality ⟺ pointer equality.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the canonical address, not the content: O(1) and consistent
        // with the pointer-based `Eq`.
        (self.0.as_ptr() as usize).hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        let c = Symbol::intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn ordering_is_by_string() {
        // Intern in reverse lexicographic order; Ord must still be lexicographic.
        let z = Symbol::intern("zzz_order");
        let a = Symbol::intern("aaa_order");
        assert!(a < z);
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        let h = |s: Symbol| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(Symbol::intern("same")), h(Symbol::intern("same")));
    }

    #[test]
    fn debug_shows_content() {
        let s = Symbol::intern("dbg");
        assert_eq!(format!("{s:?}"), "\"dbg\"");
        assert_eq!(format!("{s}"), "dbg");
    }

    #[test]
    fn standalone_interner_canonicalizes() {
        let i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern("x");
        let b = i.intern("x");
        assert!(std::ptr::eq(a, b));
        assert_eq!(i.len(), 1);
        assert_eq!(format!("{i:?}"), "Interner { len: 1 }");
    }
}
