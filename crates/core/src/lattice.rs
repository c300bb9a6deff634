//! The customizable auxiliary lattice Λ of atomic types and semantic tags
//! (§2.8, §3.5, Appendix E).
//!
//! Sketch nodes are marked with elements of a finite lattice Λ. The lattice
//! is uninterpreted by the core solver: it only needs `≤`, joins and meets.
//! Users extend it with ad-hoc typedef hierarchies and semantic classes such
//! as `#FileDescriptor` (§2.8: Windows handle hierarchies, `#signal-number`
//! seeds, …).
//!
//! ```
//! use retypd_core::Lattice;
//!
//! let lat = Lattice::c_types();
//! let int32 = lat.element("int32").unwrap();
//! let fd = lat.element("#FileDescriptor").unwrap();
//! assert!(lat.leq(fd, int32));
//! assert_eq!(lat.join(fd, int32), int32);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use crate::fnv::Fnv64;
use crate::intern::Symbol;

/// Characters that cannot appear in a lattice element or descriptor name:
/// they delimit the canonical text form of [`LatticeDescriptor`].
const RESERVED: &[char] = &['{', '}', ';', ',', '<', '='];

fn validate_name(kind: &str, name: &str) -> Result<(), LatticeError> {
    if name.is_empty()
        || name.chars().any(|c| c.is_whitespace() || RESERVED.contains(&c))
    {
        return Err(LatticeError::InvalidName(format!("{kind} {name:?}")));
    }
    Ok(())
}

/// An element of a [`Lattice`], as a dense index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LatticeElem(pub(crate) u16);

impl LatticeElem {
    /// The element's dense index within its lattice. Indices follow the
    /// descriptor's element order, so for a fixed descriptor they are
    /// stable across processes — which is what lets fingerprints hash
    /// them directly instead of rendering names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors produced while building or querying a lattice.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LatticeError {
    /// An edge mentioned an element that was never added.
    UnknownElement(String),
    /// The `≤` relation has a nontrivial cycle, so it is not a partial order.
    NotAntisymmetric(String, String),
    /// Two elements have no unique least upper bound.
    NoJoin {
        /// First element.
        a: String,
        /// Second element.
        b: String,
        /// The minimal upper bounds found (more than one, or none).
        candidates: Vec<String>,
    },
    /// Two elements have no unique greatest lower bound.
    NoMeet {
        /// First element.
        a: String,
        /// Second element.
        b: String,
        /// The maximal lower bounds found (more than one, or none).
        candidates: Vec<String>,
    },
    /// A name was added twice.
    Duplicate(String),
    /// A name contains whitespace or a character reserved by the
    /// descriptor text form (`{ } ; , < =`), or is empty.
    InvalidName(String),
    /// A [`LatticeDescriptor`] text form could not be parsed.
    Parse(String),
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::UnknownElement(n) => write!(f, "unknown lattice element {n:?}"),
            LatticeError::NotAntisymmetric(a, b) => {
                write!(f, "elements {a:?} and {b:?} are in a ≤-cycle")
            }
            LatticeError::NoJoin { a, b, candidates } => write!(
                f,
                "no unique join of {a:?} and {b:?}; minimal upper bounds: {candidates:?}"
            ),
            LatticeError::NoMeet { a, b, candidates } => write!(
                f,
                "no unique meet of {a:?} and {b:?}; maximal lower bounds: {candidates:?}"
            ),
            LatticeError::Duplicate(n) => write!(f, "duplicate lattice element {n:?}"),
            LatticeError::InvalidName(n) => write!(
                f,
                "invalid lattice name {n}: names are non-empty and contain no \
                 whitespace or reserved characters ({{ }} ; , < =)"
            ),
            LatticeError::Parse(m) => write!(f, "bad lattice descriptor: {m}"),
        }
    }
}

impl std::error::Error for LatticeError {}

/// A lattice as *data*: a name, an ordered element list, and `lower ≤ upper`
/// edges. This is the serializable request-side description of Λ — the wire
/// protocol carries one of these (as canonical text), the driver builds and
/// memoizes a [`Lattice`] from it, and cache keys incorporate its
/// fingerprint so two lattices never share scheme-cache entries.
///
/// ## Canonical text form
///
/// ```text
/// lattice <name> { <elem> <elem> … ; <lo> <= <hi>, <lo> <= <hi>, … }
/// ```
///
/// `Display` emits this form and [`LatticeDescriptor::from_str`] parses it
/// back; the round trip is the identity on the descriptor (element and edge
/// order are preserved — element order determines the built lattice's dense
/// indices, so a descriptor round trip rebuilds an index-identical lattice).
/// Names may not be empty or contain whitespace or `{ } ; , < =`.
///
/// ## Fingerprint
///
/// [`LatticeDescriptor::fingerprint`] is a stable FNV-1a 64-bit hash of the
/// element list and edge list (the name is deliberately excluded, like
/// module names in job fingerprints: a renamed copy of the same lattice is
/// the same lattice). Descriptors emitted by [`Lattice::descriptor`] are
/// *canonical* — elements in index order, edges reduced to the covering
/// relation and sorted — so every description that builds an
/// order-identical lattice converges to one fingerprint:
/// `d.build()?.fingerprint()` is the authoritative cache-key identity.
///
/// ```
/// use retypd_core::{Lattice, LatticeDescriptor};
///
/// let d = Lattice::c_types().descriptor().clone();
/// let back: LatticeDescriptor = d.to_string().parse().unwrap();
/// assert_eq!(back, d);
/// assert_eq!(back.build().unwrap().fingerprint(), Lattice::c_types().fingerprint());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LatticeDescriptor {
    name: String,
    elements: Vec<String>,
    edges: Vec<(String, String)>,
}

impl LatticeDescriptor {
    /// Builds a validated descriptor.
    ///
    /// # Errors
    ///
    /// Rejects invalid or duplicate names, an empty element list, and edges
    /// mentioning undeclared elements.
    pub fn new(
        name: impl Into<String>,
        elements: Vec<String>,
        edges: Vec<(String, String)>,
    ) -> Result<LatticeDescriptor, LatticeError> {
        let name = name.into();
        validate_name("descriptor name", &name)?;
        if elements.is_empty() {
            return Err(LatticeError::Parse("a lattice needs at least one element".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for e in &elements {
            validate_name("element", e)?;
            if !seen.insert(e.as_str()) {
                return Err(LatticeError::Duplicate(e.clone()));
            }
        }
        for (lo, hi) in &edges {
            for side in [lo, hi] {
                if !seen.contains(side.as_str()) {
                    return Err(LatticeError::UnknownElement(side.clone()));
                }
            }
        }
        Ok(LatticeDescriptor {
            name,
            elements,
            edges,
        })
    }

    /// The descriptor's name (documentation only; excluded from the
    /// fingerprint).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Elements in declaration order (the built lattice's index order).
    pub fn elements(&self) -> &[String] {
        &self.elements
    }

    /// `lower ≤ upper` edges in declaration order.
    pub fn edges(&self) -> &[(String, String)] {
        &self.edges
    }

    /// Stable FNV-64 content fingerprint over elements and edges, in order
    /// (name excluded). Stable across runs, processes, and platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new("lattice-descriptor");
        h.write_u64(self.elements.len() as u64);
        for e in &self.elements {
            h.write_str(e);
        }
        h.write_u64(self.edges.len() as u64);
        for (lo, hi) in &self.edges {
            h.write_str(lo);
            h.write_str(hi);
        }
        h.finish()
    }

    /// A builder pre-populated with this descriptor's elements and edges.
    pub fn to_builder(&self) -> LatticeBuilder {
        let mut b = LatticeBuilder::named(&self.name);
        for e in &self.elements {
            b.add(e).expect("descriptor elements are distinct");
        }
        for (lo, hi) in &self.edges {
            b.le(lo, hi).expect("descriptor edges reference declared elements");
        }
        b
    }

    /// Builds (and validates) the described lattice.
    ///
    /// # Errors
    ///
    /// Returns the usual [`LatticeBuilder::build`] errors when the
    /// described order is not a lattice.
    pub fn build(&self) -> Result<Lattice, LatticeError> {
        self.to_builder().build()
    }

    /// The descriptor of the built-in C-types lattice
    /// ([`Lattice::c_types`]).
    pub fn c_types() -> LatticeDescriptor {
        Lattice::c_types().descriptor().clone()
    }
}

impl fmt::Display for LatticeDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lattice {} {{ ", self.name)?;
        for e in &self.elements {
            write!(f, "{e} ")?;
        }
        write!(f, ";")?;
        for (i, (lo, hi)) in self.edges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep} {lo} <= {hi}")?;
        }
        write!(f, " }}")
    }
}

impl FromStr for LatticeDescriptor {
    type Err = LatticeError;

    fn from_str(s: &str) -> Result<LatticeDescriptor, LatticeError> {
        let bad = |m: &str| LatticeError::Parse(m.to_owned());
        let s = s.trim();
        let rest = s
            .strip_prefix("lattice")
            .ok_or_else(|| bad("expected leading `lattice` keyword"))?;
        let open = rest.find('{').ok_or_else(|| bad("expected `{`"))?;
        let name = rest[..open].trim().to_owned();
        let body = rest[open + 1..]
            .strip_suffix('}')
            .ok_or_else(|| bad("expected closing `}`"))?;
        let (elems_part, edges_part) = body
            .split_once(';')
            .ok_or_else(|| bad("expected `;` between elements and edges"))?;
        if edges_part.contains(';') {
            return Err(bad("more than one `;`"));
        }
        let elements: Vec<String> =
            elems_part.split_whitespace().map(str::to_owned).collect();
        let mut edges = Vec::new();
        for chunk in edges_part.split(',') {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                continue;
            }
            let (lo, hi) = chunk
                .split_once("<=")
                .ok_or_else(|| bad("edges have the form `lower <= upper`"))?;
            edges.push((lo.trim().to_owned(), hi.trim().to_owned()));
        }
        LatticeDescriptor::new(name, elements, edges)
    }
}

/// Incrementally builds a [`Lattice`] from elements and `≤` edges.
///
/// The builder validates on [`LatticeBuilder::build`] that the resulting
/// structure really is a lattice (antisymmetric order with unique binary
/// joins and meets); ill-formed hierarchies are rejected with a useful
/// error rather than silently mis-solving constraints later.
#[derive(Clone, Default, Debug)]
pub struct LatticeBuilder {
    /// Descriptor name of the built lattice; empty means `"custom"`.
    name: String,
    names: Vec<Symbol>,
    index: HashMap<Symbol, u16>,
    edges: Vec<(u16, u16)>, // (lower, upper)
}

impl LatticeBuilder {
    /// Creates an empty builder (descriptor name `"custom"`).
    pub fn new() -> LatticeBuilder {
        LatticeBuilder::default()
    }

    /// Creates an empty builder whose built lattice will carry `name` in
    /// its [`LatticeDescriptor`].
    pub fn named(name: impl Into<String>) -> LatticeBuilder {
        LatticeBuilder {
            name: name.into(),
            ..LatticeBuilder::default()
        }
    }

    /// Sets the descriptor name of the built lattice.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds an element; returns an error if the name already exists.
    pub fn add(&mut self, name: &str) -> Result<(), LatticeError> {
        let sym = Symbol::intern(name);
        if self.index.contains_key(&sym) {
            return Err(LatticeError::Duplicate(name.to_owned()));
        }
        let id = self.names.len() as u16;
        self.names.push(sym);
        self.index.insert(sym, id);
        Ok(())
    }

    /// Adds an element if not already present.
    pub fn ensure(&mut self, name: &str) {
        let _ = self.add(name);
    }

    /// Declares `lower ≤ upper`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::UnknownElement`] if either side was not added.
    pub fn le(&mut self, lower: &str, upper: &str) -> Result<(), LatticeError> {
        let l = self.lookup(lower)?;
        let u = self.lookup(upper)?;
        self.edges.push((l, u));
        Ok(())
    }

    /// Adds `child` as a new element below `parent` (a convenience for
    /// tree-shaped hierarchies).
    pub fn add_under(&mut self, child: &str, parent: &str) -> Result<(), LatticeError> {
        self.add(child)?;
        self.le(child, parent)
    }

    fn lookup(&self, name: &str) -> Result<u16, LatticeError> {
        self.index
            .get(&Symbol::intern(name))
            .copied()
            .ok_or_else(|| LatticeError::UnknownElement(name.to_owned()))
    }

    /// Validates the order and computes join/meet tables.
    ///
    /// # Errors
    ///
    /// Returns an error if the relation is not antisymmetric or some pair of
    /// elements lacks a unique join or meet. The conventional fix for the
    /// latter is to introduce an explicit common bound element.
    pub fn build(self) -> Result<Lattice, LatticeError> {
        let n = self.names.len();
        assert!(n > 0, "a lattice needs at least one element");
        assert!(n < u16::MAX as usize, "too many lattice elements");
        // Every built lattice is expressible as a descriptor (a lattice is
        // data now), so element names must fit the descriptor grammar.
        let descr_name = if self.name.is_empty() {
            "custom".to_owned()
        } else {
            self.name.clone()
        };
        validate_name("descriptor name", &descr_name)?;
        for s in &self.names {
            validate_name("element", s.as_str())?;
        }
        // Reflexive-transitive closure of ≤ via simple propagation.
        let mut leq = vec![false; n * n];
        for i in 0..n {
            leq[i * n + i] = true;
        }
        for &(l, u) in &self.edges {
            leq[l as usize * n + u as usize] = true;
        }
        // Floyd–Warshall style closure.
        for k in 0..n {
            for i in 0..n {
                if leq[i * n + k] {
                    for j in 0..n {
                        if leq[k * n + j] {
                            leq[i * n + j] = true;
                        }
                    }
                }
            }
        }
        // Antisymmetry.
        for i in 0..n {
            for j in (i + 1)..n {
                if leq[i * n + j] && leq[j * n + i] {
                    return Err(LatticeError::NotAntisymmetric(
                        self.names[i].as_str().to_owned(),
                        self.names[j].as_str().to_owned(),
                    ));
                }
            }
        }
        // Join and meet tables with uniqueness validation.
        let name_of = |i: u16| self.names[i as usize].as_str().to_owned();
        let mut join = vec![0u16; n * n];
        let mut meet = vec![0u16; n * n];
        for a in 0..n {
            for b in a..n {
                let uppers: Vec<u16> = (0..n as u16)
                    .filter(|&c| leq[a * n + c as usize] && leq[b * n + c as usize])
                    .collect();
                let minimal: Vec<u16> = uppers
                    .iter()
                    .copied()
                    .filter(|&c| {
                        uppers
                            .iter()
                            .all(|&d| d == c || !leq[d as usize * n + c as usize])
                    })
                    .collect();
                if minimal.len() != 1 {
                    return Err(LatticeError::NoJoin {
                        a: name_of(a as u16),
                        b: name_of(b as u16),
                        candidates: minimal.into_iter().map(name_of).collect(),
                    });
                }
                join[a * n + b] = minimal[0];
                join[b * n + a] = minimal[0];

                let lowers: Vec<u16> = (0..n as u16)
                    .filter(|&c| leq[c as usize * n + a] && leq[c as usize * n + b])
                    .collect();
                let maximal: Vec<u16> = lowers
                    .iter()
                    .copied()
                    .filter(|&c| {
                        lowers
                            .iter()
                            .all(|&d| d == c || !leq[c as usize * n + d as usize])
                    })
                    .collect();
                if maximal.len() != 1 {
                    return Err(LatticeError::NoMeet {
                        a: name_of(a as u16),
                        b: name_of(b as u16),
                        candidates: maximal.into_iter().map(name_of).collect(),
                    });
                }
                meet[a * n + b] = maximal[0];
                meet[b * n + a] = maximal[0];
            }
        }
        // Top and bottom: the unique maximum/minimum must exist because
        // join/meet of everything exists; fold to find them.
        let mut top = 0u16;
        let mut bottom = 0u16;
        for i in 0..n as u16 {
            top = join[top as usize * n + i as usize];
            bottom = meet[bottom as usize * n + i as usize];
        }
        // Canonical descriptor: elements in index order, edges reduced to
        // the covering relation (i ⋖ j: i < j with nothing strictly
        // between) in index order. Every builder that produces this order
        // — whatever redundant edges it declared — converges to the same
        // descriptor, and therefore the same fingerprint.
        let mut covers = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j
                    && leq[i * n + j]
                    && !(0..n).any(|k| {
                        k != i && k != j && leq[i * n + k] && leq[k * n + j]
                    })
                {
                    covers.push((
                        self.names[i].as_str().to_owned(),
                        self.names[j].as_str().to_owned(),
                    ));
                }
            }
        }
        let descriptor = LatticeDescriptor::new(
            descr_name,
            self.names.iter().map(|s| s.as_str().to_owned()).collect(),
            covers,
        )
        .expect("validated names form a well-formed descriptor");
        let fingerprint = descriptor.fingerprint();
        Ok(Lattice {
            descriptor,
            fingerprint,
            names: self.names,
            index: self.index,
            n,
            leq,
            join,
            meet,
            top: LatticeElem(top),
            bottom: LatticeElem(bottom),
        })
    }
}

/// A validated finite lattice of atomic types and semantic tags.
#[derive(Clone, Debug)]
pub struct Lattice {
    /// The canonical description this lattice was built to (elements in
    /// index order, covering-relation edges).
    descriptor: LatticeDescriptor,
    /// `descriptor.fingerprint()`, precomputed — the lattice's cache-key
    /// identity.
    fingerprint: u64,
    names: Vec<Symbol>,
    index: HashMap<Symbol, u16>,
    n: usize,
    leq: Vec<bool>,
    join: Vec<u16>,
    meet: Vec<u16>,
    top: LatticeElem,
    bottom: LatticeElem,
}

impl Lattice {
    /// The canonical [`LatticeDescriptor`] of this lattice: elements in
    /// index order, edges reduced to the covering relation. Rebuilding from
    /// it yields an index-identical lattice.
    pub fn descriptor(&self) -> &LatticeDescriptor {
        &self.descriptor
    }

    /// The stable content fingerprint of this lattice (its canonical
    /// descriptor's [`LatticeDescriptor::fingerprint`]). Any two lattices
    /// built to the same element order and partial order share it; the
    /// driver mixes it into every scheme-cache key so distinct lattices
    /// never share entries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Looks up an element by name.
    pub fn element(&self, name: &str) -> Option<LatticeElem> {
        self.index.get(&Symbol::intern(name)).map(|&i| LatticeElem(i))
    }

    /// Looks up an element by interned symbol.
    pub fn element_sym(&self, sym: Symbol) -> Option<LatticeElem> {
        self.index.get(&sym).map(|&i| LatticeElem(i))
    }

    /// The element's name.
    pub fn name(&self, e: LatticeElem) -> &'static str {
        self.names[e.0 as usize].as_str()
    }

    /// `a ≤ b` in the lattice order.
    pub fn leq(&self, a: LatticeElem, b: LatticeElem) -> bool {
        self.leq[a.0 as usize * self.n + b.0 as usize]
    }

    /// Least upper bound.
    pub fn join(&self, a: LatticeElem, b: LatticeElem) -> LatticeElem {
        LatticeElem(self.join[a.0 as usize * self.n + b.0 as usize])
    }

    /// Greatest lower bound.
    pub fn meet(&self, a: LatticeElem, b: LatticeElem) -> LatticeElem {
        LatticeElem(self.meet[a.0 as usize * self.n + b.0 as usize])
    }

    /// The greatest element ⊤.
    pub fn top(&self) -> LatticeElem {
        self.top
    }

    /// The least element ⊥.
    pub fn bottom(&self) -> LatticeElem {
        self.bottom
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the lattice has exactly the trivial two elements; never true
    /// for the built-in lattices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all elements.
    pub fn elements(&self) -> impl Iterator<Item = LatticeElem> + '_ {
        (0..self.n as u16).map(LatticeElem)
    }

    /// The "distance" between two comparable elements: the length of the
    /// longest chain between them; used by the TIE-style evaluation metrics.
    /// Returns `None` for incomparable elements.
    pub fn chain_distance(&self, a: LatticeElem, b: LatticeElem) -> Option<u32> {
        let (lo, hi) = if self.leq(a, b) {
            (a, b)
        } else if self.leq(b, a) {
            (b, a)
        } else {
            return None;
        };
        // Longest chain from lo to hi by DFS over the interval [lo, hi].
        fn longest(lat: &Lattice, cur: LatticeElem, hi: LatticeElem) -> u32 {
            if cur == hi {
                return 0;
            }
            let mut best = 0;
            for nxt in lat.elements() {
                if nxt != cur && lat.leq(cur, nxt) && lat.leq(nxt, hi) {
                    // Only step to covers-ish elements: this DFS is exponential
                    // in pathological lattices but ours are small trees.
                    let d = longest(lat, nxt, hi);
                    best = best.max(d + 1);
                }
            }
            best
        }
        Some(longest(self, lo, hi))
    }

    /// The Figure 15 example lattice: `⊥ ⊑ url ⊑ str ⊑ ⊤`, `⊥ ⊑ num ⊑ ⊤`.
    pub fn paper_example() -> Lattice {
        let mut b = LatticeBuilder::named("paper");
        for e in ["⊤", "num", "str", "url", "⊥"] {
            b.add(e).expect("fresh element");
        }
        b.le("num", "⊤").expect("known");
        b.le("str", "⊤").expect("known");
        b.le("url", "str").expect("known");
        b.le("⊥", "num").expect("known");
        b.le("⊥", "url").expect("known");
        b.build().expect("the paper lattice is a lattice")
    }

    /// Returns a builder pre-populated with the default C-types lattice, so
    /// user code can extend it with domain tags before building (§2.8).
    pub fn c_types_builder() -> LatticeBuilder {
        let mut b = LatticeBuilder::named("c_types");
        b.ensure("⊤");
        // Width strata.
        for (reg, members) in [
            ("reg64", &["int64", "uint64", "float64"][..]),
            ("reg32", &["float32", "code"][..]),
            ("reg16", &["int16", "uint16"][..]),
            ("reg8", &["int8", "uint8", "char"][..]),
        ] {
            b.add_under(reg, "⊤").expect("fresh");
            for m in members {
                b.add_under(m, reg).expect("fresh");
            }
        }
        // The signed/unsigned 32-bit integers share `integral32`, the
        // conclusion type of the Figure 13 ADD/SUB rules.
        b.add_under("integral32", "reg32").expect("fresh");
        b.add_under("int32", "integral32").expect("fresh");
        b.add_under("uint32", "integral32").expect("fresh");
        // The general C names sit directly below the width classes, and the
        // typedefs and semantic classes (§2.8, Figure 2) below those, so
        // that e.g. `#FileDescriptor ∧ int = #FileDescriptor`.
        b.add_under("int", "int32").expect("fresh");
        b.add_under("uint", "uint32").expect("fresh");
        b.add_under("float", "float32").expect("fresh");
        b.add_under("double", "float64").expect("fresh");
        for (tag, parent) in [
            ("#FileDescriptor", "int"),
            ("#SuccessZ", "int"),
            ("#SignalNumber", "int"),
            ("pid_t", "int"),
            ("bool_t", "int"),
            ("time_t", "int"),
            ("size_t", "uint"),
            ("uintptr_t", "uint"),
        ] {
            b.add_under(tag, parent).expect("fresh");
        }
        // Opaque pointed-to types (used as the Λ mark of a pointee node).
        for opaque in ["FILE", "HANDLE", "SOCKET", "cstring"] {
            b.add_under(opaque, "⊤").expect("fresh");
        }
        // Bottom below every leaf: connect under every element lacking
        // children; simplest is to connect ⊥ under all current elements.
        b.ensure("⊥");
        let names: Vec<&'static str> = b.names.iter().map(|s| s.as_str()).collect();
        for name in names {
            if name != "⊥" {
                b.le("⊥", name).expect("known");
            }
        }
        b
    }

    /// The default lattice of C scalar types, common typedefs, and semantic
    /// tags. Tree-shaped (plus ⊥), hence a valid lattice.
    pub fn c_types() -> Lattice {
        Lattice::c_types_builder()
            .build()
            .expect("the built-in C lattice is a lattice")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lattice_orders() {
        let lat = Lattice::paper_example();
        let url = lat.element("url").unwrap();
        let s = lat.element("str").unwrap();
        let num = lat.element("num").unwrap();
        assert!(lat.leq(url, s));
        assert!(!lat.leq(s, url));
        assert!(!lat.leq(url, num));
        assert_eq!(lat.join(url, num), lat.top());
        assert_eq!(lat.meet(url, num), lat.bottom());
        assert_eq!(lat.join(url, s), s);
        assert_eq!(lat.name(lat.top()), "⊤");
        assert_eq!(lat.name(lat.bottom()), "⊥");
    }

    #[test]
    fn c_lattice_builds_and_tags_sit_under_int32() {
        let lat = Lattice::c_types();
        let fd = lat.element("#FileDescriptor").unwrap();
        let int = lat.element("int").unwrap();
        let int32 = lat.element("int32").unwrap();
        let reg32 = lat.element("reg32").unwrap();
        assert!(lat.leq(fd, int));
        assert!(lat.leq(int, int32));
        assert!(lat.leq(int32, reg32));
        // Tags meet their base type at the tag (Figure 2's int ∧ #FileDescriptor).
        assert_eq!(lat.meet(fd, int), fd);
        assert_eq!(lat.join(fd, lat.element("#SuccessZ").unwrap()), int);
        assert_eq!(
            lat.meet(fd, lat.element("#SuccessZ").unwrap()),
            lat.bottom()
        );
    }

    #[test]
    fn join_meet_laws_exhaustive_on_paper_lattice() {
        let lat = Lattice::paper_example();
        let elems: Vec<_> = lat.elements().collect();
        for &a in &elems {
            for &b in &elems {
                // Commutativity.
                assert_eq!(lat.join(a, b), lat.join(b, a));
                assert_eq!(lat.meet(a, b), lat.meet(b, a));
                // Absorption.
                assert_eq!(lat.join(a, lat.meet(a, b)), a);
                assert_eq!(lat.meet(a, lat.join(a, b)), a);
                // Consistency with ≤.
                assert_eq!(lat.leq(a, b), lat.join(a, b) == b);
                assert_eq!(lat.leq(a, b), lat.meet(a, b) == a);
                for &c in &elems {
                    // Associativity.
                    assert_eq!(lat.join(lat.join(a, b), c), lat.join(a, lat.join(b, c)));
                    assert_eq!(lat.meet(lat.meet(a, b), c), lat.meet(a, lat.meet(b, c)));
                }
            }
        }
    }

    #[test]
    fn rejects_non_lattices() {
        // Diamond with two incomparable upper bounds for {a, b}.
        let mut b = LatticeBuilder::new();
        for e in ["top", "u1", "u2", "a", "bb", "bot"] {
            b.add(e).unwrap();
        }
        for (l, u) in [
            ("u1", "top"),
            ("u2", "top"),
            ("a", "u1"),
            ("a", "u2"),
            ("bb", "u1"),
            ("bb", "u2"),
            ("bot", "a"),
            ("bot", "bb"),
        ] {
            b.le(l, u).unwrap();
        }
        // Validation may trip on the missing unique meet of {u1, u2} or the
        // missing unique join of {a, bb}, whichever pair is checked first.
        match b.build() {
            Err(LatticeError::NoJoin { candidates, .. })
            | Err(LatticeError::NoMeet { candidates, .. }) => {
                assert_eq!(candidates.len(), 2);
            }
            other => panic!("expected NoJoin/NoMeet, got {other:?}"),
        }
    }

    #[test]
    fn rejects_cycles() {
        let mut b = LatticeBuilder::new();
        b.add("a").unwrap();
        b.add("b").unwrap();
        b.le("a", "b").unwrap();
        b.le("b", "a").unwrap();
        assert!(matches!(b.build(), Err(LatticeError::NotAntisymmetric(..))));
    }

    #[test]
    fn duplicate_rejected() {
        let mut b = LatticeBuilder::new();
        b.add("x").unwrap();
        assert!(matches!(b.add("x"), Err(LatticeError::Duplicate(_))));
    }

    #[test]
    fn descriptor_round_trips_and_rebuilds_index_identical() {
        for lat in [Lattice::c_types(), Lattice::paper_example()] {
            let d = lat.descriptor().clone();
            let text = d.to_string();
            let back: LatticeDescriptor = text.parse().expect("canonical text parses");
            assert_eq!(back, d, "display→parse is the identity");
            assert_eq!(back.to_string(), text, "re-display is stable");
            let rebuilt = back.build().expect("canonical descriptor builds");
            assert_eq!(rebuilt.fingerprint(), lat.fingerprint());
            assert_eq!(rebuilt.descriptor(), lat.descriptor());
            // Index-identical: every element keeps its dense index, so
            // results of a descriptor-built lattice are bit-identical to
            // the compiled-in one.
            for e in lat.elements() {
                assert_eq!(rebuilt.name(e), lat.name(e));
            }
            assert_eq!(rebuilt.top(), lat.top());
            assert_eq!(rebuilt.bottom(), lat.bottom());
        }
    }

    #[test]
    fn redundant_edges_converge_to_the_canonical_fingerprint() {
        // a ≤ b ≤ c declared with the redundant transitive edge a ≤ c:
        // the built lattice's canonical descriptor keeps only the covers.
        let mut b = LatticeBuilder::named("redundant");
        for e in ["c", "b", "a"] {
            b.add(e).unwrap();
        }
        b.le("a", "b").unwrap();
        b.le("b", "c").unwrap();
        b.le("a", "c").unwrap();
        let with_redundant = b.build().unwrap();

        let mut b = LatticeBuilder::named("minimal");
        for e in ["c", "b", "a"] {
            b.add(e).unwrap();
        }
        b.le("a", "b").unwrap();
        b.le("b", "c").unwrap();
        let minimal = b.build().unwrap();

        // Same element order + same order relation ⇒ same fingerprint,
        // regardless of how the edges were declared or what the name is.
        assert_eq!(with_redundant.fingerprint(), minimal.fingerprint());
        assert_eq!(
            with_redundant.descriptor().edges(),
            minimal.descriptor().edges()
        );
    }

    #[test]
    fn descriptor_name_is_excluded_from_the_fingerprint() {
        let a = LatticeDescriptor::new(
            "one",
            vec!["top".into(), "bot".into()],
            vec![("bot".into(), "top".into())],
        )
        .unwrap();
        let b = LatticeDescriptor::new(
            "two",
            vec!["top".into(), "bot".into()],
            vec![("bot".into(), "top".into())],
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // …but element order matters (it fixes dense indices).
        let c = LatticeDescriptor::new(
            "one",
            vec!["bot".into(), "top".into()],
            vec![("bot".into(), "top".into())],
        )
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn descriptor_rejects_malformed_input() {
        assert!(matches!(
            LatticeDescriptor::new("bad name", vec!["a".into()], vec![]),
            Err(LatticeError::InvalidName(_))
        ));
        assert!(matches!(
            LatticeDescriptor::new("n", vec!["a,b".into()], vec![]),
            Err(LatticeError::InvalidName(_))
        ));
        assert!(matches!(
            LatticeDescriptor::new("n", vec!["a".into(), "a".into()], vec![]),
            Err(LatticeError::Duplicate(_))
        ));
        assert!(matches!(
            LatticeDescriptor::new("n", vec!["a".into()], vec![("a".into(), "z".into())]),
            Err(LatticeError::UnknownElement(_))
        ));
        for text in [
            "latice x { a ; }",
            "lattice x a ; }",
            "lattice x { a }",
            "lattice x { a ; b }",
            "lattice x { a ; a < b }",
            "lattice x { a ; } trailing",
        ] {
            assert!(
                text.parse::<LatticeDescriptor>().is_err(),
                "{text:?} must not parse"
            );
        }
    }

    #[test]
    fn chain_distance() {
        let lat = Lattice::c_types();
        let fd = lat.element("#FileDescriptor").unwrap();
        let int32 = lat.element("int32").unwrap();
        let top = lat.top();
        assert_eq!(lat.chain_distance(fd, fd), Some(0));
        assert_eq!(lat.chain_distance(fd, int32), Some(2)); // fd < int < int32
        assert_eq!(lat.chain_distance(int32, fd), Some(2));
        assert_eq!(lat.chain_distance(fd, top), Some(5)); // fd<int<int32<integral32<reg32<⊤
        let f32 = lat.element("float32").unwrap();
        assert_eq!(lat.chain_distance(fd, f32), None);
    }
}
