//! Conversion of sketches to human-readable C types (§4.3, Appendix G).
//!
//! Sketches carry more information than C types, so this phase is lossy by
//! design and collects the *policies* (heuristics) the paper deliberately
//! quarantines away from the sound inference core:
//!
//! * **const policy** (Example 4.1): a pointer parameter at location `L` is
//!   `const` when the sketch has `in_L.load` but not `in_L.store`;
//! * **union policy** (Example 4.2): contradictory scalar bounds become a
//!   union of the offending type names instead of an error;
//! * **struct reconstruction**: `σN@k` capabilities become struct fields at
//!   the corresponding offsets; recursive sketches produce recursive named
//!   structs (the reroll policy of Example G.3 falls out of the DFA
//!   representation: a cycle *is* the rerolled type);
//! * **tag display**: semantic tags like `#FileDescriptor` are displayed as
//!   their nearest untagged C ancestor with the tag kept as a comment,
//!   matching Figure 2's `int /*#FileDescriptor*/`.

use std::collections::HashMap;
use std::fmt;

use crate::label::{Label, Loc};
use crate::lattice::{Lattice, LatticeElem};
use crate::sketch::{Sketch, SketchState};

/// A reconstructed C type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CType {
    /// No information (`⊤`): rendered as the width-appropriate default.
    Unknown {
        /// Bit width if known from the field label.
        bits: Option<u16>,
    },
    /// `void` (used for unused results).
    Void,
    /// A named scalar type, with an optional semantic tag comment.
    Scalar {
        /// The C name to print.
        name: String,
        /// A `#tag` retained as a comment, if any.
        tag: Option<String>,
    },
    /// A union of incompatible reconstructions (Example 4.2).
    Union(Vec<CType>),
    /// A pointer.
    Ptr {
        /// Pointee type.
        pointee: Box<CType>,
        /// Whether the pointee is only ever loaded through this pointer.
        is_const: bool,
    },
    /// Reference to a named struct in the [`TypeTable`].
    Struct(usize),
    /// A function pointer / function type.
    Func(Box<FuncSig>),
}

/// A reconstructed function signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncSig {
    /// Parameters ordered by location.
    pub params: Vec<Param>,
    /// Return type (`Void` when no out location was observed).
    pub ret: CType,
}

/// One reconstructed parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    /// Input location (stack offset or register).
    pub loc: Loc,
    /// Parameter type.
    pub ty: CType,
}

/// A reconstructed struct definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructDef {
    /// Struct name (`Struct_0`, `Struct_1`, …).
    pub name: String,
    /// Fields ordered by offset.
    pub fields: Vec<FieldDef>,
}

/// One struct field.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDef {
    /// Byte offset.
    pub offset: i32,
    /// Bit width.
    pub bits: u16,
    /// Field type.
    pub ty: CType,
}

/// The table of named structs discovered during conversion.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    /// Struct definitions; `CType::Struct(i)` indexes into this.
    pub structs: Vec<StructDef>,
}

impl TypeTable {
    /// Renders all struct definitions as C source.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.structs {
            let _ = writeln!(out, "struct {} {{", s.name);
            for f in &s.fields {
                let _ = writeln!(
                    out,
                    "    {} field_{};",
                    render_type(&f.ty, self),
                    f.offset
                );
            }
            let _ = writeln!(out, "}};");
        }
        out
    }
}

/// Renders a type as C source (struct references by name).
pub fn render_type(t: &CType, table: &TypeTable) -> String {
    match t {
        CType::Unknown { bits: Some(b) } => format!("uint{b}_t /*unknown*/", b = b),
        CType::Unknown { bits: None } => "void /*unknown*/".to_owned(),
        CType::Void => "void".to_owned(),
        CType::Scalar { name, tag: None } => name.clone(),
        CType::Scalar {
            name,
            tag: Some(tag),
        } => format!("{name} /*{tag}*/"),
        CType::Union(parts) => {
            let inner: Vec<String> = parts.iter().map(|p| render_type(p, table)).collect();
            format!("union {{ {} }}", inner.join("; "))
        }
        CType::Ptr { pointee, is_const } => {
            if *is_const {
                format!("const {} *", render_type(pointee, table))
            } else {
                format!("{} *", render_type(pointee, table))
            }
        }
        CType::Struct(i) => format!("struct {}", table.structs[*i].name),
        CType::Func(sig) => {
            let params: Vec<String> =
                sig.params.iter().map(|p| render_type(&p.ty, table)).collect();
            format!(
                "{} (*)({})",
                render_type(&sig.ret, table),
                params.join(", ")
            )
        }
    }
}

impl fmt::Display for FuncSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let empty = TypeTable::default();
        write!(f, "{} (", render_type(&self.ret, &empty))?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", render_type(&p.ty, &empty))?;
        }
        write!(f, ")")
    }
}

/// Converts sketches into C types, accumulating struct definitions.
#[derive(Debug)]
pub struct CTypeBuilder<'l> {
    lattice: &'l Lattice,
    table: TypeTable,
    /// Memo: sketch states already converted to structs (breaks recursion).
    memo: HashMap<SketchState, usize>,
}

impl<'l> CTypeBuilder<'l> {
    /// Creates a builder.
    pub fn new(lattice: &'l Lattice) -> CTypeBuilder<'l> {
        CTypeBuilder {
            lattice,
            table: TypeTable::default(),
            memo: HashMap::new(),
        }
    }

    /// Finishes conversion, returning the struct table.
    pub fn into_table(self) -> TypeTable {
        self.table
    }

    /// A read-only view of the accumulated struct table.
    pub fn table(&self) -> &TypeTable {
        &self.table
    }

    /// Converts a whole-procedure sketch (with `in_L`/`out_L` edges at the
    /// root) into a function signature, applying the const policy.
    pub fn function_type(&mut self, sketch: &Sketch) -> FuncSig {
        self.memo.clear();
        let root = sketch.root();
        let mut params: Vec<Param> = Vec::new();
        let mut ret = CType::Void;
        for (l, t) in sketch.edges(root) {
            match l {
                Label::In(loc) => {
                    let ty = self.value_type_at(sketch, t, None, true);
                    params.push(Param { loc, ty });
                }
                Label::Out(_) => {
                    ret = self.value_type(sketch, t, None);
                }
                _ => {}
            }
        }
        params.sort_by_key(|p| p.loc);
        FuncSig { params, ret }
    }

    /// Converts the sketch subtree at `state` to a C type. `bits` is the
    /// field width if the value was reached through a `σN@k` label.
    pub fn value_type(&mut self, sketch: &Sketch, state: SketchState, bits: Option<u16>) -> CType {
        self.value_type_at(sketch, state, bits, false)
    }

    /// As [`CTypeBuilder::value_type`]; `at_param` enables the const
    /// policy, which the paper applies *only* to function parameters
    /// (Example 4.1).
    fn value_type_at(
        &mut self,
        sketch: &Sketch,
        state: SketchState,
        bits: Option<u16>,
        at_param: bool,
    ) -> CType {
        let has_load = sketch.step(state, Label::Load).is_some();
        let has_store = sketch.step(state, Label::Store).is_some();
        if has_load || has_store {
            // Pointer: prefer the load view of the pointee.
            let pointee_state = sketch
                .step(state, Label::Load)
                .or_else(|| sketch.step(state, Label::Store))
                .expect("pointer has a pointee");
            let pointee = self.pointee_type(sketch, pointee_state);
            return CType::Ptr {
                pointee: Box::new(pointee),
                is_const: at_param && has_load && !has_store,
            };
        }
        let is_func = sketch
            .edges(state)
            .any(|(l, _)| matches!(l, Label::In(_) | Label::Out(_)));
        if is_func {
            let mut params = Vec::new();
            let mut ret = CType::Void;
            for (l, t) in sketch.edges(state) {
                match l {
                    Label::In(loc) => {
                        let ty = self.value_type(sketch, t, None);
                        params.push(Param { loc, ty });
                    }
                    Label::Out(_) => ret = self.value_type(sketch, t, None),
                    _ => {}
                }
            }
            params.sort_by_key(|p| p.loc);
            return CType::Func(Box::new(FuncSig { params, ret }));
        }
        self.scalar_type(sketch, state, bits)
    }

    fn pointee_type(&mut self, sketch: &Sketch, state: SketchState) -> CType {
        let fields: Vec<(i32, u16, SketchState)> = sketch
            .edges(state)
            .filter_map(|(l, t)| match l {
                Label::Sigma { bits, offset } => Some((offset, bits, t)),
                _ => None,
            })
            .collect();
        if fields.is_empty() {
            // Pointer to pointer, function, or opaque scalar.
            return self.value_type(sketch, state, None);
        }
        // A single machine-word field at offset 0 with no recursion is a
        // pointer-to-scalar rather than a pointer-to-struct.
        if fields.len() == 1 && fields[0].0 == 0 && !self.memo.contains_key(&state) {
            let (off, bits, t) = fields[0];
            if off == 0 && !state_in_cycle(sketch, state) {
                return self.value_type(sketch, t, Some(bits));
            }
        }
        if let Some(&id) = self.memo.get(&state) {
            return CType::Struct(id);
        }
        let id = self.table.structs.len();
        self.table.structs.push(StructDef {
            name: format!("Struct_{id}"),
            fields: Vec::new(),
        });
        self.memo.insert(state, id);
        let mut defs: Vec<FieldDef> = Vec::new();
        for (offset, bits, t) in fields {
            let ty = self.value_type(sketch, t, Some(bits));
            defs.push(FieldDef { offset, bits, ty });
        }
        defs.sort_by_key(|f| f.offset);
        self.table.structs[id].fields = defs;
        CType::Struct(id)
    }

    fn scalar_type(&mut self, sketch: &Sketch, state: SketchState, bits: Option<u16>) -> CType {
        let mark = sketch.mark(state);
        let (lower, upper) = sketch.interval(state);
        if mark == self.lattice.top() {
            return CType::Unknown { bits };
        }
        // Union policy (Example 4.2): an inconsistent interval means
        // incompatible scalar constraints were merged; emit a union of the
        // bound names rather than failing.
        if mark == self.lattice.bottom() {
            let mut parts = Vec::new();
            for e in [lower, upper] {
                if e != self.lattice.bottom() && e != self.lattice.top() {
                    parts.push(self.named_scalar(e));
                }
            }
            parts.dedup();
            return match parts.len() {
                0 => CType::Unknown { bits },
                1 => parts.pop().expect("one part"),
                _ => CType::Union(parts),
            };
        }
        self.named_scalar(mark)
    }

    fn named_scalar(&self, e: LatticeElem) -> CType {
        let name = self.lattice.name(e);
        if let Some(tag) = name.strip_prefix('#') {
            // Display the nearest untagged ancestor, keep the tag as a
            // comment (Figure 2's `int /*#FileDescriptor*/`).
            let display = self.nearest_untagged_ancestor(e);
            return CType::Scalar {
                name: display,
                tag: Some(format!("#{tag}")),
            };
        }
        CType::Scalar {
            name: name.to_owned(),
            tag: None,
        }
    }

    fn nearest_untagged_ancestor(&self, e: LatticeElem) -> String {
        let mut best: Option<LatticeElem> = None;
        for c in self.lattice.elements() {
            if c == e || c == self.lattice.top() {
                continue;
            }
            if self.lattice.name(c).starts_with('#') {
                continue;
            }
            if self.lattice.leq(e, c) {
                best = match best {
                    None => Some(c),
                    Some(b) if self.lattice.leq(c, b) => Some(c),
                    other => other,
                };
            }
        }
        match best {
            Some(b) => self.lattice.name(b).to_owned(),
            None => "int".to_owned(),
        }
    }
}

/// True if `state` can reach itself (recursive subtree ⇒ named struct).
fn state_in_cycle(sketch: &Sketch, state: SketchState) -> bool {
    let mut stack = vec![state];
    let mut seen = std::collections::HashSet::new();
    while let Some(s) = stack.pop() {
        for (_, t) in sketch.edges(s) {
            if t == state {
                return true;
            }
            if seen.insert(t) {
                stack.push(t);
            }
        }
    }
    false
}

/// Renders a full function declaration, Figure 2 style:
/// `int /*#SuccessZ*/ close_last(const struct Struct_0 *)`.
pub fn render_signature(name: &str, sig: &FuncSig, table: &TypeTable) -> String {
    let params: Vec<String> = sig
        .params
        .iter()
        .map(|p| render_type(&p.ty, table))
        .collect();
    format!(
        "{} {}({})",
        render_type(&sig.ret, table),
        name,
        if params.is_empty() {
            "void".to_owned()
        } else {
            params.join(", ")
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtv::BaseVar;
    use crate::graph::ConstraintGraph;
    use crate::parse::parse_constraint_set;
    use crate::saturation::saturate;
    use crate::shapes::ShapeQuotient;

    fn infer_sketch(src: &str, base: &str) -> (Sketch, Lattice) {
        let cs = parse_constraint_set(src).unwrap();
        let lattice = Lattice::c_types();
        let mut g = ConstraintGraph::build(&cs);
        saturate(&mut g);
        let quotient = ShapeQuotient::build(&cs);
        let consts = cs.constants();
        let sk = Sketch::infer(BaseVar::var(base), &g, &quotient, &lattice, &consts).unwrap();
        (sk, lattice)
    }

    #[test]
    fn figure2_struct_reconstruction() {
        let src = "
            f.in_stack0 <= t
            t.load.σ32@0 <= t
            t.load.σ32@4 <= #FileDescriptor
            #SuccessZ <= f.out_eax
        ";
        let (sk, lat) = infer_sketch(src, "f");
        let mut b = CTypeBuilder::new(&lat);
        let sig = b.function_type(&sk);
        let table = b.into_table();
        let rendered = render_signature("close_last", &sig, &table);
        // const pointer parameter to a recursive struct; tagged int return.
        assert!(rendered.contains("const struct Struct_0 *"), "{rendered}");
        assert!(rendered.contains("/*#SuccessZ*/"), "{rendered}");
        let structs = table.render();
        assert!(structs.contains("struct Struct_0 *"), "{structs}");
        assert!(structs.contains("/*#FileDescriptor*/"), "{structs}");
    }

    #[test]
    fn const_policy() {
        // Load-only parameter ⇒ const; load+store ⇒ mutable.
        let (sk, lat) = infer_sketch("f.in_stack0 <= p; p.load.σ32@0 <= int32", "f");
        let mut b = CTypeBuilder::new(&lat);
        let sig = b.function_type(&sk);
        match &sig.params[0].ty {
            CType::Ptr { is_const, .. } => assert!(is_const),
            other => panic!("expected pointer, got {other:?}"),
        }
        let (sk2, lat2) =
            infer_sketch("f.in_stack0 <= p; p.load.σ32@0 <= int32; int32 <= p.store.σ32@0", "f");
        let mut b2 = CTypeBuilder::new(&lat2);
        let sig2 = b2.function_type(&sk2);
        match &sig2.params[0].ty {
            CType::Ptr { is_const, .. } => assert!(!is_const),
            other => panic!("expected pointer, got {other:?}"),
        }
    }

    #[test]
    fn pointer_to_scalar_not_struct() {
        let (sk, lat) = infer_sketch("f.in_stack0 <= p; p.load.σ32@0 <= int32", "f");
        let mut b = CTypeBuilder::new(&lat);
        let sig = b.function_type(&sk);
        let t = &sig.params[0].ty;
        match t {
            CType::Ptr { pointee, .. } => match pointee.as_ref() {
                CType::Scalar { name, .. } => assert_eq!(name, "int32"),
                other => panic!("expected scalar pointee, got {other:?}"),
            },
            other => panic!("expected pointer, got {other:?}"),
        }
        assert!(b.into_table().structs.is_empty());
    }

    #[test]
    fn union_policy_on_conflict() {
        // x is bounded above by two incomparable scalars: int32 ∧ float32
        // has meet ⊥, triggering the union policy.
        let (sk, lat) = infer_sketch(
            "f.in_stack0 <= x; x <= int32; x <= float32",
            "f",
        );
        let mut b = CTypeBuilder::new(&lat);
        let sig = b.function_type(&sk);
        match &sig.params[0].ty {
            CType::Union(_) | CType::Unknown { .. } | CType::Scalar { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn render_forms() {
        let table = TypeTable::default();
        let t = CType::Ptr {
            pointee: Box::new(CType::Scalar {
                name: "char".into(),
                tag: None,
            }),
            is_const: true,
        };
        assert_eq!(render_type(&t, &table), "const char *");
    }
}
