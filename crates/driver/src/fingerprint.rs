//! Stable 64-bit fingerprints of analysis inputs.
//!
//! The scheme cache is keyed by content, not identity: an SCC's fingerprint
//! covers everything its solve reads — the members' canonicalized
//! constraint sets, the callsite structure, the program's globals, and the
//! *fingerprints of the callee schemes* that get instantiated into the
//! combined set. Two modules that share a procedure (the near-duplicate
//! members of a real binary corpus, or a re-submitted module) therefore
//! produce colliding keys exactly when the solver would produce identical
//! output.
//!
//! Hashes are FNV-1a over rendered canonical text (`ConstraintSet` and
//! `DerivedVar` display deterministically from `BTreeSet` storage) or, for
//! sketches, over the automaton's structure field by field, so
//! fingerprints are stable across runs and processes for a fixed lattice —
//! deliberately *not* `DefaultHasher`, whose keys are randomized, and not
//! `Symbol`'s pointer-based `Hash`, which varies with interning history.

use std::borrow::Cow;
use std::collections::BTreeMap;

use retypd_core::dtv::BaseVar;
use retypd_core::solver::CallTarget;
use retypd_core::{Program, Sketch, Symbol, TypeScheme};

use crate::text::TextModule;

pub use retypd_core::fnv::Fnv64;

/// Fingerprint of a type scheme, hashed from its canonical parts:
/// subject, existentials, and the *lossless* [`retypd_core::ConstraintSet`]
/// rendering. (`TypeScheme`'s own `Display` elides `VAR` declarations and
/// additive constraints, so it cannot key a lossless store record.)
pub fn scheme_fp(s: &TypeScheme) -> u64 {
    scheme_fp_parts(
        &s.subject().to_string(),
        s.existentials().iter().map(|x| x.as_str()),
        &s.constraints().to_string(),
    )
}

/// [`scheme_fp`] over pre-rendered parts, existentials in ascending
/// order. The driver renders a solved scheme's subject and constraint
/// text once, fingerprints the strings here, and hands the same strings
/// to the scheme store — what gets persisted is byte-for-byte
/// the text that was fingerprinted. Nothing is interned, so a
/// [`TextModule`]'s externals hash straight from their strings.
pub fn scheme_fp_parts<'a>(
    subject: &str,
    existentials: impl ExactSizeIterator<Item = &'a str>,
    constraints: &str,
) -> u64 {
    let mut h = Fnv64::new("scheme");
    h.write_wide(subject.as_bytes());
    h.write_u64(existentials.len() as u64);
    for x in existentials {
        h.write_str(x);
    }
    // The constraint text is the bulk of the input (hundreds of bytes per
    // scheme), and this hash runs once per solved scheme *and* once per
    // replayed store record — wide absorption keeps both cheap.
    h.write_wide(constraints.as_bytes());
    h.finish()
}

/// Absorbs a label by discriminant and fields — registers go in by their
/// interned *string* (`Symbol`'s pointer identity varies with interning
/// history). Each discriminant fixes its field count, so adjacent labels
/// cannot alias.
fn write_label(h: &mut Fnv64, label: retypd_core::Label) {
    use retypd_core::{Label, Loc};
    let write_loc = |h: &mut Fnv64, loc: Loc| match loc {
        Loc::Stack(k) => {
            h.write_u64(0);
            h.write_u64(k as u64);
        }
        Loc::Reg(r) => {
            h.write_u64(1);
            h.write_str(r.as_str());
        }
    };
    match label {
        Label::In(loc) => {
            h.write_u64(0);
            write_loc(h, loc);
        }
        Label::Out(loc) => {
            h.write_u64(1);
            write_loc(h, loc);
        }
        Label::Load => h.write_u64(2),
        Label::Store => h.write_u64(3),
        Label::Sigma { bits, offset } => {
            h.write_u64(4);
            h.write_u64(bits as u64);
            h.write_u64(offset as u32 as u64);
        }
    }
}

/// Fingerprint of a sketch: structure, marks, and bound intervals, hashed
/// field by field. Element indices are descriptor-stable (see
/// [`retypd_core::LatticeElem::index`]) and labels are absorbed by
/// discriminant and fields (see `write_label`) — no rendering at all,
/// which matters because the scheme store fingerprints every sketch it
/// encodes *and* every sketch it replays.
pub fn sketch_fp(s: &Sketch) -> u64 {
    let mut h = Fnv64::new("sketch");
    h.write_u64(s.len() as u64);
    h.write_u64(s.root() as u64);
    for st in 0..s.len() as u32 {
        let (lower, upper) = s.interval(st);
        h.write_u64(s.mark(st).index() as u64);
        h.write_u64(lower.index() as u64);
        h.write_u64(upper.index() as u64);
        for (label, target) in s.edges(st) {
            h.write_u64(target as u64);
            write_label(&mut h, label);
        }
        // Targets are `u32`, so `u64::MAX` cannot be mistaken for an edge.
        h.write_u64(u64::MAX);
    }
    h.finish()
}

/// A global's display form — what a [`TextModule`] carries and `parse`
/// reads back — so a constant global `$g` never hashes like the variable `g`.
/// A variable is its bare name and borrows it.
pub(crate) fn global_text(g: BaseVar) -> Cow<'static, str> {
    match g {
        BaseVar::Var(name) => Cow::Borrowed(name.as_str()),
        BaseVar::Const(_) => Cow::Owned(g.to_string()),
    }
}

/// Content fingerprint of a whole program: its rendering's
/// [`crate::text::TextModule::fingerprint`], which hashes globals (display
/// form), externals (name and scheme), and every procedure's name,
/// canonical constraint text, and callsite structure, in program order.
/// Two programs fingerprint equal exactly when the solver would see
/// identical input, which is what `retypd-serve` and its gateway rely on
/// to route re-submitted modules onto the shard whose cache already holds
/// their SCCs.
pub fn program_fp(program: &Program) -> u64 {
    TextModule::render(String::new(), program).fingerprint()
}

/// Pass-1 fingerprint of an SCC: everything [`retypd_core::Solver::solve_scc`]
/// reads — *including the lattice it solves against*. `lattice_fp` is
/// [`retypd_core::Lattice::fingerprint`]; mixing it in first means two
/// lattices can never share a scheme-cache entry, however identical the
/// constraint text (the pass-2 key inherits this through `scc_fp`).
/// `scheme_fps` must contain the fingerprint of every already-solved
/// scheme by name (externals included) — exactly the names the combined
/// constraint set instantiates. The members' constraint text is rendered
/// here, once per member.
pub fn scc_fingerprint(
    lattice_fp: u64,
    program: &Program,
    scc: &[usize],
    scc_of: &[usize],
    scheme_fps: &BTreeMap<Symbol, u64>,
) -> u64 {
    scc_fingerprint_parts(
        lattice_fp,
        program.globals.iter().map(|&g| global_text(g)),
        program,
        |p| program.procs[p].constraints.to_string(),
        scc,
        scc_of,
        scheme_fps,
    )
}

/// [`scc_fingerprint`] over a program's text: the globals' display forms
/// and each member's constraint text (`constraints(p)` for procedure
/// `p`), with names and callsites read from `structure`, whose own
/// constraint sets are not read. This is the one definition of the
/// pass-1 byte stream: [`crate::AnalysisDriver::solve_text`] feeds it a
/// module's text as it arrived, so canonical text keys exactly as its
/// parsed program does and a fully warm solve parses nothing.
pub fn scc_fingerprint_parts<G, T>(
    lattice_fp: u64,
    globals: impl IntoIterator<Item = G>,
    structure: &Program,
    constraints: impl Fn(usize) -> T,
    scc: &[usize],
    scc_of: &[usize],
    scheme_fps: &BTreeMap<Symbol, u64>,
) -> u64
where
    G: AsRef<str>,
    T: AsRef<str>,
{
    let mut h = Fnv64::new("scc-schemes");
    h.write_u64(lattice_fp);
    for g in globals {
        h.write_str(g.as_ref());
    }
    let my_scc = scc_of[scc[0]];
    h.write_u64(scc.len() as u64);
    for &p in scc {
        let proc = &structure.procs[p];
        h.write_str(proc.name.as_str());
        h.write_wide(constraints(p).as_ref().as_bytes());
        h.write_u64(proc.callsites.len() as u64);
        for cs in &proc.callsites {
            h.write_str(&cs.tag);
            match cs.callee {
                CallTarget::Internal(i) if scc_of[i] == my_scc => {
                    h.write_str("mono");
                    h.write_str(structure.procs[i].name.as_str());
                }
                CallTarget::Internal(i) => {
                    let name = structure.procs[i].name;
                    h.write_str("internal");
                    h.write_str(name.as_str());
                    h.write_u64(scheme_fps.get(&name).copied().unwrap_or(0));
                }
                CallTarget::External(n) => {
                    h.write_str("external");
                    h.write_str(n.as_str());
                    h.write_u64(scheme_fps.get(&n).copied().unwrap_or(0));
                }
            }
        }
    }
    h.finish()
}

/// Pass-2 fingerprint of an SCC: the pass-1 fingerprint (which covers the
/// combined constraint set, since schemes are final after pass 1) extended
/// with the refinement inputs — each member's callsite-actual variables and
/// the fingerprints of the actual sketches visible in the caller-produced
/// snapshot. It reads names and callsites only, so a module's structure
/// (see [`crate::text::ModuleText`]) keys it as its parsed program does.
pub fn refine_fingerprint(
    scc_fp: u64,
    program: &Program,
    scc: &[usize],
    actuals: &BTreeMap<Symbol, Vec<BaseVar>>,
    sketches: &BTreeMap<BaseVar, Sketch>,
) -> u64 {
    let mut h = Fnv64::new("scc-refine");
    h.write_u64(scc_fp);
    for &p in scc {
        let proc = &program.procs[p];
        h.write_str(proc.name.as_str());
        if let Some(tags) = actuals.get(&proc.name) {
            h.write_u64(tags.len() as u64);
            for a in tags {
                h.write_str(a.name().as_str());
                match sketches.get(a) {
                    Some(s) => {
                        h.write_u64(1);
                        h.write_u64(sketch_fp(s));
                    }
                    None => h.write_u64(0),
                }
            }
        } else {
            h.write_u64(0);
        }
    }
    h.finish()
}
