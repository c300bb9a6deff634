//! Seeded input generation: the cold-solve ring corpus, the warm cluster
//! corpus and the fresh cluster members, plus the input stamp (mix and
//! fingerprint) every result carries.
//!
//! Modules are built on the `minic` AST, compiled by `minic::codegen` and
//! turned into constraint programs by `congen`. Those two calls are timed
//! (and traced) here, because their cost is part of `setup_s`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use retypd_core::Condensation;
use retypd_driver::ModuleJob;
use retypd_minic::ast::{BinKind, CmpKind, Expr, FuncDef, Module, SrcType, Stmt};
use retypd_minic::genprog::{ClusterSpec, GenConfig, ProgramGenerator};
use retypd_minic::truth::GroundTruth;
use retypd_serve::WireModule;

use crate::trace::Tracer;

/// splitmix64: the benchmark's own seeded generator, so input draws do
/// not depend on any product crate.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE9C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i);
            v.swap(i, j);
        }
    }
}

/// FNV-1a, for the input fingerprint and reply digests.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One generated, compiled and constraint-generated module.
pub struct Prepared {
    pub job: ModuleJob,
    pub truth: GroundTruth,
    pub instructions: usize,
    /// Functions that come from a shared library (cluster corpora).
    pub library_funcs: usize,
}

/// Compiles `module` and generates its constraints, each call in a span.
pub fn prepare(name: &str, module: Module, library_funcs: usize, tr: &Tracer) -> Prepared {
    let (mir, truth) = tr.span("minic.compile", 0, || {
        retypd_minic::codegen::compile(&module).expect("generated modules compile")
    });
    let program = tr.span("congen.generate", 0, || retypd_congen::generate(&mir));
    Prepared {
        job: ModuleJob {
            name: name.to_owned(),
            program,
        },
        instructions: mir.instruction_count(),
        truth,
        library_funcs,
    }
}

fn generated(seed: u64, functions: usize) -> Module {
    ProgramGenerator::new(GenConfig {
        seed,
        functions,
        structs: 3 + functions / 30,
        ..GenConfig::default()
    })
    .generate()
}

/// Appends one mutual-recursion ring of `k` functions: `ring<r>_<i>(p)`
/// calls `ring<r>_<i+1 mod k>(p->next)`, so the call graph gains one SCC of
/// exactly `k` members. Struct 0 of a generated module always has `next`
/// and `f0`. Read-only members take a `const` pointer; writers store to
/// `f0` through a plain one.
fn append_ring(module: &mut Module, r: usize, k: usize, rng: &mut Rng) {
    let var = |s: &str| Expr::Var(s.into());
    for i in 0..k {
        let writer = rng.range(0, 2) == 0;
        let next = Expr::Call(
            format!("ring{r}_{}", (i + 1) % k),
            vec![Expr::Field(Box::new(var("p")), "next".into())],
        );
        let mut body = vec![
            Stmt::If(
                Expr::Cmp(CmpKind::Eq, Box::new(var("p")), Box::new(Expr::Int(0))),
                vec![Stmt::Return(Some(Expr::Int(0)))],
                vec![],
            ),
            Stmt::Decl("t".into(), SrcType::Int, next),
        ];
        if writer {
            body.push(Stmt::StoreField(var("p"), "f0".into(), Expr::Int(0)));
            body.push(Stmt::Return(Some(var("t"))));
        } else {
            body.push(Stmt::Return(Some(Expr::Bin(
                BinKind::Add,
                Box::new(var("t")),
                Box::new(Expr::Field(Box::new(var("p")), "f0".into())),
            ))));
        }
        let param = SrcType::Ptr {
            pointee: Box::new(SrcType::Struct(0)),
            is_const: !writer,
        };
        module.funcs.push(FuncDef {
            name: format!("ring{r}_{i}"),
            params: vec![("p".into(), param)],
            ret: SrcType::Int,
            body,
            fastcall: false,
        });
    }
}

/// The cold-solve strata: generated module size (functions; about 212, 856
/// and 2650 instructions), plain modules, and the ring plans of its ringed
/// modules (one ring size per appended ring). The plans span 1–8 rings of
/// 2–8 functions and ring 8 of the 27 modules. They are fixed, so every
/// seed solves the same shapes; the counts put the median latency inside
/// the 40-function cluster and the 90th percentile among the ringed
/// modules, away from the gaps between clusters.
const COLD_STRATA: [(usize, usize, &[&[usize]]); 3] = [
    (10, 7, &[&[2, 2], &[8], &[3, 3, 8, 8]]),
    (40, 8, &[&[4, 4], &[2, 3, 4, 5, 6, 7, 8, 2]]),
    (120, 4, &[&[5], &[7, 6, 5], &[2, 8, 5, 3, 6]]),
];

/// The cold-solve corpus: per stratum, its plain modules and one module
/// per ring plan. The seed draws every module's contents and which ring
/// members write through their pointer.
pub fn cold_corpus(seed: u64) -> Vec<(String, Module)> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (functions, plain, plans) in COLD_STRATA {
        for m in 0..plain + plans.len() {
            let mut module = generated(rng.next_u64(), functions);
            if let Some(plan) = m.checked_sub(plain).map(|i| plans[i]) {
                for (r, &k) in plan.iter().enumerate() {
                    append_ring(&mut module, r, k, &mut rng);
                }
            }
            out.push((format!("cold{functions}_{m}"), module));
        }
    }
    out
}

/// Shape of the warm-routed cluster corpus.
const WARM_CLUSTERS: usize = 8;
const WARM_MEMBERS: usize = 4;
const WARM_SHARED: usize = 16;
const WARM_MEMBER_FUNCS: usize = 6;

/// The warm-routed corpus: `ClusterSpec` members sharing a library, with
/// the per-member library split (the shared module's function count).
pub fn warm_corpus(seed: u64) -> Vec<(String, Module, usize)> {
    let mut rng = Rng::new(seed ^ 0x3A21);
    let mut out = Vec::new();
    for c in 0..WARM_CLUSTERS {
        let spec = ClusterSpec {
            name: format!("warm{c}"),
            members: WARM_MEMBERS,
            shared_functions: WARM_SHARED,
            member_functions: WARM_MEMBER_FUNCS,
            seed: rng.next_u64(),
            call_depth: 0,
        };
        for (m, (name, module)) in ProgramGenerator::generate_cluster(&spec)
            .into_iter()
            .enumerate()
        {
            let own = format!("_m{m}");
            let library = module
                .funcs
                .iter()
                .filter(|f| !f.name.ends_with(&own))
                .count();
            out.push((name, module, library));
        }
    }
    out
}

/// Shape of the fresh-serve members: one of `FRESH_LIBRARIES` shared
/// libraries plus member-unique functions.
const FRESH_LIBRARIES: usize = 4;
const FRESH_SHARED: usize = 16;
const FRESH_MEMBER_FUNCS: usize = 8;

/// A fresh-serve member: name, module, library function count, and the
/// suffix its member functions carry.
pub type Member = (String, Module, usize, String);

/// `per_library` members of each fresh-serve shared library, drawn from
/// the seed stream `stream` (priming and pool members use different
/// streams, so no pool member is ever primed).
pub fn fresh_members(seed: u64, stream: &str, per_library: usize) -> Vec<Member> {
    let mut libs = Rng::new(seed ^ 0xF4E5);
    let mut members = Rng::new(seed ^ fnv(stream.as_bytes()));
    let mut out = Vec::new();
    for l in 0..FRESH_LIBRARIES {
        let library = ProgramGenerator::new(GenConfig {
            seed: libs.next_u64(),
            functions: FRESH_SHARED,
            ..GenConfig::default()
        })
        .generate();
        for k in 0..per_library {
            let s = members.next_u64();
            let module = fresh_member(&library, s);
            out.push((
                format!("{stream}_{l}_{k}"),
                module,
                library.funcs.len(),
                member_suffix(s),
            ));
        }
    }
    out
}

/// The suffix every function and struct of a fresh member carries.
fn member_suffix(member_seed: u64) -> String {
    format!("_x{member_seed:x}")
}

/// A cluster member: `library` linked with member functions generated
/// from `member_seed`, every member function and struct renamed with
/// [`member_suffix`]. Calls between member functions follow the renaming;
/// calls to externals are untouched.
fn fresh_member(library: &Module, member_seed: u64) -> Module {
    let extra = generated(member_seed, FRESH_MEMBER_FUNCS);
    let suffix = member_suffix(member_seed);
    let offset = library.structs.len();
    let own: BTreeSet<&str> = extra.funcs.iter().map(|f| f.name.as_str()).collect();
    let mut module = library.clone();
    for s in &extra.structs {
        let mut s = s.clone();
        s.name.push_str(&suffix);
        for (_, t) in &mut s.fields {
            remap_type(t, offset);
        }
        module.structs.push(s);
    }
    for f in &extra.funcs {
        let mut f = f.clone();
        f.name.push_str(&suffix);
        for (_, t) in &mut f.params {
            remap_type(t, offset);
        }
        remap_type(&mut f.ret, offset);
        for s in &mut f.body {
            remap_stmt(s, offset, &suffix, &own);
        }
        module.funcs.push(f);
    }
    module
}

/// A lifted member under never-seen names: every occurrence of the
/// member's suffix in its wire form gains `tag`, so each member function
/// (and every SCC fingerprint over it) is new to the service while the
/// library's names stay put. Done on the wire form, because re-lifting a
/// module (`congen`) costs several times its serving.
pub fn renamed(job: &ModuleJob, suffix: &str, tag: &str, name: String) -> ModuleJob {
    let fresh = format!("{suffix}{tag}");
    let mut w = WireModule::from_job(job);
    w.name = name;
    for p in &mut w.procs {
        p.name = p.name.replace(suffix, &fresh);
        p.constraints = p.constraints.replace(suffix, &fresh);
        for cs in &mut p.callsites {
            cs.callee = cs.callee.replace(suffix, &fresh);
            cs.tag = cs.tag.replace(suffix, &fresh);
        }
    }
    w.to_job().expect("renaming keeps a module well-formed")
}

fn remap_type(t: &mut SrcType, offset: usize) {
    match t {
        SrcType::Struct(i) => *i += offset,
        SrcType::Ptr { pointee, .. } => remap_type(pointee, offset),
        SrcType::Tagged(_, inner) => remap_type(inner, offset),
        _ => {}
    }
}

fn remap_stmt(s: &mut Stmt, offset: usize, suffix: &str, own: &BTreeSet<&str>) {
    match s {
        Stmt::Decl(_, ty, e) => {
            remap_type(ty, offset);
            remap_expr(e, offset, suffix, own);
        }
        Stmt::Assign(_, e) | Stmt::Expr(e) | Stmt::Return(Some(e)) => {
            remap_expr(e, offset, suffix, own)
        }
        Stmt::StoreField(b, _, v) | Stmt::StoreDeref(b, v) => {
            remap_expr(b, offset, suffix, own);
            remap_expr(v, offset, suffix, own);
        }
        Stmt::If(c, a, b) => {
            remap_expr(c, offset, suffix, own);
            for s in a.iter_mut().chain(b.iter_mut()) {
                remap_stmt(s, offset, suffix, own);
            }
        }
        Stmt::While(c, b) => {
            remap_expr(c, offset, suffix, own);
            for s in b {
                remap_stmt(s, offset, suffix, own);
            }
        }
        Stmt::Return(None) => {}
    }
}

fn remap_expr(e: &mut Expr, offset: usize, suffix: &str, own: &BTreeSet<&str>) {
    match e {
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
            remap_expr(a, offset, suffix, own);
            remap_expr(b, offset, suffix, own);
        }
        Expr::Field(b, _) | Expr::Deref(b) => remap_expr(b, offset, suffix, own),
        Expr::Call(name, args) => {
            if own.contains(name.as_str()) {
                name.push_str(suffix);
            }
            for a in args {
                remap_expr(a, offset, suffix, own);
            }
        }
        Expr::Cast(t, inner) => {
            remap_type(t, offset);
            remap_expr(inner, offset, suffix, own);
        }
        Expr::Int(_) | Expr::Var(_) | Expr::AddrOf(_) => {}
    }
}

/// Fingerprint of generated inputs: FNV over the modules' AST text, so it
/// changes exactly when the benchmark's inputs change, whatever the
/// product does with them.
pub fn input_fingerprint<'m>(modules: impl IntoIterator<Item = &'m Module>) -> u64 {
    let mut text = String::new();
    for m in modules {
        let _ = write!(text, "{m:?};");
    }
    fnv(text.as_bytes())
}

/// Members of a program's largest SCC.
pub fn max_scc(program: &retypd_core::Program) -> usize {
    Condensation::compute(program)
        .sccs
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
}

/// The input mix a result records: modules, instructions, SCC-size
/// histogram and library/member function split.
pub fn input_mix(prepared: &[&Prepared]) -> String {
    let mut sccs: BTreeMap<usize, usize> = BTreeMap::new();
    let (mut insts, mut lib, mut member) = (0usize, 0usize, 0usize);
    for p in prepared {
        insts += p.instructions;
        let procs = p.job.program.procs.len();
        lib += p.library_funcs;
        member += procs - p.library_funcs.min(procs);
        for scc in Condensation::compute(&p.job.program).sccs {
            *sccs.entry(scc.len()).or_default() += 1;
        }
    }
    let hist: Vec<String> = sccs.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
    format!(
        "{{\"modules\": {}, \"instructions\": {insts}, \"scc_sizes\": {{{}}}, \"library_funcs\": {lib}, \"member_funcs\": {member}}}",
        prepared.len(),
        hist.join(", ")
    )
}
