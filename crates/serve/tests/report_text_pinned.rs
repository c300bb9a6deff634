//! The text a report carries is pinned to fixed bytes.
//!
//! A report's `scheme`, `sketch` and `general` strings are the
//! `TypeScheme` display form and the `Sketch` `{:?}` form; the request
//! frame carries each procedure's `ConstraintSet` display form. Clients,
//! stores and figures compare these bytes, so a renderer that changes one
//! byte changes every answer downstream. Re-encoding a frame cannot catch
//! that, because both ends render alike; this file pins the bytes:
//!
//! * FNV-64 hashes of the request frame and of the report's
//!   `canonical_text` for generated modules, cold and warm through a
//!   driver, and through `Solver` directly;
//! * literal strings for a hand-built scheme, constraint set and sketch
//!   that reach every `Label` variant, a negative `σ` offset, constants
//!   with and without `$`, empty existentials, an empty constraint set,
//!   and `VAR` and `Add`/`Sub` lines.

use std::collections::BTreeSet;

use retypd_core::fnv::Fnv64;
use retypd_core::parse::parse_constraint_set;
use retypd_core::sketch::SketchStateSpec;
use retypd_core::{
    BaseVar, ConstraintSet, Label, Lattice, Loc, Sketch, Solver, Symbol, TypeScheme,
};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};
use retypd_serve::{Request, WireModule, WireReport};

fn generated(seed: u64, functions: usize) -> ModuleJob {
    let module = ProgramGenerator::new(GenConfig {
        seed,
        functions,
        ..GenConfig::default()
    })
    .generate();
    let (mir, _) = compile(&module).expect("generated module compiles");
    ModuleJob {
        name: format!("g{seed}x{functions}"),
        program: retypd_congen::generate(&mir),
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new("");
    h.write(bytes);
    h.finish()
}

/// `(seed, functions, request frame hash, canonical_text hash)`.
const PINNED: [(u64, usize, u64, u64); 2] = [
    (3, 10, 0xd7c7_aafd_1831_5d26, 0xad57_3496_493e_445f),
    (4, 40, 0xba4e_6ec0_f080_1edb, 0x7ea8_97ed_1aa1_8c88),
];

#[test]
fn generated_reports_hash_to_pinned_bytes() {
    let lattice = Lattice::c_types();
    for (seed, functions, frame_fp, text_fp) in PINNED {
        let job = generated(seed, functions);
        let module = WireModule::from_job(&job);
        let frame = Request::encode_solve_module(&module, None, None);
        assert_eq!(fnv(&frame), frame_fp, "{}: request frame", job.name);

        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
        let cold = driver.solve(&job.program);
        let text = module.into_text().expect("the module's structure resolves");
        let warm = driver
            .solve_text(&lattice, &text)
            .expect("a warm solve parses nothing");
        assert_eq!(
            warm.stats.cache_misses, 0,
            "{}: the second solve hits",
            job.name
        );
        let direct = Solver::new(&lattice).infer(&job.program);
        for (what, result) in [("cold", &cold), ("warm", &warm), ("solver", &direct)] {
            let canonical = WireReport::from_result(&job.name, result).canonical_text();
            assert_eq!(
                fnv(canonical.as_bytes()),
                text_fp,
                "{}: {what} report",
                job.name
            );
        }
    }
}

fn spec(lattice: &Lattice, mark: &str, edges: Vec<(Label, u32)>) -> SketchStateSpec {
    let mark = lattice.element(mark).expect("a c_types element");
    SketchStateSpec {
        mark,
        lower: lattice.bottom(),
        upper: lattice.top(),
        edges,
    }
}

#[test]
fn hand_built_text_is_pinned() {
    let cs = parse_constraint_set(
        "f.in_stack0 <= t\n\
         f.in_ecx.store.σ8@-4 <= $custom\n\
         t.load.σ32@4 <= int\n\
         int <= f.out_eax\n\
         VAR f.out_stack8\n\
         Add(a, b; c)\n\
         Sub(p.load.σ32@0, one; q)",
    )
    .expect("the constraint text parses");
    let mut existentials = BTreeSet::new();
    existentials.insert(Symbol::intern("t"));
    existentials.insert(Symbol::intern("a"));
    let scheme = TypeScheme::new(BaseVar::var("f"), existentials, cs.clone());
    assert_eq!(
        scheme.to_string(),
        "∀f. (∃ a t. f.in_stack0 ⊑ t ∧ f.in_ecx.store.σ8@-4 ⊑ $custom ∧ \
         t.load.σ32@4 ⊑ int ∧ int ⊑ f.out_eax) ⇒ f"
    );
    assert_eq!(
        cs.to_string(),
        "f.in_stack0 ⊑ t\nf.in_ecx.store.σ8@-4 ⊑ $custom\nt.load.σ32@4 ⊑ int\nint ⊑ f.out_eax\n\
         VAR f.out_stack8\nAdd(a, b; c)\nSub(p.load.σ32@0, one; q)"
    );
    let bare = TypeScheme::new(BaseVar::var("g"), BTreeSet::new(), cs);
    assert_eq!(
        bare.to_string(),
        "∀g. (f.in_stack0 ⊑ t ∧ f.in_ecx.store.σ8@-4 ⊑ $custom ∧ \
         t.load.σ32@4 ⊑ int ∧ int ⊑ f.out_eax) ⇒ g"
    );
    let empty = TypeScheme::empty(BaseVar::var("h"));
    assert_eq!(empty.to_string(), "∀h. (⊤) ⇒ h");
    assert_eq!(ConstraintSet::new().to_string(), "");

    let lattice = Lattice::c_types();
    let states = vec![
        spec(
            &lattice,
            "⊤",
            vec![
                (Label::In(Loc::stack(0)), 1),
                (Label::In(Loc::reg("ecx")), 2),
                (Label::Out(Loc::reg("eax")), 3),
                (Label::Out(Loc::stack(8)), 3),
            ],
        ),
        spec(&lattice, "int", vec![(Label::Load, 2), (Label::Store, 3)]),
        spec(
            &lattice,
            "uint",
            vec![(Label::sigma(32, -4), 3), (Label::sigma(8, 12), 0)],
        ),
        spec(&lattice, "⊥", vec![]),
    ];
    let sketch = Sketch::from_states(states, 0).expect("the states are well-formed");
    assert_eq!(
        format!("{sketch:?}"),
        "Sketch { nodes: [\
         Node { mark: LatticeElem(0), lower: LatticeElem(34), upper: LatticeElem(0), \
         edges: {In(Stack(0)): 1, In(Reg(\"ecx\")): 2, Out(Stack(8)): 3, Out(Reg(\"eax\")): 3} }, \
         Node { mark: LatticeElem(18), lower: LatticeElem(34), upper: LatticeElem(0), \
         edges: {Load: 2, Store: 3} }, \
         Node { mark: LatticeElem(19), lower: LatticeElem(34), upper: LatticeElem(0), \
         edges: {Sigma { bits: 8, offset: 12 }: 0, Sigma { bits: 32, offset: -4 }: 3} }, \
         Node { mark: LatticeElem(34), lower: LatticeElem(34), upper: LatticeElem(0), edges: {} }\
         ], root: 0 }"
    );
    // `{:#?}` prints the same one-line form.
    assert_eq!(format!("{sketch:#?}"), format!("{sketch:?}"));
    assert_eq!(
        sketch.to_string(),
        "%0: .in_stack0→%1 .in_ecx→%2 .out_stack8→%3 .out_eax→%3\n\
         %1: .load→%2 .store→%3\n\
         %2: .σ8@12→%0 .σ32@-4→%3\n\
         %3:\n"
    );
    assert_eq!(
        format!("{:?}", Sketch::top(&lattice)),
        "Sketch { nodes: [Node { mark: LatticeElem(0), lower: LatticeElem(0), \
         upper: LatticeElem(0), edges: {} }], root: 0 }"
    );
}
