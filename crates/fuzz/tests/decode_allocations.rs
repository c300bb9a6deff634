//! Decoding a frame copies each string it keeps once.
//!
//! The parser borrows every string without an escape from the frame and
//! unescapes the others into one `String` each; the typed decoders copy a
//! borrowed string once and move an unescaped one. So a decode allocates
//! at most:
//!
//! * one per string value it keeps (every string but the `kind` value,
//!   which is only compared);
//! * one per non-empty array and object of the parsed tree, each allocated
//!   at its final length;
//! * one more per non-empty array, for the `Vec` it becomes in the decoded
//!   message (an object becomes a struct in place);
//! * the parser's two working stacks, which double from 4 entries up to at
//!   most the frame's total array items and object members.
//!
//! Allocating a `String` per key and per value and then copying each value
//! again, as a decoder over an owning tree does, costs at least two
//! allocations per kept string, so the last check below also fails there.
//!
//! This file holds a single test, so nothing else in its binary allocates
//! while the counter is read.

use retypd_core::{Lattice, Solver};
use retypd_driver::ModuleJob;
use retypd_fuzz::alloc::CountingAlloc;
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};
use retypd_serve::json::Json;
use retypd_serve::{Request, Response, WireModule, WireReport};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// What a parsed frame holds: string values (keys excluded), non-empty
/// arrays and objects, and the items and members across all of them.
#[derive(Debug, Default)]
struct Shape {
    strings: usize,
    arrays: usize,
    objects: usize,
    items: usize,
    members: usize,
}

impl Shape {
    fn of(frame: &[u8]) -> Shape {
        let text = std::str::from_utf8(frame).expect("frames are UTF-8");
        let mut shape = Shape::default();
        shape.add(&Json::parse(text).expect("frames parse"));
        shape
    }

    fn add(&mut self, j: &Json<'_>) {
        match j {
            Json::Str(_) => self.strings += 1,
            Json::Arr(items) if !items.is_empty() => {
                self.arrays += 1;
                self.items += items.len();
                items.iter().for_each(|v| self.add(v));
            }
            Json::Obj(members) if !members.is_empty() => {
                self.objects += 1;
                self.members += members.len();
                members.iter().for_each(|(_, v)| self.add(v));
            }
            _ => {}
        }
    }
}

/// Allocations a `Vec` makes growing by doubling from 4 to hold `n`.
fn doublings(n: usize) -> usize {
    let (mut cap, mut allocs) = (4, usize::from(n > 0));
    while cap < n {
        cap *= 2;
        allocs += 1;
    }
    allocs
}

/// Decodes `frame` with `decode` and holds the allocations that makes to
/// the budget in the module docs; returns what it decoded.
fn decode_within_budget<T>(what: &str, frame: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let shape = Shape::of(frame);
    let kept = shape.strings - 1;
    let budget =
        kept + 2 * shape.arrays + shape.objects + doublings(shape.items) + doublings(shape.members);
    let before = CountingAlloc::allocations();
    let decoded = decode(frame);
    let made = CountingAlloc::allocations() - before;
    assert!(
        made <= budget,
        "{what}: {made} allocations, budget {budget} for {shape:?}"
    );
    assert!(
        made < 2 * kept,
        "{what}: {made} allocations for {kept} kept strings"
    );
    decoded
}

#[test]
fn a_decode_copies_each_kept_string_once() {
    let lattice = Lattice::c_types();
    for (seed, functions) in [(3, 10), (4, 40)] {
        let job = generated(seed, functions);
        let module = WireModule::from_job(&job);
        let frame = Request::encode_solve_module(&module, None, None);
        let Ok(Request::SolveModule { module: back, .. }) =
            decode_within_budget(&job.name, &frame, Request::decode)
        else {
            panic!("{}: the request decodes", job.name);
        };
        assert_eq!(back.fingerprint(), job.fingerprint(), "{}", job.name);

        let result = Solver::new(&lattice).infer(&job.program);
        let report = WireReport::from_result(&job.name, &result);
        let frame = Response::Solved(vec![report.clone()]).encode();
        let what = format!("{} solved", job.name);
        let Ok(Response::Solved(back)) = decode_within_budget(&what, &frame, Response::decode)
        else {
            panic!("{what}: the reply decodes");
        };
        assert_eq!(back[0].canonical_text(), report.canonical_text(), "{what}");
    }
}
