//! The three mutator tiers. Everything is a pure function of the seeded
//! RNG and the fixed base-request set, so a (seed, iteration) pair always
//! reproduces the same mutant.

use rand::rngs::StdRng;
use rand::Rng;
use retypd_core::parse::parse_constraint_set;
use retypd_core::solver::Procedure;
use retypd_core::{LatticeDescriptor, Program, Symbol};
use retypd_driver::{CacheStats, ModuleJob};
use retypd_serve::json::Json;
use retypd_serve::wire::{self, WireModule, WireShardStats, WireStats};
use retypd_serve::{Request, Response};

/// Which mutator produced an input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Byte-level damage plus length-prefix attacks.
    Raw,
    /// JSON-tree structural mutations.
    Structural,
    /// Grammar-aware envelope / lattice / constraint-text mutations.
    Grammar,
}

impl Tier {
    /// Round-robin tier for an iteration index.
    pub fn for_iteration(i: u64) -> Tier {
        match i % 3 {
            0 => Tier::Raw,
            1 => Tier::Structural,
            _ => Tier::Grammar,
        }
    }

    /// Stable lower-case name (stats keys, labels).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Raw => "raw",
            Tier::Structural => "structural",
            Tier::Grammar => "grammar",
        }
    }
}

/// One fuzz input.
pub struct Mutant {
    /// When `raw`, complete wire bytes (the mutant carries its own length
    /// prefix — that prefix *is* the attack surface); otherwise a frame
    /// payload the harness frames normally.
    pub bytes: Vec<u8>,
    /// See [`Mutant::bytes`].
    pub raw: bool,
    /// The tier that produced this input.
    pub tier: Tier,
    /// Grammar strings embedded in the payload (tier C): also driven
    /// through the [`retypd_core::fuzzing`] checkers in-process.
    pub grammar: Vec<String>,
}

/// A tiny but representative module: one procedure with load/store paths,
/// a σ access, and a constant — enough that grammar mutations of its
/// constraint text reach the deep parser branches.
fn sample_job(name: &str) -> ModuleJob {
    let mut prog = Program::new();
    prog.add_proc(Procedure {
        name: Symbol::intern("f"),
        constraints: parse_constraint_set(
            "f.in_stack0 <= x; x.load.σ32@0 <= int; x <= f.out_eax; VAR x.load",
        )
        .expect("base constraints parse"),
        callsites: vec![],
    });
    ModuleJob {
        name: name.into(),
        program: prog,
    }
}

/// The valid base requests mutation starts from. Index 0 is `stats`;
/// indexes 1–3 are solve requests (the grammar tier starts from index 1,
/// since only non-`stats` requests carry interesting envelope fields);
/// index 4 is `metrics`.
pub fn base_payloads() -> Vec<Vec<u8>> {
    let module = WireModule::from_job(&sample_job("fuzz_base"));
    let lattice: LatticeDescriptor = "lattice fz { lo hi ; lo <= hi }"
        .parse()
        .expect("base lattice parses");
    vec![
        Request::Stats.encode(),
        Request::SolveModule {
            module: module.clone(),
            lattice: None,
            trace_id: None,
        }
        .encode(),
        Request::SolveBatch {
            modules: vec![module.clone(), module.clone()],
            lattice: Some(lattice.clone()),
            stream: false,
            trace_id: Some("fuzz-trace".into()),
        }
        .encode(),
        Request::SolveBatch {
            modules: vec![module],
            lattice: Some(lattice),
            stream: true,
            trace_id: None,
        }
        .encode(),
        Request::Metrics.encode(),
    ]
}

/// Produces the mutant for one iteration of `tier`.
pub fn mutate(tier: Tier, rng: &mut StdRng, bases: &[Vec<u8>]) -> Mutant {
    match tier {
        Tier::Raw => raw_mutant(rng, bases),
        Tier::Structural => structural_mutant(rng, bases),
        Tier::Grammar => grammar_mutant(rng, bases),
    }
}

// ---------------------------------------------------------------------------
// Tier A: raw bytes and length prefixes.

fn mutate_bytes(base: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut b = base.to_vec();
    for _ in 0..rng.gen_range(1..8u32) {
        if b.is_empty() {
            b.push(rng.gen());
            continue;
        }
        match rng.gen_range(0..5u32) {
            0 => {
                // Flip one bit.
                let i = rng.gen_range(0..b.len());
                b[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                b.truncate(rng.gen_range(0..b.len()));
            }
            2 => {
                // Insert a short burst of random bytes.
                let at = rng.gen_range(0..=b.len());
                let burst: Vec<u8> = (0..rng.gen_range(1..16usize)).map(|_| rng.gen()).collect();
                b.splice(at..at, burst);
            }
            3 => {
                let i = rng.gen_range(0..b.len());
                b[i] = rng.gen();
            }
            _ => {
                // Duplicate a chunk (length-field confusion fodder).
                let start = rng.gen_range(0..b.len());
                let end = (start + rng.gen_range(1..32usize)).min(b.len());
                let chunk = b[start..end].to_vec();
                let at = rng.gen_range(0..=b.len());
                b.splice(at..at, chunk);
            }
        }
    }
    b
}

/// Wraps a (mutated) payload in a wire frame whose length prefix may lie.
fn frame_attack(payload: Vec<u8>, rng: &mut StdRng) -> Vec<u8> {
    let announce: u32 = match rng.gen_range(0..6u32) {
        // Honest framing: the payload damage is the attack.
        0 => payload.len() as u32,
        // Announce more than will ever arrive (truncated frame).
        1 => (payload.len() as u32).saturating_add(rng.gen_range(1..4096u32)),
        // Announce less: the tail bytes become a garbage "next frame".
        2 => (payload.len() / 2) as u32,
        // Far over the cap.
        3 => u32::MAX,
        // Exactly one past the cap.
        4 => (wire::MAX_FRAME_BYTES as u32) + 1,
        // Zero-length frame, payload bytes trailing as garbage.
        _ => 0,
    };
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&announce.to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

fn raw_mutant(rng: &mut StdRng, bases: &[Vec<u8>]) -> Mutant {
    let base = &bases[rng.gen_range(0..bases.len())];
    let payload = mutate_bytes(base, rng);
    Mutant {
        bytes: frame_attack(payload, rng),
        raw: true,
        tier: Tier::Raw,
        grammar: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Tier B: structural JSON mutations.

fn huge_number(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4u32) {
        0 => "1e308".into(),
        1 => "-1e9999".into(),
        2 => format!("{}", u64::MAX),
        _ => {
            // A very long digit string (integer overflow bait).
            let len = rng.gen_range(20..64usize);
            let mut s = String::from("9");
            for _ in 1..len {
                s.push(char::from(b'0' + rng.gen_range(0..10u8)));
            }
            s
        }
    }
}

fn huge_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1024..16384usize);
    let unit = match rng.gen_range(0..3u32) {
        0 => "A",
        1 => "σ",
        _ => "\\",
    };
    unit.repeat(len)
}

/// An array nested `depth` levels — straddling the parser's
/// [`retypd_serve::json::MAX_DEPTH`] bound from both sides.
fn deep_array(depth: usize) -> Json<'static> {
    let mut v = Json::u64(1);
    for _ in 0..depth {
        v = Json::Arr(vec![v]);
    }
    v
}

/// Walks to a random node (biased toward descending into containers).
fn random_node<'a, 'j>(v: &'a mut Json<'j>, rng: &mut StdRng) -> &'a mut Json<'j> {
    if !rng.gen_bool(0.7) {
        return v;
    }
    let n_children = match v {
        Json::Arr(a) => a.len(),
        Json::Obj(m) => m.len(),
        _ => 0,
    };
    if n_children == 0 {
        return v;
    }
    let idx = rng.gen_range(0..n_children);
    match v {
        Json::Arr(a) => random_node(&mut a[idx], rng),
        Json::Obj(m) => random_node(&mut m[idx].1, rng),
        _ => unreachable!("scalars have no children"),
    }
}

fn mutate_json(v: &mut Json<'_>, rng: &mut StdRng) {
    let node = random_node(v, rng);
    match rng.gen_range(0..8u32) {
        0 => *node = Json::Null,
        1 => *node = Json::Num(huge_number(rng).into()),
        2 => *node = Json::Str(huge_string(rng).into()),
        // Nesting bomb: sometimes under, sometimes over the parse limit.
        3 => *node = deep_array(rng.gen_range(100..200usize)),
        4 => {
            // Drop a member / element.
            match node {
                Json::Obj(m) if !m.is_empty() => {
                    let i = rng.gen_range(0..m.len());
                    m.remove(i);
                }
                Json::Arr(a) if !a.is_empty() => {
                    let i = rng.gen_range(0..a.len());
                    a.remove(i);
                }
                other => *other = Json::Bool(rng.gen()),
            }
        }
        5 => {
            // Duplicate a member (duplicate keys) / element.
            match node {
                Json::Obj(m) if !m.is_empty() => {
                    let i = rng.gen_range(0..m.len());
                    let dup = m[i].clone();
                    let at = rng.gen_range(0..=m.len());
                    m.insert(at, dup);
                }
                Json::Arr(a) if !a.is_empty() => {
                    let i = rng.gen_range(0..a.len());
                    let dup = a[i].clone();
                    a.push(dup);
                }
                other => *other = Json::Arr(vec![]),
            }
        }
        6 => {
            // Type swap.
            *node = match &*node {
                Json::Str(s) => Json::Num(s.len().to_string().into()),
                Json::Num(n) => Json::Str(n.clone()),
                Json::Bool(b) => Json::Num(u8::from(*b).to_string().into()),
                Json::Null => Json::Obj(vec![("null".into(), Json::Null)]),
                Json::Arr(a) => Json::Obj(
                    a.iter()
                        .enumerate()
                        .map(|(i, v)| (i.to_string().into(), v.clone()))
                        .collect(),
                ),
                Json::Obj(m) => Json::Arr(m.iter().map(|(_, v)| v.clone()).collect()),
            };
        }
        _ => *node = Json::Num("-0".into()),
    }
}

fn structural_mutant(rng: &mut StdRng, bases: &[Vec<u8>]) -> Mutant {
    let base = &bases[rng.gen_range(0..bases.len())];
    let text = std::str::from_utf8(base).expect("base payloads are JSON text");
    let mut v = Json::parse(text).expect("base payloads parse");
    for _ in 0..rng.gen_range(1..4u32) {
        mutate_json(&mut v, rng);
    }
    let mut bytes = v.encode().into_bytes();
    // Sometimes follow up with text-level damage (truncation mid-token,
    // mid-escape, or mid-UTF-8 sequence).
    if rng.gen_bool(0.25) && !bytes.is_empty() {
        bytes.truncate(rng.gen_range(0..bytes.len()));
    }
    Mutant {
        bytes,
        raw: false,
        tier: Tier::Structural,
        grammar: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Tier C: grammar-aware mutations.

/// Character pool biased toward the constraint grammar.
const G_POOL: &[char] = &[
    'a', 'f', 'x', 'z', '0', '4', '9', '.', '@', '#', '$', '_', '(', ')', ';', ',', '<', '=',
    ':', ' ', '\n', '{', '}', '-', 'σ', '⊑', '⊤', '⊥', 'é',
];

/// Grammar vocabulary spliced between random characters.
const G_FRAGMENTS: &[&str] = &[
    "load", "store", "in_stack0", "out_eax", "σ32@4", "s16@-2", "VAR ", "Add(", "Sub(", "<=",
    "<:", "⊑", "int", "uint", "#SuccessZ", "$elem", ".load.", "@c1", "; ", "in_", "out_",
    "f.in_stack0 <= x", "x.load.σ32@0 <= int",
];

fn grammar_string(rng: &mut StdRng, max_picks: usize) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(1..=max_picks) {
        if rng.gen_bool(0.4) {
            s.push_str(G_FRAGMENTS[rng.gen_range(0..G_FRAGMENTS.len())]);
        } else {
            s.push(G_POOL[rng.gen_range(0..G_POOL.len())]);
        }
    }
    s
}

/// A lattice-descriptor-shaped string: usually near-canonical, sometimes
/// with a corrupted name, element list, or edge list.
fn grammar_descriptor(rng: &mut StdRng) -> String {
    let name = match rng.gen_range(0..4u32) {
        0 => "fz".into(),
        1 => grammar_string(rng, 3),
        2 => String::new(),
        _ => "a b".into(), // whitespace in the name: must be rejected
    };
    let elems = match rng.gen_range(0..3u32) {
        0 => "lo mid hi".into(),
        1 => grammar_string(rng, 6),
        _ => "lo lo".into(), // duplicate element
    };
    let edges = match rng.gen_range(0..3u32) {
        0 => "lo <= mid, mid <= hi".into(),
        1 => grammar_string(rng, 6),
        _ => "lo <= ghost".into(), // edge to an undeclared element
    };
    match rng.gen_range(0..4u32) {
        0 => format!("lattice {name} {{ {elems} ; {edges} }}"),
        1 => format!("lattice {name} {{ {elems} ; {edges}"), // unterminated
        2 => format!("lattice {name} {elems} ; {edges} }}"), // missing brace
        _ => grammar_string(rng, 10),
    }
}

/// Replaces the `n`-th string node (depth-first) with `s`.
fn replace_nth_str(v: &mut Json<'_>, n: &mut usize, s: &str) -> bool {
    match v {
        Json::Str(old) => {
            if *n == 0 {
                *old = s.to_owned().into();
                return true;
            }
            *n -= 1;
            false
        }
        Json::Arr(a) => a.iter_mut().any(|c| replace_nth_str(c, n, s)),
        Json::Obj(m) => m.iter_mut().any(|(_, c)| replace_nth_str(c, n, s)),
        _ => false,
    }
}

fn count_strs(v: &Json<'_>) -> usize {
    match v {
        Json::Str(_) => 1,
        Json::Arr(a) => a.iter().map(count_strs).sum(),
        Json::Obj(m) => m.iter().map(|(_, c)| count_strs(c)).sum(),
        _ => 0,
    }
}

/// Sets (or inserts) a top-level envelope member.
fn set_member<'a>(v: &mut Json<'a>, key: &str, value: Json<'a>) {
    if let Json::Obj(m) = v {
        if let Some(slot) = m.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            m.push((key.to_owned().into(), value));
        }
    }
}

fn grammar_mutant(rng: &mut StdRng, bases: &[Vec<u8>]) -> Mutant {
    // Start from a solve request (index 0 is `stats`, which carries no
    // modules or lattice to mutate).
    let base = &bases[rng.gen_range(1..bases.len())];
    let text = std::str::from_utf8(base).expect("base payloads are JSON text");
    let mut v = Json::parse(text).expect("base payloads parse");
    let mut grammar = Vec::new();
    match rng.gen_range(0..6u32) {
        0 => {
            // Constraint / name text: overwrite a random embedded string.
            let s = grammar_string(rng, 24);
            let total = count_strs(&v);
            if total > 0 {
                let mut n = rng.gen_range(0..total);
                replace_nth_str(&mut v, &mut n, &s);
            }
            grammar.push(s);
        }
        1 => {
            let d = grammar_descriptor(rng);
            set_member(&mut v, "lattice", Json::Str(d.clone().into()));
            grammar.push(d);
        }
        2 => {
            // Version confusion.
            let ver = match rng.gen_range(0..5u32) {
                0 => Json::u64(rng.gen_range(0..12u64)),
                1 => Json::Num(huge_number(rng).into()),
                2 => Json::Str("2".into()),
                3 => Json::Null,
                _ => Json::Num("-1".into()),
            };
            set_member(&mut v, "v", ver);
        }
        3 => {
            // Kind confusion. Never "shutdown": the fuzz server is shared.
            let kind = match rng.gen_range(0..5u32) {
                0 => "stats".into(),
                1 => "solve_batch".into(),
                2 => "metrics".into(),
                3 => grammar_string(rng, 4),
                _ => String::new(),
            };
            set_member(&mut v, "kind", Json::Str(kind.into()));
        }
        4 => {
            // Trace-id confusion: wrong types, empty, over the 64-byte
            // budget, or junk text — the envelope-level validation must
            // refuse these without touching the solve path.
            let trace = match rng.gen_range(0..6u32) {
                0 => Json::str(""),
                1 => Json::Str("A".repeat(rng.gen_range(65..512usize)).into()),
                2 => Json::Str(grammar_string(rng, 8).into()),
                3 => Json::Arr(vec![Json::u64(1)]),
                4 => Json::u64(rng.gen()),
                _ => Json::Null,
            };
            set_member(&mut v, "trace_id", trace);
        }
        _ => {
            // Stream-flag confusion.
            let stream = match rng.gen_range(0..4u32) {
                0 => Json::Bool(true),
                1 => Json::Str("true".into()),
                2 => Json::u64(1),
                _ => Json::Null,
            };
            set_member(&mut v, "stream", stream);
        }
    }
    Mutant {
        bytes: v.encode().into_bytes(),
        raw: false,
        tier: Tier::Grammar,
        grammar,
    }
}

// ---------------------------------------------------------------------------
// Gateway-facing backend stats replies.

/// A healthy backend's `stats` reply — the bytes the gateway's health
/// probe hands to [`retypd_gateway::classify_stats_reply`]. The stats-
/// reply mutations below all start from this.
pub fn base_stats_reply() -> Vec<u8> {
    Response::Stats(WireStats {
        accepted: 12,
        rejected: 1,
        queued: 2,
        queue_limit: 64,
        pid: 4242,
        start_ns: 1_700_000_000_000_000_000,
        shards: vec![WireShardStats {
            shard: 0,
            jobs: 7,
            rebuilds: 0,
            cache: CacheStats::default(),
            persisted_entries: 3,
            replayed_entries: 3,
            replay_ns: 1_000,
        }],
    })
    .encode()
}

/// A mutated backend `stats` reply for the gateway's probe classifier:
/// wrong reply kinds, poisoned admission fields, shard-list confusion,
/// structural damage, truncation, and raw garbage. The classifier must
/// degrade every one of these to "unhealthy" — never panic the router,
/// never classify them healthy.
pub fn gateway_stats_mutant(rng: &mut StdRng) -> Vec<u8> {
    let base = base_stats_reply();
    let text = std::str::from_utf8(&base).expect("stats reply is JSON text");
    let mut v = Json::parse(text).expect("stats reply parses");
    match rng.gen_range(0..8u32) {
        0 => {
            // Another reply kind where `stats` was expected.
            let kind = match rng.gen_range(0..5u32) {
                0 => "error".into(),
                1 => "solved".into(),
                2 => "overloaded".into(),
                3 => "shutting_down".into(),
                _ => grammar_string(rng, 4),
            };
            set_member(&mut v, "kind", Json::Str(kind.into()));
        }
        1 => {
            // Poison one admission / liveness number.
            let key = ["accepted", "rejected", "queued", "queue_limit", "pid", "start_ns"]
                [rng.gen_range(0..6usize)];
            let value = match rng.gen_range(0..5u32) {
                0 => Json::Num(huge_number(rng).into()),
                1 => Json::Num("-1".into()),
                2 => Json::Str("64".into()),
                3 => Json::Null,
                _ => Json::Arr(vec![]),
            };
            set_member(&mut v, key, value);
        }
        2 => {
            // A backend claiming it can admit nothing.
            set_member(&mut v, "queue_limit", Json::u64(0));
        }
        3 => {
            // Queue depth beyond the advertised limit.
            set_member(&mut v, "queued", Json::u64(rng.gen_range(65..10_000u64)));
        }
        4 => {
            // Shard-list confusion: empty, scalar, or scalar elements.
            let shards = match rng.gen_range(0..4u32) {
                0 => Json::Arr(vec![]),
                1 => Json::u64(7),
                2 => Json::Arr(vec![Json::Null, Json::u64(1)]),
                _ => Json::Str(grammar_string(rng, 4).into()),
            };
            set_member(&mut v, "shards", shards);
        }
        5 => {
            // Drop a random top-level member.
            if let Json::Obj(m) = &mut v {
                if !m.is_empty() {
                    let i = rng.gen_range(0..m.len());
                    m.remove(i);
                }
            }
        }
        6 => {
            // General structural damage, reusing the tier-B mutator.
            for _ in 0..rng.gen_range(1..4u32) {
                mutate_json(&mut v, rng);
            }
        }
        _ => {
            // Text-level damage: truncation or raw (possibly non-UTF-8)
            // garbage replacing the reply outright.
            let mut bytes = v.encode().into_bytes();
            if rng.gen_bool(0.5) && !bytes.is_empty() {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                bytes = (0..rng.gen_range(1..64usize)).map(|_| rng.gen()).collect();
            }
            return bytes;
        }
    }
    v.encode().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn base_payloads_decode_as_requests() {
        for p in base_payloads() {
            Request::decode(&p).expect("base payload decodes");
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let bases = base_payloads();
        for tier in [Tier::Raw, Tier::Structural, Tier::Grammar] {
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            let ma = mutate(tier, &mut a, &bases);
            let mb = mutate(tier, &mut b, &bases);
            assert_eq!(ma.bytes, mb.bytes, "{tier:?} must be reproducible");
            assert_eq!(ma.grammar, mb.grammar);
        }
    }

    #[test]
    fn base_stats_reply_classifies_healthy() {
        retypd_gateway::classify_stats_reply(&base_stats_reply())
            .expect("the unmutated reply must classify healthy");
    }

    #[test]
    fn stats_reply_mutation_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(gateway_stats_mutant(&mut a), gateway_stats_mutant(&mut b));
    }

    #[test]
    fn grammar_mutants_never_request_shutdown() {
        let bases = base_payloads();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let m = mutate(Tier::Grammar, &mut rng, &bases);
            assert!(
                !crate::contains_shutdown(&m.bytes),
                "grammar tier must not synthesize shutdown requests"
            );
        }
    }
}
