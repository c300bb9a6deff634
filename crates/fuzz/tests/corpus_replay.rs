//! Replays the committed malformed-input corpus over a live socket.
//!
//! Every entry in `crates/fuzz/corpus/` is a minimized input that once
//! provoked (or guards against) a protocol-level failure. The replay
//! asserts the contract the corpus conventions promise:
//!
//! * the server answers (or cleanly closes) every entry without dying —
//!   a liveness probe must still succeed after the full corpus;
//! * reply bytes are **bit-identical** at one shard and at several:
//!   every entry but two fails before admission and never reaches a
//!   shard, and those two (`mod_bad_constraint_text`,
//!   `mod_batch_bad_constraint_text`) are admitted and fail on whichever
//!   shard parses their constraint text, with an error that names no
//!   shard;
//! * every reply frame the corpus provokes is a protocol `error` frame —
//!   an entry that earns a `stats` or `solved` reply has drifted into
//!   dispatchable work and no longer belongs in the corpus;
//! * `Request::decode` never panics on any committed payload;
//! * through a gateway fronting one backend the reply bytes equal
//!   serve's: the gateway runs serve's connection layer and serve's
//!   lattice check, and checks the module structures of a single-frame
//!   batch in serve's order; every other `mod_*` entry, and every module
//!   whose constraint text does not parse, is forwarded and answered by
//!   the backend itself — so a free differential check covers its front
//!   door;
//! * `gwstats_*` entries — malformed backend `stats` *replies* — are kept
//!   off the request socket entirely and instead replay through the
//!   gateway's health-probe classifier, which must reject each one
//!   without panicking.

use std::collections::BTreeMap;
use std::time::Duration;

use retypd_fuzz::corpus;
use retypd_fuzz::oracle::SocketOracle;
use retypd_gateway::{BackendSpec, GatewayConfig};
use retypd_serve::{start, Request, Response, ServeConfig};

/// Per-entry socket deadline; a replay exceeding it is a hang.
const DEADLINE: Duration = Duration::from_secs(5);

/// The acceptance floor for the committed corpus size.
const MIN_ENTRIES: usize = 25;

/// One fixed config per shard count: everything that could leak into a
/// reply (queue depth, read timeout) is pinned so the only variable
/// between the two replays is the shard count itself.
fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        workers_per_shard: 1,
        queue_depth: 8,
        cache_capacity: Some(64),
        read_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    }
}

/// Frames a payload entry the way a well-behaved client would.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Splits a reply byte stream back into frame payloads, rejecting
/// truncated or dangling bytes.
fn split_frames(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while bytes.len() >= 4 {
        let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert!(
            bytes.len() >= 4 + len,
            "reply stream truncated mid-frame ({} of {len} payload bytes)",
            bytes.len() - 4
        );
        frames.push(bytes[4..4 + len].to_vec());
        bytes = &bytes[4 + len..];
    }
    assert!(bytes.is_empty(), "dangling reply bytes: {bytes:?}");
    frames
}

/// What the corpus is replayed against.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// A serve process with this many shards.
    Serve(usize),
    /// A gateway fronting one single-shard serve backend.
    Gateway,
}

/// Replays the whole corpus against a fresh target and returns the raw
/// reply bytes per entry. The target must still answer a liveness probe
/// after the last entry.
fn replay_all(target: Target) -> BTreeMap<String, Vec<u8>> {
    let shards = match target {
        Target::Serve(shards) => shards,
        Target::Gateway => 1,
    };
    let handle = start(config(shards)).expect("bind replay server");
    let gateway = matches!(target, Target::Gateway).then(|| {
        retypd_gateway::start(
            GatewayConfig::default(),
            vec![BackendSpec::External {
                addr: handle.addr(),
            }],
        )
        .expect("gateway starts")
    });
    let addr = gateway.as_ref().map_or(handle.addr(), |g| g.addr());
    let mut oracle = SocketOracle::new(addr, DEADLINE);
    let mut replies = BTreeMap::new();
    for entry in corpus::load().expect("load committed corpus") {
        if entry.name.starts_with("gwstats_") {
            continue; // backend replies, not requests — classifier-only.
        }
        let wire_bytes = if entry.raw {
            entry.bytes.clone()
        } else {
            frame(&entry.bytes)
        };
        let context = format!("{} on {target:?}", entry.name);
        let reply = oracle
            .deliver_raw(&wire_bytes, &context)
            .unwrap_or_else(|f| panic!("corpus replay failed: {}", f.describe()));
        replies.insert(entry.name, reply);
    }
    oracle
        .probe(&format!("post-corpus probe on {target:?}"))
        .expect("server must outlive the whole corpus");
    if let Some(gateway) = gateway {
        gateway.shutdown();
    }
    handle.shutdown();
    replies
}

#[test]
fn corpus_meets_the_committed_size_floor() {
    let entries = corpus::load().expect("load committed corpus");
    assert!(
        entries.len() >= MIN_ENTRIES,
        "corpus holds {} entries, need at least {MIN_ENTRIES}",
        entries.len()
    );
}

#[test]
fn corpus_payloads_decode_without_panics_and_without_dispatchable_work() {
    for entry in corpus::load().expect("load committed corpus") {
        if entry.raw || entry.name.starts_with("gwstats_") {
            continue; // wire bytes / backend replies, not request payloads.
        }
        // Decode must not panic, and must not produce a request the
        // server would act on without an error reply.
        match Request::decode(&entry.bytes) {
            Err(_) => {}
            Ok(Request::Stats) | Ok(Request::Shutdown) | Ok(Request::Metrics) => {
                panic!("{} decodes to a control request", entry.name)
            }
            // Solve requests may decode; they must then die in the
            // structure check or, past admission, in the constraint-text
            // parse, which the replay test proves by demanding an error
            // reply frame.
            Ok(_) => {}
        }
    }
}

#[test]
fn gwstats_corpus_replays_through_the_gateway_classifier() {
    let entries: Vec<_> = corpus::load()
        .expect("load committed corpus")
        .into_iter()
        .filter(|e| e.name.starts_with("gwstats_"))
        .collect();
    assert!(
        entries.len() >= 6,
        "gateway stats-reply corpus holds {} entries, need at least 6",
        entries.len()
    );
    for entry in entries {
        // Each committed reply once confused (or guards against confusing)
        // the gateway's health probe: the classifier must reject it —
        // degrading the backend to unhealthy — and must never panic.
        let verdict = std::panic::catch_unwind(|| {
            retypd_gateway::classify_stats_reply(&entry.bytes)
        })
        .unwrap_or_else(|_| panic!("{}: classifier panicked", entry.name));
        assert!(
            verdict.is_err(),
            "{}: a malformed reply classified healthy",
            entry.name
        );
    }
}

#[test]
fn corpus_replays_bit_identically_across_shard_counts() {
    let one = replay_all(Target::Serve(1));
    let three = replay_all(Target::Serve(3));
    assert_eq!(
        one.keys().collect::<Vec<_>>(),
        three.keys().collect::<Vec<_>>()
    );
    for (name, reply) in &one {
        assert_eq!(
            reply, &three[name],
            "{name}: reply bytes differ between 1 and 3 shards"
        );
        // Every frame any entry provokes must be a protocol error; a
        // payload entry must provoke exactly one (raw entries may get
        // zero — broken framing — or several, one per embedded attack).
        let frames = split_frames(reply);
        if !name.starts_with("raw_") {
            assert_eq!(frames.len(), 1, "{name}: expected exactly one reply frame");
        }
        for payload in &frames {
            match Response::decode(payload) {
                Ok(Response::Error(_)) => {}
                other => panic!("{name}: reply was not an error frame: {other:?}"),
            }
        }
    }
}

#[test]
fn corpus_replays_through_a_gateway_bit_identically_to_serve() {
    let serve = replay_all(Target::Serve(1));
    let gateway = replay_all(Target::Gateway);
    assert_eq!(
        serve.keys().collect::<Vec<_>>(),
        gateway.keys().collect::<Vec<_>>()
    );
    for (name, reply) in &serve {
        assert_eq!(
            &gateway[name], reply,
            "{name}: reply bytes differ between a gateway and serve"
        );
    }
}
