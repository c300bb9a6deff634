//! The `retypd-fuzz` binary: a deterministic fuzz campaign against an
//! in-process live server.
//!
//! ```text
//! cargo run --release -p retypd-fuzz -- --seed 1 --iters 10000 --out fuzz-stats.json
//! ```
//!
//! Iterations round-robin the three mutator tiers. Every input runs the
//! in-process decode oracle; every input that cannot be mistaken for a
//! `shutdown` request is also delivered to the live socket. Grammar-tier
//! iterations additionally mutate a backend `stats` *reply* and drive it
//! through the gateway's health-probe classifier, which must degrade
//! garbage to "unhealthy" without ever panicking the router. Failures are
//! minimized and (with `--save-failures`) written into the committed
//! regression corpus. The run writes a stats JSON (`--out`) and exits
//! non-zero if any oracle tripped.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use retypd_fuzz::alloc::CountingAlloc;
use retypd_fuzz::mutate::{self, Tier};
use retypd_fuzz::oracle::{
    check_gateway_reply, check_grammar_strings, check_in_process, Failure, SocketOracle,
};
use retypd_fuzz::{contains_shutdown, corpus, minimize};
use retypd_serve::json::Json;
use retypd_serve::{start, ServeConfig};

/// The allocation oracle hooks every allocation in this process —
/// including the server's, which runs in-process precisely so mutant-
/// driven allocation spikes land in these counters.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live-heap growth bound for a whole campaign. Generous on purpose:
/// `Symbol` interning and the shard caches grow monotonically by design;
/// what this catches is a mutant that balloons memory by hundreds of MiB
/// (e.g. an announced-length allocation bug).
const MAX_GROWTH_BYTES: usize = 512 << 20;

/// Per-input wall-clock budget for the in-process decode path.
const IN_PROCESS_BUDGET: Duration = Duration::from_secs(2);

/// Per-interaction socket deadline: past this, the input is a hang.
const SOCKET_DEADLINE: Duration = Duration::from_secs(5);

fn usage() -> ! {
    eprintln!(
        "usage: retypd-fuzz [--seed N] [--iters M] [--out PATH] [--save-failures]"
    );
    std::process::exit(2);
}

struct TierStats {
    inputs: u64,
    decoded_valid: u64,
    delivered: u64,
    skipped_shutdown: u64,
    reply_frames: u64,
    silent_closes: u64,
}

impl TierStats {
    fn new() -> TierStats {
        TierStats {
            inputs: 0,
            decoded_valid: 0,
            delivered: 0,
            skipped_shutdown: 0,
            reply_frames: 0,
            silent_closes: 0,
        }
    }

    fn to_json(&self) -> Json<'_> {
        Json::Obj(vec![
            ("inputs".into(), Json::u64(self.inputs)),
            ("decoded_valid".into(), Json::u64(self.decoded_valid)),
            ("delivered".into(), Json::u64(self.delivered)),
            ("skipped_shutdown".into(), Json::u64(self.skipped_shutdown)),
            ("reply_frames".into(), Json::u64(self.reply_frames)),
            ("silent_closes".into(), Json::u64(self.silent_closes)),
        ])
    }
}

struct FailureRecord {
    iteration: u64,
    tier: Tier,
    failure: Failure,
    minimized_len: usize,
    saved: Option<String>,
}

fn main() {
    let mut seed = 1u64;
    let mut iters = 10_000u64;
    let mut out: Option<String> = None;
    let mut save_failures = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => seed = n,
                _ => usage(),
            },
            "--iters" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => iters = n,
                _ => usage(),
            },
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--save-failures" => save_failures = true,
            _ => usage(),
        }
    }

    // A small-footprint live server: short read timeout (mutant
    // connections must not linger), bounded caches, default per-connection
    // budgets (the fuzzer exercises them incidentally).
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        workers_per_shard: 1,
        queue_depth: 32,
        cache_capacity: Some(256),
        read_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    })
    .expect("bind fuzz server");
    let bases = mutate::base_payloads();
    let mut oracle = SocketOracle::new(handle.addr(), SOCKET_DEADLINE);
    oracle.probe("startup probe").expect("fuzz server answers");

    let baseline = CountingAlloc::current();
    CountingAlloc::reset_peak();
    let start_time = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tier_stats = [TierStats::new(), TierStats::new(), TierStats::new()];
    let mut failures: Vec<FailureRecord> = Vec::new();
    let mut gateway_replies = 0u64;
    let mut gateway_healthy = 0u64;

    for i in 0..iters {
        let tier = Tier::for_iteration(i);
        let mutant = mutate::mutate(tier, &mut rng, &bases);
        let ts = &mut tier_stats[tier as usize];
        ts.inputs += 1;

        // In-process oracles.
        let mut failed: Option<Failure> = None;
        match check_in_process(&mutant.bytes, IN_PROCESS_BUDGET) {
            Ok(true) => ts.decoded_valid += 1,
            Ok(false) => {}
            Err(f) => failed = Some(f),
        }
        if failed.is_none() && !mutant.grammar.is_empty() {
            if let Err(f) = check_grammar_strings(&mutant.grammar, IN_PROCESS_BUDGET) {
                failed = Some(f);
            }
        }

        // Grammar-tier iterations also attack the *other* direction of
        // the protocol: a backend's stats reply as seen by the gateway's
        // health probe. The classifier must degrade garbage to unhealthy,
        // never panic the router.
        if failed.is_none() && tier == Tier::Grammar {
            let reply = mutate::gateway_stats_mutant(&mut rng);
            gateway_replies += 1;
            match check_gateway_reply(&reply, IN_PROCESS_BUDGET) {
                Ok(true) => gateway_healthy += 1,
                Ok(false) => {}
                Err(f) => {
                    record_gateway_failure(&mut failures, i, &reply, f, save_failures);
                }
            }
        }

        // Socket oracles: never hand the shared server a shutdown.
        if failed.is_none() {
            if contains_shutdown(&mutant.bytes) {
                ts.skipped_shutdown += 1;
            } else {
                let context = format!("iteration {i} ({})", tier.name());
                let outcome = if mutant.raw {
                    oracle.deliver_raw(&mutant.bytes, &context).map(|reply| {
                        if reply.is_empty() {
                            ts.silent_closes += 1;
                            0
                        } else {
                            1
                        }
                    })
                } else {
                    oracle.deliver_framed(&mutant.bytes, &context)
                };
                match outcome {
                    Ok(frames) => {
                        ts.delivered += 1;
                        ts.reply_frames += frames as u64;
                    }
                    Err(f) => failed = Some(f),
                }
            }
        }

        if let Some(failure) = failed {
            record_failure(
                &mut failures,
                i,
                &mutant.bytes,
                mutant.raw,
                tier,
                failure,
                save_failures,
            );
        }

        // Periodic liveness + allocation checks.
        if i % 500 == 499 {
            if let Err(f) = oracle.probe(&format!("periodic probe after iteration {i}")) {
                record_failure(&mut failures, i, &[], false, tier, f, false);
                break; // a dead server fails every remaining input; stop.
            }
            let growth = CountingAlloc::current().saturating_sub(baseline);
            if growth > MAX_GROWTH_BYTES {
                let f = Failure::MemoryGrowth {
                    grew_bytes: growth,
                    context: format!("after iteration {i}"),
                };
                record_failure(&mut failures, i, &[], false, tier, f, false);
                break;
            }
        }
    }

    // Final liveness probe: the campaign must leave the server standing.
    if let Err(f) = oracle.probe("final probe") {
        record_failure(&mut failures, iters, &[], false, Tier::Raw, f, false);
    }
    let growth = CountingAlloc::current().saturating_sub(baseline);
    let peak = CountingAlloc::peak();
    let wall_ms = start_time.elapsed().as_millis() as u64;
    handle.shutdown();

    let stats = Json::Obj(vec![
        ("seed".into(), Json::u64(seed)),
        ("iters".into(), Json::u64(iters)),
        ("wall_ms".into(), Json::u64(wall_ms)),
        (
            "gateway".into(),
            Json::Obj(vec![
                ("stats_replies".into(), Json::u64(gateway_replies)),
                ("classified_healthy".into(), Json::u64(gateway_healthy)),
            ]),
        ),
        (
            "tiers".into(),
            Json::Obj(vec![
                ("raw".into(), tier_stats[0].to_json()),
                ("structural".into(), tier_stats[1].to_json()),
                ("grammar".into(), tier_stats[2].to_json()),
            ]),
        ),
        (
            "alloc".into(),
            Json::Obj(vec![
                ("baseline_bytes".into(), Json::usize(baseline)),
                ("growth_bytes".into(), Json::usize(growth)),
                ("peak_bytes".into(), Json::usize(peak)),
                ("growth_limit_bytes".into(), Json::usize(MAX_GROWTH_BYTES)),
            ]),
        ),
        (
            "failures".into(),
            Json::Arr(
                failures
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("iteration".into(), Json::u64(f.iteration)),
                            ("tier".into(), Json::str(f.tier.name())),
                            ("kind".into(), Json::str(f.failure.kind())),
                            ("detail".into(), Json::str(f.failure.describe())),
                            ("minimized_len".into(), Json::usize(f.minimized_len)),
                            (
                                "saved".into(),
                                f.saved.as_deref().map_or(Json::Null, Json::str),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(path) = out {
        std::fs::write(&path, stats.encode()).expect("write stats");
        eprintln!("stats written to {path}");
    }

    let delivered: u64 = tier_stats.iter().map(|t| t.delivered).sum();
    eprintln!(
        "retypd-fuzz: {iters} iterations (seed {seed}) in {wall_ms}ms, \
         {delivered} delivered to the socket, {} failures, \
         heap growth {growth} bytes (peak {peak})",
        failures.len()
    );
    for f in &failures {
        eprintln!(
            "  FAILURE at iteration {} [{}]: {}",
            f.iteration,
            f.tier.name(),
            f.failure.describe()
        );
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Minimizes (where the failure reproduces in-process) and records one
/// failing input, optionally saving it into the corpus.
fn record_failure(
    failures: &mut Vec<FailureRecord>,
    iteration: u64,
    bytes: &[u8],
    raw: bool,
    tier: Tier,
    failure: Failure,
    save: bool,
) {
    // Only panics and in-process hangs re-check cheaply and determin-
    // istically; socket-level failures are recorded at full size.
    let minimized = match &failure {
        Failure::Panic { .. } | Failure::Hang { .. } if !bytes.is_empty() => minimize(
            bytes,
            2048,
            &mut |cand| {
                check_in_process(cand, IN_PROCESS_BUDGET).is_err()
            },
        ),
        _ => bytes.to_vec(),
    };
    let saved = if save && !minimized.is_empty() {
        corpus::save(&format!("found_{}", failure.kind()), &minimized, raw).ok()
    } else {
        None
    };
    failures.push(FailureRecord {
        iteration,
        tier,
        failure,
        minimized_len: minimized.len(),
        saved,
    });
}

/// Like [`record_failure`], but for a backend stats *reply* that broke
/// the gateway classifier. Saved entries take the `gwstats_found` prefix
/// so the replay suite routes them through the classifier rather than a
/// request socket.
fn record_gateway_failure(
    failures: &mut Vec<FailureRecord>,
    iteration: u64,
    bytes: &[u8],
    failure: Failure,
    save: bool,
) {
    let minimized = minimize(bytes, 2048, &mut |cand| {
        check_gateway_reply(cand, IN_PROCESS_BUDGET).is_err()
    });
    let saved = if save && !minimized.is_empty() {
        corpus::save(&format!("gwstats_found_{}", failure.kind()), &minimized, false).ok()
    } else {
        None
    };
    failures.push(FailureRecord {
        iteration,
        tier: Tier::Grammar,
        failure,
        minimized_len: minimized.len(),
        saved,
    });
}
