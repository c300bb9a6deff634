//! The three workloads. Each sets up, computes its references untimed,
//! runs a closed loop for the run's seconds and checks every output.
//!
//! An untraced run measures its loop in equal segments of about
//! `SEGMENT_SECONDS`. Where every segment repeats the same work, each
//! timing is the best of its per-segment values: host interference only
//! ever slows a segment down, and it comes in bursts of seconds, so the
//! least disturbed segment is the steadiest estimate of the code's own
//! speed. Where state carries over from segment to segment
//! (`fresh-serve`'s cache and store fill), each timing is the median of its
//! per-segment values, which does not favour the emptier early segments.
//! `peak_rss_mb` is the process's peak over the loop alone. After the loop
//! the run sets up `SETUPS - 1` more times (timed, then torn down) in the
//! same process, and `setup_s` is the median of all its set-ups. A traced
//! run sets up once, measures the loop with recording off, then on
//! (`trace.overhead_ratio`), and runs the per-layer probes on the
//! workload's own modules.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use retypd_core::{Lattice, Solver, SolverResult};
use retypd_driver::ModuleJob;
use retypd_gateway::GatewayHandle;
use retypd_serve::{Client, ServerHandle, WireReport};

use crate::corpus::{self, Prepared};
use crate::probes;
use crate::replica::{self, CoreCounts};
use crate::report::{proc_status_kb, quantile, reset_peak_rss, Accuracy, Metrics};
use crate::stack::{self, closed_loop, Input, Op, Outcome, WorkDir};
use crate::trace::Tracer;

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Outputs that differed from the reference.
    pub wrong: u64,
    pub metrics: Metrics,
    /// Extra JSON fields for the details line: (key, JSON value).
    pub details: Vec<(String, String)>,
}

/// Length of a measured segment of an untraced run: long enough for ten
/// samples beyond each workload's tail percentile.
const SEGMENT_SECONDS: f64 = 2.5;
/// Segments of an untraced run: its seconds in segments of about
/// `SEGMENT_SECONDS`, at least one.
fn segments(run: &Run) -> usize {
    ((run.seconds / SEGMENT_SECONDS).round() as usize).max(1)
}

/// Set-ups of an untraced run: the one it measures with, then re-set-ups.
const SETUPS: usize = 5;
/// Closed-loop clients of the serving workloads (`nproc` is 2).
const CLIENTS: usize = 2;

fn digest_of(name: &str, r: &SolverResult) -> u64 {
    stack::digest(&WireReport::from_result(name, r))
}

/// Runs `f` over two halves of `items` on two threads.
fn split2<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let f = &f;
        let hs: Vec<_> = items.chunks(half).map(|c| s.spawn(move || f(c))).collect();
        hs.into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    })
}

/// Times `f`, recording its wall time in `setups`.
fn timed<R>(setups: &mut Vec<Duration>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    setups.push(t0.elapsed());
    r
}

/// The reference for every module: `Solver::infer`'s canonical-text
/// digest.
fn references(lattice: &Lattice, mods: &[&Prepared]) -> Vec<u64> {
    split2(mods, |chunk| {
        chunk
            .iter()
            .map(|p| digest_of(&p.job.name, &Solver::new(lattice).infer(&p.job.program)))
            .collect::<Vec<_>>()
    })
    .concat()
}

/// The cold-solve corpus of `seed`, compiled and constraint-generated.
fn cold_prepared(seed: u64, tr: &Tracer) -> Vec<Prepared> {
    corpus::cold_corpus(seed)
        .into_iter()
        .map(|(name, module)| corpus::prepare(&name, module, 0, tr))
        .collect()
}

/// Cold-solve corpora scored for accuracy: the run's own and five more
/// drawn from its seed, so the figure moves little from seed to seed.
const ACCURACY_DRAWS: u64 = 6;

/// Accuracy of `Solver::infer` against the `minic` ground truth, scored
/// untimed on `ACCURACY_DRAWS` cold-solve corpora of the run's seed. Every
/// workload's outputs are gated bit-identical to `Solver::infer`, so this
/// is the accuracy each of them delivers.
fn corpus_accuracy(run: &Run, lattice: &Lattice) -> Accuracy {
    let seeds: Vec<u64> = (0..ACCURACY_DRAWS)
        .map(|d| run.seed ^ d.wrapping_mul(0xACC0_0000_0000_0001))
        .collect();
    let mut acc = Accuracy::default();
    for a in split2(&seeds, |chunk| {
        let mut acc = Accuracy::default();
        for &seed in chunk {
            for p in cold_prepared(seed, &Tracer::new(false)) {
                acc.score(
                    lattice,
                    &Solver::new(lattice).infer(&p.job.program),
                    &p.truth,
                );
            }
        }
        acc
    }) {
        acc.merge(&a);
    }
    acc
}

/// One measured op: its latency and the instructions it verified (0 when
/// its output was wrong).
struct Sample {
    latency_ns: u64,
    verified: usize,
}

/// The measured segments of an untraced run, samples and wall time each,
/// and the process's peak resident set (KiB) over them. With `busy`,
/// throughput is over the ops' own time (one client, checks off the
/// clock); otherwise over the segment's wall time. With `repeated`, every
/// segment does the same work from the same state.
#[derive(Default)]
struct Phase {
    segments: Vec<(Vec<Sample>, Duration)>,
    peak_kb: f64,
    busy: bool,
    repeated: bool,
}

/// End-to-end metrics: each timing is the best of its per-segment values
/// when the segments repeat the same work and their median otherwise;
/// `setup_s` is the median of the set-ups.
fn end_to_end(
    m: &mut Metrics,
    details: &mut Vec<(String, String)>,
    phase: &Phase,
    tail: f64,
    setups: &[Duration],
    acc: &Accuracy,
) {
    let (mut thr, mut p50, mut tails, mut beyond) = (vec![], vec![], vec![], usize::MAX);
    let mut samples = 0;
    for (seg, wall) in phase.segments.iter().filter(|(s, _)| !s.is_empty()) {
        let lat: Vec<f64> = seg.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
        let insts: usize = seg.iter().map(|s| s.verified).sum();
        let secs = if phase.busy {
            lat.iter().sum::<f64>() / 1e3
        } else {
            wall.as_secs_f64()
        };
        thr.push(insts as f64 / 1e3 / secs);
        p50.push(quantile(&lat, 0.5));
        tails.push(quantile(&lat, tail));
        beyond = beyond.min(lat.len() - ((tail * lat.len() as f64).ceil() as usize).min(lat.len()));
        samples += lat.len();
    }
    // The best segment is the highest throughput and the lowest latency.
    let (high, low) = if phase.repeated {
        (1.0, 0.0)
    } else {
        (0.5, 0.5)
    };
    m.set("throughput_kinst_s", quantile(&thr, high), "kinst/s");
    m.set("latency_p50_ms", quantile(&p50, low), "ms");
    m.set("latency_tail_ms", quantile(&tails, low), "ms");
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    m.set("setup_s", quantile(&setup_s, 0.5), "s");
    m.set("peak_rss_mb", phase.peak_kb / 1024.0, "MiB");
    m.set("tie_distance", acc.tie_distance(), "steps");
    m.set("conservativeness", acc.conservativeness(), "ratio");
    m.set("const_recall", acc.const_recall(), "ratio");
    for (key, value) in [
        ("latency_samples", samples.to_string()),
        ("latency_tail_percentile", format!("{}", tail * 100.0)),
        ("latency_tail_min_beyond_per_segment", beyond.to_string()),
        ("segment_throughput", format!("{thr:?}")),
        ("segment_p50", format!("{p50:?}")),
        ("segment_tail", format!("{tails:?}")),
        ("setup_s_each", format!("{setup_s:?}")),
    ] {
        details.push((key.into(), value));
    }
}

/// Tallies of a loop: every op, its failures and its cache counters.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Failed, refused or wrong.
    failed: u64,
    wrong: u64,
    refused: u64,
    hits: u64,
    misses: u64,
}

/// Loop-derived per-layer metrics shared by every workload.
fn loop_layers(m: &mut Metrics, t: &Tally, evictions: u64, rss_growth_kb: f64) {
    let per = |x: f64| x / t.attempted.max(1) as f64;
    m.set("error_rate", per(t.failed as f64), "ratio");
    m.set("serve.refused", per(t.refused as f64), "ratio");
    m.set(
        "driver.hit_ratio",
        t.hits as f64 / (t.hits + t.misses).max(1) as f64,
        "ratio",
    );
    m.set("driver.evictions_per_req", per(evictions as f64), "count");
    m.set("rss_growth_kb_per_req", per(rss_growth_kb), "KiB");
}

/// Overhead of recording spans: traced wall per op over untraced.
fn overhead(m: &mut Metrics, untraced: (Duration, usize), traced: (Duration, usize)) {
    let per = |(d, n): (Duration, usize)| d.as_secs_f64() / n.max(1) as f64;
    m.set(
        "trace.overhead_ratio",
        per(traced) / per(untraced).max(1e-12),
        "ratio",
    );
}

/// Replica solves of `mods` in full rounds until `budget` has passed (at
/// least one round), each checked against its reference digest.
/// Returns (wall, solves, wrong, work counts).
fn replica_rounds(
    lattice: &Lattice,
    mods: &[&Prepared],
    refs: &[u64],
    tr: &Tracer,
    budget: Duration,
) -> (Duration, usize, u64, CoreCounts) {
    let (mut wall, mut solves, mut wrong) = (Duration::ZERO, 0usize, 0u64);
    let mut counts = CoreCounts::default();
    let start = Instant::now();
    while solves == 0 || start.elapsed() < budget {
        for (i, p) in mods.iter().enumerate() {
            let t0 = Instant::now();
            let solved = replica::solve(lattice, &p.job.program, tr, solves as u64 + 1);
            wall += t0.elapsed();
            solves += 1;
            counts.add(solved.counts);
            if digest_of(&p.job.name, &solved.result) != refs[i] {
                wrong += 1;
            }
        }
    }
    (wall, solves, wrong, counts)
}

/// `core.*` layers of a serving workload's traced run: one round of
/// replica solves of its modules. Returns the solves that differed from
/// `Solver::infer`.
fn core_probe(m: &mut Metrics, lattice: &Lattice, mods: &[&Prepared], tr: &Tracer) -> u64 {
    let refs = references(lattice, mods);
    let (_, solves, wrong, counts) = replica_rounds(lattice, mods, &refs, tr, Duration::ZERO);
    counts.set_metrics(m, solves);
    wrong
}

/// The probes every traced run makes on a sample of its modules, against
/// a gateway and its backends.
fn layer_probes(
    m: &mut Metrics,
    lattice: &Lattice,
    sample: &[&Prepared],
    gateway: SocketAddr,
    backends: &[SocketAddr],
    tr: &Tracer,
) {
    probes::driver(lattice, sample, tr);
    let replayed = probes::store(lattice, sample, tr);
    m.set("store.replayed_entries", replayed as f64, "count");
    let (req_kb, reply_kb) = probes::codec(lattice, sample, tr);
    m.set("serve.request_kb", req_kb, "KiB");
    m.set("serve.reply_kb", reply_kb, "KiB");
    probes::round_trips(sample, gateway, backends, tr);
}

/// The input stamp of a run: mix and fingerprint of its modules.
fn input_details(run: &Run, mods: &[&Prepared]) -> Vec<(String, String)> {
    let fp = corpus::input_fingerprint(mods.iter().map(|p| &p.truth.module));
    vec![
        ("workload".into(), format!("\"{}\"", run.workload)),
        ("stamp".into(), crate::report::stamp(run.seed, fp)),
        ("input_mix".into(), corpus::input_mix(mods)),
    ]
}

// ---------------------------------------------------------------------------
// cold-solve

/// One client; every module solved by a fresh single-worker driver with no
/// store, so every SCC misses.
pub fn cold_solve(run: &Run, tr: &Tracer) -> Report {
    let lattice = Lattice::c_types();
    let mut setups = Vec::new();
    let prepared = timed(&mut setups, || cold_prepared(run.seed, tr));
    let refs = references(&lattice, &prepared.iter().collect::<Vec<_>>());
    let mut details = input_details(run, &prepared.iter().collect::<Vec<_>>());
    let mut m = Metrics::default();
    let seconds = Duration::from_secs_f64(run.seconds);
    let mut t = Tally::default();

    if run.trace {
        // The replica over the corpus, recording off, then on.
        let mods: Vec<&Prepared> = prepared.iter().collect();
        let rss0 = proc_status_kb("VmRSS");
        tr.set_enabled(false);
        let (wall_a, n_a, wrong_a, _) = replica_rounds(&lattice, &mods, &refs, tr, seconds / 2);
        tr.set_enabled(true);
        let (wall_b, n_b, wrong_b, counts) =
            replica_rounds(&lattice, &mods, &refs, tr, seconds / 2);
        let rss_growth = proc_status_kb("VmRSS") - rss0;
        overhead(&mut m, (wall_a, n_a), (wall_b, n_b));
        counts.set_metrics(&mut m, n_b);
        t.attempted = (n_a + n_b) as u64;
        t.wrong = wrong_a + wrong_b;
        t.failed = t.wrong;
        for p in &mods {
            let s = probes::fresh_driver(&lattice, None)
                .solve(&p.job.program)
                .stats;
            t.hits += s.cache_hits;
            t.misses += s.cache_misses;
        }
        loop_layers(&mut m, &t, 0, rss_growth);
        let server = stack::start_serve(None);
        let gw = stack::start_gateway(&[server.addr()]);
        layer_probes(&mut m, &lattice, &mods, gw.addr(), &[server.addr()], tr);
        gw.shutdown();
        server.shutdown();
    } else {
        // Full rounds over a seeded order; checks run off the clock.
        let mut order: Vec<usize> = (0..prepared.len()).collect();
        corpus::Rng::new(run.seed ^ 0x0D3E).shuffle(&mut order);
        let mut phase = Phase {
            busy: true,
            repeated: true,
            ..Phase::default()
        };
        let mut per_module: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
        reset_peak_rss();
        let n = segments(run);
        for _ in 0..n {
            let mut samples = Vec::new();
            let start = Instant::now();
            while start.elapsed() < seconds / n as u32 {
                for &i in &order {
                    let p = &prepared[i];
                    let t0 = Instant::now();
                    let driver = probes::fresh_driver(&lattice, None);
                    let result = driver.solve(&p.job.program);
                    drop(driver);
                    let dt = t0.elapsed();
                    t.attempted += 1;
                    per_module[i].push(dt.as_secs_f64() * 1e3);
                    let ok = digest_of(&p.job.name, &result) == refs[i];
                    if !ok {
                        t.wrong += 1;
                        t.failed += 1;
                    }
                    samples.push(Sample {
                        latency_ns: dt.as_nanos() as u64,
                        verified: if ok { p.instructions } else { 0 },
                    });
                }
            }
            phase.segments.push((samples, start.elapsed()));
        }
        phase.peak_kb = proc_status_kb("VmHWM");
        for _ in 1..SETUPS {
            drop(timed(&mut setups, || cold_prepared(run.seed, tr)));
        }
        let acc = corpus_accuracy(run, &lattice);
        // p90: a segment holds some 180 solves, so at least ten lie beyond
        // it even on a host a third slower.
        end_to_end(&mut m, &mut details, &phase, 0.90, &setups, &acc);
        // Each module's own row: instructions, largest SCC, median latency.
        let rows: Vec<String> = prepared
            .iter()
            .zip(&per_module)
            .map(|(p, lat)| {
                format!(
                    "{{\"name\": \"{}\", \"instructions\": {}, \"max_scc\": {}, \"p50_ms\": {}}}",
                    p.job.name,
                    p.instructions,
                    corpus::max_scc(&p.job.program),
                    quantile(lat, 0.5)
                )
            })
            .collect();
        details.push(("modules".into(), format!("[{}]", rows.join(", "))));
    }
    Report {
        attempted: t.attempted,
        failed: t.failed,
        wrong: t.wrong,
        metrics: m,
        details,
    }
}

// ---------------------------------------------------------------------------
// Serving workloads

/// The closed loop of a serving workload against `addr`, in segments: an
/// untraced run makes `segments(run)` of them, a traced run two halves,
/// recording off, then on. `next` gives client `c`'s `j`-th input; every
/// segment continues each client's sequence. Returns the segments' ops and
/// wall times, and the process's peak resident set (KiB) over them.
fn serve_segments(
    run: &Run,
    tr: &Tracer,
    addr: SocketAddr,
    next: &(dyn Fn(usize, usize) -> Input + Sync),
    m: &mut Metrics,
) -> (Vec<(Vec<Op>, Duration)>, f64) {
    let n = if run.trace { 2 } else { segments(run) };
    let length = Duration::from_secs_f64(run.seconds) / n as u32;
    let mut out: Vec<(Vec<Op>, Duration)> = Vec::new();
    let mut offset = 0;
    reset_peak_rss();
    for seg in 0..n {
        if run.trace {
            tr.set_enabled(seg == 1);
        }
        let (ops, wall) = closed_loop(addr, CLIENTS, length, tr, &|c, j| next(c, j + offset));
        offset += ops.len();
        out.push((ops, wall));
    }
    let peak_kb = proc_status_kb("VmHWM");
    if run.trace {
        overhead(m, (out[0].1, out[0].0.len()), (out[1].1, out[1].0.len()));
    }
    (out, peak_kb)
}

/// Tallies every segment's ops, `check` telling whether a reply's digest
/// matches its reference.
fn tally(segments: &[(Vec<Op>, Duration)], check: impl Fn(&Op, u64) -> bool) -> (Tally, Phase) {
    let mut t = Tally::default();
    let mut phase = Phase::default();
    for (ops, wall) in segments {
        let mut samples = Vec::with_capacity(ops.len());
        for op in ops {
            t.attempted += 1;
            let mut verified = 0;
            match op.outcome {
                Outcome::Solved {
                    digest,
                    hits,
                    misses,
                } => {
                    t.hits += hits;
                    t.misses += misses;
                    if check(op, digest) {
                        verified = op.instructions;
                    } else {
                        t.wrong += 1;
                        t.failed += 1;
                    }
                }
                Outcome::Refused => {
                    t.refused += 1;
                    t.failed += 1;
                }
                Outcome::Failed => t.failed += 1,
            }
            samples.push(Sample {
                latency_ns: op.latency_ns,
                verified,
            });
        }
        phase.segments.push((samples, *wall));
    }
    (t, phase)
}

fn evictions(addrs: &[SocketAddr]) -> u64 {
    addrs
        .iter()
        .map(|a| {
            Client::connect(a)
                .and_then(|mut c| c.stats())
                .map_or(0, |s| s.shards.iter().map(|sh| sh.cache.evictions).sum())
        })
        .sum()
}

/// The warm-routed stack: a gateway, its backends and their persist dirs.
struct WarmStack {
    gateway: GatewayHandle,
    servers: Vec<ServerHandle>,
    dir: WorkDir,
    corpus: Vec<Prepared>,
}

impl WarmStack {
    /// Generates and compiles the cluster corpus, starts two persisting
    /// backends behind a gateway, primes them through it, and restarts
    /// them over their persist dirs (the store replay is set-up work).
    fn start(run: &Run, rep: usize, tr: &Tracer) -> WarmStack {
        let corpus: Vec<Prepared> = corpus::warm_corpus(run.seed)
            .into_iter()
            .map(|(name, module, lib)| corpus::prepare(&name, module, lib, tr))
            .collect();
        let dir = WorkDir::new(&format!("warm{rep}"));
        let dirs: Vec<_> = (0..2).map(|i| dir.join(format!("slot-{i}"))).collect();
        let start = |dirs: &[std::path::PathBuf]| {
            let servers: Vec<_> = dirs
                .iter()
                .map(|d| stack::start_serve(Some(d.clone())))
                .collect();
            let addrs: Vec<SocketAddr> = servers.iter().map(ServerHandle::addr).collect();
            (stack::start_gateway(&addrs), servers)
        };
        let (gateway, servers) = start(&dirs);
        let mut client = Client::connect(gateway.addr()).expect("connect gateway");
        for p in &corpus {
            client.solve_module(&p.job).expect("priming solve");
        }
        drop(client);
        shutdown(gateway, servers);
        let (gateway, servers) = start(&dirs);
        WarmStack {
            gateway,
            servers,
            dir,
            corpus,
        }
    }

    fn backends(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ServerHandle::addr).collect()
    }

    fn stop(self) {
        shutdown(self.gateway, self.servers);
        drop(self.dir);
    }
}

fn shutdown(gateway: GatewayHandle, servers: Vec<ServerHandle>) {
    gateway.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// Two clients through a gateway in front of two `serve` backends that
/// were primed with the cluster corpus and restarted over their persist
/// dirs: every request is a warm hit.
pub fn warm_routed(run: &Run, tr: &Tracer) -> Report {
    let lattice = Lattice::c_types();
    let mut setups = Vec::new();
    let st = timed(&mut setups, || WarmStack::start(run, 0, tr));
    let mods: Vec<&Prepared> = st.corpus.iter().collect();
    let refs = references(&lattice, &mods);
    let mut details = input_details(run, &mods);
    let mut m = Metrics::default();
    let backends = st.backends();
    let jobs: Vec<Arc<ModuleJob>> = mods.iter().map(|p| Arc::new(p.job.clone())).collect();
    let n = jobs.len();
    let next = |c: usize, j: usize| {
        let key = (c * n / CLIENTS + j) % n;
        Input {
            key,
            job: Arc::clone(&jobs[key]),
            instructions: mods[key].instructions,
        }
    };
    let ev0 = evictions(&backends);
    let rss0 = proc_status_kb("VmRSS");
    let (segments, peak_kb) = serve_segments(run, tr, st.gateway.addr(), &next, &mut m);
    let (mut t, mut phase) = tally(&segments, |op, d| d == refs[op.key]);
    phase.peak_kb = peak_kb;
    phase.repeated = true;
    if run.trace {
        loop_layers(
            &mut m,
            &t,
            evictions(&backends) - ev0,
            proc_status_kb("VmRSS") - rss0,
        );
        t.wrong += core_probe(&mut m, &lattice, &mods, tr);
        layer_probes(&mut m, &lattice, &mods, st.gateway.addr(), &backends, tr);
    } else {
        for rep in 1..SETUPS {
            timed(&mut setups, || WarmStack::start(run, rep, tr)).stop();
        }
        // p98: a segment holds some 1200 requests, so at least ten lie
        // beyond it even on a host a third slower.
        let acc = corpus_accuracy(run, &lattice);
        end_to_end(&mut m, &mut details, &phase, 0.98, &setups, &acc);
    }
    st.stop();
    Report {
        attempted: t.attempted,
        failed: t.failed,
        wrong: t.wrong,
        metrics: m,
        details,
    }
}

/// Priming members per fresh library.
const FRESH_PRIME: usize = 4;
/// Pool members per fresh library: the contents requests draw from.
const FRESH_POOL: usize = 12;
/// Requests of a fresh-serve loop that its `peak_rss_mb` covers. The
/// process grows with every never-seen name it serves, so a peak over a
/// fixed time would grow with the server's speed; a peak over a fixed
/// number of requests does not.
const FRESH_PEAK_REQUESTS: usize = 2000;

/// The fresh-serve stack: one persisting `serve`, primed with a few
/// members of every shared library, and the lifted pool requests are
/// renamed from.
struct FreshStack {
    server: ServerHandle,
    dir: WorkDir,
    primed: Vec<Prepared>,
    /// Pool members and the suffix their member functions carry.
    pool: Vec<(Prepared, String)>,
}

impl FreshStack {
    fn start(run: &Run, rep: usize, tr: &Tracer) -> FreshStack {
        let lift = |(name, module, lib, suffix): corpus::Member| {
            (corpus::prepare(&name, module, lib, tr), suffix)
        };
        let pool = corpus::fresh_members(run.seed, "pool", FRESH_POOL)
            .into_iter()
            .map(lift)
            .collect();
        let dir = WorkDir::new(&format!("fresh{rep}"));
        let server = stack::start_serve(Some(dir.join("store")));
        let mut client = Client::connect(server.addr()).expect("connect serve");
        let mut primed = Vec::new();
        for member in corpus::fresh_members(run.seed, "prime", FRESH_PRIME) {
            let (p, _) = lift(member);
            client.solve_module(&p.job).expect("priming solve");
            primed.push(p);
        }
        FreshStack {
            server,
            dir,
            primed,
            pool,
        }
    }

    /// Client `c`'s `j`-th request: a pool member under names no request
    /// has used.
    fn input(&self, c: usize, j: usize) -> Input {
        let key = (c * self.pool.len() / CLIENTS + j) % self.pool.len();
        let (p, suffix) = &self.pool[key];
        let job = corpus::renamed(
            &p.job,
            suffix,
            &format!("r{c}n{j}"),
            format!("fresh_{c}_{j}"),
        );
        Input {
            key: j,
            job: Arc::new(job),
            instructions: p.instructions,
        }
    }

    fn stop(self) {
        self.server.shutdown();
        drop(self.dir);
    }
}

/// Two clients direct to one `serve` (persistence on); every request is a
/// member of one of a few shared libraries under never-seen member names,
/// so library SCCs hit and member SCCs miss, insert, evict and append to
/// the store.
pub fn fresh_serve(run: &Run, tr: &Tracer) -> Report {
    let lattice = Lattice::c_types();
    let mut setups = Vec::new();
    let st = timed(&mut setups, || FreshStack::start(run, 0, tr));
    let pool: Vec<&Prepared> = st.pool.iter().map(|(p, _)| p).collect();
    let mut details = input_details(run, &pool);
    let addr = st.server.addr();
    let mut m = Metrics::default();
    let ev0 = evictions(&[addr]);
    let rss0 = proc_status_kb("VmRSS");
    let issued = AtomicUsize::new(0);
    let peak_at = OnceLock::new();
    let next = |c: usize, j: usize| {
        if issued.fetch_add(1, Ordering::Relaxed) == FRESH_PEAK_REQUESTS {
            let _ = peak_at.set(proc_status_kb("VmHWM"));
        }
        st.input(c, j)
    };
    let (segments, loop_peak_kb) = serve_segments(run, tr, addr, &next, &mut m);
    let ev = evictions(&[addr]) - ev0;
    let rss_growth = proc_status_kb("VmRSS") - rss0;

    // Every report is checked after the loop against `Solver::infer` of
    // its rebuilt input, so the loop holds no modules.
    let ops: Vec<&Op> = segments.iter().flat_map(|(ops, _)| ops).collect();
    let matched: BTreeSet<(usize, usize)> = split2(&ops, |chunk| {
        chunk
            .iter()
            .filter(|op| match op.outcome {
                Outcome::Solved { digest, .. } => {
                    let job = st.input(op.client, op.key).job;
                    digest_of(&job.name, &Solver::new(&lattice).infer(&job.program)) == digest
                }
                _ => false,
            })
            .map(|op| (op.client, op.key))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let (mut t, mut phase) = tally(&segments, |op, _| matched.contains(&(op.client, op.key)));
    // A loop too short to reach the request count reports its own peak.
    phase.peak_kb = peak_at.get().copied().unwrap_or(loop_peak_kb);
    details.push((
        "peak_rss_requests".into(),
        issued
            .load(Ordering::Relaxed)
            .min(FRESH_PEAK_REQUESTS)
            .to_string(),
    ));
    if run.trace {
        loop_layers(&mut m, &t, ev, rss_growth);
        let sample: Vec<&Prepared> = st.primed.iter().take(6).collect();
        t.wrong += core_probe(&mut m, &lattice, &sample, tr);
        let gw = stack::start_gateway(&[addr]);
        layer_probes(&mut m, &lattice, &sample, gw.addr(), &[addr], tr);
        gw.shutdown();
    } else {
        for rep in 1..SETUPS {
            timed(&mut setups, || FreshStack::start(run, rep, tr)).stop();
        }
        // p97: a segment holds some 650 requests, so at least ten lie
        // beyond it even on a host a third slower.
        let acc = corpus_accuracy(run, &lattice);
        end_to_end(&mut m, &mut details, &phase, 0.97, &setups, &acc);
    }
    st.stop();
    Report {
        attempted: t.attempted,
        failed: t.failed,
        wrong: t.wrong,
        metrics: m,
        details,
    }
}
