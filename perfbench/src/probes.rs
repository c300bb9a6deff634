//! Per-layer probes of a traced run. Each probe times calls into one
//! layer's public functions on a sample of the workload's modules, inside
//! spans; the per-layer metrics are then read off the spans.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use retypd_core::{callsite_actuals, BaseVar, Condensation, Lattice, Solver};
use retypd_driver::fingerprint::{program_fp, refine_fingerprint, scc_fingerprint, scheme_fp};
use retypd_driver::{AnalysisDriver, DriverConfig};
use retypd_gateway::{route_key, Ring};
use retypd_serve::{Client, Request, Response, WireModule, WireReport};

use crate::corpus::Prepared;
use crate::replica;
use crate::report::Metrics;
use crate::stack::WorkDir;
use crate::trace::Tracer;

/// Rounds each probe makes over its sample.
const ROUNDS: usize = 3;

/// A new single-worker driver with an unbounded cache: every SCC of its
/// first solve misses.
pub fn fresh_driver(lattice: &Lattice, persist: Option<std::path::PathBuf>) -> AnalysisDriver<'_> {
    AnalysisDriver::with_config(
        lattice,
        DriverConfig {
            workers: 1,
            cache_capacity: None,
            persist_path: persist,
        },
    )
}

/// Driver layer: cold overhead over `Solver::infer` (rotated pairs), a
/// primed driver's warm solve, and the fingerprint pass a solve makes.
pub fn driver(lattice: &Lattice, sample: &[&Prepared], tr: &Tracer) {
    for round in 0..ROUNDS {
        for p in sample {
            let program = &p.job.program;
            let cold = || {
                tr.span("driver.cold_solve", 0, || {
                    fresh_driver(lattice, None).solve(program)
                })
            };
            let infer = || tr.span("core.infer", 0, || Solver::new(lattice).infer(program));
            if round % 2 == 0 {
                drop(cold());
                drop(infer());
            } else {
                drop(infer());
                drop(cold());
            }
        }
    }
    let primed = fresh_driver(lattice, None);
    for p in sample {
        primed.solve(&p.job.program);
    }
    for _ in 0..ROUNDS {
        for p in sample {
            drop(tr.span("driver.warm_solve", 0, || primed.solve(&p.job.program)));
        }
    }
    let off = Tracer::new(false);
    let lattice_fp = lattice.fingerprint();
    for p in sample {
        let program = &p.job.program;
        let solved = replica::solve(lattice, program, &off, 0);
        let mut scheme_fps: BTreeMap<_, _> = program
            .externals
            .iter()
            .map(|(n, s)| (*n, scheme_fp(s)))
            .collect();
        let mut sketches = solved.actual_sketches;
        for (name, r) in &solved.result.procs {
            scheme_fps.insert(*name, scheme_fp(&r.scheme));
            if let Some(s) = &r.sketch {
                sketches.insert(BaseVar::Var(*name), s.clone());
            }
        }
        let cond = Condensation::compute(program);
        let actuals = callsite_actuals(program);
        for _ in 0..ROUNDS {
            tr.span("driver.fingerprint", 0, || {
                let mut h = program_fp(program);
                let fps: Vec<u64> = cond
                    .sccs
                    .iter()
                    .map(|scc| scc_fingerprint(lattice_fp, program, scc, &cond.scc_of, &scheme_fps))
                    .collect();
                for (scc, fp) in cond.sccs.iter().zip(&fps).rev() {
                    h ^= refine_fingerprint(*fp, program, scc, &actuals, &sketches);
                }
                std::hint::black_box(h)
            });
        }
    }
}

/// Persistent store: flush after a miss-heavy solve, then replay on
/// construction over the populated log. Returns the replayed entries.
pub fn store(lattice: &Lattice, sample: &[&Prepared], tr: &Tracer) -> u64 {
    let dir = WorkDir::new("store-probe");
    let path = dir.join("probe.store");
    {
        let d = fresh_driver(lattice, Some(path.clone()));
        for p in sample {
            d.solve(&p.job.program);
            tr.span("store.flush", 0, || d.flush_store());
        }
    }
    let mut replayed = 0;
    for _ in 0..ROUNDS {
        let d = tr.span("store.replay", 0, || {
            fresh_driver(lattice, Some(path.clone()))
        });
        replayed = d.persist_stats().map_or(0, |s| s.replayed_entries);
    }
    replayed
}

/// Wire codec: both ends of a `solve_module` exchange, in process.
/// Returns mean request and reply sizes in KiB.
pub fn codec(lattice: &Lattice, sample: &[&Prepared], tr: &Tracer) -> (f64, f64) {
    let (mut req_bytes, mut reply_bytes, mut n) = (0usize, 0usize, 0usize);
    for p in sample {
        let reply = Response::Solved(vec![WireReport::from_result(
            &p.job.name,
            &Solver::new(lattice).infer(&p.job.program),
        )]);
        for _ in 0..ROUNDS {
            let payload = tr.span("serve.encode", 0, || {
                Request::solve_module(WireModule::from_job(&p.job)).encode()
            });
            let decoded = tr.span("serve.decode", 0, || Request::decode(&payload));
            if let Ok(Request::SolveModule { module, .. }) = decoded {
                drop(tr.span("serve.to_job", 0, || module.to_job()));
            }
            let bytes = tr.span("serve.reply_encode", 0, || reply.encode());
            drop(tr.span("serve.reply_decode", 0, || Response::decode(&bytes)));
            req_bytes += payload.len();
            reply_bytes += bytes.len();
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    (
        req_bytes as f64 / n / 1024.0,
        reply_bytes as f64 / n / 1024.0,
    )
}

/// Round trips: direct to the module's backend and routed through the
/// gateway, alternating which goes first; plus the gateway's routing
/// decision itself.
pub fn round_trips(
    sample: &[&Prepared],
    gateway: SocketAddr,
    backends: &[SocketAddr],
    tr: &Tracer,
) {
    let slots: Vec<usize> = (0..backends.len()).collect();
    let ring = Ring::build(&slots);
    let lattice_fp = Lattice::c_types().fingerprint();
    let mut routed = Client::connect(gateway).expect("connect gateway");
    let mut direct: Vec<Client> = backends
        .iter()
        .map(|a| Client::connect(a).expect("connect backend"))
        .collect();
    for p in sample {
        let key = route_key(lattice_fp, p.job.fingerprint());
        let slot = ring.route(key).expect("ring has slots");
        // Prime, so both paths measure the same warm cache.
        routed.solve_module(&p.job).expect("routed solve");
        for round in 0..ROUNDS * 2 {
            let mut d = || {
                tr.span("serve.rtt", 0, || direct[slot].solve_module(&p.job))
                    .expect("direct solve")
            };
            let mut r = || {
                tr.span("gateway.rtt", 0, || routed.solve_module(&p.job))
                    .expect("routed solve")
            };
            if round % 2 == 0 {
                d();
                r();
            } else {
                r();
                d();
            }
        }
        tr.span("gateway.route", 0, || {
            for i in 0..ROUTE_CALLS {
                std::hint::black_box(ring.route(route_key(lattice_fp, key ^ i)));
            }
        });
    }
}

/// `route_key` + `Ring::route` calls per `gateway.route` span.
const ROUTE_CALLS: u64 = 1000;

/// The core layer names, in pipeline order.
pub const CORE_LAYERS: [&str; 10] = [
    "core.condense",
    "core.p1.combine",
    "core.p1.saturate",
    "core.p1.quotient",
    "core.p1.extract",
    "core.p2.combine",
    "core.p2.saturate",
    "core.p2.quotient",
    "core.p2.transducer",
    "core.p2.sketch",
];

/// Reads the per-layer metrics off the spans' per-name (count, total ns,
/// self ns) from [`crate::trace::layer_times`]. Core times are per replica
/// solve, the rest per call; `core.coverage` is the core spans' share of
/// the replica's wall.
pub fn span_metrics(t: &BTreeMap<&'static str, (u64, u64, u64)>, m: &mut Metrics) {
    let mean_ms = |name: &str| {
        t.get(name)
            .map_or(0.0, |&(n, ns, _)| ns as f64 / 1e6 / n.max(1) as f64)
    };
    m.set("minic.compile_ms", mean_ms("minic.compile"), "ms");
    m.set("congen.generate_ms", mean_ms("congen.generate"), "ms");
    let (solves, replica_ns, _) = t.get("replica.solve").copied().unwrap_or_default();
    let mut core_ns = 0;
    for name in CORE_LAYERS {
        let ns = t.get(name).map_or(0, |&(_, ns, _)| ns);
        core_ns += ns;
        m.set(
            format!("{name}_ms"),
            ns as f64 / 1e6 / solves.max(1) as f64,
            "ms",
        );
    }
    m.set(
        "core.coverage",
        core_ns as f64 / replica_ns.max(1) as f64,
        "ratio",
    );
    m.set(
        "driver.cold_overhead_ms",
        mean_ms("driver.cold_solve") - mean_ms("core.infer"),
        "ms",
    );
    for name in [
        "driver.fingerprint",
        "driver.warm_solve",
        "store.flush",
        "store.replay",
        "serve.rtt",
    ] {
        m.set(format!("{name}_ms"), mean_ms(name), "ms");
    }
    // The in-process costs of a warm direct round trip; the rest of it is
    // socket, queue and thread hand-off.
    let mut in_process = mean_ms("driver.warm_solve");
    for name in SERVE_CODEC {
        in_process += mean_ms(name);
        m.set(format!("{name}_ms"), mean_ms(name), "ms");
    }
    let rtt = mean_ms("serve.rtt");
    m.set("serve.wait_ms", rtt - in_process, "ms");
    m.set("gateway.hop_ms", mean_ms("gateway.rtt") - rtt, "ms");
    m.set(
        "gateway.route_us",
        mean_ms("gateway.route") * 1e3 / ROUTE_CALLS as f64,
        "us",
    );
}

/// The wire codec spans of [`codec`].
const SERVE_CODEC: [&str; 5] = [
    "serve.encode",
    "serve.decode",
    "serve.to_job",
    "serve.reply_encode",
    "serve.reply_decode",
];
