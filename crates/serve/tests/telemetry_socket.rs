//! Live-socket telemetry acceptance tests (issue 8):
//!
//! * the v2 `metrics` request round-trips over a real socket with
//!   non-empty latency histograms, and for a shard-count-independent
//!   quantity (`shard.job_constraints`, which records each job's
//!   constraint count — the same multiset however jobs are routed) the
//!   merged buckets and p50/p95/p99 are **bit-identical** at 1 and N
//!   shards;
//! * a request-scoped `trace_id` is echoed on the report, the cold
//!   report's `stats` phase fields (`saturate_ns`, `simplify_ns`,
//!   `sketch_ns`, …) record phase work, and a warm re-solve's are all
//!   zero (cache hits perform no phase work);
//! * with spans enabled, the drained Chrome-trace JSONL reconstructs a
//!   per-phase breakdown of at least one solve: the shard's solve span
//!   contains the driver's solve span, which contains an SCC-phase span,
//!   all attributed to the request's trace id.
//!
//! `driver.*` instruments live in the process-global registry (shared by
//! every test in this binary), so cross-shard-count comparisons here use
//! only `shard.*` instruments, which live in per-server registries.

use std::time::Duration;

use retypd_core::solver::PhaseNs;
use retypd_driver::ModuleJob;
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};
use retypd_serve::{start, Client, ServeConfig};
use retypd_telemetry::{trace_id_hash, MetricsSnapshot};

fn corpus() -> Vec<ModuleJob> {
    let spec = ClusterSpec {
        name: "telem".into(),
        members: 3,
        shared_functions: 6,
        member_functions: 3,
        seed: 818,
        call_depth: 6,
    };
    ProgramGenerator::generate_cluster(&spec)
        .iter()
        .map(|(name, module)| {
            let (mir, _) = compile(module).expect("cluster member compiles");
            ModuleJob {
                name: name.clone(),
                program: retypd_congen::generate(&mir),
            }
        })
        .collect()
}

fn server(shards: usize) -> retypd_serve::ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        workers_per_shard: 1,
        queue_depth: 64,
        cache_capacity: Some(1024),
        read_timeout: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    })
    .expect("bind loopback server")
}

/// Solves the whole corpus once and returns the server's merged metrics.
fn solve_and_probe(shards: usize, jobs: &[ModuleJob]) -> MetricsSnapshot {
    let handle = server(shards);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for job in jobs {
        client.solve_module(job).expect("solve");
    }
    let metrics = client.metrics().expect("metrics probe");
    handle.shutdown();
    metrics
}

#[test]
fn metrics_probe_round_trips_with_bit_identical_quantiles_across_shard_counts() {
    let jobs = corpus();
    let one = solve_and_probe(1, &jobs);
    let three = solve_and_probe(3, &jobs);

    for (shards, m) in [(1, &one), (3, &three)] {
        // Latency histograms must exist and carry this run's samples.
        for name in ["shard.solve_ns", "shard.queue_wait_ns"] {
            let h = m
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} missing at {shards} shard(s)"));
            assert_eq!(h.count, jobs.len() as u64, "{name} at {shards} shard(s)");
            assert!(!h.nonzero_buckets().is_empty(), "{name} empty at {shards} shard(s)");
            let (p50, p95, p99) = (h.quantile(50, 100), h.quantile(95, 100), h.quantile(99, 100));
            assert!(p50 > 0 && p95 >= p50 && p99 >= p95, "{name} quantiles");
        }
        assert_eq!(m.counter("shard.jobs"), jobs.len() as u64);
        // The merged reply is name-sorted regardless of how many shard
        // registries fed it.
        let names: Vec<&str> = m.histograms.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "histograms not name-sorted at {shards} shard(s)");
    }

    // The deterministic histogram: each job records its constraint count,
    // a shard-count-independent multiset, so the merged buckets — and
    // therefore p50/p95/p99 — must be bit-identical at 1 and 3 shards.
    let a = one.histogram("shard.job_constraints").expect("at 1 shard");
    let b = three.histogram("shard.job_constraints").expect("at 3 shards");
    assert_eq!(a, b, "merged job_constraints histogram differs across shard counts");
    assert_eq!(a.count, jobs.len() as u64);
    assert!(a.quantile(50, 100) > 0 && a.quantile(99, 100) >= a.quantile(50, 100));
}

#[test]
fn trace_id_echoes_and_cold_reports_carry_phase_timing() {
    let jobs = corpus();
    let handle = server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let cold = client
        .solve_module_traced(&jobs[0], None, Some("pr8-cold-trace"))
        .expect("traced solve");
    assert_eq!(cold.trace_id.as_deref(), Some("pr8-cold-trace"));
    let timing = cold.stats.phases;
    assert!(
        timing.saturate_ns > 0 || timing.simplify_ns > 0 || timing.sketch_ns > 0,
        "cold timing breakdown is all-zero: {timing:?}"
    );

    // A verbatim warm re-solve is a cache hit: no phase work was performed
    // for it, so the report must omit the breakdown rather than repeat the
    // remembered cold numbers.
    let warm = client
        .solve_module_traced(&jobs[0], None, Some("pr8-warm-trace"))
        .expect("warm traced solve");
    assert_eq!(warm.trace_id.as_deref(), Some("pr8-warm-trace"));
    assert_eq!(warm.stats.phases, PhaseNs::default(), "warm cache hit reported phase work");

    // Untraced requests stay untraced.
    let plain = client.solve_module(&jobs[1]).expect("untraced solve");
    assert!(plain.trace_id.is_none());
    handle.shutdown();
}

#[test]
fn drained_spans_reconstruct_a_per_phase_solve_breakdown() {
    let jobs = corpus();
    retypd_telemetry::set_spans_enabled(true);
    let handle = server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let report = client
        .solve_module_traced(&jobs[0], None, Some("pr8-span-trace"))
        .expect("traced solve");
    assert_eq!(report.trace_id.as_deref(), Some("pr8-span-trace"));
    // Joining the server flushes every worker's ring before the drain.
    handle.shutdown();
    retypd_telemetry::set_spans_enabled(false);

    let (events, _dropped) = retypd_telemetry::drain_spans();
    let trace = trace_id_hash("pr8-span-trace");
    let ours: Vec<_> = events.iter().filter(|e| e.trace_id == trace).collect();

    let find = |name: &str| {
        ours.iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no {name} span for the traced request"))
    };
    let shard = find("serve.shard_solve");
    let solve = find("driver.solve");
    let scc = ours
        .iter()
        .find(|e| e.name == "driver.scc_solve" || e.name == "driver.scc_refine")
        .expect("no SCC-phase span for the traced request");

    // The spans nest: shard solve ⊇ driver solve ⊇ SCC phase — that
    // containment is what lets a trace viewer reconstruct the per-phase
    // breakdown of the solve.
    let contains = |outer: &retypd_telemetry::SpanEvent, inner: &retypd_telemetry::SpanEvent| {
        outer.start_ns <= inner.start_ns
            && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    };
    assert!(contains(shard, solve), "driver.solve not inside serve.shard_solve");
    assert!(contains(solve, scc), "SCC phase span not inside driver.solve");

    // The Chrome-trace JSONL (what `serve --trace-dir` writes) carries the
    // same breakdown: one complete event per line, attributed to the trace.
    let jsonl = retypd_telemetry::chrome_trace_json(&events);
    let hex = format!("{trace:016x}");
    let mut attributed = 0;
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
        if line.contains(&hex) {
            attributed += 1;
        }
    }
    assert!(
        attributed >= 3,
        "expected the shard, driver, and SCC spans in the JSONL; found {attributed}"
    );
    for name in ["serve.shard_solve", "driver.solve"] {
        assert!(
            jsonl.contains(&format!("\"name\":\"{name}\"")),
            "JSONL lacks a {name} event"
        );
    }
}

/// The interner's size is exported: solving a module under never-seen
/// names grows `intern.symbols` and `intern.bytes` in the `metrics` reply.
/// The module travels as raw wire text, so only the server's decode
/// interns its names.
#[test]
fn metrics_export_interner_growth_after_a_renamed_module() {
    use retypd_serve::wire::{read_frame, write_frame, WireProc};
    use retypd_serve::{Request, Response, WireModule};

    let handle = server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let before = client.metrics().expect("metrics before");

    let proc_name = format!("intern_probe_leaf_{}", std::process::id());
    let module = WireModule {
        name: "intern_probe".into(),
        procs: vec![WireProc {
            name: proc_name.clone(),
            constraints: format!("{proc_name}.in_stack0 <= t; t.load.σ32@0 <= int"),
            callsites: Vec::new(),
        }],
        externals: Vec::new(),
        globals: Vec::new(),
    };
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
    write_frame(&mut raw, &Request::solve_module(module).encode()).expect("send module");
    let reply = read_frame(&mut raw).expect("read reply").expect("a reply frame");
    assert!(
        matches!(Response::decode(&reply), Ok(Response::Solved(_))),
        "the renamed module must solve"
    );

    let after = client.metrics().expect("metrics after");
    assert!(
        after.gauge("intern.symbols") > before.gauge("intern.symbols"),
        "intern.symbols did not grow: {} -> {}",
        before.gauge("intern.symbols"),
        after.gauge("intern.symbols")
    );
    assert!(
        after.gauge("intern.bytes") >= before.gauge("intern.bytes") + proc_name.len() as i64,
        "intern.bytes must count the new name"
    );
    handle.shutdown();
}
