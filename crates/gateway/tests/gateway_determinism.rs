//! Routing topology must be invisible in results: a client solving
//! through a gateway over 1, 2, or 4 backends — including a membership
//! change mid-run — gets byte-identical reports to the sequential
//! solver. Also pins the gateway's warm affinity (a re-submitted batch
//! is all cache hits), its stats/metrics aggregation, and the hedged
//! request's exactly-one-reply contract under an artificially slow
//! backend.

use std::time::{Duration, Instant};

use retypd_core::{Lattice, Solver};
use retypd_driver::ModuleJob;
use retypd_gateway::{server, BackendSpec, GatewayConfig, GatewayHandle};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};
use retypd_serve::wire::WireReport;
use retypd_serve::{start as serve_start, Client, ServeConfig, ServerHandle};

fn corpus() -> Vec<ModuleJob> {
    let spec = ClusterSpec {
        name: "gw".into(),
        members: 4,
        shared_functions: 5,
        member_functions: 3,
        seed: 929,
        call_depth: 5,
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

fn sequential(jobs: &[ModuleJob]) -> Vec<String> {
    let lattice = Lattice::c_types();
    jobs.iter()
        .map(|j| {
            WireReport::from_result(&j.name, &Solver::new(&lattice).infer(&j.program))
                .canonical_text()
        })
        .collect()
}

fn backend(solve_delay: Option<Duration>) -> ServerHandle {
    serve_start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        workers_per_shard: 1,
        queue_depth: 64,
        cache_capacity: Some(1024),
        solve_delay,
        ..ServeConfig::default()
    })
    .expect("bind backend")
}

/// A gateway fronting `n` fresh in-process backends. Fast health sweeps
/// keep membership-change tests quick.
fn gateway(backends: &[&ServerHandle], hedge_after: Option<Duration>) -> GatewayHandle {
    server::start(
        GatewayConfig {
            health_interval: Duration::from_millis(50),
            hedge_after,
            ..GatewayConfig::default()
        },
        backends
            .iter()
            .map(|h| BackendSpec::External { addr: h.addr() })
            .collect(),
    )
    .expect("gateway starts")
}

#[test]
fn results_are_bit_identical_to_sequential_at_1_2_and_4_backends() {
    let jobs = corpus();
    let want = sequential(&jobs);
    for n in [1usize, 2, 4] {
        let backends: Vec<ServerHandle> = (0..n).map(|_| backend(None)).collect();
        let gw = gateway(&backends.iter().collect::<Vec<_>>(), None);
        let mut client = Client::connect(gw.addr()).expect("connect");

        // Single-frame batch.
        let reports = client.solve_batch(&jobs).expect("batch through gateway");
        assert_eq!(reports.len(), jobs.len());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.name, jobs[i].name, "submission order preserved");
            assert_eq!(
                r.canonical_text(),
                want[i],
                "{} diverged through {n} backend(s)",
                jobs[i].name
            );
        }

        // Streaming batch: every index exactly once, same bytes.
        let mut stream = client
            .solve_batch_stream(&jobs, None)
            .expect("stream admitted");
        let mut by_index: Vec<Option<WireReport>> = vec![None; jobs.len()];
        while let Some(item) = stream.next() {
            let (index, report) = item.expect("no per-module failures");
            assert!(
                by_index[index].replace(report).is_none(),
                "index {index} reported twice — duplicate reply leaked"
            );
        }
        let summary = stream.summary().expect("terminal batch_done").clone();
        assert_eq!(summary.modules, jobs.len());
        assert_eq!(summary.delivered, jobs.len());
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        for (i, slot) in by_index.iter().enumerate() {
            assert_eq!(
                slot.as_ref().expect("every module reported").canonical_text(),
                want[i]
            );
        }
        gw.shutdown();
        for b in backends {
            b.shutdown();
        }
    }
}

#[test]
fn warm_affinity_makes_resubmissions_pure_cache_hits() {
    let jobs = corpus();
    let backends: Vec<ServerHandle> = (0..3).map(|_| backend(None)).collect();
    let gw = gateway(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = Client::connect(gw.addr()).expect("connect");

    let cold = client.solve_batch(&jobs).expect("cold batch");
    let warm = client.solve_batch(&jobs).expect("warm batch");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.canonical_text(), w.canonical_text(), "{}", c.name);
        assert_eq!(
            w.stats.cache_misses, 0,
            "{}: consistent hashing must re-route to the warm backend",
            w.name
        );
    }

    // Aggregated stats see the whole fleet: every solved job is counted
    // and the shard list spans all backends' shards.
    let stats = client.stats().expect("aggregated stats");
    let total_jobs: u64 = stats.shards.iter().map(|s| s.jobs).sum();
    assert_eq!(total_jobs, 2 * jobs.len() as u64);
    assert_eq!(stats.shards.len(), 3 * 2, "3 backends x 2 shards each");
    // The liveness fields are the gateway's own: its pid and a start time
    // fixed when it started.
    assert_eq!(stats.pid, u64::from(std::process::id()));
    assert!(stats.start_ns > 0, "gateway reports its start time");
    let again = client.stats().expect("aggregated stats again");
    assert_eq!(again.start_ns, stats.start_ns, "start time is fixed at start");

    // Merged metrics carry both gateway and backend instruments.
    let metrics = client.metrics().expect("merged metrics");
    assert!(metrics.counter("gateway.requests") > 0, "gateway's own counters present");
    assert_eq!(
        metrics.counter("serve.admitted_jobs"),
        2 * jobs.len() as u64,
        "backend registries merged (summed across the fleet)"
    );
    // A merged histogram is the bucket-wise sum of each backend's own
    // `metrics` reply.
    let mut want = retypd_telemetry::HistogramSnapshot::default();
    for b in &backends {
        let own = Client::connect(b.addr())
            .and_then(|mut c| c.metrics())
            .expect("backend metrics");
        let h = own
            .histogram("shard.job_constraints")
            .expect("backend job_constraints");
        want.count += h.count;
        want.sum += h.sum;
        for (w, c) in want.buckets.iter_mut().zip(&h.buckets) {
            *w += c;
        }
    }
    let merged = metrics
        .histogram("shard.job_constraints")
        .expect("merged job_constraints");
    assert_eq!(merged, &want, "gateway merge is not the bucket-wise sum");
    assert_eq!(merged.count, 2 * jobs.len() as u64);
    gw.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn membership_change_mid_run_reshards_deterministically() {
    let jobs = corpus();
    let want = sequential(&jobs);
    let backends: Vec<ServerHandle> = (0..3).map(|_| backend(None)).collect();
    let gw = gateway(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = Client::connect(gw.addr()).expect("connect");

    let cold = client.solve_batch(&jobs).expect("cold batch");
    for (i, r) in cold.iter().enumerate() {
        assert_eq!(r.canonical_text(), want[i]);
    }
    let epoch0 = gw.ring_epoch();

    // Evict slot 1: the supervisor notices the (operator-injected) death,
    // re-shards, and — the backend actually still being alive — re-adds
    // it on a later sweep, re-sharding back to the original map.
    gw.kill_backend(1);
    assert!(gw.ring_epoch() > epoch0, "eviction must re-shard");
    let during = client.solve_batch(&jobs).expect("batch during eviction");
    for (i, r) in during.iter().enumerate() {
        assert_eq!(
            r.canonical_text(),
            want[i],
            "{} diverged while slot 1 was out",
            jobs[i].name
        );
    }

    // Wait for the re-add.
    let deadline = Instant::now() + Duration::from_secs(10);
    while gw.healthy_slots().len() < 3 {
        assert!(Instant::now() < deadline, "slot 1 never re-added");
        retypd_core::sync::thread::sleep(Duration::from_millis(20));
    }
    let after = client.solve_batch(&jobs).expect("batch after re-add");
    for (i, r) in after.iter().enumerate() {
        assert_eq!(r.canonical_text(), want[i]);
    }
    // The restored ring is the original map: modules go back to their
    // warm owners, so the post-re-add batch is all cache hits.
    for r in &after {
        assert_eq!(
            r.stats.cache_misses, 0,
            "{}: re-add must restore the original routing",
            r.name
        );
    }
    gw.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn dead_backend_is_evicted_and_requests_reroute() {
    let jobs = corpus();
    let want = sequential(&jobs);
    let backends: Vec<ServerHandle> = (0..2).map(|_| backend(None)).collect();
    let survivor_addr = backends[0].addr();
    let gw = gateway(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = Client::connect(gw.addr()).expect("connect");
    let _ = client.solve_batch(&jobs).expect("cold batch");

    // Actually stop backend 1's server; its port goes dead.
    let mut backends = backends;
    backends.remove(1).shutdown();
    let batch = client.solve_batch(&jobs).expect("re-routed batch");
    for (i, r) in batch.iter().enumerate() {
        assert_eq!(
            r.canonical_text(),
            want[i],
            "{} diverged after backend death",
            jobs[i].name
        );
    }
    // Only the survivor remains routed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while gw.healthy_slots() != vec![0] {
        assert!(Instant::now() < deadline, "dead backend never evicted");
        retypd_core::sync::thread::sleep(Duration::from_millis(20));
    }
    let again = client.solve_batch(&jobs).expect("all traffic on survivor");
    for (i, r) in again.iter().enumerate() {
        assert_eq!(r.canonical_text(), want[i]);
    }
    assert_eq!(survivor_addr, backends[0].addr());
    gw.shutdown();
    backends.remove(0).shutdown();
}

#[test]
fn hedged_request_beats_a_slow_backend_with_exactly_one_reply() {
    let jobs = corpus();
    let want = sequential(&jobs);

    // Decide which slot the probe module routes to on a 2-slot ring,
    // then make exactly that slot's backend artificially slow. The
    // stall is pure latency (injected before the solve), so the hedge
    // race cannot change bytes — only who delivers them.
    let probe = &jobs[0];
    let key = retypd_gateway::route_key(
        Lattice::c_types().fingerprint(),
        probe.fingerprint(),
    );
    let slow_slot = retypd_gateway::Ring::build(&[0, 1])
        .route(key)
        .expect("two-slot ring routes");
    let stall = Duration::from_secs(8);
    let handles: Vec<ServerHandle> = (0..2)
        .map(|slot| backend((slot == slow_slot).then_some(stall)))
        .collect();
    let gw = gateway(
        &handles.iter().collect::<Vec<_>>(),
        Some(Duration::from_millis(150)),
    );
    let mut client = Client::connect(gw.addr()).expect("connect");

    let started = Instant::now();
    let report = client.solve_module(probe).expect("hedged solve");
    let took = started.elapsed();
    assert_eq!(report.canonical_text(), want[0], "hedged result identical");
    assert!(
        took < stall,
        "hedge never fired: the solve took the slow backend's full {stall:?}"
    );

    // Exactly one reply crossed the gateway: the same connection must
    // stay perfectly framed for the next request.
    let stats = client.stats().expect("connection still framed");
    assert!(stats.accepted >= 1);

    let snap = gw.metrics_snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(get("gateway.hedge_fired") >= 1, "hedge timer must have fired");
    assert!(get("gateway.hedge_won") >= 1, "fast backend must have won");
    gw.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn gateway_refuses_cleanly_while_draining() {
    let jobs = corpus();
    let b = backend(None);
    let gw = gateway(&[&b], None);
    let mut client = Client::connect(gw.addr()).expect("connect");
    let _ = client.solve_module(&jobs[0]).expect("pre-drain solve");
    client.shutdown().expect("drain acknowledged");
    gw.join();
    b.shutdown();
}
