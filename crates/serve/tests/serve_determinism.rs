//! Live-socket determinism and admission-control tests: a real server on a
//! loopback socket must produce byte-identical results to in-process
//! `AnalysisDriver::solve_batch` (and the sequential solver) at 1 and N
//! shards — in both the single-frame and streaming batch modes — refuse
//! overload immediately instead of hanging, segregate caches per lattice,
//! bound stalled connections with a read timeout, and drain gracefully on
//! shutdown with the final frames delivered.

use retypd_core::{Lattice, LatticeDescriptor, Solver};
use retypd_driver::{AnalysisDriver, DriverConfig, ModuleJob};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};
use retypd_serve::wire::WireReport;
use retypd_serve::{start, Client, ClientError, ServeConfig};

fn corpus() -> Vec<ModuleJob> {
    let spec = ClusterSpec {
        name: "det".into(),
        members: 3,
        shared_functions: 6,
        member_functions: 3,
        seed: 515,
        call_depth: 6,
    };
    let mut jobs: Vec<ModuleJob> = ProgramGenerator::generate_cluster(&spec)
        .iter()
        .map(|(name, module)| {
            let (mir, _) = compile(module).expect("cluster member compiles");
            ModuleJob {
                name: name.clone(),
                program: retypd_congen::generate(&mir),
            }
        })
        .collect();
    // A verbatim re-submission exercises the warm shard path.
    let resubmit = ModuleJob {
        name: format!("{}+resubmit", jobs[0].name),
        program: jobs[0].program.clone(),
    };
    jobs.push(resubmit);
    jobs
}

fn server(shards: usize, queue_depth: usize) -> retypd_serve::ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        workers_per_shard: 1,
        queue_depth,
        cache_capacity: Some(1024),
        ..ServeConfig::default()
    })
    .expect("bind loopback server")
}

#[test]
fn socket_results_match_in_process_and_sequential_at_1_and_n_shards() {
    let jobs = corpus();
    let lattice = Lattice::c_types();

    // In-process references: the driver batch API and the plain solver.
    let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(2));
    let in_process: Vec<String> = driver
        .solve_batch(&jobs)
        .iter()
        .map(|r| WireReport::from_result(&r.name, &r.result).canonical_text())
        .collect();
    for (job, want) in jobs.iter().zip(&in_process) {
        let seq = Solver::new(&lattice).infer(&job.program);
        assert_eq!(
            WireReport::from_result(&job.name, &seq).canonical_text(),
            *want,
            "driver batch diverged from sequential solver on {}",
            job.name
        );
    }

    for shards in [1usize, 3] {
        let handle = server(shards, 64);
        let mut client = Client::connect(handle.addr()).expect("connect");
        let reports = client.solve_batch(&jobs).expect("batch solves");
        assert_eq!(reports.len(), jobs.len());
        for (report, (job, want)) in reports.iter().zip(jobs.iter().zip(&in_process)) {
            assert_eq!(report.name, job.name, "order preserved");
            assert_eq!(
                report.canonical_text(),
                *want,
                "{} over the socket at {shards} shard(s) diverged",
                job.name
            );
            assert!(report.shard < shards);
        }
        // Content routing: the re-submitted module repeats its original's
        // fingerprint and shard, and solves as a pure cache hit.
        let (first, resub) = (&reports[0], reports.last().unwrap());
        assert_eq!(first.fingerprint, resub.fingerprint);
        assert_eq!(first.shard, resub.shard, "same content, same shard");
        assert_eq!(resub.stats.cache_misses, 0, "warm path must not re-solve");
        handle.shutdown();
    }
}

#[test]
fn streaming_batch_is_bit_identical_to_v1_and_sequential() {
    let jobs = corpus();
    let lattice = Lattice::c_types();
    let sequential: Vec<String> = jobs
        .iter()
        .map(|j| {
            WireReport::from_result(&j.name, &Solver::new(&lattice).infer(&j.program))
                .canonical_text()
        })
        .collect();

    for shards in [1usize, 3] {
        let handle = server(shards, 64);

        // The single-frame reply (`v1` below, the batch's original reply
        // mode, not a protocol version) as the reference, over the same
        // live socket.
        let mut v1_client = Client::connect(handle.addr()).expect("connect v1");
        let v1: Vec<WireReport> = v1_client.solve_batch(&jobs).expect("v1 batch");

        // Streaming: one report frame per module plus batch_done.
        let mut client = Client::connect(handle.addr()).expect("connect stream");
        let mut stream = client
            .solve_batch_stream(&jobs, None)
            .expect("stream admitted");
        let mut by_index: Vec<Option<WireReport>> = vec![None; jobs.len()];
        while let Some(item) = stream.next() {
            let (index, report) = item.expect("no per-module failures");
            assert!(
                by_index[index].replace(report).is_none(),
                "index {index} reported twice"
            );
        }
        let summary = stream.summary().expect("terminal batch_done").clone();
        assert_eq!(summary.modules, jobs.len());
        assert_eq!(summary.delivered, jobs.len());
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        assert_eq!(summary.lattice_fp, lattice.fingerprint());

        // The reassembled set is bit-identical to the single-frame reply
        // and to the sequential solver, module for module.
        for (i, slot) in by_index.iter().enumerate() {
            let streamed = slot.as_ref().expect("every module reported");
            assert_eq!(streamed.name, jobs[i].name, "order tag preserved");
            assert_eq!(
                streamed.canonical_text(),
                v1[i].canonical_text(),
                "{} streamed vs v1 at {shards} shard(s)",
                jobs[i].name
            );
            assert_eq!(
                streamed.canonical_text(),
                sequential[i],
                "{} streamed vs sequential at {shards} shard(s)",
                jobs[i].name
            );
            assert_eq!(streamed.lattice_fp, lattice.fingerprint());
        }
        // The same connection stays usable for further requests after a
        // completed stream.
        let again = client.solve_module(&jobs[0]).expect("post-stream request");
        assert_eq!(again.canonical_text(), sequential[0]);
        handle.shutdown();
    }
}

#[test]
fn custom_lattice_solves_end_to_end_with_segregated_cache() {
    let jobs = corpus();
    // An extended c_types: one extra tag under `int`. Every constant the
    // generated corpus mentions still exists and no existing join/meet
    // changes (a new leaf in a tree perturbs nothing above it), so the
    // canonical results must match c_types — while the fingerprint, and
    // therefore every cache key, must differ.
    let custom: LatticeDescriptor = {
        let mut b = Lattice::c_types_builder();
        b.add_under("#ServeTestTag", "int").expect("fresh tag");
        // The stock builder wired ⊥ under everything *before* the new tag
        // existed; close the lattice again.
        b.le("⊥", "#ServeTestTag").expect("known");
        b.set_name("c_types_ext");
        b.build()
            .expect("extended c_types is a lattice")
            .descriptor()
            .clone()
    };
    let custom_fp = custom.build().expect("builds").fingerprint();
    let default_fp = Lattice::c_types().fingerprint();
    assert_ne!(custom_fp, default_fp);

    let handle = server(2, 64);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Warm the default lattice.
    let d1 = client.solve_module(&jobs[0]).expect("default cold");
    assert_eq!(d1.lattice_fp, default_fp);
    assert!(d1.stats.cache_misses > 0);
    let d2 = client.solve_module(&jobs[0]).expect("default warm");
    assert_eq!(d2.stats.cache_misses, 0, "default re-solve must be warm");

    // The same module under the custom lattice must MISS (no cross-lattice
    // hits), then warm within its own lattice.
    let c1 = client
        .solve_module_in(&jobs[0], Some(&custom))
        .expect("custom cold");
    assert_eq!(c1.lattice_fp, custom_fp);
    assert!(
        c1.stats.cache_misses > 0,
        "custom lattice must not hit the default lattice's entries"
    );
    let c2 = client
        .solve_module_in(&jobs[0], Some(&custom))
        .expect("custom warm");
    assert_eq!(c2.stats.cache_misses, 0, "custom re-solve must be warm");
    assert_eq!(c1.canonical_text(), c2.canonical_text());
    // Conservative extension: same canonical answer as the default.
    assert_eq!(c1.canonical_text(), d1.canonical_text());

    // Streaming with a custom lattice carries its fingerprint end to end.
    let mut stream = client
        .solve_batch_stream(&jobs[..2], Some(&custom))
        .expect("custom stream admitted");
    while let Some(item) = stream.next() {
        let (_, report) = item.expect("no failures");
        assert_eq!(report.lattice_fp, custom_fp);
    }
    assert_eq!(stream.summary().expect("batch_done").lattice_fp, custom_fp);

    // A malformed descriptor is a client-visible error, not a hang.
    let bogus = "lattice broken { a ; b <= a }".parse::<LatticeDescriptor>();
    assert!(bogus.is_err(), "unknown element rejected at parse time");
    match client.solve_module_in(
        &jobs[0],
        Some(
            &"lattice d { x y ; }"
                .parse::<LatticeDescriptor>()
                .expect("parses"),
        ),
    ) {
        // x and y are incomparable with no bounds: not a lattice.
        Err(ClientError::Server(m)) => assert!(m.contains("bad lattice"), "{m}"),
        other => panic!("expected a server error for a non-lattice, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn stalled_connections_time_out_with_a_protocol_error() {
    use std::io::Write as _;

    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        read_timeout: Some(std::time::Duration::from_millis(300)),
        ..ServeConfig::default()
    })
    .expect("bind");

    // Idle connection: no bytes at all.
    let mut idle = std::net::TcpStream::connect(handle.addr()).expect("connect idle");
    let reply = retypd_serve::wire::read_frame(&mut idle)
        .expect("error frame delivered")
        .expect("frame, not EOF");
    match retypd_serve::Response::decode(&reply).expect("decodes") {
        retypd_serve::Response::Error(m) => assert!(m.contains("timed out"), "{m}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    assert!(
        retypd_serve::wire::read_frame(&mut idle)
            .map(|f| f.is_none())
            .unwrap_or(true),
        "connection closed after the timeout error"
    );

    // Stalled mid-frame: half a length prefix, then nothing.
    let mut stalled = std::net::TcpStream::connect(handle.addr()).expect("connect stalled");
    stalled.write_all(&[0, 0]).expect("partial prefix");
    let reply = retypd_serve::wire::read_frame(&mut stalled)
        .expect("error frame delivered")
        .expect("frame, not EOF");
    match retypd_serve::Response::decode(&reply).expect("decodes") {
        retypd_serve::Response::Error(m) => assert!(m.contains("timed out"), "{m}"),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // A healthy client on the same server is unaffected.
    let jobs = corpus();
    let mut client = Client::connect(handle.addr()).expect("connect healthy");
    let report = client
        .solve_module(&jobs[0])
        .expect("healthy request solves");
    assert_eq!(report.name, jobs[0].name);
    handle.shutdown();
}

#[test]
fn repeat_submissions_are_warm_on_every_shard_count() {
    let jobs = corpus();
    for shards in [1usize, 2] {
        let handle = server(shards, 64);
        let mut client = Client::connect(handle.addr()).expect("connect");
        let cold = client.solve_batch(&jobs).expect("cold batch");
        let warm = client.solve_batch(&jobs).expect("warm batch");
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.canonical_text(), w.canonical_text(), "{}", c.name);
            assert_eq!(w.stats.cache_misses, 0, "{} warm re-solve", w.name);
        }
        let stats = client.stats().expect("stats");
        let total_jobs: u64 = stats.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(total_jobs, 2 * jobs.len() as u64);
        handle.shutdown();
    }
}

#[test]
fn overload_returns_overloaded_not_a_hang() {
    use retypd_core::sync::atomic::{AtomicBool, Ordering};
    use retypd_core::sync::Arc;
    use std::time::{Duration, Instant};

    let jobs = corpus();
    let n = jobs.len();
    // Admission budget equal to one batch: two batches cannot be in flight
    // at once, so contention from a second client must surface as an
    // immediate `Overloaded` (never a hang, never partial admission).
    let handle = server(1, n);
    let stop = Arc::new(AtomicBool::new(false));
    let looper = {
        let jobs = jobs.clone();
        let addr = handle.addr();
        let stop = Arc::clone(&stop);
        retypd_core::sync::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("looper connects");
            while !stop.load(Ordering::Relaxed) {
                match c.solve_batch(&jobs) {
                    Ok(_) | Err(ClientError::Overloaded { .. }) => {}
                    other => panic!("looper expected Solved or Overloaded, got {other:?}"),
                }
            }
        })
    };
    let mut client = Client::connect(handle.addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut refusal = None;
    while Instant::now() < deadline {
        match client.solve_batch(&jobs) {
            Err(ClientError::Overloaded { queued, limit }) => {
                refusal = Some((queued, limit));
                break;
            }
            Ok(reports) => assert_eq!(reports.len(), n),
            other => panic!("expected Solved or Overloaded, got {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    looper.join().expect("looper thread");
    let (queued, limit) = refusal.expect("contention never produced Overloaded");
    assert_eq!(limit, n);
    assert!(
        queued >= 1 && queued <= limit,
        "refused with {queued} in flight"
    );
    // The refusal is accounted and the server still serves once the
    // contention is gone.
    let stats = client.stats().expect("stats");
    assert!(stats.rejected >= 1, "overload refusals are counted");
    let report = client.solve_module(&jobs[0]).expect("single module fits");
    assert_eq!(report.name, jobs[0].name);
    handle.shutdown();
}

#[test]
fn oversized_batch_is_a_permanent_error_not_overload() {
    let jobs = corpus();
    // A batch bigger than the whole admission budget can never be admitted:
    // that must be a permanent error naming the limit (an `Overloaded`
    // would send a retrying client into an infinite loop), and it must not
    // be counted as overload pressure.
    let handle = server(2, jobs.len() - 1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.solve_batch(&jobs) {
        Err(ClientError::Server(m)) => {
            assert!(
                m.contains(&format!("admission limit of {}", jobs.len() - 1)),
                "error names the limit: {m}"
            );
        }
        other => panic!("expected a permanent server error, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected, 0, "not an overload rejection");
    assert_eq!(stats.queued, 0, "no partial admission leaked");
    let report = client.solve_module(&jobs[0]).expect("single module fits");
    assert_eq!(report.name, jobs[0].name);
    handle.shutdown();
}

#[test]
fn shutdown_drains_gracefully() {
    let jobs = corpus();
    let handle = server(2, 64);
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Work submitted before the drain completes normally.
    let reports = client.solve_batch(&jobs).expect("pre-drain batch");
    assert_eq!(reports.len(), jobs.len());
    // The ack frame is *required*: connection handlers are joined on
    // drain, so its delivery is guaranteed, not best-effort.
    client
        .shutdown()
        .expect("shutdown acknowledged with a delivered frame");
    // Post-drain work is refused or the (draining) connection is already
    // closed — never a hang, never a solve.
    match client.solve_module(&jobs[0]) {
        Err(ClientError::ShuttingDown) => {}
        Err(ClientError::Wire(_)) | Err(ClientError::Unexpected(_)) => {}
        other => panic!("expected refusal or closed connection, got {other:?}"),
    }
    // All server threads — acceptor, shards, *and connection handlers* —
    // exit.
    handle.join();
}

#[test]
fn shutdown_ack_is_delivered_on_every_cycle() {
    // The PR-4 workaround treated a hang-up as a successful drain because
    // the ack frame was cut off roughly 30% of the time. With tracked,
    // joined connection handlers the ack must arrive on every cycle.
    for cycle in 0..12 {
        let handle = server(1, 8);
        let mut client = Client::connect(handle.addr()).expect("connect");
        client
            .shutdown()
            .unwrap_or_else(|e| panic!("cycle {cycle}: ack not delivered: {e}"));
        handle.join();
    }
}

#[test]
fn a_busy_connection_cannot_hold_the_drain_open() {
    use std::time::Duration;

    // One connection asks for `stats` every 20 ms, the way a gateway's
    // health probe reuses a pooled socket. Each frame arrives before an
    // idle poll tick could notice the drain, so the drain must be checked
    // at frame boundaries for shutdown to finish.
    let handle = server(1, 8);
    let addr = handle.addr();
    let (probing, probed) = retypd_core::sync::mpsc::channel();
    let prober = retypd_core::sync::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect prober");
        while client.stats().is_ok() {
            let _ = probing.send(());
            retypd_core::sync::thread::sleep(Duration::from_millis(20));
        }
    });
    probed.recv().expect("first probe answered");
    // The shutdown runs on its own thread and this one is the watchdog:
    // a drain that hangs fails the test instead of hanging the suite.
    let (done, finished) = retypd_core::sync::mpsc::channel();
    let shutdown = retypd_core::sync::thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(Duration::from_secs(2)).is_ok(),
        "shutdown still blocked after 2 s by a connection that keeps sending"
    );
    shutdown.join().expect("shutdown thread");
    prober.join().expect("prober sees the close");
}
