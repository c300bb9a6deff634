//! Failure-path tests against *real backend processes*: the gateway
//! spawns `serve_backend` children (the sibling binary sharing `serve`'s
//! main), and this suite kill -9s one mid-batch. The batch must complete
//! over re-routing with no lost or duplicated reports; the supervisor
//! must restart the child onto its original persist dir; and the
//! restarted process must answer its first re-routed request from the
//! replayed persistent store. Also pins the stdout readiness banner and
//! the `pid`/`start_ns` liveness fields end to end, and drives the
//! `gateway` binary itself: its banners, a kill -9 of one of its
//! backends, metrics text through it, and a drain that stops every
//! backend before the gateway exits 0.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use retypd_core::{Lattice, Solver};
use retypd_driver::ModuleJob;
use retypd_gateway::{server, Backend, BackendSpec, GatewayConfig};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};
use retypd_serve::wire::WireReport;
use retypd_serve::Client;

fn corpus() -> Vec<ModuleJob> {
    let spec = ClusterSpec {
        name: "gwproc".into(),
        members: 4,
        shared_functions: 4,
        member_functions: 2,
        seed: 433,
        call_depth: 4,
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

fn backend_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_serve_backend"))
}

/// A scratch dir under the system temp dir, unique per test and removed
/// on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("retypd-gw-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn kill9_mid_batch_reroutes_restarts_and_warm_replays() {
    let jobs = corpus();
    let lattice = Lattice::c_types();
    let want: Vec<String> = jobs
        .iter()
        .map(|j| {
            WireReport::from_result(&j.name, &Solver::new(&lattice).infer(&j.program))
                .canonical_text()
        })
        .collect();

    let store = Scratch::new("kill9");
    let spec = |slot: usize| BackendSpec::Spawn {
        program: backend_bin(),
        args: vec!["--shards".into(), "1".into()],
        persist_dir: Some(store.join(format!("slot-{slot}"))),
    };
    let gw = server::start(
        GatewayConfig {
            health_interval: Duration::from_millis(100),
            ..GatewayConfig::default()
        },
        vec![spec(0), spec(1)],
    )
    .expect("gateway over two spawned backends");
    let mut client = Client::connect(gw.addr()).expect("connect");

    // Cold pass: populates both backends' caches *and* persistent stores.
    let cold = client.solve_batch(&jobs).expect("cold batch");
    for (i, r) in cold.iter().enumerate() {
        assert_eq!(r.canonical_text(), want[i], "{} cold", jobs[i].name);
    }
    let victim = 1usize;
    let old_pid = gw.backend_pid(victim);
    assert_ne!(old_pid, 0, "spawned backend announced its pid");

    // kill -9 the victim mid-batch: start a streaming batch (the
    // constructor returns once the first report frame arrives, so work
    // is in flight), then slam the child.
    let mut stream = client
        .solve_batch_stream(&jobs, None)
        .expect("stream admitted");
    gw.kill_backend(victim);

    // The batch completes over re-routing: every index exactly once,
    // no losses, no duplicates, bytes identical to the sequential solver.
    let mut seen = vec![false; jobs.len()];
    while let Some(item) = stream.next() {
        let (i, report) = item.expect("no per-module failures despite the kill");
        assert!(
            !std::mem::replace(&mut seen[i], true),
            "index {i} reported twice — duplicate reply crossed the gateway"
        );
        assert_eq!(
            report.canonical_text(),
            want[i],
            "{} diverged after the kill",
            jobs[i].name
        );
    }
    assert!(seen.iter().all(|&s| s), "a report was lost in the re-route");
    let summary = stream.summary().expect("terminal batch_done").clone();
    assert_eq!(summary.delivered, jobs.len());
    assert!(summary.errors.is_empty(), "{:?}", summary.errors);

    // The supervisor restarts the victim (same slot, same persist dir)
    // and re-adds it once it probes healthy.
    let deadline = Instant::now() + Duration::from_secs(30);
    while gw.healthy_slots().len() < 2 {
        assert!(
            Instant::now() < deadline,
            "killed backend was never restarted and re-added"
        );
        retypd_core::sync::thread::sleep(Duration::from_millis(50));
    }
    let new_pid = gw.backend_pid(victim);
    assert_ne!(new_pid, old_pid, "re-added backend must be a new process");

    // With the original ring restored, the whole corpus re-solves warm:
    // the survivor from its live cache, the restarted victim from its
    // *replayed* store — its first re-routed requests, answered warm.
    let warm = client.solve_batch(&jobs).expect("warm batch after restart");
    for (i, r) in warm.iter().enumerate() {
        assert_eq!(r.canonical_text(), want[i], "{} warm", jobs[i].name);
        assert_eq!(
            r.stats.cache_misses, 0,
            "{}: the restarted backend must answer from its replayed store",
            jobs[i].name
        );
    }

    // The gateway's own counters recorded the episode.
    let snap = gw.metrics_snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(get("gateway.evicted") >= 1, "eviction counted");
    assert!(get("gateway.restarts") >= 1, "restart counted");
    assert!(get("gateway.readded") >= 1, "re-add counted");

    gw.shutdown();
}

#[test]
fn readiness_banner_and_liveness_fields_work_end_to_end() {
    // Via the supervision path: launch announces the banner's pid.
    let b = Backend::new(
        0,
        BackendSpec::Spawn {
            program: backend_bin(),
            args: vec!["--shards".into(), "1".into()],
            persist_dir: None,
        },
    );
    let addr = b.launch(Duration::from_secs(30)).expect("banner parsed");
    let mut client = Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pid, b.pid(), "stats pid matches the banner pid");
    assert!(stats.start_ns > 0, "start_ns exposed for restart detection");
    b.kill();

    // Via a banner *file* on an ephemeral port — how a harness finds a
    // server without assuming a fixed free port.
    let dir = Scratch::new("banner");
    let banner_path = dir.join("serve.banner");
    let mut child = std::process::Command::new(backend_bin())
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--banner-file",
            banner_path.to_str().expect("utf8 path"),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve_backend");
    let deadline = Instant::now() + Duration::from_secs(30);
    let banner = loop {
        if let Ok(text) = std::fs::read_to_string(&banner_path) {
            if let Some(parsed) = retypd_serve::parse_ready_banner(text.trim_end()) {
                break parsed;
            }
        }
        assert!(Instant::now() < deadline, "banner file never appeared");
        retypd_core::sync::thread::sleep(Duration::from_millis(50));
    };
    let (addr, pid, shards) = banner;
    assert_eq!(shards, 1);
    assert_eq!(pid, child.id());
    let mut client = Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
    let stats = client.stats().expect("stats over the banner-file addr");
    assert_eq!(stats.pid, pid as u64);
    client.shutdown().expect("graceful drain");
    let _ = child.wait();
}

/// A spawned `gateway` process. On drop it and every backend pid it
/// announced are killed, so a failing assertion leaks no process.
struct GatewayProcess {
    child: Child,
    backend_pids: Vec<u32>,
}

impl Drop for GatewayProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in &self.backend_pids {
            if alive(*pid) {
                kill9(*pid);
            }
        }
    }
}

/// Whether `pid` names a live (not zombie) process.
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            let state = stat.rsplit_once(") ")?.1.chars().next()?;
            Some(state != 'Z' && state != 'X')
        })
        .unwrap_or(false)
}

fn kill9(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// The value of `key=` in a whitespace-separated banner line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
}

#[test]
fn gateway_binary_echoes_backends_survives_kill9_and_drains_them() {
    let jobs = corpus();
    let dir = Scratch::new("binary");
    let banner = dir.join("gateway.banner");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gateway"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .args(["--backends", "2", "--persist-dir"])
        .arg(dir.join("store"))
        .arg("--banner-file")
        .arg(&banner)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gateway");
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut gw = GatewayProcess {
        child,
        backend_pids: Vec::new(),
    };
    let (tx, lines) = retypd_core::sync::mpsc::channel::<String>();
    retypd_core::sync::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            if tx.send(line.unwrap_or_default()).is_err() {
                break;
            }
        }
    });
    // Reads stdout until slot `i` has echoed `want[i]` backend lines in
    // all, recording each pid so the drop guard can reap it, and returns
    // each slot's latest pid.
    let mut echoes: Vec<Vec<u32>> = vec![Vec::new(); 2];
    let mut await_echoes = |gw: &mut GatewayProcess, want: [usize; 2]| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while echoes.iter().zip(want).any(|(e, w)| e.len() < w) {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = lines.recv_timeout(left).expect("backend echo line");
            if !line.starts_with("RETYPD_GATEWAY_BACKEND ") {
                continue;
            }
            let slot: usize = field(&line, "slot").and_then(|v| v.parse().ok()).expect("slot");
            let pid: u32 = field(&line, "pid").and_then(|v| v.parse().ok()).expect("pid");
            gw.backend_pids.push(pid);
            echoes[slot].push(pid);
        }
        [*echoes[0].last().unwrap(), *echoes[1].last().unwrap()]
    };
    let first = await_echoes(&mut gw, [1, 1]);

    let deadline = Instant::now() + Duration::from_secs(30);
    let line = loop {
        let text = std::fs::read_to_string(&banner).unwrap_or_default();
        if text.starts_with("RETYPD_GATEWAY_READY ") {
            break text;
        }
        assert!(Instant::now() < deadline, "gateway banner file never appeared");
        retypd_core::sync::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(field(&line, "pid"), Some(gw.child.id().to_string().as_str()));
    assert_eq!(field(&line, "backends"), Some("2"));
    let addr: std::net::SocketAddr = field(&line, "addr").expect("addr").parse().expect("addr");
    let mut client = Client::connect_retry(addr, Duration::from_secs(10)).expect("connect");
    client.solve_batch(&jobs).expect("batch through the gateway");

    // kill -9 one backend: the supervisor echoes its replacement.
    kill9(first[1]);
    let restarted = await_echoes(&mut gw, [1, 2]);
    assert_ne!(restarted[1], first[1], "slot 1 must be a new process");
    assert_eq!(restarted[0], first[0]);
    client.solve_batch(&jobs).expect("batch after the kill");

    let text = client.metrics_text().expect("metrics text through the gateway");
    assert!(text.contains("# TYPE gateway_requests counter"), "{text}");
    assert!(text.contains("# TYPE shard_solve_ns histogram"), "{text}");

    client.shutdown().expect("shutdown is acked");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = gw.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "gateway did not exit after shutdown");
        retypd_core::sync::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "gateway exited with {status}");
    for pid in restarted {
        assert!(!alive(pid), "backend {pid} outlived the gateway's drain");
    }
}
