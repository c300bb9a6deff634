//! The `serve` binary as a real process: it binds an ephemeral port and
//! announces it through `--banner-file`, answers bit-identically to the
//! sequential solver, exposes its metrics as text, acks `shutdown` and
//! exits 0 after writing `--trace-dir`'s Chrome trace and the
//! `--metrics-text` file at drain. A relaunch on the same `--persist-dir`
//! replays its stores and answers first contact with zero cache misses.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use retypd_core::{Lattice, Solver};
use retypd_driver::ModuleJob;
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{ClusterSpec, ProgramGenerator};
use retypd_serve::wire::WireReport;
use retypd_serve::{parse_ready_banner, Client};

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("retypd-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned server, killed and reaped on drop so a failing assertion
/// leaks no process.
struct Server(Child);

impl Server {
    fn spawn(args: &[&str]) -> Server {
        let child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        Server(child)
    }

    /// Waits for the process to exit on its own.
    fn wait_exit(&mut self, timeout: Duration) -> ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.0.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "serve did not exit after shutdown"
            );
            retypd_core::sync::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn corpus() -> Vec<ModuleJob> {
    let spec = ClusterSpec {
        name: "proc".into(),
        members: 3,
        shared_functions: 5,
        member_functions: 2,
        seed: 7411,
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

/// Polls `path` until it holds a readiness banner and connects to it.
fn connect_via_banner(path: &Path, server: &Server) -> Client {
    let deadline = Instant::now() + Duration::from_secs(30);
    let (addr, pid, shards) = loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if let Some(parsed) = parse_ready_banner(&text) {
            break parsed;
        }
        assert!(Instant::now() < deadline, "banner file never appeared");
        retypd_core::sync::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(pid, server.0.id());
    assert_eq!(shards, 2);
    Client::connect_retry(addr, Duration::from_secs(10)).expect("connect")
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn serve_process_flushes_telemetry_at_drain_and_warm_restarts() {
    let jobs = corpus();
    let lattice = Lattice::c_types();
    let want: Vec<String> = jobs
        .iter()
        .map(|j| {
            WireReport::from_result(&j.name, &Solver::new(&lattice).infer(&j.program))
                .canonical_text()
        })
        .collect();

    let dir = TempDir::new("serve-proc");
    let store = dir.0.join("store");
    let trace = dir.0.join("trace");
    let metrics = dir.0.join("metrics.txt");
    let banner = dir.0.join("first.banner");
    let mut first = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--banner-file",
        path_arg(&banner),
        "--persist-dir",
        path_arg(&store),
        "--trace-dir",
        path_arg(&trace),
        "--metrics-text",
        path_arg(&metrics),
    ]);
    let mut client = connect_via_banner(&banner, &first);
    let cold = client.solve_batch(&jobs).expect("cold batch");
    for (i, r) in cold.iter().enumerate() {
        assert_eq!(r.canonical_text(), want[i], "{} cold", jobs[i].name);
    }
    let text = client.metrics_text().expect("metrics text");
    assert!(text.contains("# TYPE shard_solve_ns histogram"), "{text}");
    client.shutdown().expect("shutdown is acked");
    assert!(first.wait_exit(Duration::from_secs(30)).success());

    let spans = std::fs::read_to_string(trace.join("serve-trace.jsonl")).unwrap_or_default();
    assert!(!spans.is_empty(), "the drain wrote no trace");
    let exposition = std::fs::read_to_string(&metrics).unwrap_or_default();
    assert!(
        exposition.contains("shard_jobs"),
        "metrics file: {exposition:?}"
    );

    // Relaunch on the same stores: the first contact is already warm.
    let banner = dir.0.join("second.banner");
    let mut second = Server::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--banner-file",
        path_arg(&banner),
        "--persist-dir",
        path_arg(&store),
    ]);
    let mut client = connect_via_banner(&banner, &second);
    let stats = client.stats().expect("stats");
    let replayed: u64 = stats.shards.iter().map(|s| s.replayed_entries).sum();
    assert!(replayed > 0, "no shard replayed its store");
    let warm = client
        .solve_batch(&jobs)
        .expect("first contact after restart");
    for (i, r) in warm.iter().enumerate() {
        assert_eq!(
            r.canonical_text(),
            want[i],
            "{} after restart",
            jobs[i].name
        );
        assert_eq!(
            r.stats.cache_misses, 0,
            "{} missed after restart",
            jobs[i].name
        );
    }
    client.shutdown().expect("shutdown is acked");
    assert!(second.wait_exit(Duration::from_secs(30)).success());
}
