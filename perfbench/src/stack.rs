//! The in-process serving stack (`serve` backends, optionally behind a
//! `gateway`) and the closed-loop clients that drive it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use retypd_driver::ModuleJob;
use retypd_gateway::{BackendSpec, GatewayConfig, GatewayHandle};
use retypd_serve::{Client, ClientError, ServeConfig, ServerHandle, WireReport};

use crate::corpus::fnv;
use crate::trace::Tracer;

/// A per-process working directory under `perfbench/out` (persist dirs,
/// probe stores), removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = PathBuf::from("perfbench/out").join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        WorkDir(dir)
    }

    pub fn join(&self, p: impl AsRef<Path>) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `serve` with the default configuration (2 shards, bounded cache),
/// persisting to `persist_dir` when given.
pub fn start_serve(persist_dir: Option<PathBuf>) -> ServerHandle {
    retypd_serve::start(ServeConfig {
        persist_dir,
        ..ServeConfig::default()
    })
    .expect("serve binds a loopback port")
}

/// A gateway with the default configuration (hedging off) in front of
/// already-running servers.
pub fn start_gateway(backends: &[SocketAddr]) -> GatewayHandle {
    let specs = backends
        .iter()
        .map(|&addr| BackendSpec::External { addr })
        .collect();
    retypd_gateway::start(GatewayConfig::default(), specs).expect("gateway starts")
}

/// How one request ended.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    /// Solved; FNV digest of the report's canonical text, and the
    /// report's SCC cache hits and misses.
    Solved { digest: u64, hits: u64, misses: u64 },
    /// Refused by admission control (`overloaded`).
    Refused,
    /// Any other failure.
    Failed,
}

/// One request's input: which input it is (a corpus index or a
/// per-client sequence number), the module, and its instruction count.
pub struct Input {
    pub key: usize,
    pub job: Arc<ModuleJob>,
    pub instructions: usize,
}

/// One closed-loop request.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub client: usize,
    /// Which input: a corpus index or a per-client sequence number.
    pub key: usize,
    pub latency_ns: u64,
    pub instructions: usize,
    pub outcome: Outcome,
}

pub fn digest(report: &WireReport) -> u64 {
    fnv(report.canonical_text().as_bytes())
}

/// One `Client::solve_module` round trip, inside a `client.request` span.
fn request(
    client: &mut Client,
    job: &ModuleJob,
    tr: &Tracer,
    req: u64,
) -> Result<WireReport, Outcome> {
    tr.span("client.request", req, || client.solve_module(job))
        .map_err(|e| match e {
            ClientError::Overloaded { .. } => Outcome::Refused,
            _ => Outcome::Failed,
        })
}

/// Runs `clients` closed-loop clients against `addr` until `duration`
/// has passed. Client `c`'s `j`-th request sends `next(c, j)`; the
/// request clock covers only the round trip, the digest is taken after it.
/// Returns every op and the phase wall time.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    tr: &Tracer,
    next: &(dyn Fn(usize, usize) -> Input + Sync),
) -> (Vec<Op>, Duration) {
    let start = Instant::now();
    let deadline = start + duration;
    let ops: Vec<Op> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Client::connect(addr).expect("connect");
                    let mut ops = Vec::new();
                    let mut j = 0;
                    while Instant::now() < deadline {
                        let input = next(c, j);
                        let req = ((c as u64) << 40) | j as u64;
                        let t0 = Instant::now();
                        let r = request(&mut conn, &input.job, tr, req);
                        let latency_ns = t0.elapsed().as_nanos() as u64;
                        let outcome = match r {
                            Ok(report) => Outcome::Solved {
                                digest: digest(&report),
                                hits: report.stats.cache_hits,
                                misses: report.stats.cache_misses,
                            },
                            Err(o) => {
                                if matches!(o, Outcome::Failed) {
                                    conn = Client::connect(addr).expect("connect");
                                }
                                o
                            }
                        };
                        ops.push(Op {
                            client: c,
                            key: input.key,
                            latency_ns,
                            instructions: input.instructions,
                            outcome,
                        });
                        j += 1;
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (ops, start.elapsed())
}
