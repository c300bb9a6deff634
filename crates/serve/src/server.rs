//! The sharded analysis server.
//!
//! ## Architecture
//!
//! ```text
//!            accept()      structure check     bounded admission            shard threads
//!  client ──▶ acceptor ──▶ conn handler ──▶ [queued < limit?] ──▶ shard 0: AnalysisDriver + cache
//!  client ──▶            ──▶ conn handler ──▶        │         ──▶ shard 1: AnalysisDriver + cache
//!                          (no parse)      reject: Overloaded    …  (route: fingerprint % shards;
//!                                                                    parse at the first miss)
//! ```
//!
//! * **One driver per shard.** Each shard thread owns a long-lived
//!   [`AnalysisDriver`] (owned lattice, bounded cache) for its whole life.
//!   Modules are routed by [`WireModule::fingerprint`]` % shards` — a hash
//!   of the wire text as it arrived, equal to `ModuleJob::fingerprint`
//!   for canonically rendered modules — so a re-submitted module always
//!   lands on the shard whose cache already holds its SCCs, and no
//!   constraint text is re-rendered to route it. The shard keys the
//!   module's SCCs from the same text ([`AnalysisDriver::solve_text`]),
//!   so the warm path is a pure fingerprint hit that parses nothing.
//! * **Admission control.** A global in-flight job counter guards the
//!   queues: a request whose batch would push the count past
//!   [`ServeConfig::queue_depth`] is refused with `overloaded` *before*
//!   anything is enqueued (no partial admission), so an overloaded server
//!   answers immediately instead of stacking work. A batch larger than the
//!   whole budget could never be admitted, so it gets a permanent `error`
//!   naming the limit instead of an `overloaded` a retrying client would
//!   chase forever.
//! * **Panic isolation.** A solver panic is caught on the shard thread:
//!   the job's admission slot is released, the client gets an `error`
//!   response naming the module, and the shard rebuilds its driver (cold
//!   cache) and keeps serving — one hostile module cannot kill a shard.
//! * **Per-request lattices (protocol v2).** A solve request may carry a
//!   [`retypd_core::LatticeDescriptor`]; the server validates and builds
//!   it once per connection request (memoized server-wide), shards pass
//!   it to [`AnalysisDriver::solve_text`], and every
//!   scheme-cache key mixes in the lattice fingerprint — two lattices
//!   never share cache entries. Absent descriptor ⇒ `c_types`.
//! * **One solve path.** `solve_module` and both `solve_batch` modes go
//!   through one function: pre-admission checks (the lattice, then each
//!   module's [`WireModule::structure`]: names, callees, external
//!   subjects and globals), admission, shard dispatch of the module's
//!   text, and a [`wire::BatchReply`] fed with the shards' results.
//!   [`WireModule`] is the driver's one text form of a module
//!   ([`retypd_driver::TextModule`]), so [`WireModule::into_text`] moves
//!   the module as it arrived into the shard job beside its checked
//!   structure, copying no string; a structure it refuses is worded as a
//!   [`wire::WireError::Protocol`], the gateway's wording too. The
//!   connection thread parses no constraint text: a shard parses it at
//!   the solve's first cache miss, and text that does not parse is that
//!   module's `error`, in either reply mode. With `stream: true` it
//!   writes one `report` frame per module the moment its shard finishes
//!   it, plus a terminal `batch_done` — time-to-first-report beats
//!   whole-batch latency because modules stream while siblings still
//!   solve. Otherwise it writes one frame, with failures joined in
//!   submission order.
//! * **Hardened connections.** Accept, polled reads, read timeouts,
//!   per-connection budgets and the drain join are [`crate::conn`]'s job;
//!   this module supplies only the per-frame handler (its metrics, the
//!   solve path and the control replies).
//! * **Graceful drain.** `shutdown` (wire message or
//!   [`ServerHandle::shutdown`]) stops admissions, lets every queued job
//!   finish, and joins the shard *and connection* threads; in-flight
//!   responses are delivered before the listener goes away.
//!
//! Determinism: shard routing is content-addressed and each module solves
//! on exactly one driver, so results are bit-identical to in-process
//! [`AnalysisDriver::solve_batch`] — pinned by `tests/serve_determinism.rs`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use retypd_core::sync::thread::JoinHandle;
use retypd_core::sync::{mpsc, Arc, Mutex};
use retypd_core::{Interner, Lattice, LatticeDescriptor, SolverResult};
use retypd_driver::{AnalysisDriver, DriverConfig, LatticeMemo, ModuleText};
use retypd_telemetry::{trace_id_hash, Counter, Histogram, MetricsSnapshot, Registry};

use crate::admission::Admission;
use crate::conn;
use crate::stats_cells::ShardStatsCells;

use crate::wire::{self, Request, Response, WireModule, WireReport, WireStats};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Number of shards (each owns one driver and one cache).
    pub shards: usize,
    /// Worker threads inside each shard's wave scheduler.
    pub workers_per_shard: usize,
    /// Admission limit: maximum modules admitted but not yet finished.
    /// Clamped to at least 1 (a depth of 0 would permanently reject all
    /// work).
    pub queue_depth: usize,
    /// Per-shard driver cache capacity (see
    /// [`DriverConfig::cache_capacity`]); a resident service must bound its
    /// caches, so unlike the driver default this is `Some` out of the box.
    pub cache_capacity: Option<usize>,
    /// How long a connection may sit idle (or stall mid-frame) before the
    /// server replies with a protocol `error` and closes it; `None`
    /// disables the timeout. A half-open client can otherwise pin a
    /// connection thread forever. The same value (or 30 s when disabled)
    /// also bounds blocking *writes*, so a client that stops reading its
    /// streamed replies cannot wedge a handler — and therefore cannot
    /// wedge the drain that joins it.
    pub read_timeout: Option<Duration>,
    /// Cap on cumulative frames one connection may send over its lifetime;
    /// the frame that crosses the budget gets a protocol `error` naming
    /// the limit and the connection is closed. `None` disables the cap.
    /// Bounds how much total work a single endlessly-reconnecting-averse
    /// client can extract from one accepted socket.
    pub max_frames_per_conn: Option<u64>,
    /// Cap on cumulative bytes (payloads plus their 4-byte length
    /// prefixes) one connection may send; enforced like
    /// [`ServeConfig::max_frames_per_conn`]. `None` disables the cap.
    pub max_bytes_per_conn: Option<u64>,
    /// Directory for per-shard persistent scheme stores
    /// (`shard-<N>.store` under it; created if absent). When set, each
    /// shard's cache survives process restarts *and* panic rebuilds: the
    /// replacement driver replays the store instead of starting cold.
    /// `None` (the default) keeps shard caches process-lifetime only.
    pub persist_dir: Option<PathBuf>,
    /// Artificial per-job delay injected on the shard thread *before* the
    /// solve — a chaos/testing seam (`serve --solve-delay-ms`) for
    /// exercising tail-latency machinery (the gateway's hedged requests)
    /// against a deterministically slow backend. `None` (the default)
    /// adds nothing; results are unaffected either way.
    pub solve_delay: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            workers_per_shard: 1,
            queue_depth: 256,
            cache_capacity: Some(4096),
            read_timeout: Some(Duration::from_secs(30)),
            max_frames_per_conn: Some(100_000),
            max_bytes_per_conn: Some(1 << 30),
            persist_dir: None,
            solve_delay: None,
        }
    }
}

/// A solve job routed to a shard.
struct ShardJob {
    /// Position in the originating batch (responses preserve order).
    index: usize,
    /// The module's structure, checked before admission, and its text,
    /// parsed only if the solve misses the cache.
    job: ModuleText,
    /// [`WireModule::fingerprint`]: the shard key and the report's
    /// `fingerprint`.
    fingerprint: u64,
    /// The lattice to solve against, pre-built and validated by the
    /// connection handler (`c_types` when the request named none).
    lattice: Arc<Lattice>,
    /// When the connection handler enqueued the job — the shard measures
    /// queue wait as `dequeue − enqueued`.
    enqueued: Instant,
    /// Hashed request trace id (0 = untraced): established as the shard
    /// thread's current trace for the duration of the solve, so every span
    /// the solver emits carries it.
    trace: u64,
    /// The request's original trace id string, echoed on the report.
    trace_id: Option<Arc<str>>,
    /// `Err` carries a description of a solver panic on this module.
    reply: mpsc::Sender<(usize, Result<WireReport, String>)>,
}

/// One shard's handle: its queue sender, published statistics, and
/// metrics registry.
struct Shard {
    /// `None` once draining has begun (new sends fail fast).
    tx: Mutex<Option<mpsc::Sender<ShardJob>>>,
    /// Refreshed lock-free by the shard thread after every job.
    stats: ShardStatsCells,
    /// Per-shard instruments (queue wait, solve wall, job size). Every
    /// shard registers the same names, so the `metrics` reply merges them
    /// into one fleet-wide view — bit-identical regardless of shard count
    /// for shard-count-independent quantities like `shard.job_constraints`.
    metrics: Registry,
}

/// Server-wide instruments, resolved once so the per-frame record path is
/// an atomic add with no registry lookup.
struct ServerMetrics {
    registry: Registry,
    conns_opened: Arc<Counter>,
    conns_closed: Arc<Counter>,
    frames: Arc<Counter>,
    frame_decode_ns: Arc<Histogram>,
    frame_bytes: Arc<Histogram>,
    reply_flush_ns: Arc<Histogram>,
    admitted_jobs: Arc<Counter>,
    rejected_batches: Arc<Counter>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        ServerMetrics {
            conns_opened: registry.counter("serve.conns_opened"),
            conns_closed: registry.counter("serve.conns_closed"),
            frames: registry.counter("serve.frames"),
            frame_decode_ns: registry.histogram("serve.frame_decode_ns"),
            frame_bytes: registry.histogram("serve.frame_bytes"),
            reply_flush_ns: registry.histogram("serve.reply_flush_ns"),
            admitted_jobs: registry.counter("serve.admitted_jobs"),
            rejected_batches: registry.counter("serve.rejected_batches"),
            registry,
        }
    }
}

struct Shared {
    shards: Vec<Shard>,
    /// The admission gate: bounded in-flight counter, accepted-batch
    /// count, and the sticky drain flag (see [`crate::admission`]).
    admission: Admission,
    local_addr: SocketAddr,
    /// Descriptor-built lattices memoized server-wide (bounded; shared
    /// across all shards and connections).
    lattices: LatticeMemo,
    /// `Lattice::c_types()`, built once: the lattice of requests that name
    /// none.
    default_lattice: Arc<Lattice>,
    /// Server-wide instruments (connection lifecycle, frame decode,
    /// admission, reply flush).
    metrics: ServerMetrics,
    /// This process's OS pid, echoed in `stats` so a supervisor can tie
    /// the socket to the child it spawned.
    pid: u64,
    /// Process start, nanoseconds since the UNIX epoch: a restarted
    /// backend answers with a larger value, so a supervisor can tell a
    /// recycled process from a surviving one behind the same addr.
    start_ns: u64,
    /// Artificial pre-solve delay (see [`ServeConfig::solve_delay`]).
    solve_delay: Option<Duration>,
}

impl Shared {
    /// Resolves an optional wire descriptor into a ready-to-share lattice,
    /// or a client-visible error message. `None` means the default.
    fn resolve_lattice(
        &self,
        descriptor: Option<&LatticeDescriptor>,
    ) -> Result<Arc<Lattice>, String> {
        let Some(d) = descriptor else {
            return Ok(Arc::clone(&self.default_lattice));
        };
        self.lattices
            .get_or_build(d)
            .map_err(|e| format!("bad lattice: {e}"))
    }
}

impl Shared {
    fn begin_drain(&self) {
        if !self.admission.begin_drain() {
            return; // already draining
        }
        // Hang up the shard queues: shards finish what is buffered, then
        // their `for` loops end.
        for shard in &self.shards {
            shard.tx.lock().expect("shard tx lock").take();
        }
        conn::nudge(self.local_addr);
    }

    fn stats(&self) -> WireStats {
        WireStats {
            accepted: self.admission.accepted(),
            rejected: self.metrics.rejected_batches.get(),
            queued: self.admission.queued(),
            queue_limit: self.admission.limit(),
            pid: self.pid,
            start_ns: self.start_ns,
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.stats.snapshot(i))
                .collect(),
        }
    }

    /// The `metrics` reply: the process-global registry (core + driver
    /// instruments), the server-wide registry, and every shard registry
    /// merged into one name-sorted snapshot. Shard registries register
    /// identical names, so the merged histograms aggregate the fleet —
    /// and because merge re-sorts by name, the reply's ordering (and, for
    /// shard-count-independent quantities, its quantiles) is bit-identical
    /// at 1 and N shards.
    ///
    /// The interner gauges (`intern.symbols`, `intern.bytes`) are read
    /// here, at snapshot time, so interning itself pays nothing for them.
    fn merged_metrics(&self) -> MetricsSnapshot {
        let global = retypd_telemetry::global();
        let interner = Interner::global();
        global.gauge("intern.symbols").set(interner.len() as i64);
        global.gauge("intern.bytes").set(interner.bytes() as i64);
        let mut snap = global.snapshot();
        snap.merge(&self.metrics.registry.snapshot());
        for shard in &self.shards {
            snap.merge(&shard.metrics.snapshot());
        }
        snap
    }
}

/// A running server: its bound address and lifecycle control.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<conn::Acceptor>,
    shard_threads: Vec<JoinHandle<()>>,
}

/// Read-only metrics access that outlives [`ServerHandle::join`].
///
/// `join` consumes the handle, but the `serve` binary still needs one
/// final exposition after the drain (`--metrics-text`); the observer
/// keeps the registries alive exactly long enough to render it. Shard
/// registries are never torn down mid-snapshot — a shard thread exiting
/// only drops its `Sender`, not its `Registry`.
#[derive(Clone)]
pub struct MetricsObserver {
    shared: Arc<Shared>,
}

impl MetricsObserver {
    /// The merged snapshot: process-global + server-wide + every shard.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.merged_metrics()
    }

    /// Prometheus-style text exposition of [`MetricsObserver::snapshot`].
    pub fn text(&self) -> String {
        self.snapshot().to_text()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A cloneable metrics view that survives [`ServerHandle::join`].
    pub fn metrics_observer(&self) -> MetricsObserver {
        MetricsObserver {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Begins a graceful drain and waits for queued work and every server
    /// thread to finish.
    pub fn shutdown(mut self) {
        self.shared.begin_drain();
        self.join_threads();
    }

    /// Blocks until the server drains (a `shutdown` wire message, or
    /// [`ServerHandle::shutdown`] from another handle-owning thread).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // Joining the connection handlers guarantees every final response
        // frame was handed to the kernel before this returns: the delivery
        // contract that retired the exit dwell in the `serve` binary.
        if let Some(a) = self.acceptor.take() {
            a.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// How a shard runs one job. Production is [`solve_job`]; tests inject a
/// panicking hook to pin the shard's panic isolation end to end over a
/// real socket.
type SolveHook = Arc<
    dyn Fn(&AnalysisDriver<'static>, &ModuleText, &Lattice) -> Result<SolverResult, String>
        + Send
        + Sync,
>;

/// The production solve: the job's text against the request lattice,
/// parsed only if the solve misses. `Err` is the text's parse error.
fn solve_job(
    driver: &AnalysisDriver<'static>,
    job: &ModuleText,
    lattice: &Lattice,
) -> Result<SolverResult, String> {
    driver.solve_text(lattice, job)
}

/// Starts a server.
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    start_with_hook(config, Arc::new(solve_job))
}

fn start_with_hook(config: ServeConfig, hook: SolveHook) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shards = config.shards.max(1);

    let mut shard_handles = Vec::new();
    let mut shard_threads = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..shards {
        let (tx, rx) = mpsc::channel::<ShardJob>();
        shard_handles.push(Shard {
            tx: Mutex::new(Some(tx)),
            stats: ShardStatsCells::default(),
            metrics: Registry::new(),
        });
        receivers.push(rx);
    }

    let shared = Arc::new(Shared {
        shards: shard_handles,
        admission: Admission::new(config.queue_depth),
        local_addr,
        lattices: LatticeMemo::new(),
        default_lattice: Arc::new(Lattice::c_types()),
        metrics: ServerMetrics::new(),
        pid: std::process::id() as u64,
        start_ns: std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64),
        solve_delay: config.solve_delay,
    });

    // Per-shard store files: routing is stable (fingerprint % shards), so
    // shard N's log holds exactly the entries shard N will be asked for
    // again — as long as the relaunch uses the same shard count.
    if let Some(dir) = &config.persist_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "persist dir {}: unusable ({e}); serving without persistence",
                dir.display()
            );
        }
    }
    // Shards signal once their driver is built (store replayed, first
    // stats published): `start` returns only after every shard is ready,
    // so a stats probe right after a restart already sees the replay
    // gauges instead of racing driver construction.
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    for (shard_id, rx) in receivers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let hook = Arc::clone(&hook);
        let ready = ready_tx.clone();
        let driver_config = DriverConfig {
            workers: config.workers_per_shard.max(1),
            cache_capacity: config.cache_capacity,
            persist_path: config
                .persist_dir
                .as_ref()
                .map(|dir| dir.join(format!("shard-{shard_id}.store"))),
        };
        shard_threads.push(
            retypd_core::sync::thread::Builder::new()
                .name(format!("retypd-shard-{shard_id}"))
                .spawn(move || shard_main(shard_id, rx, driver_config, shared, hook, ready))
                .expect("spawn shard thread"),
        );
    }
    drop(ready_tx);
    for _ in 0..shards {
        // A hung-up sender means the shard thread died during driver
        // construction; surface it instead of serving with a dead shard.
        ready_rx
            .recv()
            .expect("shard thread died before becoming ready");
    }

    let acceptor = conn::spawn(listener, "retypd", &config, Arc::clone(&shared))?;

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        shard_threads,
    })
}

fn shard_main(
    shard_id: usize,
    rx: mpsc::Receiver<ShardJob>,
    driver_config: DriverConfig,
    shared: Arc<Shared>,
    hook: SolveHook,
    ready: mpsc::Sender<()>,
) {
    // The driver outlives every request: its cache *is* the shard's state.
    let mut driver = AnalysisDriver::owned(Lattice::c_types(), driver_config.clone());
    let mut jobs_done = 0u64;
    let mut rebuilds = 0u64;
    let cells = &shared.shards[shard_id].stats;
    // Resolve the shard instruments once: the per-job record path is then
    // three lock-free atomic adds per histogram. `shard.job_constraints`
    // records a *deterministic* per-job quantity (the lines of the
    // module's procedure constraint text: one per subtype constraint,
    // `VAR` declaration or additive constraint in canonical text, counted
    // without a parse), so the histogram merged across shards is a pure
    // function of the job multiset — the quantile bit-identity the
    // acceptance test pins at 1 vs N shards. The `_ns` histograms are
    // wall-clock and only asserted non-empty.
    let shard_metrics = &shared.shards[shard_id].metrics;
    let queue_wait_ns = shard_metrics.histogram("shard.queue_wait_ns");
    let solve_ns = shard_metrics.histogram("shard.solve_ns");
    let job_constraints = shard_metrics.histogram("shard.job_constraints");
    let jobs_counter = shard_metrics.counter("shard.jobs");
    // Publish before the first job so a `stats` probe right after a
    // (re)start already sees the replay gauges — that is how CI's restart
    // check distinguishes a warm start from a cold one without solving.
    cells.publish(&driver, jobs_done, rebuilds);
    let _ = ready.send(()); // unblocks `start`: this shard is warm and serving
    drop(ready);
    for msg in rx {
        // The job's admission slot, released exactly once on every exit
        // path (the solver panic below included) — dropped explicitly
        // *before* the reply send so a client acting on its response
        // already sees the freed slot in a `stats` probe.
        let slot = shared.admission.slot_guard();
        let start = Instant::now();
        queue_wait_ns.record(start.duration_since(msg.enqueued).as_nanos() as u64);
        let procs = &msg.job.module().procs;
        job_constraints.record(
            procs
                .iter()
                .map(|p| p.constraints.lines().count() as u64)
                .sum(),
        );
        // The chaos seam: stall *before* solving so injected slowness is
        // pure latency — the result bytes cannot differ.
        if let Some(delay) = shared.solve_delay {
            retypd_core::sync::thread::sleep(delay);
        }
        // Every span the solver emits while this job runs carries the
        // request's trace id (0 = untraced); the guard restores the
        // previous trace when the job finishes.
        let trace_guard = retypd_telemetry::set_current_trace(msg.trace);
        let solve_span = retypd_telemetry::span("serve.shard_solve");
        // A solver panic on one hostile/unusual module must not kill the
        // shard: an unwinding shard thread would leak the job's admission
        // slot and turn 1/N of the fingerprint space into a dead letter.
        // Catch the panic, answer with an error, and rebuild the driver —
        // its caches may hold state from the half-finished solve.
        let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hook(&driver, &msg.job, &msg.lattice)
        }));
        drop(solve_span);
        drop(trace_guard);
        let wall_ns = start.elapsed().as_nanos() as u64;
        solve_ns.record(wall_ns);
        jobs_counter.inc();
        let reply = match solved {
            Ok(Ok(result)) => {
                jobs_done += 1;
                let mut wire = WireReport::from_result(msg.job.name(), &result);
                wire.fingerprint = msg.fingerprint;
                wire.lattice_fp = msg.lattice.fingerprint();
                wire.shard = shard_id;
                wire.trace_id = msg.trace_id.as_deref().map(str::to_owned);
                wire.wall_ns = wall_ns;
                Ok(wire)
            }
            // The text did not parse: the error serve used to send before
            // admission, now this module's own.
            Ok(Err(parse)) => Err(wire::WireError::Protocol(parse).to_string()),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                // Flush the wounded driver's buffered store appends, then
                // rebuild: the replacement replays the store, so with
                // persistence configured the rebuilt cache is *warm* (the
                // half-finished solve persisted only the SCCs it finished,
                // which are entries like any other). Without persistence
                // this is the old cold rebuild.
                driver.flush_store();
                driver = AnalysisDriver::owned(Lattice::c_types(), driver_config.clone());
                rebuilds += 1;
                let name = msg.job.name();
                Err(format!("solver panicked on module {name:?}: {what}"))
            }
        };
        // After a panic the rebuilt driver reports a replayed (or, without
        // persistence, cold) cache plus the bumped rebuild counter — the
        // observability the stats probe needs to assert warm-after-rebuild.
        cells.publish(&driver, jobs_done, rebuilds);
        drop(slot);
        // A dropped reply receiver just means the client went away.
        let _ = msg.reply.send((msg.index, reply));
    }
}

impl conn::Service for Shared {
    fn draining(&self) -> bool {
        self.admission.is_draining()
    }

    fn opened(&self) {
        self.metrics.conns_opened.inc();
    }

    fn closed(&self) {
        self.metrics.conns_closed.inc();
    }

    fn handle(&self, stream: &mut TcpStream, payload: Vec<u8>) -> bool {
        self.metrics.frames.inc();
        self.metrics.frame_bytes.record(payload.len() as u64);
        let decode_start = Instant::now();
        let decoded = Request::decode(&payload);
        self.metrics
            .frame_decode_ns
            .record(decode_start.elapsed().as_nanos() as u64);
        let response = match decoded {
            // A module is a batch of one: the same path, the same reply.
            Ok(Request::SolveModule {
                module,
                lattice,
                trace_id,
            }) => return solve(stream, vec![module], &lattice, false, &trace_id, self),
            Ok(Request::SolveBatch {
                modules,
                lattice,
                stream: streaming,
                trace_id,
            }) => return solve(stream, modules, &lattice, streaming, &trace_id, self),
            Ok(Request::Stats) => Response::Stats(self.stats()),
            Ok(Request::Metrics) => Response::Metrics(self.merged_metrics()),
            Ok(Request::Shutdown) => {
                self.begin_drain();
                Response::ShuttingDown
            }
            Err(e) => Response::Error(e.to_string()),
        };
        self.write_reply(stream, |w| wire::write_frame(w, &response.encode()))
    }
}

impl Shared {
    /// Writes a reply through `write`, timing it as `serve.reply_flush_ns`;
    /// `false` means the client is gone.
    fn write_reply(
        &self,
        stream: &mut TcpStream,
        write: impl FnOnce(&mut TcpStream) -> Result<(), wire::WireError>,
    ) -> bool {
        let flush_start = Instant::now();
        let wrote = write(stream);
        self.metrics
            .reply_flush_ns
            .record(flush_start.elapsed().as_nanos() as u64);
        wrote.is_ok()
    }

    /// Routes a job to its shard (`fingerprint % shards`). `Err` means a
    /// drain hung up the queue between admission and dispatch and names
    /// the module; the job's admission slot has then been released here.
    fn dispatch(&self, job: ShardJob) -> Result<(), String> {
        let shard = &self.shards[(job.fingerprint % self.shards.len() as u64) as usize];
        let bounced = match shard.tx.lock().expect("shard tx lock").as_ref() {
            Some(tx) => tx.send(job).err().map(|e| e.0),
            None => Some(job),
        };
        match bounced {
            None => Ok(()),
            Some(job) => {
                self.admission.release(1);
                Err(format!(
                    "module {:?} not dispatched: server is draining",
                    job.job.name()
                ))
            }
        }
    }
}

/// Count-based admission: the oversized-batch permanent error, the
/// all-or-nothing admit, and the accepted/rejected accounting. The caller
/// has already checked the drain flag; `Err` carries the single refusal
/// response to send.
fn admit_batch(n: usize, shared: &Shared) -> Result<(), Response> {
    // A batch bigger than the whole admission budget could never be
    // admitted, even idle — that is a permanent error (retrying on
    // `overloaded` would spin forever), so name the limit instead.
    if n > shared.admission.limit() {
        return Err(Response::Error(format!(
            "batch of {n} modules can never fit the admission limit of {}; \
             split it into smaller batches",
            shared.admission.limit()
        )));
    }
    if let Err(queued) = shared.admission.admit(n) {
        if shared.admission.is_draining() {
            // A drain refusal is not overload pressure: report the drain
            // and leave `serve.rejected_batches` (overload refusals only,
            // and what `stats` reports as `rejected`) alone.
            return Err(Response::ShuttingDown);
        }
        shared.metrics.rejected_batches.inc();
        return Err(Response::Overloaded {
            queued,
            limit: shared.admission.limit(),
        });
    }
    shared.admission.record_accepted();
    shared.metrics.admitted_jobs.add(n as u64);
    Ok(())
}

/// Answers `solve_module` and both `solve_batch` modes through one
/// [`wire::BatchReply`]; `false` means the client is gone. Refusals before
/// admission are a single frame. A single-frame batch checks the lattice,
/// then every module's structure, before it costs any admission budget. A
/// streaming batch is admitted by count and *pipelined*: each module's
/// structure is checked and the module dispatched in turn, with finished
/// reports flushed between dispatches, and a module whose structure fails
/// (or that loses a race with a drain) gets its own error frame.
/// Constraint text is never parsed here: a shard parses it if the solve
/// misses, and text that does not parse is that module's error.
fn solve(
    stream: &mut TcpStream,
    modules: Vec<WireModule>,
    lattice: &Option<LatticeDescriptor>,
    streaming: bool,
    trace_id: &Option<String>,
    shared: &Shared,
) -> bool {
    let refuse = |stream: &mut TcpStream, refusal: Response| {
        shared.write_reply(stream, |w| wire::write_frame(w, &refusal.encode()))
    };
    if shared.admission.is_draining() {
        return refuse(stream, Response::ShuttingDown);
    }
    let lattice = match shared.resolve_lattice(lattice.as_ref()) {
        Ok(lattice) => lattice,
        Err(e) => return refuse(stream, Response::Error(e)),
    };
    let n = modules.len();
    let mut jobs = modules.into_iter().map(|m| {
        (
            m.fingerprint(),
            m.into_text().map_err(wire::WireError::Protocol),
        )
    });
    let mut checked = Vec::new();
    if !streaming {
        for (fingerprint, text) in jobs.by_ref() {
            match text {
                Ok(text) => checked.push((fingerprint, Ok(text))),
                Err(e) => return refuse(stream, Response::Error(e.to_string())),
            }
        }
    }
    let mut reply = wire::BatchReply::new(n, streaming, lattice.fingerprint());
    if n > 0 {
        if let Err(refusal) = admit_batch(n, shared) {
            return refuse(stream, refusal);
        }
        let (reply_tx, replies) = mpsc::channel();
        let trace = trace_id.as_deref().map_or(0, trace_id_hash);
        let trace_id: Option<Arc<str>> = trace_id.as_deref().map(Arc::from);
        for (index, (fingerprint, text)) in checked.into_iter().chain(jobs).enumerate() {
            let refused = match text {
                Ok(job) => shared
                    .dispatch(ShardJob {
                        index,
                        fingerprint,
                        job,
                        lattice: Arc::clone(&lattice),
                        enqueued: Instant::now(),
                        trace,
                        trace_id: trace_id.clone(),
                        reply: reply_tx.clone(),
                    })
                    // A single-frame batch leaves an undispatched module
                    // without a result, which its reply reports as
                    // `shutting_down`.
                    .err()
                    .filter(|_| streaming),
                Err(e) => {
                    // A malformed module costs its slot only for the time
                    // it took to fail its structural check.
                    shared.admission.release(1);
                    Some(e.to_string())
                }
            };
            if let Some(e) = refused {
                reply.push(stream, index, Err(e));
            }
            // Flush whatever already finished so the first report is on
            // the wire while later modules are still checked and
            // dispatched.
            while let Ok((index, result)) = replies.try_recv() {
                reply.push(stream, index, result);
            }
        }
        drop(reply_tx);
        // Replies are drained even after the client went away, so every
        // shard send completes.
        for (index, result) in replies {
            reply.push(stream, index, result);
        }
    }
    shared.write_reply(stream, |w| reply.finish(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use retypd_core::{BaseVar, Program};
    use retypd_driver::ModuleJob;

    fn job(name: &str) -> ModuleJob {
        ModuleJob {
            name: name.into(),
            program: Program::new(),
        }
    }

    /// A job named `name` whose program routes to `shard` of two.
    fn job_on_shard(name: &str, shard: u64) -> ModuleJob {
        (0..)
            .map(|i| {
                let mut job = job(name);
                job.program.globals.insert(BaseVar::var(&format!("g{i}")));
                job
            })
            .find(|job| job.fingerprint() % 2 == shard)
            .expect("some program routes to the shard")
    }

    #[test]
    fn solver_panic_is_isolated_to_an_error_response() {
        // Inject a solver that panics on one module name: the real
        // catch_unwind / slot-release / driver-rebuild path runs over a
        // real socket. A "slow" module stalls before it panics.
        let hook: SolveHook = Arc::new(|driver, job, lattice| {
            if job.name().contains("slow") {
                retypd_core::sync::thread::sleep(Duration::from_millis(200));
            }
            assert!(!job.name().contains("boom"), "injected solver bug");
            solve_job(driver, job, lattice)
        });
        let config = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let handle = start_with_hook(config, hook).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        // The panicking module answers with an error naming it, not a
        // dropped connection or a bogus shutting_down.
        match client.solve_batch(&[job("ok_a"), job("boom"), job("ok_b")]) {
            Err(ClientError::Server(m)) => {
                assert!(m.contains("boom") && m.contains("panicked"), "{m}");
            }
            other => panic!("expected a server error, got {other:?}"),
        }
        // Two panics on different shards: the one submitted first finishes
        // last, yet the error names them in submission order.
        match client.solve_batch(&[job_on_shard("boom_slow", 0), job_on_shard("boom_fast", 1)]) {
            Err(ClientError::Server(m)) => assert_eq!(
                m,
                "solver panicked on module \"boom_slow\": injected solver bug; \
                 solver panicked on module \"boom_fast\": injected solver bug"
            ),
            other => panic!("expected a server error, got {other:?}"),
        }
        // The admission budget is fully released (no leaked slots)...
        let stats = client.stats().expect("stats");
        assert_eq!(stats.queued, 0, "panic leaked an admission slot");
        // ...and the shard that panicked keeps serving: routing is by
        // program fingerprint and every test job shares the same (empty)
        // program, so this lands on exactly the shard that just panicked.
        let report = client
            .solve_module(&job("after"))
            .expect("shard still serves");
        assert_eq!(report.name, "after");
        handle.shutdown();
    }
}
