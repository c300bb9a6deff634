//! The gateway server: accepts the same wire protocol `serve` speaks,
//! routes every module to a backend by consistent hash, supervises the
//! backends, and aggregates their control-plane answers.
//!
//! ```text
//!                         ┌─ health checker ─ probe / evict / restart / re-add
//!  client ──▶ gateway ────┤
//!             (ring)      ├─▶ backend slot 0 (serve, own persist dir)
//!   solve_module ─ route ─┼─▶ backend slot 1 (serve, own persist dir)
//!   solve_batch ── split ─┴─▶ backend slot 2 (serve, own persist dir)
//!   stats/metrics ─ fan-in: sum / merge across healthy backends
//! ```
//!
//! * **Transparent protocol.** A client pointed at the gateway sees a
//!   bit-identical protocol: `solve_module` forwards, and
//!   `solve_batch` is decomposed into per-module forwards whose results
//!   feed serve's own [`BatchReply`] (streaming batches emit `report`
//!   frames as modules finish; single-frame ones are reassembled in
//!   submission order), so batch replies match serve's byte for byte
//!   (`tests/gateway_parity.rs`). `stats` sums the fleet; `metrics`
//!   merges every backend's [`MetricsSnapshot`] into the gateway's own
//!   with [`MetricsSnapshot::merge`].
//! * **Warm affinity.** Routing is a pure function of
//!   `(lattice_fp, module_fp)` and the healthy slot set — a
//!   re-submitted module lands on the backend whose per-process
//!   persistent store already holds it, across gateway *and* backend
//!   restarts. `module_fp` is [`WireModule::fingerprint`] — the
//!   driver's `TextModule::fingerprint`, a hash of the module's strings
//!   that equals `ModuleJob::fingerprint` for canonically rendered text —
//!   so routing parses nothing: the gateway checks only a single-frame
//!   `solve_batch`'s module structures (names, callees, subjects,
//!   globals) with the driver's [`WireModule::structure`], which serve
//!   refuses whole before admission, and words a refusal as serve does
//!   ([`WireError::Protocol`]). Any other malformed module, and any
//!   module whose constraint text does not parse, is refused by its
//!   backend, with serve's own `error` text.
//! * **Supervision.** A health thread probes each backend with the
//!   ordinary `stats` request, evicts on failure (ring rebuild — the
//!   live re-shard), restarts spawned children with their original
//!   persist dir, and re-adds on recovery (ring rebuild back to the
//!   original map).
//! * **Hedging.** A solve stuck past [`GatewayConfig::hedge_after`] is
//!   duplicated to the next distinct slot on the ring; first winning
//!   reply is forwarded, the loser dropped. Determinism makes this
//!   safe: both backends compute byte-identical reports, so the race
//!   only picks *which copy* of the answer arrives.
//! * **Hardened front door.** Client sockets run on `serve`'s own
//!   connection layer ([`retypd_serve::conn`]) with
//!   `ServeConfig::default()`'s limits: read timeout, per-connection
//!   budgets, accept backoff, `error` replies to oversized frames, and a
//!   drain that closes each connection at its next frame boundary and
//!   joins its handler. This module supplies only the per-frame handler.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use retypd_core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use retypd_core::sync::thread::JoinHandle;
use retypd_core::sync::{Arc, Mutex};
use retypd_core::{Lattice, LatticeDescriptor};
use retypd_driver::LatticeMemo;
use retypd_serve::conn::{self, Service};
use retypd_serve::wire::{
    self, BatchReply, Request, Response, WireError, WireModule, WireReport, WireStats,
};
use retypd_serve::ServeConfig;
use retypd_telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};

use crate::backend::{Backend, BackendSpec};
use crate::forward::{exchange, hedged_exchange, Winner};
use crate::health::classify_stats_reply;
use crate::ring::{route_key, Ring};

/// Gateway tuning. `Default` suits tests and small fleets; the binary
/// maps flags onto it.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Front-end listen address (`0` port binds ephemerally).
    pub addr: String,
    /// Pause between health sweeps.
    pub health_interval: Duration,
    /// Per-probe budget (connect + stats round trip).
    pub probe_timeout: Duration,
    /// Latency threshold after which a solve is hedged to a second
    /// backend; `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Retries after a failed forward or an `overloaded` backend reply,
    /// each after a jittered exponential backoff (10 ms doubling to a
    /// 500 ms cap); `0` means none.
    pub retry_budget: u32,
    /// End-to-end budget for one forwarded exchange.
    pub forward_timeout: Duration,
    /// How long a spawned backend may take to print its readiness
    /// banner (covers persistent-store replay on warm restarts).
    pub spawn_timeout: Duration,
    /// Echo `RETYPD_GATEWAY_*` lines on stdout (the binary turns this
    /// on so operators and CI can find backend pids; tests keep it off).
    pub echo: bool,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            health_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(2),
            hedge_after: None,
            retry_budget: 8,
            forward_timeout: Duration::from_secs(60),
            spawn_timeout: Duration::from_secs(30),
            echo: false,
        }
    }
}

/// Gateway-side instruments, exposed (merged with every backend's
/// registry) through the ordinary `metrics` request.
struct GatewayMetrics {
    registry: Registry,
    requests: Arc<Counter>,
    hedge_fired: Arc<Counter>,
    hedge_won: Arc<Counter>,
    reroutes: Arc<Counter>,
    evicted: Arc<Counter>,
    readded: Arc<Counter>,
    restarts: Arc<Counter>,
    no_backend: Arc<Counter>,
    forward_ns: Arc<Histogram>,
    healthy: Arc<Gauge>,
    /// Per-slot routed-request counters, indexed by slot.
    routed: Vec<Arc<Counter>>,
}

impl GatewayMetrics {
    fn new(slots: usize) -> GatewayMetrics {
        let registry = Registry::new();
        GatewayMetrics {
            requests: registry.counter("gateway.requests"),
            hedge_fired: registry.counter("gateway.hedge_fired"),
            hedge_won: registry.counter("gateway.hedge_won"),
            reroutes: registry.counter("gateway.reroutes"),
            evicted: registry.counter("gateway.evicted"),
            readded: registry.counter("gateway.readded"),
            restarts: registry.counter("gateway.restarts"),
            no_backend: registry.counter("gateway.no_backend_errors"),
            forward_ns: registry.histogram("gateway.forward_ns"),
            healthy: registry.gauge("gateway.backends_healthy"),
            routed: (0..slots)
                .map(|s| registry.counter(&format!("gateway.backend_{s}.routed")))
                .collect(),
            registry,
        }
    }
}

struct Shared {
    backends: Vec<Backend>,
    /// The current ring — a pure function of the healthy slot set,
    /// swapped atomically on every membership change. Forwarders
    /// snapshot it per attempt, so a re-shard mid-retry is picked up.
    ring: Mutex<Arc<Ring>>,
    /// Bumped on every ring rebuild (observable mid-run re-sharding).
    epoch: AtomicU64,
    draining: AtomicBool,
    local_addr: SocketAddr,
    /// Gateway start, nanoseconds since the UNIX epoch (the `stats`
    /// reply's `start_ns`).
    start_ns: u64,
    default_lattice_fp: u64,
    /// Descriptor-built lattices: a bad descriptor is refused here, with
    /// serve's reply, before anything is forwarded.
    lattices: LatticeMemo,
    metrics: GatewayMetrics,
    config: GatewayConfig,
}

impl Shared {
    fn ring_snapshot(&self) -> Arc<Ring> {
        Arc::clone(&self.ring.lock().expect("ring lock"))
    }

    /// The lattice half of the route key: the built lattice's canonical
    /// fingerprint, as serve reports it, so descriptions of one lattice
    /// route together. Runs `serve`'s first pre-admission check (the
    /// lattice, before any module), so a bad descriptor draws the reply
    /// serve would send.
    fn lattice_fp(&self, lattice: Option<&LatticeDescriptor>) -> Result<u64, String> {
        let Some(d) = lattice else {
            return Ok(self.default_lattice_fp);
        };
        self.lattices
            .get_or_build(d)
            .map(|l| l.fingerprint())
            .map_err(|e| format!("bad lattice: {e}"))
    }

    /// Recomputes the ring from current backend health and swaps it in.
    /// This *is* the live re-shard: deterministic (the ring is a pure
    /// function of the healthy set) and atomic (in-flight forwards
    /// finish on their snapshot; every retry re-reads).
    fn rebuild_ring(&self) {
        let healthy: Vec<usize> = self
            .backends
            .iter()
            .filter(|b| b.healthy())
            .map(|b| b.slot)
            .collect();
        self.metrics.healthy.set(healthy.len() as i64);
        let ring = Arc::new(Ring::build(&healthy));
        *self.ring.lock().expect("ring lock") = ring;
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a slot unhealthy because a forward or probe failed, and
    /// re-shards if that is a transition. The health thread will restart
    /// it (spawned backends) and re-add it once it answers probes again.
    fn mark_unhealthy(&self, slot: usize, why: &str) {
        if self.backends[slot].set_healthy(false) {
            self.metrics.evicted.inc();
            self.log(&format!("slot {slot} evicted: {why}"));
            self.rebuild_ring();
        }
    }

    fn log(&self, msg: &str) {
        if self.config.echo {
            eprintln!("[gateway] {msg}");
        }
    }

    /// One probe: connect, `stats` round trip, classify. Pure verdict —
    /// health bookkeeping happens at the caller.
    fn probe(&self, slot: usize) -> Result<crate::health::ProbeReport, String> {
        let report = classify_stats_reply(&self.ask(slot, &Request::Stats)?)?;
        self.backends[slot].note_probe(&report);
        Ok(report)
    }

    /// One control-plane round trip to `slot` within the probe budget;
    /// the connection goes back to the pool after a clean exchange.
    fn ask(&self, slot: usize, request: &Request) -> Result<Vec<u8>, String> {
        let b = &self.backends[slot];
        let mut conn = b.connect(self.config.probe_timeout)?;
        let reply = exchange(&mut conn, &request.encode(), self.config.probe_timeout)?;
        b.pool(conn);
        Ok(reply)
    }

    /// Forwards one already-encoded solve request for `key`, with
    /// hedging and eviction-driven re-routing. Returns the winning
    /// reply payload, or why every attempt failed.
    fn forward_solve(&self, key: u64, payload: &[u8]) -> Result<Vec<u8>, String> {
        let started = Instant::now();
        let mut last_err = String::new();
        for attempt in 0..=self.config.retry_budget {
            if attempt > 0 {
                self.metrics.reroutes.inc();
                retypd_core::sync::thread::sleep(backoff(attempt - 1));
            }
            let ring = self.ring_snapshot();
            let Some(primary) = ring.route(key) else {
                self.metrics.no_backend.inc();
                last_err = "no healthy backends".into();
                continue;
            };
            let backend = &self.backends[primary];
            let mut conn = match backend.connect(self.config.probe_timeout) {
                Ok(c) => c,
                Err(e) => {
                    self.mark_unhealthy(primary, &e);
                    last_err = e;
                    continue;
                }
            };
            let hedge_slot = self
                .config
                .hedge_after
                .and_then(|_| ring.hedge_target(key, primary));
            let open_hedge = || {
                hedge_slot.and_then(|s| self.backends[s].connect(self.config.probe_timeout).ok())
            };
            // Hedge only when a distinct second backend exists.
            let hedge_after = hedge_slot.and(self.config.hedge_after);
            match hedged_exchange(
                payload,
                &mut conn,
                hedge_after,
                open_hedge,
                self.config.forward_timeout,
            ) {
                Ok(ex) => {
                    if ex.hedged {
                        self.metrics.hedge_fired.inc();
                    }
                    let winner_slot = match ex.winner {
                        Winner::Primary => {
                            backend.pool(conn);
                            primary
                        }
                        Winner::Hedge(stream) => {
                            self.metrics.hedge_won.inc();
                            let slot = hedge_slot.expect("hedge won implies target");
                            if let Some(s) = stream {
                                self.backends[slot].pool(s);
                            }
                            slot
                        }
                    };
                    self.metrics.routed[winner_slot].inc();
                    self.metrics
                        .forward_ns
                        .record(started.elapsed().as_nanos() as u64);
                    return Ok(ex.payload);
                }
                Err(e) => {
                    self.mark_unhealthy(primary, &e);
                    last_err = e;
                }
            }
        }
        Err(format!(
            "gateway: forwarding failed after {} attempts: {last_err}",
            self.config.retry_budget + 1
        ))
    }

    /// Solves one module of a decomposed batch: route, forward, decode.
    /// `overloaded` backend replies are retried here on the jittered
    /// backoff curve — batch clients cannot retry per module, so the
    /// gateway absorbs admission pushback for them. A backend's own
    /// error passes through verbatim, as serve would write it; the
    /// gateway's own failures name the module.
    fn solve_batch_module(
        &self,
        key: u64,
        module: &WireModule,
        lattice: &Option<LatticeDescriptor>,
        trace_id: &Option<String>,
    ) -> Result<WireReport, String> {
        let payload = Request::encode_solve_module(module, lattice.as_ref(), trace_id.as_deref());
        let named = |e: String| format!("module {:?}: {e}", module.name);
        for attempt in 0..=self.config.retry_budget {
            let reply = self.forward_solve(key, &payload).map_err(named)?;
            match Response::decode(&reply) {
                Ok(Response::Solved(mut reports)) if !reports.is_empty() => {
                    return Ok(reports.swap_remove(0));
                }
                Ok(Response::Overloaded { .. }) if attempt < self.config.retry_budget => {
                    retypd_core::sync::thread::sleep(backoff(attempt));
                }
                Ok(Response::Overloaded { queued, limit }) => {
                    return Err(named(format!("backend overloaded ({queued}/{limit})")));
                }
                Ok(Response::Error(e)) => return Err(e),
                Ok(Response::ShuttingDown) => return Err(named("backend shutting down".into())),
                Ok(other) => return Err(named(format!("unexpected backend reply: {other:?}"))),
                Err(e) => return Err(named(format!("undecodable backend reply: {e}"))),
            }
        }
        Err(named("backend overloaded past the retry budget".into()))
    }
}

/// A running gateway. Dropping the handle does not stop it; call
/// [`GatewayHandle::shutdown`] (or send the wire `shutdown` request).
pub struct GatewayHandle {
    shared: Arc<Shared>,
    acceptor: Option<conn::Acceptor>,
    health: Option<JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound front-end address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Current ring epoch — bumps on every membership change, so tests
    /// can assert that a mid-run event actually re-sharded.
    pub fn ring_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// Slots currently routed to.
    pub fn healthy_slots(&self) -> Vec<usize> {
        self.shared
            .backends
            .iter()
            .filter(|b| b.healthy())
            .map(|b| b.slot)
            .collect()
    }

    /// A backend's last known pid (0 when unknown).
    pub fn backend_pid(&self, slot: usize) -> u64 {
        self.shared.backends[slot].pid()
    }

    /// Kills a spawned backend's process outright (chaos hook for
    /// failure-path tests; the supervisor notices, re-shards, restarts).
    pub fn kill_backend(&self, slot: usize) {
        // `kill` already drops the healthy bit, so re-shard explicitly
        // rather than through the transition-edge path.
        self.shared.backends[slot].kill();
        self.shared.metrics.evicted.inc();
        self.shared.log(&format!("slot {slot} killed by operator"));
        self.shared.rebuild_ring();
    }

    /// The gateway's own metrics snapshot (no backend fan-in).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// Drains: stops accepting, joins every connection handler (each
    /// closes at its next frame boundary), shuts down spawned backends
    /// gracefully (wire `shutdown`, then kill on timeout).
    pub fn shutdown(mut self) {
        begin_drain(&self.shared);
        self.join_threads();
        drain_backends(&self.shared);
    }

    /// Blocks until the gateway drains (a wire `shutdown`, or
    /// [`GatewayHandle::shutdown`] from another thread).
    pub fn join(mut self) {
        self.join_threads();
        drain_backends(&self.shared);
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.acceptor.take() {
            a.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}

fn begin_drain(shared: &Shared) {
    // AcqRel, not SeqCst: the RMW's atomicity alone elects the single
    // drainer, and everything the winner tears down synchronizes through
    // channels and joins — no second location needs a total order.
    if shared.draining.swap(true, Ordering::AcqRel) {
        return;
    }
    conn::nudge(shared.local_addr);
}

/// Gracefully stops every spawned backend: wire `shutdown` first (lets
/// the child flush its persistent store), hard kill as a fallback.
fn drain_backends(shared: &Shared) {
    for b in &shared.backends {
        if !b.restartable() {
            continue;
        }
        if let Ok(mut conn) = b.connect(Duration::from_secs(1)) {
            let _ = exchange(&mut conn, &Request::Shutdown.encode(), Duration::from_secs(5));
        }
        // `kill` reaps the child; if the graceful path worked the wait
        // returns immediately, otherwise this is the hard stop.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !b.child_exited() && Instant::now() < deadline {
            retypd_core::sync::thread::sleep(Duration::from_millis(20));
        }
        b.kill();
    }
}

/// Starts a gateway over `specs` (slot = index). Spawned backends are
/// launched and *all* backends probed once; at least one must be
/// healthy or startup fails (a gateway with an empty ring would refuse
/// every request — better to fail loudly at the top).
pub fn start(config: GatewayConfig, specs: Vec<BackendSpec>) -> Result<GatewayHandle, String> {
    if specs.is_empty() {
        return Err("gateway needs at least one backend".into());
    }
    let backends: Vec<Backend> = specs
        .into_iter()
        .enumerate()
        .map(|(slot, spec)| Backend::new(slot, spec))
        .collect();
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| format!("bind {}: {e}", config.addr))?;
    let local_addr = listener.local_addr().map_err(|e| e.to_string())?;

    let metrics = GatewayMetrics::new(backends.len());
    let shared = Arc::new(Shared {
        backends,
        ring: Mutex::new(Arc::new(Ring::build(&[]))),
        epoch: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        local_addr,
        start_ns: std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64),
        default_lattice_fp: Lattice::c_types().fingerprint(),
        lattices: LatticeMemo::new(),
        metrics,
        config,
    });

    // Bring the fleet up: launch children, then probe each backend (with
    // a short grace loop — an external server may still be binding).
    for b in &shared.backends {
        match b.launch(shared.config.spawn_timeout) {
            Ok(addr) => {
                if shared.config.echo {
                    println!(
                        "RETYPD_GATEWAY_BACKEND slot={} addr={addr} pid={}",
                        b.slot,
                        b.pid()
                    );
                }
            }
            Err(e) => shared.log(&format!("slot {} failed to launch: {e}", b.slot)),
        }
    }
    for b in &shared.backends {
        let deadline = Instant::now() + shared.config.probe_timeout;
        loop {
            match shared.probe(b.slot) {
                Ok(_) => {
                    b.set_healthy(true);
                    break;
                }
                Err(e) if Instant::now() >= deadline => {
                    shared.log(&format!("slot {} unhealthy at startup: {e}", b.slot));
                    break;
                }
                Err(_) => retypd_core::sync::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
    shared.rebuild_ring();
    if shared.ring_snapshot().is_empty() {
        drain_backends(&shared);
        return Err("no backend passed its startup probe".into());
    }

    let acceptor = conn::spawn(
        listener,
        "gateway",
        &ServeConfig::default(),
        Arc::clone(&shared),
    )
    .map_err(|e| e.to_string())?;
    let health = {
        let shared = Arc::clone(&shared);
        retypd_core::sync::thread::Builder::new()
            .name("gateway-health".into())
            .spawn(move || health_main(shared))
            .map_err(|e| e.to_string())?
    };
    Ok(GatewayHandle {
        shared,
        acceptor: Some(acceptor),
        health: Some(health),
    })
}

/// The supervisor: probe every slot each sweep, evict/restart/re-add.
fn health_main(shared: Arc<Shared>) {
    while !shared.draining.load(Ordering::Relaxed) {
        retypd_core::sync::thread::sleep(shared.config.health_interval);
        if shared.draining.load(Ordering::Relaxed) {
            break;
        }
        for b in &shared.backends {
            if shared.draining.load(Ordering::Relaxed) {
                return;
            }
            // A crashed child is a fact, not a probe verdict.
            if b.child_exited() {
                shared.mark_unhealthy(b.slot, "child process exited");
            }
            let restart = match shared.probe(b.slot) {
                Ok(_) => {
                    if !b.set_healthy(true) {
                        shared.metrics.readded.inc();
                        shared.log(&format!("slot {} re-added", b.slot));
                        shared.rebuild_ring();
                    }
                    false
                }
                Err(e) => {
                    shared.mark_unhealthy(b.slot, &e);
                    b.restartable()
                }
            };
            if restart {
                // Respawn with the original spec — same slot, same
                // persist dir — so the replacement warm-starts and
                // reclaims its exact keyspace. Re-add happens on the
                // next sweep's successful probe.
                b.kill();
                match b.launch(shared.config.spawn_timeout) {
                    Ok(addr) => {
                        shared.metrics.restarts.inc();
                        shared.log(&format!("slot {} restarted at {addr}", b.slot));
                        if shared.config.echo {
                            println!(
                                "RETYPD_GATEWAY_BACKEND slot={} addr={addr} pid={}",
                                b.slot,
                                b.pid()
                            );
                        }
                    }
                    Err(e) => shared.log(&format!("slot {} restart failed: {e}", b.slot)),
                }
            }
        }
    }
}

impl Service for Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    fn handle(&self, conn: &mut TcpStream, payload: Vec<u8>) -> bool {
        self.metrics.requests.inc();
        let reply = match Request::decode(&payload) {
            Err(e) => Response::Error(e.to_string()),
            Ok(_) if self.draining() => Response::ShuttingDown,
            Ok(Request::SolveModule {
                module, lattice, ..
            }) => {
                // Forward the client's own frame verbatim: the gateway
                // only needs the routing key from it, and the backend
                // refuses a malformed module with serve's own reply.
                let forwarded = self
                    .lattice_fp(lattice.as_ref())
                    .map(|fp| route_key(fp, module.fingerprint()))
                    .and_then(|key| self.forward_solve(key, &payload));
                return match forwarded {
                    Ok(reply) => wire::write_frame(conn, &reply),
                    Err(e) => wire::write_frame(conn, &Response::Error(e).encode()),
                }
                .is_ok();
            }
            Ok(Request::SolveBatch {
                modules,
                lattice,
                stream,
                trace_id,
            }) => return handle_batch(conn, self, modules, lattice, stream, trace_id).is_ok(),
            Ok(Request::Stats) => Response::Stats(aggregate_stats(self)),
            Ok(Request::Metrics) => Response::Metrics(aggregate_metrics(self)),
            Ok(Request::Shutdown) => {
                begin_drain(self);
                Response::ShuttingDown
            }
        };
        wire::write_frame(conn, &reply.encode()).is_ok()
    }
}

/// Decomposes a batch into per-module forwards (a small worker pool —
/// modules route to *different* backends, so the fan-out is the whole
/// point) and feeds the results to a [`wire::BatchReply`], the writer
/// `serve` uses, so both reply modes match serve's bytes. Every module
/// routes on [`WireModule::fingerprint`]. The pre-forward order is
/// serve's: the lattice, then — for a single-frame batch only, which
/// serve refuses whole before admission — every module's
/// [`WireModule::structure`], failing on the first bad one. Constraint
/// text is never parsed here: a module whose text does not parse, like
/// any module of a streaming batch, is forwarded, and its backend's
/// `error` becomes that module's entry, as serve reports it.
fn handle_batch(
    conn: &mut TcpStream,
    shared: &Shared,
    modules: Vec<WireModule>,
    lattice: Option<LatticeDescriptor>,
    stream: bool,
    trace_id: Option<String>,
) -> Result<(), WireError> {
    let lattice_fp = match shared.lattice_fp(lattice.as_ref()) {
        Ok(fp) => fp,
        Err(e) => return wire::write_frame(conn, &Response::Error(e).encode()),
    };
    if !stream {
        if let Some(Err(e)) = modules.iter().map(WireModule::structure).find(Result::is_err) {
            let refusal = WireError::Protocol(e).to_string();
            return wire::write_frame(conn, &Response::Error(refusal).encode());
        }
    }
    let keys: Vec<u64> = modules
        .iter()
        .map(|m| route_key(lattice_fp, m.fingerprint()))
        .collect();
    let mut reply = BatchReply::new(modules.len(), stream, lattice_fp);
    let healthy = shared.backends.iter().filter(|b| b.healthy()).count().max(1);
    let workers = modules.len().min((2 * healthy).max(2));
    let next = AtomicUsize::new(0);
    let (tx, rx) = retypd_core::sync::mpsc::channel::<(usize, Result<WireReport, String>)>();

    // retypd-lint: allow(no-raw-thread) scoped spawns are not modeled
    std::thread::scope(|scope| {
        let (next, modules, keys) = (&next, &modules, &keys);
        let (lattice, trace_id) = (&lattice, &trace_id);
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= modules.len() {
                    break;
                }
                let result = shared.solve_batch_module(keys[i], &modules[i], lattice, trace_id);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // A failed write ends the loop and drops `rx`, so the workers
        // stop forwarding modules for a client that is gone.
        for (index, result) in rx {
            if !reply.push(conn, index, result) {
                break;
            }
        }
    });
    reply.finish(conn)
}

/// Fleet-wide stats: admission counters sum, shard lists concatenate
/// (renumbered into one flat fleet-wide sequence), pid/start time are
/// the gateway's own. A backend failing its stats round trip here is
/// evicted, exactly as if a probe had failed.
fn aggregate_stats(shared: &Shared) -> WireStats {
    let mut agg = WireStats {
        accepted: 0,
        rejected: 0,
        queued: 0,
        queue_limit: 0,
        pid: std::process::id() as u64,
        start_ns: shared.start_ns,
        shards: vec![],
    };
    for b in &shared.backends {
        if !b.healthy() {
            continue;
        }
        let reply = shared
            .ask(b.slot, &Request::Stats)
            .and_then(|payload| classify_stats_reply(&payload));
        match reply {
            Ok(report) => {
                let s = report.stats;
                agg.accepted += s.accepted;
                agg.rejected += s.rejected;
                agg.queued += s.queued;
                agg.queue_limit += s.queue_limit;
                for mut shard in s.shards {
                    shard.shard = agg.shards.len();
                    agg.shards.push(shard);
                }
            }
            Err(e) => shared.mark_unhealthy(b.slot, &e),
        }
    }
    agg
}

/// The gateway's registry merged with every healthy backend's: the
/// `metrics` request answers for the whole fleet through one socket.
fn aggregate_metrics(shared: &Shared) -> MetricsSnapshot {
    let mut merged = shared.metrics.registry.snapshot();
    for b in shared.backends.iter().filter(|b| b.healthy()) {
        let reply = shared.ask(b.slot, &Request::Metrics);
        if let Ok(Ok(Response::Metrics(snap))) = reply.map(|payload| Response::decode(&payload)) {
            merged.merge(&snap);
        }
    }
    merged
}

/// Backoff before the first retry; doubles with each attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Upper bound on any single backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(500);
/// Seed for the jitter PRNG.
const BACKOFF_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The wait before retry `attempt` (0-based), drawn from `[d/2, d]` where
/// `d = min(cap, base · 2^attempt)` ("equal jitter"), so requests refused
/// together do not resubmit in lockstep. Deterministic per attempt; the
/// total added latency is bounded by `retry_budget · cap`.
fn backoff(attempt: u32) -> Duration {
    let ceiling = BACKOFF_BASE
        .saturating_mul(1 << attempt.min(20))
        .min(BACKOFF_CAP);
    let nanos = ceiling.as_nanos() as u64;
    // xorshift64* keyed by seed and attempt.
    let mut x = BACKOFF_SEED ^ (u64::from(attempt) + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let half = nanos / 2;
    Duration::from_nanos(half + x % (nanos - half))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_equal_jitter_under_the_cap_and_deterministic() {
        for k in 0..12u32 {
            let d = (Duration::from_millis(10) * 2u32.pow(k)).min(Duration::from_millis(500));
            let wait = backoff(k);
            assert!(
                d / 2 <= wait && wait <= d,
                "attempt {k}: {wait:?} outside [{:?}, {d:?}]",
                d / 2
            );
            assert_eq!(backoff(k), wait, "attempt {k} waits the same every time");
        }
    }
}
