//! One routed backend: its spec, its live state, and (for spawned
//! backends) the child process the gateway supervises.
//!
//! A backend occupies a **slot** — its index in the gateway's configured
//! list. The slot, not the address, keys the consistent-hash ring: a
//! backend restarted onto a fresh ephemeral port keeps its slot and so
//! reclaims exactly the keyspace its persistent store replayed.

use std::io::BufRead;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use retypd_core::sync::Mutex;

use crate::health::ProbeReport;
use retypd_serve::launch::parse_ready_banner;

/// How a slot's backend comes to exist.
#[derive(Clone, Debug)]
pub enum BackendSpec {
    /// The gateway spawns and supervises a server process (normally the
    /// sibling `serve_backend` binary). The child binds an ephemeral
    /// port and announces it on stdout via the readiness banner; on
    /// eviction the gateway kills and respawns it with the *same*
    /// persist dir, so the replacement warm-starts from the replayed
    /// store.
    Spawn {
        /// The server executable.
        program: PathBuf,
        /// Extra arguments (shard count, queue depth, chaos flags, …).
        /// `--addr` and `--persist-dir` are appended by the gateway.
        args: Vec<String>,
        /// This slot's persistent store directory, if any.
        persist_dir: Option<PathBuf>,
    },
    /// An already-running server the gateway routes to but does not own:
    /// it is probed and evicted like any other backend, but never
    /// spawned, killed, or restarted. In-process test servers and
    /// externally managed fleets use this.
    External {
        /// Where the server listens.
        addr: SocketAddr,
    },
}

/// Mutable per-backend state, guarded by one lock (all touches are
/// short: no I/O is done under it except child spawn/kill).
#[derive(Debug, Default)]
struct Runtime {
    addr: Option<SocketAddr>,
    pid: u64,
    start_ns: u64,
    healthy: bool,
    child: Option<Child>,
    /// Idle pooled connections, newest last. A connection is only ever
    /// pooled after a clean single-frame exchange.
    idle: Vec<TcpStream>,
}

/// Cap on pooled idle connections per backend; beyond this, extras are
/// simply closed.
const POOL_CAP: usize = 8;

/// A slot's backend: spec plus supervised runtime state.
#[derive(Debug)]
pub struct Backend {
    /// This backend's stable slot index.
    pub slot: usize,
    /// How it is created (and whether it can be restarted).
    pub spec: BackendSpec,
    state: Mutex<Runtime>,
}

impl Backend {
    /// A backend with no live state; [`Backend::launch`] brings it up.
    pub fn new(slot: usize, spec: BackendSpec) -> Backend {
        Backend {
            slot,
            spec,
            state: Mutex::new(Runtime::default()),
        }
    }

    /// Ensures the backend has an address: spawns the child and waits for
    /// its readiness banner (spawn specs), or simply adopts the
    /// configured address (external specs). Idempotent while the child
    /// lives. Does **not** mark the backend healthy — that is the
    /// prober's verdict.
    pub fn launch(&self, banner_timeout: Duration) -> Result<SocketAddr, String> {
        let mut st = self.state.lock().expect("backend state");
        match &self.spec {
            BackendSpec::External { addr } => {
                st.addr = Some(*addr);
                Ok(*addr)
            }
            BackendSpec::Spawn {
                program,
                args,
                persist_dir,
            } => {
                if st.child.is_some() {
                    if let Some(addr) = st.addr {
                        return Ok(addr);
                    }
                }
                let mut cmd = Command::new(program);
                cmd.args(args).arg("--addr").arg("127.0.0.1:0");
                if let Some(dir) = persist_dir {
                    cmd.arg("--persist-dir").arg(dir);
                }
                cmd.stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .stdin(Stdio::null());
                let mut child = cmd
                    .spawn()
                    .map_err(|e| format!("slot {}: spawn {program:?}: {e}", self.slot))?;
                let stdout = child.stdout.take().expect("stdout was piped");
                match wait_for_banner(stdout, banner_timeout) {
                    Ok((addr, pid, _shards)) => {
                        st.addr = Some(addr);
                        st.pid = pid as u64;
                        st.child = Some(child);
                        Ok(addr)
                    }
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(format!("slot {}: {e}", self.slot))
                    }
                }
            }
        }
    }

    /// Kills the child (spawn specs) and forgets all live state. The
    /// pool is dropped too: its sockets point at a dead process.
    pub fn kill(&self) {
        let mut st = self.state.lock().expect("backend state");
        if let Some(mut child) = st.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        st.addr = match &self.spec {
            BackendSpec::External { addr } => Some(*addr),
            BackendSpec::Spawn { .. } => None,
        };
        st.healthy = false;
        st.idle.clear();
    }

    /// Whether this backend can be restarted by the supervisor (only
    /// spawned children can; external servers merely get re-probed).
    pub fn restartable(&self) -> bool {
        matches!(self.spec, BackendSpec::Spawn { .. })
    }

    /// True when a spawned child has exited on its own (crash, kill -9).
    /// Reaps the zombie as a side effect. Always false for externals.
    pub fn child_exited(&self) -> bool {
        let mut st = self.state.lock().expect("backend state");
        match st.child.as_mut().map(Child::try_wait) {
            Some(Ok(Some(_status))) => {
                st.child = None;
                st.addr = None;
                st.idle.clear();
                true
            }
            _ => false,
        }
    }

    /// The backend's current address, if it has one.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.state.lock().expect("backend state").addr
    }

    /// The last known pid (from the banner or a probe); 0 when unknown.
    pub fn pid(&self) -> u64 {
        self.state.lock().expect("backend state").pid
    }

    /// The last probed process start time (UNIX-epoch ns; 0 when never
    /// probed). A restart shows up as this value increasing.
    pub fn start_ns(&self) -> u64 {
        self.state.lock().expect("backend state").start_ns
    }

    /// Whether the backend is currently routed to.
    pub fn healthy(&self) -> bool {
        self.state.lock().expect("backend state").healthy
    }

    /// Sets health, returning the previous value (so the supervisor can
    /// count transitions exactly once).
    pub fn set_healthy(&self, healthy: bool) -> bool {
        let mut st = self.state.lock().expect("backend state");
        let was = st.healthy;
        st.healthy = healthy;
        if !healthy {
            // Pooled sockets to an unhealthy backend are suspect.
            st.idle.clear();
        }
        was
    }

    /// Records what a successful probe learned (pid and start time, for
    /// restart detection and operator visibility).
    pub fn note_probe(&self, report: &ProbeReport) {
        let mut st = self.state.lock().expect("backend state");
        if report.stats.pid != 0 {
            st.pid = report.stats.pid;
        }
        if report.stats.start_ns != 0 {
            st.start_ns = report.stats.start_ns;
        }
    }

    /// A connection to the backend: pooled if a clean one is idle, else
    /// freshly connected with `timeout`.
    pub fn connect(&self, timeout: Duration) -> Result<TcpStream, String> {
        loop {
            let pooled = self.state.lock().expect("backend state").idle.pop();
            match pooled {
                Some(conn) if quiet(&conn) => return Ok(conn),
                Some(_) => {}
                None => break,
            }
        }
        let addr = self
            .addr()
            .ok_or_else(|| format!("slot {} has no address", self.slot))?;
        let conn = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| format!("slot {} ({addr}): connect: {e}", self.slot))?;
        // Frames go out prefix-then-payload; nodelay keeps the payload
        // write from waiting out a Nagle/delayed-ACK round.
        conn.set_nodelay(true).ok();
        Ok(conn)
    }

    /// Returns a connection to the pool after a clean exchange.
    pub fn pool(&self, conn: TcpStream) {
        let mut st = self.state.lock().expect("backend state");
        if st.healthy && st.idle.len() < POOL_CAP {
            st.idle.push(conn);
        }
    }
}

/// Whether a pooled connection is still a clean request/response channel.
/// A backend closes a connection that sat idle past its read timeout and
/// leaves a "read timed out" `error` frame behind; reusing that socket
/// would read the stale frame (or EOF) as the next reply and evict a
/// healthy backend. A non-blocking peek that finds no byte and no EOF
/// means the socket is clean.
fn quiet(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let idle =
        matches!(conn.peek(&mut [0u8; 1]), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock);
    conn.set_nonblocking(false).is_ok() && idle
}

/// Reads the child's stdout until the readiness banner appears, bounded
/// by `timeout`. The read happens on a helper thread (BufRead has no
/// native deadline); after the banner the thread keeps draining stdout
/// so a chatty child can never fill the pipe and wedge.
fn wait_for_banner(
    stdout: std::process::ChildStdout,
    timeout: Duration,
) -> Result<(SocketAddr, u32, usize), String> {
    let (tx, rx) = retypd_core::sync::mpsc::channel();
    retypd_core::sync::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    let _ = tx.send(None);
                    break;
                }
                Ok(_) => {
                    if let Some(parsed) = parse_ready_banner(line.trim_end()) {
                        let _ = tx.send(Some(parsed));
                        // Keep draining so later writes cannot block the
                        // child; EOF ends the thread.
                        let mut sink = String::new();
                        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                            sink.clear();
                        }
                        break;
                    }
                }
                Err(_) => {
                    let _ = tx.send(None);
                    break;
                }
            }
        }
    });
    match rx.recv_timeout(timeout) {
        Ok(Some(parsed)) => Ok(parsed),
        Ok(None) => Err("backend exited before announcing readiness".into()),
        Err(_) => Err(format!("no readiness banner within {timeout:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_backend_launches_to_its_configured_addr() {
        // Port 0: the External spec never binds, the addr is only echoed —
        // and a fixed port would trip the no-fixed-ports lint for nothing.
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let b = Backend::new(3, BackendSpec::External { addr });
        assert_eq!(b.launch(Duration::from_secs(1)).unwrap(), addr);
        assert!(!b.restartable());
        assert!(!b.healthy(), "health is the prober's verdict, not launch's");
        assert!(!b.child_exited());
    }

    #[test]
    fn health_transitions_report_the_previous_state() {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let b = Backend::new(0, BackendSpec::External { addr });
        assert!(!b.set_healthy(true));
        assert!(b.set_healthy(true), "idempotent re-mark sees healthy");
        assert!(b.set_healthy(false));
        assert!(!b.set_healthy(false));
    }

    #[test]
    fn spawn_failure_is_an_error_not_a_panic() {
        let b = Backend::new(
            1,
            BackendSpec::Spawn {
                program: PathBuf::from("/nonexistent/retypd-serve-backend"),
                args: vec![],
                persist_dir: None,
            },
        );
        let err = b.launch(Duration::from_secs(1)).unwrap_err();
        assert!(err.contains("slot 1"), "error names the slot: {err}");
    }
}
