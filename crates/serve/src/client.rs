//! The client library: a thin, blocking wrapper over the wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues requests serially
//! (the protocol is request/response). Concurrency comes from owning
//! several clients, one per thread.
//!
//! The `*_in` request variants carry a [`LatticeDescriptor`] (absent ⇒
//! the server's default `c_types`), and [`Client::solve_batch_stream`]
//! returns a [`BatchStream`] iterator that yields each module's report as
//! its frame arrives — first results land while the rest of the batch is
//! still solving.

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use retypd_core::LatticeDescriptor;
use retypd_driver::ModuleJob;

use retypd_telemetry::MetricsSnapshot;

use crate::wire::{self, Request, Response, WireBatchDone, WireModule, WireReport, WireStats};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or protocol trouble.
    Wire(wire::WireError),
    /// The server refused the request at admission control.
    Overloaded {
        /// Jobs in flight at the server when it refused.
        queued: usize,
        /// The server's admission limit.
        limit: usize,
    },
    /// The server is draining.
    ShuttingDown,
    /// The server reported a request error.
    Server(String),
    /// One module of a streaming batch failed (e.g. a solver panic); the
    /// rest of the stream continues. Carries the module's submission
    /// index so the caller can mark or retry exactly that slot.
    Module {
        /// The failed module's position in the submitted batch.
        index: usize,
        /// The server's description of the failure.
        message: String,
    },
    /// The server answered with a response kind the call did not expect.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Overloaded { queued, limit } => {
                write!(f, "server overloaded ({queued}/{limit} jobs in flight)")
            }
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Module { index, message } => {
                write!(f, "module {index} failed: {message}")
            }
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<wire::WireError> for ClientError {
    fn from(e: wire::WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Wire(wire::WireError::Io(e))
    }
}

/// The error a reply stands for when it is not the one a call expects.
fn refusal(resp: Response) -> ClientError {
    match resp {
        Response::Overloaded { queued, limit } => ClientError::Overloaded { queued, limit },
        Response::ShuttingDown => ClientError::ShuttingDown,
        Response::Error(m) => ClientError::Server(m),
        other => ClientError::Unexpected(format!("{other:?}")),
    }
}

/// A blocking connection to a `retypd-serve` server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Fails if the address does not resolve or the connection is refused.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Connects, retrying until `timeout` elapses — for racing a server
    /// that is still binding its socket (a freshly spawned process).
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the deadline passes.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => retypd_core::sync::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Sends one encoded request and decodes its one reply.
    fn exchange(&mut self, request: &[u8]) -> Result<Response, ClientError> {
        wire::write_frame(&mut self.stream, request)?;
        let payload = wire::read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Unexpected("server closed the connection".into()))?;
        Ok(Response::decode(&payload)?)
    }

    /// The reports of a `solved` reply to a request for `n` modules.
    fn expect_solved(resp: Response, n: usize) -> Result<Vec<WireReport>, ClientError> {
        match resp {
            Response::Solved(reports) if reports.len() == n => Ok(reports),
            Response::Solved(reports) => Err(ClientError::Unexpected(format!(
                "{} reports for {n} modules",
                reports.len()
            ))),
            other => Err(refusal(other)),
        }
    }

    /// Solves one module against the server's default lattice.
    ///
    /// # Errors
    ///
    /// [`ClientError::Overloaded`] when admission control refuses the job;
    /// other variants for protocol or server failures.
    pub fn solve_module(&mut self, job: &ModuleJob) -> Result<WireReport, ClientError> {
        self.solve_module_in(job, None)
    }

    /// Solves one module against a described lattice (`None` = the
    /// server's default `c_types`). The report's `lattice_fp` names the
    /// lattice it was solved against.
    ///
    /// # Errors
    ///
    /// As [`Client::solve_module`], plus [`ClientError::Server`] for an
    /// invalid lattice descriptor.
    pub fn solve_module_in(
        &mut self,
        job: &ModuleJob,
        lattice: Option<&LatticeDescriptor>,
    ) -> Result<WireReport, ClientError> {
        self.solve_module_traced(job, lattice, None)
    }

    /// [`Client::solve_module_in`] with a request-scoped `trace_id`: the
    /// server stamps the solve's tracing spans with it and echoes it in
    /// the report (`WireReport::trace_id`).
    ///
    /// # Errors
    ///
    /// As [`Client::solve_module_in`]; additionally the server rejects ids
    /// that are empty or longer than [`wire::MAX_TRACE_ID_BYTES`].
    pub fn solve_module_traced(
        &mut self,
        job: &ModuleJob,
        lattice: Option<&LatticeDescriptor>,
        trace_id: Option<&str>,
    ) -> Result<WireReport, ClientError> {
        let module = WireModule::from_job(job);
        let resp = self.exchange(&Request::encode_solve_module(&module, lattice, trace_id))?;
        Ok(Self::expect_solved(resp, 1)?.remove(0))
    }

    /// Solves a batch against the server's default lattice; reports come
    /// back in submission order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Overloaded`] when other in-flight work leaves no
    /// room in the admission budget (admission is all-or-nothing, so
    /// retrying later can succeed); [`ClientError::Server`] when the batch
    /// is bigger than the server's whole budget and could *never* be
    /// admitted — split it instead of retrying; other variants for
    /// protocol or server failures.
    pub fn solve_batch(&mut self, jobs: &[ModuleJob]) -> Result<Vec<WireReport>, ClientError> {
        let modules = jobs.iter().map(WireModule::from_job).collect();
        let resp = self.exchange(&Request::solve_batch(modules).encode())?;
        Self::expect_solved(resp, jobs.len())
    }

    /// Submits a streaming batch: the server answers with one `report`
    /// frame per module *as it finishes* plus a terminal `batch_done`.
    /// The returned [`BatchStream`] yields `(submission index, report)`
    /// pairs in completion order; after it is exhausted,
    /// [`BatchStream::summary`] holds the aggregate stats. The reassembled
    /// set is bit-identical to [`Client::solve_batch`]'s reply.
    ///
    /// # Errors
    ///
    /// Pre-admission refusals surface here ([`ClientError::Overloaded`],
    /// [`ClientError::ShuttingDown`], [`ClientError::Server`]); per-module
    /// failures surface as `Err` items of the stream without ending it.
    pub fn solve_batch_stream(
        &mut self,
        jobs: &[ModuleJob],
        lattice: Option<&LatticeDescriptor>,
    ) -> Result<BatchStream<'_>, ClientError> {
        let modules = jobs.iter().map(WireModule::from_job).collect();
        wire::write_frame(
            &mut self.stream,
            &Request::SolveBatch {
                modules,
                lattice: lattice.cloned(),
                stream: true,
                trace_id: None,
            }
            .encode(),
        )?;
        // Peek the first frame so admission refusals become plain errors
        // instead of iterator items.
        let first = Self::read_stream_frame(&mut self.stream)?;
        let pending = match first {
            Response::Report { .. } | Response::BatchDone(_) => first,
            other => return Err(refusal(other)),
        };
        Ok(BatchStream {
            client: self,
            pending: Some(pending),
            summary: None,
            poisoned: false,
        })
    }

    fn read_stream_frame(stream: &mut TcpStream) -> Result<Response, ClientError> {
        let payload = wire::read_frame(stream)?.ok_or_else(|| {
            ClientError::Unexpected("server closed the connection mid-stream".into())
        })?;
        Ok(Response::decode(&payload)?)
    }

    /// Fetches server statistics.
    ///
    /// # Errors
    ///
    /// Fails on protocol or server errors.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.exchange(&Request::Stats.encode())? {
            Response::Stats(s) => Ok(s),
            other => Err(refusal(other)),
        }
    }

    /// Fetches the merged telemetry registry: counters, gauges, and
    /// histogram buckets (quantiles via
    /// [`retypd_telemetry::HistogramSnapshot::quantile`]).
    ///
    /// # Errors
    ///
    /// Fails on protocol or server errors.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.exchange(&Request::Metrics.encode())? {
            Response::Metrics(m) => Ok(m),
            other => Err(refusal(other)),
        }
    }

    /// Fetches the telemetry registry and renders it as Prometheus-style
    /// exposition text ([`MetricsSnapshot::to_text`]).
    ///
    /// # Errors
    ///
    /// As [`Client::metrics`].
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        Ok(self.metrics()?.to_text())
    }

    /// Asks the server to drain and stop. Success requires the
    /// `shutting_down` ack frame: the server joins its connection handlers
    /// on drain, so the ack is always delivered before the process exits —
    /// a hang-up here is a real failure, not an acceptable race.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors, a hang-up before the ack, or if the
    /// request cannot be sent.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        wire::write_frame(&mut self.stream, &Request::Shutdown.encode())?;
        match wire::read_frame(&mut self.stream)? {
            Some(payload) => match Response::decode(&payload)? {
                Response::ShuttingDown => Ok(()),
                other => Err(refusal(other)),
            },
            None => Err(ClientError::Unexpected(
                "server hung up before acknowledging shutdown".into(),
            )),
        }
    }
}

/// The streaming-batch iterator returned by [`Client::solve_batch_stream`].
///
/// Yields `Ok((submission index, report))` per finished module (completion
/// order — reassemble by index) and `Err(ClientError::Module { .. })` for
/// per-module failures (the stream continues). A wire-level failure
/// poisons the stream: iteration ends and the connection should be
/// dropped. Iterate with `while let Some(item) = stream.next()`, then read
/// [`BatchStream::summary`].
pub struct BatchStream<'c> {
    client: &'c mut Client,
    pending: Option<Response>,
    summary: Option<WireBatchDone>,
    poisoned: bool,
}

impl BatchStream<'_> {
    /// The terminal `batch_done` stats; `Some` once the stream is
    /// exhausted cleanly.
    pub fn summary(&self) -> Option<&WireBatchDone> {
        self.summary.as_ref()
    }
}

impl Iterator for BatchStream<'_> {
    type Item = Result<(usize, WireReport), ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.summary.is_some() || self.poisoned {
            return None;
        }
        let frame = match self.pending.take() {
            Some(f) => f,
            None => match Client::read_stream_frame(&mut self.client.stream) {
                Ok(f) => f,
                Err(e) => {
                    self.poisoned = true;
                    return Some(Err(e));
                }
            },
        };
        match frame {
            Response::Report { index, result } => Some(match result {
                Ok(report) => Ok((index, *report)),
                Err(message) => Err(ClientError::Module { index, message }),
            }),
            Response::BatchDone(done) => {
                self.summary = Some(done);
                None
            }
            other => {
                self.poisoned = true;
                Some(Err(ClientError::Unexpected(format!("{other:?}"))))
            }
        }
    }
}
