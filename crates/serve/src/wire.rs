//! The length-prefixed JSON wire protocol.
//!
//! ## Framing
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. Frames are capped at
//! [`MAX_FRAME_BYTES`] so a corrupt peer cannot induce an unbounded
//! allocation.
//!
//! ## Messages (protocol v2)
//!
//! Requests (`kind` discriminator): `solve_module`, `solve_batch`,
//! `stats`, `metrics`, `shutdown`. Responses: `solved`, `report`,
//! `batch_done`, `stats`, `metrics`, `overloaded`, `shutting_down`,
//! `error`. Programs travel as their canonical constraint text (the same
//! rendering the driver fingerprints), which `retypd_core::parse`
//! round-trips exactly — including `VAR` declarations and `Add`/`Sub`
//! additive constraints — so the server-side reconstruction is
//! solver-identical to the client's in-process program.
//!
//! **One dialect.** Serve, the gateway, the client and the fuzzer are one
//! build with one encoder, so the decoders accept exactly what it writes.
//! Every request carries `"v": 2`; a request without it, or with any
//! other value, is refused with an `error` reply. Every field the encoder
//! writes is required on decode, except the ones it omits at their
//! defaults (a request's `lattice`, `stream` and `trace_id`; a report's
//! `trace_id`).
//!
//! **Lattice descriptor.** Solve requests may carry a `lattice` field:
//! the canonical text of a [`retypd_core::LatticeDescriptor`]. Absent ⇒
//! [`retypd_core::Lattice::c_types`]. The server builds (and memoizes)
//! the described lattice and every scheme-cache key mixes in its
//! fingerprint, so two lattices never share cache entries; each report
//! names the lattice it was solved against in `lattice_fp`.
//!
//! **Streaming batches.** `solve_batch` with `"stream": true` answers with
//! one `report` frame per module *as it finishes* (completion order, each
//! tagged with its submission `index`) and a terminal `batch_done` frame
//! carrying aggregate stats; the reassembled set is bit-identical to the
//! single-frame `solved` reply. Pre-admission refusals (`overloaded`,
//! `shutting_down`, `error`) still arrive as a single frame.
//!
//! **One batch reply.** Every solve reply after admission, in serve and
//! in the gateway, is written by [`BatchReply`], so the two servers
//! cannot disagree on a reply's bytes.
//!
//! **Decoding copies each kept string once.** [`Request::decode`] and
//! [`Response::decode`] check a frame's UTF-8 once and parse it into a
//! [`Json`] tree that borrows every string without an escape from the
//! frame. They then consume the tree field by field, in a fixed order: a
//! string the message keeps is copied out of the frame once, or moved if
//! the parser had to unescape it (constraint text and sketches span
//! lines), and a `kind` is compared where it lies. Encoders build trees
//! that borrow the message, and [`write_frame`] sends a frame's prefix and
//! payload in one vectored write.
//!
//! Reports carry schemes and sketches in their canonical rendered form plus
//! the full [`SolverStats`]; [`WireReport::canonical_text`] is the
//! timing-free projection the determinism tests compare byte-for-byte
//! against in-process and sequential solves.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::time::Instant;

use retypd_core::parse::parse_derived_var;
use retypd_core::solver::{CallTarget, Callsite, PhaseNs, Procedure};
use retypd_core::{
    ConstraintSet, LatticeDescriptor, Program, SolverResult, SolverStats, Symbol, TypeScheme,
};
use retypd_driver::fingerprint::{program_fp_parts, scheme_fp_parts};
use retypd_driver::{CacheStats, ExternalText, ModuleJob, ModuleText, ProgramText};
use retypd_telemetry::{HistogramSnapshot, MetricsSnapshot};
use serde::{Deserialize, Serialize};

use crate::conn::{FrameReader, Polled};
use crate::json::Json;

/// Hard cap on one frame's payload (64 MiB): far above any real module,
/// far below an allocation that could hurt.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The protocol version this build speaks: every request carries it as
/// `"v"`, and a request carrying anything else is refused.
pub const PROTOCOL_VERSION: u64 = 2;

/// Longest accepted envelope `trace_id` (bytes). Long enough for a UUID
/// plus tenant prefix; short enough that echoing it back is never a
/// memory concern.
pub const MAX_TRACE_ID_BYTES: usize = 64;

/// A protocol error: framing, JSON, or message-shape trouble.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The payload was not valid JSON or not a valid message.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

fn proto(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

// ---------------------------------------------------------------------------
// Framing

/// Writes one frame (length prefix + payload).
///
/// The prefix and the payload go out in one vectored write, so on a
/// socket the frame leaves in one syscall (the reader never wakes on a
/// prefix alone) without copying the payload behind its prefix. Partial
/// writes are resumed until the whole frame is out.
///
/// # Errors
///
/// Fails on socket errors or an oversized payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(proto(format!(
            "frame of {} bytes exceeds cap",
            payload.len()
        )));
    }
    let prefix = (payload.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(WireError::Io(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF inside a frame is an error.
///
/// Both sides of the protocol use this blocking form of
/// [`crate::conn::FrameReader`]: the announced length is checked against
/// [`MAX_FRAME_BYTES`] before any allocation, and the payload buffer grows
/// with the bytes delivered, not the bytes promised.
///
/// # Errors
///
/// Fails on socket errors (a read timeout included), truncated frames, or
/// an oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    match FrameReader::default().poll(r)? {
        Polled::Frame(payload) => Ok(Some(payload)),
        Polled::Eof => Ok(None),
        Polled::Oversized(len) => Err(proto(format!("peer announced {len}-byte frame, over cap"))),
    }
}

fn encode_msg(j: &Json<'_>) -> Vec<u8> {
    j.encode().into_bytes()
}

/// Checks the frame's UTF-8 once; the tree borrows every unescaped
/// string from the payload.
fn decode_msg(payload: &[u8]) -> Result<Json<'_>, WireError> {
    let text = std::str::from_utf8(payload).map_err(|_| proto("frame is not UTF-8"))?;
    Json::parse(text).map_err(|e| proto(format!("bad JSON: {e}")))
}

// ---------------------------------------------------------------------------
// Wire data shapes

/// A module on the wire: a named program in canonical constraint text.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireModule {
    /// Module name (reporting only; excluded from routing fingerprints).
    pub name: String,
    /// Procedures in program order.
    pub procs: Vec<WireProc>,
    /// External-function schemes.
    pub externals: Vec<WireScheme>,
    /// Global variables (never renamed during instantiation).
    pub globals: Vec<String>,
}

/// One procedure on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireProc {
    /// Procedure name.
    pub name: String,
    /// Canonical constraint text (`ConstraintSet` display form).
    pub constraints: String,
    /// Callsites in body order.
    pub callsites: Vec<WireCallsite>,
}

/// One callsite on the wire. Internal callees are referenced by *name*
/// (indices are an in-memory detail).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireCallsite {
    /// True if the callee is an external function.
    pub external: bool,
    /// Callee name.
    pub callee: String,
    /// Instantiation tag.
    pub tag: String,
}

/// A type scheme on the wire (`TypeScheme` decomposed into its
/// constructor arguments, so reconstruction is exact).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireScheme {
    /// The name this scheme is registered under.
    pub name: String,
    /// The scheme's subject variable.
    pub subject: String,
    /// Quantified internal variable names.
    pub existentials: Vec<String>,
    /// Canonical constraint text.
    pub constraints: String,
}

/// Per-procedure inference output on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireProcResult {
    /// Procedure name.
    pub name: String,
    /// The inferred scheme, canonically rendered.
    pub scheme: String,
    /// The refined sketch (canonical `Debug` form), if any.
    pub sketch: Option<String>,
    /// The most-general sketch, if any.
    pub general: Option<String>,
}

/// One module's inference report on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireReport {
    /// Module name (as submitted).
    pub name: String,
    /// The module's content fingerprint (shard routing key).
    pub fingerprint: u64,
    /// Fingerprint of the lattice this module was solved against
    /// ([`retypd_core::Lattice::fingerprint`]); `Lattice::c_types()`'s
    /// fingerprint for a request without a `lattice`.
    pub lattice_fp: u64,
    /// The shard that solved it.
    pub shard: usize,
    /// Per-procedure results, in name order.
    pub procs: Vec<WireProcResult>,
    /// Scalar consistency violations.
    pub inconsistencies: Vec<(String, String)>,
    /// Solver statistics: `solve_ns`, cache counters and per-phase work
    /// (cache hits replay no phase work, so a fully warm report's phase
    /// fields are 0). Excluded from [`WireReport::canonical_text`].
    pub stats: SolverStats,
    /// Wall-clock nanoseconds the shard spent on this module.
    pub wall_ns: u64,
    /// The client-supplied `trace_id`, echoed verbatim; `None` when the
    /// request carried none.
    pub trace_id: Option<String>,
}

/// A shard's published statistics.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WireShardStats {
    /// Shard index.
    pub shard: usize,
    /// Modules this shard has solved.
    pub jobs: u64,
    /// Times this shard's driver was rebuilt after a solver panic. With a
    /// persistent store each rebuild replays to a warm cache; without one
    /// it restarts cold — either way the count makes the event observable.
    pub rebuilds: u64,
    /// The shard driver's cumulative cache counters.
    pub cache: CacheStats,
    /// Cache entries whose frames the shard's persistent store indexes as
    /// live on disk (0 when persistence is off).
    pub persisted_entries: u64,
    /// Entries the *current* driver replayed from its store at
    /// construction (0 when persistence is off or the store was empty).
    pub replayed_entries: u64,
    /// Wall-clock nanoseconds the current driver's replay took.
    pub replay_ns: u64,
}

/// The server-wide statistics reply.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireStats {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests rejected as `overloaded`.
    pub rejected: u64,
    /// Jobs currently admitted but not finished.
    pub queued: usize,
    /// The admission limit.
    pub queue_limit: usize,
    /// The serving process's OS pid. Lets a supervisor tie a socket to a
    /// child process without racing on spawn order.
    pub pid: u64,
    /// This process's start time, nanoseconds since the UNIX epoch. A
    /// restarted backend answers with a *larger* `start_ns` than its
    /// predecessor, so a supervisor can distinguish "same process, still
    /// healthy" from "recycled under the same addr".
    pub start_ns: u64,
    /// Per-shard statistics.
    pub shards: Vec<WireShardStats>,
}

/// Aggregate statistics closing a streaming batch (`batch_done`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireBatchDone {
    /// Modules in the batch as submitted.
    pub modules: usize,
    /// `report` frames delivered with a result (excludes per-module
    /// errors).
    pub delivered: usize,
    /// Per-module failures (solver panics, drain races) in arrival order.
    pub errors: Vec<String>,
    /// Server-side wall clock from admission to the last report.
    pub wall_ns: u64,
    /// Fingerprint of the lattice the batch was solved against.
    pub lattice_fp: u64,
}

/// A request message.
#[derive(Clone, Debug)]
pub enum Request {
    /// Solve one module, optionally against a described lattice.
    SolveModule {
        /// The module to solve.
        module: WireModule,
        /// The lattice to solve against; `None` means `c_types`.
        lattice: Option<LatticeDescriptor>,
        /// Request-scoped trace id (1–64 chars), echoed in the report and
        /// stamped on the solve's tracing spans.
        trace_id: Option<String>,
    },
    /// Solve a batch of modules; the response preserves order.
    SolveBatch {
        /// The modules to solve, in submission order.
        modules: Vec<WireModule>,
        /// The lattice to solve against; `None` means `c_types`.
        lattice: Option<LatticeDescriptor>,
        /// `true` answers with one `report` frame per module as it
        /// finishes plus a terminal `batch_done`, instead of a single
        /// `solved` frame.
        stream: bool,
        /// Request-scoped trace id (1–64 chars), echoed in every report.
        trace_id: Option<String>,
    },
    /// Fetch server statistics.
    Stats,
    /// Fetch the merged telemetry registry.
    Metrics,
    /// Begin a graceful drain: queued work finishes, new work is refused.
    Shutdown,
}

impl Request {
    /// A single-module request against the default lattice, untraced.
    pub fn solve_module(module: WireModule) -> Request {
        Request::SolveModule {
            module,
            lattice: None,
            trace_id: None,
        }
    }

    /// A batch request against the default lattice, untraced, answered
    /// with a single `solved` reply.
    pub fn solve_batch(modules: Vec<WireModule>) -> Request {
        Request::SolveBatch {
            modules,
            lattice: None,
            stream: false,
            trace_id: None,
        }
    }
}

/// A response message.
#[derive(Clone, Debug)]
pub enum Response {
    /// Reports for a solve request, in submission order.
    Solved(Vec<WireReport>),
    /// One module's result in a streaming batch, tagged with its
    /// submission index. `Err` carries a per-module failure (e.g. a solver
    /// panic) without aborting the rest of the stream.
    Report {
        /// The module's position in the submitted batch.
        index: usize,
        /// The module's report, or why it has none.
        result: Result<Box<WireReport>, String>,
    },
    /// Terminal frame of a streaming batch.
    BatchDone(WireBatchDone),
    /// Server statistics.
    Stats(WireStats),
    /// The request was refused by admission control.
    Overloaded {
        /// Jobs in flight when the request was refused.
        queued: usize,
        /// The admission limit.
        limit: usize,
    },
    /// The merged telemetry registry. On the wire each histogram carries
    /// its non-empty buckets and the `p50`/`p95`/`p99` derived from them.
    Metrics(MetricsSnapshot),
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// The request could not be processed.
    Error(String),
}

// ---------------------------------------------------------------------------
// Program <-> wire conversion

impl WireModule {
    /// Renders a [`ModuleJob`] into its wire form: the job's
    /// [`ProgramText::render`] beside its names and callsites.
    pub fn from_job(job: &ModuleJob) -> WireModule {
        let program = &job.program;
        let text = ProgramText::render(program);
        WireModule {
            name: job.name.clone(),
            procs: std::iter::zip(&program.procs, text.procs)
                .map(|(p, constraints)| WireProc {
                    name: p.name.as_str().to_owned(),
                    constraints,
                    callsites: p
                        .callsites
                        .iter()
                        .map(|cs| WireCallsite {
                            external: matches!(cs.callee, CallTarget::External(_)),
                            callee: cs.callee_name(program).as_str().to_owned(),
                            tag: cs.tag.clone(),
                        })
                        .collect(),
                })
                .collect(),
            externals: text
                .externals
                .into_iter()
                .map(|e| WireScheme {
                    name: e.name.as_str().to_owned(),
                    subject: e.subject,
                    existentials: e.existentials,
                    constraints: e.constraints,
                })
                .collect(),
            globals: text.globals,
        }
    }

    /// Reconstructs the [`ModuleJob`] this wire form describes: the
    /// structure, then the constraint text. The result is solver-identical
    /// to the job that produced it: constraint text, `VAR` declarations,
    /// and additive constraints all round-trip.
    ///
    /// # Errors
    ///
    /// Fails as [`WireModule::structure`] does, then on unparsable
    /// constraint text.
    pub fn to_job(&self) -> Result<ModuleJob, WireError> {
        self.clone().into_text()?.into_job().map_err(proto)
    }

    /// The module as the driver solves it: its [`WireModule::structure`]
    /// beside its text, moved as it arrived. Nothing is parsed but names;
    /// [`retypd_driver::AnalysisDriver::solve_text`] parses the constraint
    /// text only if the solve misses the cache.
    ///
    /// # Errors
    ///
    /// Fails as [`WireModule::structure`] does.
    pub fn into_text(self) -> Result<ModuleText, WireError> {
        let structure = self.structure()?;
        let text = ProgramText {
            procs: self.procs.into_iter().map(|p| p.constraints).collect(),
            externals: self
                .externals
                .into_iter()
                .map(|e| ExternalText {
                    name: Symbol::intern(&e.name),
                    subject: e.subject,
                    existentials: e.existentials,
                    constraints: e.constraints,
                })
                .collect(),
            globals: self.globals,
        };
        Ok(ModuleText::new(self.name, structure, text))
    }

    /// The structural half of [`WireModule::to_job`]: procedure names with
    /// their callsites resolved, external subjects and existentials, and
    /// globals, every constraint set left empty. Serve checks this before
    /// admitting a module, and the gateway before forwarding a
    /// single-frame batch.
    ///
    /// # Errors
    ///
    /// Fails on a callsite referencing an unknown procedure, an external
    /// subject or a global that does not parse or carries labels.
    pub fn structure(&self) -> Result<Program, WireError> {
        let mut program = Program::new();
        // Procedure indices are positional, so resolve names first.
        let index_of: BTreeMap<&str, usize> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();
        for p in &self.procs {
            let callsites = p
                .callsites
                .iter()
                .map(|cs| {
                    let callee = if cs.external {
                        CallTarget::External(Symbol::intern(&cs.callee))
                    } else {
                        CallTarget::Internal(*index_of.get(cs.callee.as_str()).ok_or_else(
                            || proto(format!("{}: unknown callee {}", p.name, cs.callee)),
                        )?)
                    };
                    Ok(Callsite {
                        callee,
                        tag: cs.tag.clone(),
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            program.add_proc(Procedure {
                name: Symbol::intern(&p.name),
                constraints: ConstraintSet::new(),
                callsites,
            });
        }
        for e in &self.externals {
            let subject_dv = parse_derived_var(&e.subject)
                .map_err(|err| proto(format!("external {}: {err}", e.name)))?;
            if !subject_dv.path().is_empty() {
                return Err(proto(format!("external {}: subject has labels", e.name)));
            }
            let existentials: BTreeSet<Symbol> =
                e.existentials.iter().map(|x| Symbol::intern(x)).collect();
            program.externals.insert(
                Symbol::intern(&e.name),
                TypeScheme::new(subject_dv.base(), existentials, ConstraintSet::new()),
            );
        }
        for g in &self.globals {
            let dv = parse_derived_var(g).map_err(|e| proto(format!("global {g}: {e}")))?;
            if !dv.path().is_empty() {
                return Err(proto(format!("global {g} has labels")));
            }
            program.globals.insert(dv.base());
        }
        Ok(program)
    }

    /// The routing fingerprint, hashed from the wire strings as they
    /// arrived: nothing is parsed, interned or re-rendered. The strings
    /// go through [`program_fp_parts`] — the globals' text, each
    /// external's name and [`scheme_fp_parts`] over its subject,
    /// existentials and constraint text, each procedure's name,
    /// constraint text and callsites — so
    /// `WireModule::from_job(&job).fingerprint() == job.fingerprint()`.
    /// The module name is not hashed.
    ///
    /// Text in any other rendering (reordered constraints, say)
    /// reconstructs to an equal job yet fingerprints differently, so it
    /// may route to another backend or shard than the canonical text:
    /// routing by text can cost warm affinity, never an answer. A module
    /// whose text does not parse still fingerprints; whoever solves it
    /// refuses it.
    pub fn fingerprint(&self) -> u64 {
        program_fp_parts(
            self.globals.iter(),
            self.externals.iter().map(|e| {
                let existentials = e.existentials.iter().map(String::as_str);
                (e.name.as_str(), scheme_fp_parts(&e.subject, existentials, &e.constraints))
            }),
            self.procs.iter().map(|p| {
                let callsites = p
                    .callsites
                    .iter()
                    .map(|cs| (cs.tag.as_str(), cs.external, cs.callee.as_str()));
                (p.name.as_str(), p.constraints.as_str(), callsites)
            }),
        )
    }
}

impl WireReport {
    /// Builds a report from a bare [`SolverResult`] (fingerprints, shard,
    /// and wall clock zeroed; the serve shard sets them) — also the shape
    /// used for in-process references in the determinism tests and the
    /// benchmark.
    ///
    /// Every scheme and sketch renders into one reused buffer and is copied
    /// out at its final length.
    pub fn from_result(name: &str, result: &SolverResult) -> WireReport {
        let mut buf = String::new();
        let mut text = |args: fmt::Arguments<'_>| {
            buf.clear();
            let _ = fmt::Write::write_fmt(&mut buf, args);
            buf.as_str().to_owned()
        };
        WireReport {
            name: name.to_owned(),
            fingerprint: 0,
            lattice_fp: 0,
            shard: 0,
            procs: result
                .procs
                .iter()
                .map(|(pname, pr)| WireProcResult {
                    name: pname.as_str().to_owned(),
                    scheme: text(format_args!("{}", pr.scheme)),
                    sketch: pr.sketch.as_ref().map(|s| text(format_args!("{s:?}"))),
                    general: pr
                        .general_sketch
                        .as_ref()
                        .map(|s| text(format_args!("{s:?}"))),
                })
                .collect(),
            inconsistencies: result
                .inconsistencies
                .iter()
                .map(|(a, b)| (a.as_str().to_owned(), b.as_str().to_owned()))
                .collect(),
            stats: result.stats,
            wall_ns: 0,
            trace_id: None,
        }
    }

    /// The timing-free canonical projection: schemes, sketches, and
    /// inconsistencies. Two solves of the same module — over the wire, in
    /// process, sequential — must produce byte-identical canonical text;
    /// the determinism tests compare exactly this.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.procs {
            let _ = writeln!(out, "{}: {}", p.name, p.scheme);
            let _ = writeln!(out, "  sketch: {:?}", p.sketch);
            let _ = writeln!(out, "  general: {:?}", p.general);
        }
        let _ = writeln!(out, "{:?}", self.inconsistencies);
        out
    }
}

// ---------------------------------------------------------------------------
// JSON encoding/decoding

impl WireModule {
    fn to_json(&self) -> Json<'_> {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            (
                "procs".into(),
                Json::Arr(
                    self.procs
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&p.name)),
                                ("constraints".into(), Json::str(&p.constraints)),
                                (
                                    "callsites".into(),
                                    Json::Arr(
                                        p.callsites
                                            .iter()
                                            .map(|cs| {
                                                Json::Obj(vec![
                                                    (
                                                        "external".into(),
                                                        Json::Bool(cs.external),
                                                    ),
                                                    ("callee".into(), Json::str(&cs.callee)),
                                                    ("tag".into(), Json::str(&cs.tag)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "externals".into(),
                Json::Arr(
                    self.externals
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&e.name)),
                                ("subject".into(), Json::str(&e.subject)),
                                (
                                    "existentials".into(),
                                    Json::Arr(
                                        e.existentials.iter().map(Json::str).collect(),
                                    ),
                                ),
                                ("constraints".into(), Json::str(&e.constraints)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "globals".into(),
                Json::Arr(self.globals.iter().map(Json::str).collect()),
            ),
        ])
    }

    fn from_json(mut j: Json<'_>) -> Result<WireModule, WireError> {
        Ok(WireModule {
            name: str_field(&mut j, "name")?,
            procs: each(arr_field(&mut j, "procs")?, |mut p| {
                Ok(WireProc {
                    name: str_field(&mut p, "name")?,
                    constraints: str_field(&mut p, "constraints")?,
                    callsites: each(arr_field(&mut p, "callsites")?, |mut cs| {
                        Ok(WireCallsite {
                            external: bool_field(&cs, "external")?,
                            callee: str_field(&mut cs, "callee")?,
                            tag: str_field(&mut cs, "tag")?,
                        })
                    })?,
                })
            })?,
            externals: each(arr_field(&mut j, "externals")?, |mut e| {
                Ok(WireScheme {
                    name: str_field(&mut e, "name")?,
                    subject: str_field(&mut e, "subject")?,
                    existentials: str_arr_field(&mut e, "existentials")?,
                    constraints: str_field(&mut e, "constraints")?,
                })
            })?,
            globals: str_arr_field(&mut j, "globals")?,
        })
    }
}

fn stats_to_json(s: &SolverStats) -> Json<'static> {
    Json::Obj(vec![
        ("graph_nodes".into(), Json::usize(s.graph_nodes)),
        ("graph_edges".into(), Json::usize(s.graph_edges)),
        ("quotient_nodes".into(), Json::usize(s.quotient_nodes)),
        ("sketch_states".into(), Json::usize(s.sketch_states)),
        ("constraints".into(), Json::usize(s.constraints)),
        ("solve_ns".into(), Json::u64(s.solve_ns)),
        ("cache_hits".into(), Json::u64(s.cache_hits)),
        ("cache_misses".into(), Json::u64(s.cache_misses)),
        ("saturate_ns".into(), Json::u64(s.phases.saturate_ns)),
        ("transducer_ns".into(), Json::u64(s.phases.transducer_ns)),
        ("simplify_ns".into(), Json::u64(s.phases.simplify_ns)),
        ("sketch_ns".into(), Json::u64(s.phases.sketch_ns)),
        ("combine_ns".into(), Json::u64(s.phases.combine_ns)),
        ("saturations".into(), Json::u64(s.phases.saturations)),
    ])
}

fn stats_from_json(j: &Json<'_>) -> Result<SolverStats, WireError> {
    Ok(SolverStats {
        graph_nodes: usize_field(j, "graph_nodes")?,
        graph_edges: usize_field(j, "graph_edges")?,
        quotient_nodes: usize_field(j, "quotient_nodes")?,
        sketch_states: usize_field(j, "sketch_states")?,
        constraints: usize_field(j, "constraints")?,
        solve_ns: u64_field(j, "solve_ns")?,
        cache_hits: u64_field(j, "cache_hits")?,
        cache_misses: u64_field(j, "cache_misses")?,
        phases: PhaseNs {
            combine_ns: u64_field(j, "combine_ns")?,
            saturate_ns: u64_field(j, "saturate_ns")?,
            transducer_ns: u64_field(j, "transducer_ns")?,
            simplify_ns: u64_field(j, "simplify_ns")?,
            sketch_ns: u64_field(j, "sketch_ns")?,
            saturations: u64_field(j, "saturations")?,
        },
    })
}

impl WireReport {
    fn to_json(&self) -> Json<'_> {
        let mut fields = vec![
            ("name".into(), Json::str(&self.name)),
            ("fingerprint".into(), Json::u64(self.fingerprint)),
            ("lattice_fp".into(), Json::u64(self.lattice_fp)),
            ("shard".into(), Json::usize(self.shard)),
            (
                "procs".into(),
                Json::Arr(
                    self.procs
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&p.name)),
                                ("scheme".into(), Json::str(&p.scheme)),
                                (
                                    "sketch".into(),
                                    p.sketch.as_ref().map_or(Json::Null, Json::str),
                                ),
                                (
                                    "general".into(),
                                    p.general.as_ref().map_or(Json::Null, Json::str),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "inconsistencies".into(),
                Json::Arr(
                    self.inconsistencies
                        .iter()
                        .map(|(a, b)| Json::Arr(vec![Json::str(a), Json::str(b)]))
                        .collect(),
                ),
            ),
            ("stats".into(), stats_to_json(&self.stats)),
            ("wall_ns".into(), Json::u64(self.wall_ns)),
        ];
        if let Some(t) = &self.trace_id {
            fields.push(("trace_id".into(), Json::str(t)));
        }
        Json::Obj(fields)
    }

    fn from_json(mut j: Json<'_>) -> Result<WireReport, WireError> {
        Ok(WireReport {
            name: str_field(&mut j, "name")?,
            fingerprint: u64_field(&j, "fingerprint")?,
            lattice_fp: u64_field(&j, "lattice_fp")?,
            shard: usize_field(&j, "shard")?,
            procs: each(arr_field(&mut j, "procs")?, |mut p| {
                Ok(WireProcResult {
                    name: str_field(&mut p, "name")?,
                    scheme: str_field(&mut p, "scheme")?,
                    sketch: nullable_str_field(&mut p, "sketch")?,
                    general: nullable_str_field(&mut p, "general")?,
                })
            })?,
            inconsistencies: each(arr_field(&mut j, "inconsistencies")?, |pair| {
                let Json::Arr(items) = pair else {
                    return Err(proto("inconsistency entries are 2-element arrays"));
                };
                let [a, b] = <[Json<'_>; 2]>::try_from(items)
                    .map_err(|_| proto("inconsistency entries are 2-element arrays"))?;
                let member = |j: Json<'_>| {
                    into_string(j).ok_or_else(|| proto("inconsistency members are strings"))
                };
                Ok((member(a)?, member(b)?))
            })?,
            stats: stats_from_json(j.get("stats").ok_or_else(|| proto("missing stats"))?)?,
            wall_ns: u64_field(&j, "wall_ns")?,
            trace_id: opt_str_field(&mut j, "trace_id")?,
        })
    }
}

fn shard_stats_to_json(s: &WireShardStats) -> Json<'static> {
    Json::Obj(vec![
        ("shard".into(), Json::usize(s.shard)),
        ("jobs".into(), Json::u64(s.jobs)),
        ("rebuilds".into(), Json::u64(s.rebuilds)),
        ("hits".into(), Json::u64(s.cache.hits)),
        ("misses".into(), Json::u64(s.cache.misses)),
        ("evictions".into(), Json::u64(s.cache.evictions)),
        ("scheme_entries".into(), Json::usize(s.cache.scheme_entries)),
        ("refine_entries".into(), Json::usize(s.cache.refine_entries)),
        ("persisted_entries".into(), Json::u64(s.persisted_entries)),
        ("replayed_entries".into(), Json::u64(s.replayed_entries)),
        ("replay_ns".into(), Json::u64(s.replay_ns)),
    ])
}

fn shard_stats_from_json(j: Json<'_>) -> Result<WireShardStats, WireError> {
    Ok(WireShardStats {
        shard: usize_field(&j, "shard")?,
        jobs: u64_field(&j, "jobs")?,
        rebuilds: u64_field(&j, "rebuilds")?,
        cache: CacheStats {
            hits: u64_field(&j, "hits")?,
            misses: u64_field(&j, "misses")?,
            evictions: u64_field(&j, "evictions")?,
            scheme_entries: usize_field(&j, "scheme_entries")?,
            refine_entries: usize_field(&j, "refine_entries")?,
        },
        persisted_entries: u64_field(&j, "persisted_entries")?,
        replayed_entries: u64_field(&j, "replayed_entries")?,
        replay_ns: u64_field(&j, "replay_ns")?,
    })
}

/// An object's members, keyed by `'static` names or borrowed text.
type Members<'a> = Vec<(Cow<'a, str>, Json<'a>)>;

/// A request's `v` and `kind` fields.
fn envelope(kind: &'static str) -> Members<'static> {
    vec![
        ("v".into(), Json::u64(PROTOCOL_VERSION)),
        ("kind".into(), Json::str(kind)),
    ]
}

/// A solve request's envelope with its `lattice` and `trace_id`, each
/// omitted at its default.
fn solve_envelope<'a>(
    kind: &'static str,
    lattice: Option<&LatticeDescriptor>,
    trace_id: Option<&'a str>,
) -> Members<'a> {
    let mut fields = envelope(kind);
    if let Some(d) = lattice {
        fields.push(("lattice".into(), Json::str(d.to_string())));
    }
    if let Some(id) = trace_id {
        fields.push(("trace_id".into(), Json::str(id)));
    }
    fields
}

impl Request {
    /// Encodes this request into a frame payload (a v2 envelope; the
    /// `lattice`, `stream` and `trace_id` fields are omitted at their
    /// defaults).
    pub fn encode(&self) -> Vec<u8> {
        let j = match self {
            Request::SolveModule {
                module,
                lattice,
                trace_id,
            } => {
                return Request::encode_solve_module(module, lattice.as_ref(), trace_id.as_deref())
            }
            Request::SolveBatch {
                modules,
                lattice,
                stream,
                trace_id,
            } => {
                let mut fields =
                    solve_envelope("solve_batch", lattice.as_ref(), trace_id.as_deref());
                if *stream {
                    fields.push(("stream".into(), Json::Bool(true)));
                }
                fields.push((
                    "modules".into(),
                    Json::Arr(modules.iter().map(WireModule::to_json).collect()),
                ));
                Json::Obj(fields)
            }
            Request::Stats => Json::Obj(envelope("stats")),
            Request::Metrics => Json::Obj(envelope("metrics")),
            Request::Shutdown => Json::Obj(envelope("shutdown")),
        };
        encode_msg(&j)
    }

    /// Encodes a `solve_module` request from borrowed parts: the payload
    /// [`Request::encode`] writes for the equal [`Request::SolveModule`],
    /// without moving or cloning the module, lattice or trace id into one.
    pub fn encode_solve_module(
        module: &WireModule,
        lattice: Option<&LatticeDescriptor>,
        trace_id: Option<&str>,
    ) -> Vec<u8> {
        let mut fields = solve_envelope("solve_module", lattice, trace_id);
        fields.push(("module".into(), module.to_json()));
        encode_msg(&Json::Obj(fields))
    }

    /// Decodes a request from a frame payload. The frame's UTF-8 is
    /// checked once and every string of the module is copied once, from
    /// the payload into the [`WireModule`] (an escaped string is moved,
    /// as unescaped by the parser).
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a missing `v` or one other than
    /// [`PROTOCOL_VERSION`], an unknown `kind`, or an unparsable lattice
    /// descriptor.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut j = decode_msg(payload)?;
        let version = u64_field(&j, "v")?;
        if version != PROTOCOL_VERSION {
            return Err(proto(format!(
                "protocol version {version} not supported (this server speaks {PROTOCOL_VERSION})"
            )));
        }
        let lattice = match j.get("lattice") {
            None | Some(Json::Null) => None,
            Some(Json::Str(text)) => Some(
                text.parse::<LatticeDescriptor>()
                    .map_err(|e| proto(format!("bad lattice descriptor: {e}")))?,
            ),
            Some(_) => return Err(proto("field \"lattice\" must be a string")),
        };
        let stream = match j.get("stream") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(proto("field \"stream\" must be a bool")),
        };
        // Envelope-level trace id: validated for every kind (control
        // requests simply have no report to echo it in).
        let trace_id = match j.take("trace_id") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) if !s.is_empty() && s.len() <= MAX_TRACE_ID_BYTES => {
                Some(s.into_owned())
            }
            Some(Json::Str(_)) => {
                return Err(proto(format!(
                    "field \"trace_id\" must be 1..={MAX_TRACE_ID_BYTES} bytes"
                )))
            }
            Some(_) => return Err(proto("field \"trace_id\" must be a string")),
        };
        match &*str_ref_field(&mut j, "kind")? {
            "solve_module" => Ok(Request::SolveModule {
                module: WireModule::from_json(
                    j.take("module").ok_or_else(|| proto("missing module"))?,
                )?,
                lattice,
                trace_id,
            }),
            "solve_batch" => Ok(Request::SolveBatch {
                modules: each(arr_field(&mut j, "modules")?, WireModule::from_json)?,
                lattice,
                stream,
                trace_id,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(proto(format!("unknown request kind {other:?}"))),
        }
    }
}

impl Response {
    /// Encodes this response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let j = match self {
            Response::Solved(reports) => Json::Obj(vec![
                ("kind".into(), Json::str("solved")),
                (
                    "reports".into(),
                    Json::Arr(reports.iter().map(WireReport::to_json).collect()),
                ),
            ]),
            Response::Report { index, result } => {
                let mut fields = vec![
                    ("kind".into(), Json::str("report")),
                    ("index".into(), Json::usize(*index)),
                ];
                match result {
                    Ok(r) => fields.push(("report".into(), r.to_json())),
                    Err(m) => fields.push(("error".into(), Json::str(m))),
                }
                Json::Obj(fields)
            }
            Response::BatchDone(d) => Json::Obj(vec![
                ("kind".into(), Json::str("batch_done")),
                ("modules".into(), Json::usize(d.modules)),
                ("delivered".into(), Json::usize(d.delivered)),
                (
                    "errors".into(),
                    Json::Arr(d.errors.iter().map(Json::str).collect()),
                ),
                ("wall_ns".into(), Json::u64(d.wall_ns)),
                ("lattice_fp".into(), Json::u64(d.lattice_fp)),
            ]),
            Response::Stats(s) => Json::Obj(vec![
                ("kind".into(), Json::str("stats")),
                ("accepted".into(), Json::u64(s.accepted)),
                ("rejected".into(), Json::u64(s.rejected)),
                ("queued".into(), Json::usize(s.queued)),
                ("queue_limit".into(), Json::usize(s.queue_limit)),
                ("pid".into(), Json::u64(s.pid)),
                ("start_ns".into(), Json::u64(s.start_ns)),
                (
                    "shards".into(),
                    Json::Arr(s.shards.iter().map(shard_stats_to_json).collect()),
                ),
            ]),
            Response::Overloaded { queued, limit } => Json::Obj(vec![
                ("kind".into(), Json::str("overloaded")),
                ("queued".into(), Json::usize(*queued)),
                ("limit".into(), Json::usize(*limit)),
            ]),
            Response::Metrics(m) => Json::Obj(vec![
                ("kind".into(), Json::str("metrics")),
                (
                    "counters".into(),
                    Json::Obj(
                        m.counters
                            .iter()
                            .map(|(n, v)| (n.into(), Json::u64(*v)))
                            .collect(),
                    ),
                ),
                (
                    "gauges".into(),
                    Json::Obj(
                        m.gauges
                            .iter()
                            .map(|(n, v)| (n.into(), Json::Num(v.to_string().into())))
                            .collect(),
                    ),
                ),
                (
                    "histograms".into(),
                    Json::Arr(
                        m.histograms
                            .iter()
                            .map(|(name, h)| {
                                let buckets = h
                                    .nonzero_buckets()
                                    .into_iter()
                                    .map(|(b, c)| Json::Arr(vec![Json::u64(b), Json::u64(c)]))
                                    .collect();
                                Json::Obj(vec![
                                    ("name".into(), Json::str(name)),
                                    ("count".into(), Json::u64(h.count)),
                                    ("sum".into(), Json::u64(h.sum)),
                                    ("buckets".into(), Json::Arr(buckets)),
                                    ("p50".into(), Json::u64(h.quantile(50, 100))),
                                    ("p95".into(), Json::u64(h.quantile(95, 100))),
                                    ("p99".into(), Json::u64(h.quantile(99, 100))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::ShuttingDown => {
                Json::Obj(vec![("kind".into(), Json::str("shutting_down"))])
            }
            Response::Error(m) => Json::Obj(vec![
                ("kind".into(), Json::str("error")),
                ("message".into(), Json::str(m)),
            ]),
        };
        encode_msg(&j)
    }

    /// Decodes a response from a frame payload, copying each string it
    /// keeps once, as [`Request::decode`] does.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or an unknown `kind`.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut j = decode_msg(payload)?;
        match &*str_ref_field(&mut j, "kind")? {
            "solved" => Ok(Response::Solved(each(
                arr_field(&mut j, "reports")?,
                WireReport::from_json,
            )?)),
            "report" => {
                let index = usize_field(&j, "index")?;
                let result = match j.take("report") {
                    Some(r) => Ok(Box::new(WireReport::from_json(r)?)),
                    None => Err(str_field(&mut j, "error")
                        .map_err(|_| proto("report frames carry either a report or an error"))?),
                };
                Ok(Response::Report { index, result })
            }
            "batch_done" => Ok(Response::BatchDone(WireBatchDone {
                modules: usize_field(&j, "modules")?,
                delivered: usize_field(&j, "delivered")?,
                errors: str_arr_field(&mut j, "errors")?,
                wall_ns: u64_field(&j, "wall_ns")?,
                lattice_fp: u64_field(&j, "lattice_fp")?,
            })),
            "stats" => Ok(Response::Stats(WireStats {
                accepted: u64_field(&j, "accepted")?,
                rejected: u64_field(&j, "rejected")?,
                queued: usize_field(&j, "queued")?,
                queue_limit: usize_field(&j, "queue_limit")?,
                pid: u64_field(&j, "pid")?,
                start_ns: u64_field(&j, "start_ns")?,
                shards: each(arr_field(&mut j, "shards")?, shard_stats_from_json)?,
            })),
            "overloaded" => Ok(Response::Overloaded {
                queued: usize_field(&j, "queued")?,
                limit: usize_field(&j, "limit")?,
            }),
            "metrics" => {
                // Every member must parse as the field's number type.
                fn numbers<T: std::str::FromStr>(
                    j: &mut Json<'_>,
                    key: &str,
                ) -> Result<Vec<(String, T)>, WireError> {
                    let Some(Json::Obj(members)) = j.take(key) else {
                        return Err(proto(format!("missing object field {key:?}")));
                    };
                    members
                        .into_iter()
                        .map(|(n, v)| {
                            let parsed = match v {
                                Json::Num(num) => num.parse().ok(),
                                _ => None,
                            };
                            match parsed {
                                Some(x) => Ok((n.into_owned(), x)),
                                None => Err(proto(format!("{key:?} member {n:?} is not a number"))),
                            }
                        })
                        .collect()
                }
                let counters = numbers(&mut j, "counters")?;
                let gauges = numbers(&mut j, "gauges")?;
                let histograms = each(arr_field(&mut j, "histograms")?, |mut h| {
                    let name = str_field(&mut h, "name")?;
                    let count = u64_field(&h, "count")?;
                    let sum = u64_field(&h, "sum")?;
                    let buckets = each(arr_field(&mut h, "buckets")?, |pair| {
                        let items = pair
                            .as_arr()
                            .filter(|a| a.len() == 2)
                            .ok_or_else(|| proto("histogram buckets are 2-element arrays"))?;
                        match (items[0].as_u64(), items[1].as_u64()) {
                            (Some(b), Some(c)) => Ok((b, c)),
                            _ => Err(proto("histogram buckets are u64 pairs")),
                        }
                    })?;
                    // The quantiles must be present, but the snapshot
                    // derives them from the buckets.
                    for q in ["p50", "p95", "p99"] {
                        u64_field(&h, q)?;
                    }
                    let mut snap = HistogramSnapshot::from_buckets(&buckets, sum);
                    snap.count = count;
                    Ok((name, snap))
                })?;
                Ok(Response::Metrics(MetricsSnapshot {
                    counters,
                    gauges,
                    histograms,
                }))
            }
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error(str_field(&mut j, "message")?)),
            other => Err(proto(format!("unknown response kind {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Batch replies

/// The one writer of a solve reply after admission (`solve_module` and
/// both `solve_batch` modes): serve and the gateway push per-module
/// results into it in any order.
///
/// * A **streaming** batch writes one `report` frame per result as it is
///   pushed; [`BatchReply::finish`] adds `batch_done` (failures in arrival
///   order, `wall_ns` measured from [`BatchReply::new`]).
/// * A **single-frame** batch collects results by index; `finish` writes
///   `solved`, or an `error` joining every failure in submission order, or
///   `shutting_down` if a module got no result (a drain raced its
///   dispatch).
pub struct BatchReply {
    started: Instant,
    /// One slot per module for a single-frame batch; `None` when streaming.
    slots: Option<Vec<Option<Result<WireReport, String>>>>,
    /// A streaming batch's closing frame, tallied as results arrive.
    done: WireBatchDone,
    /// The streamed write that failed (the peer is gone): nothing more is
    /// written.
    broken: Option<WireError>,
}

impl BatchReply {
    /// A reply for a batch of `modules` solved against the lattice with
    /// fingerprint `lattice_fp`.
    pub fn new(modules: usize, stream: bool, lattice_fp: u64) -> BatchReply {
        BatchReply {
            started: Instant::now(),
            slots: (!stream).then(|| (0..modules).map(|_| None).collect()),
            done: WireBatchDone {
                modules,
                delivered: 0,
                errors: Vec::new(),
                wall_ns: 0,
                lattice_fp,
            },
            broken: None,
        }
    }

    /// Takes module `index`'s result: a streaming batch writes its
    /// `report` frame to `w` now. Returns `false` once a streamed write
    /// has failed, so a caller can stop producing results nobody reads.
    pub fn push(
        &mut self,
        w: &mut impl Write,
        index: usize,
        result: Result<WireReport, String>,
    ) -> bool {
        if let Some(slots) = &mut self.slots {
            slots[index] = Some(result);
            return true;
        }
        match &result {
            Ok(_) => self.done.delivered += 1,
            Err(e) => self.done.errors.push(e.clone()),
        }
        if self.broken.is_none() {
            let frame = Response::Report {
                index,
                result: result.map(Box::new),
            };
            self.broken = write_frame(w, &frame.encode()).err();
        }
        self.broken.is_none()
    }

    /// Writes the closing frame: `batch_done` for a streaming batch, the
    /// whole reply for a single-frame one.
    ///
    /// # Errors
    ///
    /// The failed streamed write, if any (nothing is written then), or the
    /// closing frame's own write failure.
    pub fn finish(mut self, w: &mut impl Write) -> Result<(), WireError> {
        if let Some(e) = self.broken {
            return Err(e);
        }
        let reply = match self.slots {
            None => {
                self.done.wall_ns = self.started.elapsed().as_nanos() as u64;
                Response::BatchDone(self.done)
            }
            Some(slots) => {
                let mut reports = Vec::with_capacity(slots.len());
                let mut errors = Vec::new();
                let mut missing = false;
                for slot in slots {
                    match slot {
                        Some(Ok(report)) => reports.push(report),
                        Some(Err(e)) => errors.push(e),
                        None => missing = true,
                    }
                }
                if !errors.is_empty() {
                    Response::Error(errors.join("; "))
                } else if missing {
                    Response::ShuttingDown
                } else {
                    Response::Solved(reports)
                }
            }
        };
        write_frame(w, &reply.encode())
    }
}

// ---------------------------------------------------------------------------
// Field helpers
//
// The decoders consume the parsed tree: a string field is taken out of its
// object ([`Json::take`]) and copied once if the tree borrows it from the
// frame, or moved if the parser unescaped it. Numbers and bools are read
// in place.

/// A string value as an owned `String`: one copy of a borrowed string, a
/// move of an unescaped one.
fn into_string(j: Json<'_>) -> Option<String> {
    match j {
        Json::Str(s) => Some(s.into_owned()),
        _ => None,
    }
}

fn str_field(j: &mut Json<'_>, key: &str) -> Result<String, WireError> {
    str_ref_field(j, key).map(Cow::into_owned)
}

/// A string field the decoder only reads (a `kind`): no copy.
fn str_ref_field<'a>(j: &mut Json<'a>, key: &str) -> Result<Cow<'a, str>, WireError> {
    match j.take(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(proto(format!("missing string field {key:?}"))),
    }
}

/// A field the encoder omits at its default: absent, a string or `null`.
fn opt_str_field(j: &mut Json<'_>, key: &str) -> Result<Option<String>, WireError> {
    match j.get(key) {
        None => Ok(None),
        Some(_) => nullable_str_field(j, key),
    }
}

/// A field the encoder always writes, as a string or `null`.
fn nullable_str_field(j: &mut Json<'_>, key: &str) -> Result<Option<String>, WireError> {
    match j.take(key) {
        Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.into_owned())),
        Some(_) => Err(proto(format!("field {key:?} must be a string or null"))),
        None => Err(proto(format!("missing string-or-null field {key:?}"))),
    }
}

fn bool_field(j: &Json<'_>, key: &str) -> Result<bool, WireError> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(proto(format!("missing bool field {key:?}"))),
    }
}

fn u64_field(j: &Json<'_>, key: &str) -> Result<u64, WireError> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| proto(format!("missing u64 field {key:?}")))
}

fn usize_field(j: &Json<'_>, key: &str) -> Result<usize, WireError> {
    j.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| proto(format!("missing usize field {key:?}")))
}

fn arr_field<'a>(j: &mut Json<'a>, key: &str) -> Result<Vec<Json<'a>>, WireError> {
    match j.take(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(proto(format!("missing array field {key:?}"))),
    }
}

fn str_arr_field(j: &mut Json<'_>, key: &str) -> Result<Vec<String>, WireError> {
    each(arr_field(j, key)?, |v| {
        into_string(v).ok_or_else(|| proto(format!("{key:?} members must be strings")))
    })
}

/// Decodes every item of an array in order, into a `Vec` allocated once at
/// its final length; the first failure is the result.
fn each<'a, T>(
    items: Vec<Json<'a>>,
    mut decode: impl FnMut(Json<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(decode(item)?);
    }
    Ok(out)
}
