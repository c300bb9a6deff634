//! The persistent, content-addressed scheme store.
//!
//! An [`crate::AnalysisDriver`] configured with
//! [`crate::DriverConfig::persist_path`] writes every cache insert to an
//! append-only on-disk log, and on construction replays that log to
//! pre-populate both cache passes — so a process restart (or a shard's
//! panic rebuild in `retypd-serve`) starts *warm*: previously-seen modules
//! are answered entirely from fingerprint hits instead of paying the full
//! cold solve again.
//!
//! ## Log format
//!
//! The file opens with [`MAGIC`], followed by length-prefixed records:
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a checksum of payload][payload]
//! ```
//!
//! Payloads are tagged by their first byte:
//!
//! * `1` — a lattice descriptor: `(lattice fingerprint, canonical
//!   descriptor text)`. Written once per lattice, *before* the first
//!   refinement record that references it, so sequential replay always
//!   sees the descriptor first.
//! * `2` — a pass-1 entry: the SCC fingerprint plus each member's scheme
//!   in canonical text form with its per-scheme fingerprint.
//! * `3` — a pass-2 entry: the refinement fingerprint, the lattice
//!   fingerprint it was solved against, and the full
//!   [`SccRefinement`] — sketches decomposed state-by-state with lattice
//!   elements stored *by name* (indices are rebuilt against the replayer's
//!   lattice) and a per-sketch fingerprint.
//!
//! Everything inside a payload is little-endian with length-prefixed UTF-8
//! strings; the canonical text forms are the same ones the fingerprints of
//! [`crate::fingerprint`] hash, which is what makes the store
//! content-addressed: a record is valid exactly when re-fingerprinting its
//! decoded value reproduces the stored key.
//!
//! ## Replay semantics
//!
//! Replay is torn-tail tolerant: the log is scanned record by record and
//! *truncated at the first corrupt frame* (short header, oversized length,
//! checksum mismatch) — a crash mid-append never prevents a restart, it
//! only costs the torn record. Within a valid frame, every decoded entry is
//! re-validated against its stored fingerprints (scheme text → scheme
//! fingerprint, sketch structure → sketch fingerprint, descriptor text →
//! lattice fingerprint); mismatches drop that record and are counted in
//! [`PersistStats::dropped_records`]. Replay never panics and never
//! refuses to start.
//!
//! ## Compaction
//!
//! The log is the only copy of a persisted record. The store keeps an
//! index of where each *live* record's frame sits in it: fingerprint →
//! offset, payload length and, for a pass-2 record, the lattice
//! fingerprint it references — a fixed-size entry per record, no payload
//! bytes (evictions remove their index entry). When the log grows past
//! `max(64 KiB, 4 × live bytes)` — checked when a solve ends and forceable
//! via [`crate::AnalysisDriver::compact_store`] — the store flushes,
//! drops lattice records no live pass-2 record references, and copies the
//! live frames out of the old log into a sibling temporary file in
//! deterministic order (lattices, then pass-1 entries, then pass-2
//! entries, each sorted by fingerprint), then atomically renames it over
//! the log. Every frame is re-verified (length and checksum) as it is
//! copied; one damaged on disk is left out, which costs its entry one
//! re-solve after a restart. Replaying a compacted log reproduces the
//! live cache contents bit-identically.
//!
//! ## Appends
//!
//! The solving thread appends. The driver's merge loops make every cache
//! insert in task order — every pass-1 miss in SCC order, then every
//! pass-2 miss — and each goes through the store, which takes its one
//! lock, makes the cache insert, removes the evicted fingerprints from the
//! live index, encodes the record (pass 1 from the scheme text the solve
//! already rendered to fingerprint it) and appends its frame to a buffered
//! writer. Holding the lock across the cache insert keeps the log in the
//! cache's own order even when two threads solve on one driver, so the
//! index never holds an evicted entry; and since the merge loops order
//! every insert, a solve's records do not depend on the worker count or
//! on when its wave workers finish. When the solve ends the store
//! flushes once — the bytes reach the page cache, with no fsync — and
//! runs the compaction check, compacting inline when it fires. So a
//! solve's records are in the file, and [`PersistStats`] is exact, when
//! the solve returns; [`SchemeStore::flush`] stays the explicit barrier.
//! Any I/O error stops writing with one warning — persistence is an
//! accelerator, so it degrades to the in-memory-only behavior rather than
//! failing solves — and a poisoned lock is treated the same way.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use retypd_core::sync::{Arc, Mutex, MutexGuard};

use retypd_core::fxhash::{FxHashMap, FxHashSet};
use retypd_core::parse::{parse_constraint_set, parse_derived_var};
use retypd_core::sketch::{Sketch, SketchStateSpec};
use retypd_core::{
    Label, Lattice, LatticeDescriptor, SccRefinement, SolverStats, Symbol, TypeScheme,
};

use crate::cache::{CachedSchemes, SchemeCache};
use crate::fingerprint::{self, Fnv64};
use crate::LatticeMemo;

/// The file magic every store log begins with. A file that does not start
/// with it is treated as wholly corrupt and rewritten fresh.
pub const MAGIC: &[u8] = b"retypd-scheme-store-v1\n";

/// Frame header size: `u32` payload length + `u64` payload checksum.
const FRAME_HEADER: usize = 12;

/// Upper bound on a single record payload; a corrupt length field larger
/// than this is treated as a torn tail rather than an allocation request.
const MAX_PAYLOAD: usize = 64 << 20;

/// The log-growth factor (relative to live bytes) that triggers
/// compaction, and the size floor below which compaction never runs.
const COMPACT_FACTOR: u64 = 4;
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// Payload kind tags.
const KIND_LATTICE: u8 = 1;
const KIND_SCHEMES: u8 = 2;
const KIND_REFINE: u8 = 3;

/// Checksum of a record payload: word-at-a-time FNV-1a over the raw
/// bytes, domain-tagged like every other fingerprint in
/// [`crate::fingerprint`]. This guards frames against torn or corrupted
/// bytes; content-level validity is the fingerprints *inside* the
/// payloads.
fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new("store-record");
    h.write_wide(payload);
    h.finish()
}

/// The header that precedes a payload in the log: its `u32` length and
/// `u64` checksum. Every frame header the store writes comes from here.
fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut header = [0; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&payload_checksum(payload).to_le_bytes());
    header
}

/// Frames a payload as it appears in the log: header (length + checksum)
/// followed by the payload bytes. Exposed for the durability tests, which
/// tamper with payload bytes and must re-frame them with a *valid*
/// checksum to exercise the content-level fingerprint validation rather
/// than the frame-level checksum.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    [&frame_header(payload)[..], payload].concat()
}

/// Checks the frame at the start of `bytes` and returns its payload: the
/// header must be whole, its length at most [`MAX_PAYLOAD`] and within
/// `bytes`, and its checksum must match. `None` is a torn or damaged
/// frame. Replay and compaction both check frames here.
fn parse_frame(bytes: &[u8]) -> Option<&[u8]> {
    let header = bytes.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return None;
    }
    let payload = bytes.get(FRAME_HEADER..FRAME_HEADER + len)?;
    (payload_checksum(payload) == sum).then_some(payload)
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader; every accessor returns `None`
/// past the end, so a corrupt payload decodes to `None` instead of
/// panicking.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_lattice(fp: u64, descriptor_text: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(KIND_LATTICE);
    put_u64(&mut buf, fp);
    put_str(&mut buf, descriptor_text);
    buf
}

fn decode_lattice(payload: &[u8]) -> Option<(u64, String)> {
    let mut c = Cursor::new(payload);
    if c.u8()? != KIND_LATTICE {
        return None;
    }
    let fp = c.u64()?;
    let text = c.str()?.to_owned();
    c.done().then_some((fp, text))
}

fn encode_schemes(fp: u64, entry: &CachedSchemes, texts: &[SchemeText]) -> Vec<u8> {
    debug_assert_eq!(entry.schemes.len(), texts.len());
    let text_bytes: usize = texts
        .iter()
        .map(|t| t.subject.len() + t.constraints.len())
        .sum();
    let mut buf = Vec::with_capacity(text_bytes + 64 * entry.schemes.len() + 64);
    buf.push(KIND_SCHEMES);
    put_u64(&mut buf, fp);
    put_u64(&mut buf, entry.constraints as u64);
    put_u32(&mut buf, entry.schemes.len() as u32);
    for ((name, scheme, sfp), text) in entry.schemes.iter().zip(texts) {
        put_str(&mut buf, name.as_str());
        put_str(&mut buf, &text.subject);
        put_u32(&mut buf, scheme.existentials().len() as u32);
        for x in scheme.existentials() {
            put_str(&mut buf, x.as_str());
        }
        put_str(&mut buf, &text.constraints);
        put_u64(&mut buf, *sfp);
    }
    buf
}

/// Decodes and *validates* a pass-1 payload: every scheme's stored
/// canonical text must reproduce its stored fingerprint — the same parts
/// [`fingerprint::scheme_fp_parts`] hashed when the record was written,
/// so validation is a hash over the text, not a parse → re-render round
/// trip (display → reparse is a fixpoint, property-tested in `core`; the
/// parse must still succeed for the record to be accepted at all).
fn decode_schemes(payload: &[u8]) -> Option<(u64, CachedSchemes)> {
    let mut c = Cursor::new(payload);
    if c.u8()? != KIND_SCHEMES {
        return None;
    }
    let fp = c.u64()?;
    let constraints = c.u64()? as usize;
    let n = c.u32()? as usize;
    let mut schemes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = Symbol::intern(c.str()?);
        let subject_text = c.str()?;
        let subject = parse_derived_var(subject_text).ok()?;
        if !subject.path().is_empty() {
            return None;
        }
        let n_exist = c.u32()? as usize;
        let mut existentials = std::collections::BTreeSet::new();
        for _ in 0..n_exist {
            existentials.insert(Symbol::intern(c.str()?));
        }
        let constraints_text = c.str()?;
        let constraints = parse_constraint_set(constraints_text).ok()?;
        let sfp = c.u64()?;
        let exist_texts = existentials.iter().map(|x| x.as_str());
        if fingerprint::scheme_fp_parts(subject_text, exist_texts, constraints_text) != sfp {
            return None;
        }
        let scheme = TypeScheme::new(subject.base(), existentials, constraints);
        schemes.push((name, scheme, sfp));
    }
    c.done().then_some((
        fp,
        CachedSchemes {
            schemes,
            constraints,
        },
    ))
}

/// Renders a `Display` value into `scratch` (clearing it first) and
/// appends it length-prefixed — the store reuses one scratch buffer
/// across every record it encodes.
fn put_display(buf: &mut Vec<u8>, scratch: &mut String, value: impl std::fmt::Display) {
    use std::fmt::Write as _;
    scratch.clear();
    let _ = write!(scratch, "{value}");
    put_str(buf, scratch);
}

/// Rendered label texts, memoized per store — the label vocabulary is
/// tiny and repeats on nearly every sketch edge, so one `Display` render
/// per distinct label replaces one per edge.
type LabelCache = FxHashMap<Label, Box<str>>;

fn put_sketch(buf: &mut Vec<u8>, sketch: &Sketch, lattice: &Lattice, labels: &mut LabelCache) {
    let name = |e| lattice.name(e);
    put_u64(buf, fingerprint::sketch_fp(sketch));
    put_u32(buf, sketch.len() as u32);
    put_u32(buf, sketch.root());
    for s in 0..sketch.len() as u32 {
        let (lower, upper) = sketch.interval(s);
        put_str(buf, name(sketch.mark(s)));
        put_str(buf, name(lower));
        put_str(buf, name(upper));
        put_u32(buf, sketch.edges(s).count() as u32);
        for (label, target) in sketch.edges(s) {
            let text = labels
                .entry(label)
                .or_insert_with(|| label.to_string().into_boxed_str());
            put_str(buf, text);
            put_u32(buf, target);
        }
    }
}

/// Parsed labels by display text, memoized across one replay — the
/// decode-side twin of [`LabelCache`]. Replay without it runs a full
/// derived-variable parse per sketch *edge*; with it, one per distinct
/// label in the log.
type LabelMemo = FxHashMap<Box<str>, Label>;

/// Re-reads a label from its display form via the derived-variable parser
/// (labels have no standalone parser; `x.<label>` does), consulting
/// `memo` first. A failed parse is not memoized — corrupt text returns
/// `None` and the record is dropped anyway.
fn parse_label(text: &str, memo: &mut LabelMemo) -> Option<Label> {
    if let Some(l) = memo.get(text) {
        return Some(*l);
    }
    let dv = parse_derived_var(&format!("x.{text}")).ok()?;
    match dv.path() {
        [l] => {
            memo.insert(text.into(), *l);
            Some(*l)
        }
        _ => None,
    }
}

/// Decodes and *validates* one sketch blob against `lattice`: element
/// names must resolve, the automaton must reconstruct, and the
/// reconstruction must reproduce the stored sketch fingerprint.
fn take_sketch(c: &mut Cursor<'_>, lattice: &Lattice, memo: &mut LabelMemo) -> Option<Sketch> {
    let sfp = c.u64()?;
    let n = c.u32()? as usize;
    let root = c.u32()?;
    let mut states = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let mark = lattice.element(c.str()?)?;
        let lower = lattice.element(c.str()?)?;
        let upper = lattice.element(c.str()?)?;
        let n_edges = c.u32()? as usize;
        let mut edges = Vec::with_capacity(n_edges.min(1024));
        for _ in 0..n_edges {
            let label = parse_label(c.str()?, memo)?;
            let target = c.u32()?;
            edges.push((label, target));
        }
        states.push(SketchStateSpec {
            mark,
            lower,
            upper,
            edges,
        });
    }
    let sketch = Sketch::from_states(states, root)?;
    (fingerprint::sketch_fp(&sketch) == sfp).then_some(sketch)
}

fn encode_refine(
    fp: u64,
    lattice_fp: u64,
    r: &SccRefinement,
    lattice: &Lattice,
    labels: &mut LabelCache,
    scratch: &mut String,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512 * (r.sketches.len() + r.general.len()).max(1));
    buf.push(KIND_REFINE);
    put_u64(&mut buf, fp);
    put_u64(&mut buf, lattice_fp);
    put_u32(&mut buf, r.sketches.len() as u32);
    for (var, sketch) in &r.sketches {
        put_display(&mut buf, scratch, var);
        put_sketch(&mut buf, sketch, lattice, labels);
    }
    put_u32(&mut buf, r.general.len() as u32);
    for (name, sketch) in &r.general {
        put_str(&mut buf, name.as_str());
        put_sketch(&mut buf, sketch, lattice, labels);
    }
    put_u32(&mut buf, r.inconsistencies.len() as u32);
    for (a, b) in &r.inconsistencies {
        put_str(&mut buf, a.as_str());
        put_str(&mut buf, b.as_str());
    }
    for x in [
        r.stats.graph_nodes as u64,
        r.stats.graph_edges as u64,
        r.stats.quotient_nodes as u64,
        r.stats.sketch_states as u64,
        r.stats.constraints as u64,
        r.stats.solve_ns,
        r.stats.cache_hits,
        r.stats.cache_misses,
    ] {
        put_u64(&mut buf, x);
    }
    buf
}

/// Peeks the lattice fingerprint of a pass-2 payload without decoding the
/// body — replay resolves the lattice before the full decode, and indexes
/// it so compaction can keep only referenced lattice records.
fn refine_lattice_fp(payload: &[u8]) -> Option<u64> {
    let mut c = Cursor::new(payload);
    if c.u8()? != KIND_REFINE {
        return None;
    }
    c.u64()?; // entry fingerprint
    c.u64()
}

fn decode_refine(
    payload: &[u8],
    lattice: &Lattice,
    memo: &mut LabelMemo,
) -> Option<(u64, SccRefinement)> {
    let mut c = Cursor::new(payload);
    if c.u8()? != KIND_REFINE {
        return None;
    }
    let fp = c.u64()?;
    c.u64()?; // lattice fingerprint (already resolved by the caller)
    let n_sketches = c.u32()? as usize;
    let mut sketches = BTreeMap::new();
    for _ in 0..n_sketches {
        let dv = parse_derived_var(c.str()?).ok()?;
        if !dv.path().is_empty() {
            return None;
        }
        let sketch = take_sketch(&mut c, lattice, memo)?;
        sketches.insert(dv.base(), sketch);
    }
    let n_general = c.u32()? as usize;
    let mut general = Vec::with_capacity(n_general.min(1024));
    for _ in 0..n_general {
        let name = Symbol::intern(c.str()?);
        general.push((name, take_sketch(&mut c, lattice, memo)?));
    }
    let n_inc = c.u32()? as usize;
    let mut inconsistencies = Vec::with_capacity(n_inc.min(1024));
    for _ in 0..n_inc {
        let a = Symbol::intern(c.str()?);
        let b = Symbol::intern(c.str()?);
        inconsistencies.push((a, b));
    }
    let stats = SolverStats {
        graph_nodes: c.u64()? as usize,
        graph_edges: c.u64()? as usize,
        quotient_nodes: c.u64()? as usize,
        sketch_states: c.u64()? as usize,
        constraints: c.u64()? as usize,
        solve_ns: c.u64()?,
        cache_hits: c.u64()?,
        cache_misses: c.u64()?,
        // Phase timings are deliberately not persisted: they measure work
        // performed, and a replayed entry performed none. Old logs decode
        // unchanged; replayed entries report zero phase time.
        ..SolverStats::default()
    };
    c.done().then_some((
        fp,
        SccRefinement {
            sketches,
            general,
            inconsistencies,
            stats,
        },
    ))
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Gauges and counters of a driver's persistent store, surfaced through
/// [`crate::AnalysisDriver::persist_stats`] (and from there through
/// `retypd-serve`'s `stats` wire response).
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistStats {
    /// Cache entries loaded from the log at construction (both passes).
    pub replayed_entries: u64,
    /// Wall-clock nanoseconds the construction-time replay took.
    pub replay_ns: u64,
    /// Records rejected during replay: frame-corrupt tails, fingerprint
    /// mismatches, unresolvable lattices, undecodable payloads.
    pub dropped_records: u64,
    /// Cache entries whose frames the store's live index holds (both
    /// passes, post eviction; what a restart would replay once the last
    /// solve has returned). An entry whose append failed is not counted.
    pub persisted_entries: u64,
    /// Bytes of the live frames (headers and payloads) — what a
    /// compaction would copy into the new log after its magic.
    pub live_bytes: u64,
    /// Records appended since construction.
    pub appended_entries: u64,
    /// Compactions performed since construction.
    pub compactions: u64,
    /// Current log size in bytes, frames still in the write buffer
    /// included (the file's length once the last solve has returned).
    pub log_bytes: u64,
}

/// A solved scheme's canonical text, rendered once on the solve path —
/// [`fingerprint::scheme_fp_parts`] hashes these exact strings, and the
/// store persists them verbatim, so the record is content-addressed by
/// construction with no second render.
pub(crate) struct SchemeText {
    pub subject: String,
    pub constraints: String,
}

/// Where one live record's frame sits in the log.
#[derive(Clone, Copy)]
struct Frame {
    /// Byte offset of the frame header.
    at: u64,
    /// Payload length.
    len: u32,
    /// The lattice fingerprint a pass-2 record references (0 for the
    /// other kinds), so the stale-lattice sweep never reads a payload.
    lattice: u64,
}

impl Frame {
    /// The frame's size in the log: header plus payload.
    fn size(self) -> u64 {
        FRAME_HEADER as u64 + u64::from(self.len)
    }
}

/// The live index: a [`Frame`] per live record, by fingerprint, and the
/// bytes they add up to. Compaction copies exactly these frames. Seeded
/// by replay and kept under the store's lock with the log it describes,
/// so its offsets always match the file.
#[derive(Default)]
struct Index {
    /// One map per payload kind, at `kind - 1`: lattices, pass-1 entries,
    /// pass-2 entries — also the order compaction writes them in.
    frames: [FxHashMap<u64, Frame>; 3],
    live_bytes: u64,
}

impl Index {
    fn of(&self, kind: u8) -> &FxHashMap<u64, Frame> {
        &self.frames[usize::from(kind - 1)]
    }

    fn of_mut(&mut self, kind: u8) -> &mut FxHashMap<u64, Frame> {
        &mut self.frames[usize::from(kind - 1)]
    }

    fn insert(&mut self, kind: u8, fp: u64, frame: Frame) {
        if let Some(old) = self.of_mut(kind).insert(fp, frame) {
            self.live_bytes -= old.size();
        }
        self.live_bytes += frame.size();
    }

    fn remove(&mut self, kind: u8, fp: u64) {
        if let Some(old) = self.of_mut(kind).remove(&fp) {
            self.live_bytes -= old.size();
        }
    }

    /// Live cache entries (both passes; lattice records are not entries).
    fn entries(&self) -> u64 {
        (self.of(KIND_SCHEMES).len() + self.of(KIND_REFINE).len()) as u64
    }
}

/// The persistent store attached to one driver. See the module docs for
/// the format, replay, compaction and append story.
pub struct SchemeStore {
    path: PathBuf,
    /// The append side: every insert, flush and compaction takes this
    /// lock, so the log sees inserts in the cache's own order.
    log: Mutex<Log>,
    replayed_entries: u64,
    replay_ns: u64,
    dropped_records: u64,
}

/// What the store's lock guards: the log's buffered writer, the live
/// index of its frames, and the gauges [`SchemeStore::stats`] reports.
struct Log {
    out: BufWriter<File>,
    index: Index,
    /// Log size in bytes, buffered frames included.
    bytes: u64,
    appended: u64,
    compactions: u64,
    /// Set by an I/O error: appends still count (so the compaction
    /// trigger fires) but stop reaching the file — and the index — until
    /// a compaction gives a fresh file; one warning, not one per record.
    broken: bool,
    labels: LabelCache,
    scratch: String,
}

/// The log's write buffer, comfortably larger than a typical solve's
/// records, so a solve costs one write syscall at its flush rather than
/// one per 8 KiB of frames.
const LOG_BUF: usize = 256 << 10;

impl std::fmt::Debug for SchemeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeStore")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SchemeStore {
    /// Opens (creating if absent) the log at `path`, replays it into
    /// `cache`, and repairs any torn tail. Replayed pass-2 entries are
    /// validated against `lattice` when their lattice fingerprint matches,
    /// or against the lattice built from the log's descriptor record
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Only on I/O failure (an unreadable or unwritable path); corrupt
    /// *content* is never an error, it is truncated or dropped.
    pub(crate) fn open(
        path: &Path,
        lattice: &Lattice,
        cache: &SchemeCache,
    ) -> io::Result<SchemeStore> {
        let start = Instant::now();
        let memo = LatticeMemo::new();
        let default_fp = lattice.fingerprint();
        let data = match fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        // ---- Frame scan: collect valid payloads with their offsets, find
        // the usable prefix.
        let magic_ok = data.starts_with(MAGIC);
        let mut payloads: Vec<(u64, &[u8])> = Vec::new();
        let mut valid = if magic_ok { MAGIC.len() } else { 0 };
        if magic_ok {
            while let Some(payload) = parse_frame(&data[valid..]) {
                payloads.push((valid as u64, payload));
                valid += FRAME_HEADER + payload.len();
            }
        }
        let mut dropped = u64::from(valid < data.len());

        // ---- Apply records in log order (later records overwrite earlier
        // ones for the same fingerprint, so replay-of-append equals
        // replay-of-compaction).
        let mut index = Index::default();
        let mut lattice_texts: BTreeMap<u64, String> = BTreeMap::new();
        let mut label_memo = LabelMemo::default();
        let mut replayed = 0u64;
        for (at, payload) in payloads {
            let frame = |lattice| Frame {
                at,
                len: payload.len() as u32,
                lattice,
            };
            match payload.first().copied() {
                Some(KIND_LATTICE) => match decode_lattice(payload) {
                    Some((fp, text)) => {
                        lattice_texts.insert(fp, text);
                        index.insert(KIND_LATTICE, fp, frame(0));
                    }
                    None => dropped += 1,
                },
                Some(KIND_SCHEMES) => match decode_schemes(payload) {
                    Some((fp, entry)) => {
                        for e in cache.insert_schemes(fp, Arc::new(entry)) {
                            index.remove(KIND_SCHEMES, e);
                        }
                        index.insert(KIND_SCHEMES, fp, frame(0));
                        replayed += 1;
                    }
                    None => dropped += 1,
                },
                Some(KIND_REFINE) => {
                    let decoded = refine_lattice_fp(payload).and_then(|lfp| {
                        let (fp, refine) = if lfp == default_fp {
                            decode_refine(payload, lattice, &mut label_memo)?
                        } else {
                            let text = lattice_texts.get(&lfp)?;
                            let d: LatticeDescriptor = text.parse().ok()?;
                            let built = memo.get_or_build(&d).ok()?;
                            if built.fingerprint() != lfp {
                                return None;
                            }
                            decode_refine(payload, &built, &mut label_memo)?
                        };
                        Some((fp, lfp, refine))
                    });
                    match decoded {
                        Some((fp, lfp, refine)) => {
                            for e in cache.insert_refine(fp, Arc::new(refine)) {
                                index.remove(KIND_REFINE, e);
                            }
                            index.insert(KIND_REFINE, fp, frame(lfp));
                            replayed += 1;
                        }
                        None => dropped += 1,
                    }
                }
                _ => dropped += 1,
            }
        }

        // ---- Repair the file: fresh magic if it was missing/corrupt,
        // truncate a torn tail otherwise — *before* any new append lands.
        if !magic_ok {
            let mut f = File::create(path)?;
            f.write_all(MAGIC)?;
            valid = MAGIC.len();
        } else if valid < data.len() {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(valid as u64)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;

        Ok(SchemeStore {
            path: path.to_path_buf(),
            log: Mutex::new(Log {
                out: BufWriter::with_capacity(LOG_BUF, file),
                index,
                bytes: valid as u64,
                appended: 0,
                compactions: 0,
                broken: false,
                labels: LabelCache::default(),
                scratch: String::new(),
            }),
            replayed_entries: replayed,
            replay_ns: start.elapsed().as_nanos() as u64,
            dropped_records: dropped,
        })
    }

    /// The log path this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The append side, or `None` once a panic poisoned the lock: a
    /// poisoned store is broken, so it writes nothing more, and its
    /// driver's cache inserts and [`SchemeStore::flush`] go on without it.
    fn log(&self) -> Option<MutexGuard<'_, Log>> {
        self.log.lock().ok()
    }

    /// Makes a pass-1 cache insert and appends its record, whose schemes
    /// `texts` renders in member order. Returns the fingerprints the
    /// insert evicted.
    pub(crate) fn insert_schemes(
        &self,
        cache: &SchemeCache,
        fp: u64,
        entry: Arc<CachedSchemes>,
        texts: &[SchemeText],
    ) -> Vec<u64> {
        let payload = encode_schemes(fp, &entry, texts);
        let Some(mut log) = self.log() else {
            return cache.insert_schemes(fp, entry);
        };
        let evicted = cache.insert_schemes(fp, entry);
        for &e in &evicted {
            log.index.remove(KIND_SCHEMES, e);
        }
        log.append(&self.path, KIND_SCHEMES, fp, &payload, 0);
        evicted
    }

    /// Makes a pass-2 cache insert solved against `lattice` and appends
    /// its record, preceded by the lattice's descriptor record when the
    /// log holds none. Returns the fingerprints the insert evicted.
    pub(crate) fn insert_refine(
        &self,
        cache: &SchemeCache,
        fp: u64,
        lattice: &Lattice,
        entry: Arc<SccRefinement>,
    ) -> Vec<u64> {
        let Some(mut guard) = self.log() else {
            return cache.insert_refine(fp, entry);
        };
        let log = &mut *guard;
        let lattice_fp = lattice.fingerprint();
        // The index is the have-we-written-it set.
        if !log.index.of(KIND_LATTICE).contains_key(&lattice_fp) {
            let payload = encode_lattice(lattice_fp, &lattice.descriptor().to_string());
            log.append(&self.path, KIND_LATTICE, lattice_fp, &payload, 0);
        }
        let payload = encode_refine(
            fp,
            lattice_fp,
            &entry,
            lattice,
            &mut log.labels,
            &mut log.scratch,
        );
        let evicted = cache.insert_refine(fp, entry);
        for &e in &evicted {
            log.index.remove(KIND_REFINE, e);
        }
        log.append(&self.path, KIND_REFINE, fp, &payload, lattice_fp);
        evicted
    }

    /// End-of-solve hook: flushes the solve's records to the file, then
    /// compacts if the log has outgrown its live frames (see module docs).
    pub(crate) fn solve_finished(&self) {
        let Some(mut log) = self.log() else { return };
        log.flush(&self.path);
        let live = MAGIC.len() as u64 + log.index.live_bytes;
        if log.bytes > live.saturating_mul(COMPACT_FACTOR).max(COMPACT_MIN_BYTES) {
            log.compact(&self.path);
        }
    }

    /// Unconditionally compacts the log.
    pub fn compact(&self) {
        if let Some(mut log) = self.log() {
            log.compact(&self.path);
        }
    }

    /// Flushes buffered appends to the OS. A solve already flushes when it
    /// ends, so this is the barrier for a solve that did not end — the
    /// serve crate's panic-rebuild path calls it on the wounded driver.
    pub fn flush(&self) {
        if let Some(mut log) = self.log() {
            log.flush(&self.path);
        }
    }

    /// Current counters: the replay numbers are fixed at construction, the
    /// rest are exact as of the last insert.
    pub fn stats(&self) -> PersistStats {
        // Only reads plain counters, which a panic cannot leave unsafe to
        // read, so a poisoned store still reports where it stopped.
        let log = self
            .log
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        PersistStats {
            replayed_entries: self.replayed_entries,
            replay_ns: self.replay_ns,
            dropped_records: self.dropped_records,
            persisted_entries: log.index.entries(),
            live_bytes: log.index.live_bytes,
            appended_entries: log.appended,
            compactions: log.compactions,
            log_bytes: log.bytes,
        }
    }
}

impl Log {
    /// Appends one record's frame and indexes it under `fp`, unless the
    /// log is broken or the write fails. `lattice` is the lattice
    /// fingerprint a pass-2 record references (0 for the other kinds).
    fn append(&mut self, path: &Path, kind: u8, fp: u64, payload: &[u8], lattice: u64) {
        crate::driver_metrics().store_append_frames.inc();
        self.appended += 1;
        let frame = Frame {
            at: self.bytes,
            len: payload.len() as u32,
            lattice,
        };
        self.bytes += frame.size();
        if self.broken {
            return;
        }
        let written = self
            .out
            .write_all(&frame_header(payload))
            .and_then(|()| self.out.write_all(payload));
        match written {
            Ok(()) => self.index.insert(kind, fp, frame),
            Err(e) => {
                eprintln!("scheme store {}: append failed: {e}", path.display());
                self.broken = true;
            }
        }
    }

    fn flush(&mut self, path: &Path) {
        if self.broken {
            return;
        }
        if let Err(e) = self.out.flush() {
            eprintln!("scheme store {}: flush failed: {e}", path.display());
            self.broken = true;
        }
    }

    /// Copies the live frames into a fresh log (temp file + atomic
    /// rename) and goes on appending to the new file.
    fn compact(&mut self, path: &Path) {
        let _span = retypd_telemetry::span("driver.store_compact");
        // Compaction reads the live frames back from the log, so everything
        // buffered must reach it first. Frames that do not are left out by
        // verification; either outcome below decides `broken` afresh.
        self.flush(path);
        match compact_log(path, &self.index) {
            Ok((f, fresh)) => {
                self.out = BufWriter::with_capacity(LOG_BUF, f);
                self.broken = false;
                self.bytes = MAGIC.len() as u64 + fresh.live_bytes;
                self.index = fresh;
                self.compactions += 1;
                crate::driver_metrics().store_compactions.inc();
            }
            Err(e) => {
                eprintln!("scheme store {}: compaction failed: {e}", path.display());
                self.broken = true;
            }
        }
    }
}

/// Reads the whole frame `frame` points at (header included) into `buf`
/// and verifies it: the stored length must match the index and the
/// checksum the payload. `Ok(false)` means the frame is damaged or cut
/// short on disk; `Err` is an I/O failure.
fn read_frame(log: &mut File, frame: Frame, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.resize(frame.size() as usize, 0);
    log.seek(SeekFrom::Start(frame.at))?;
    match log.read_exact(buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    Ok(parse_frame(buf).is_some_and(|payload| payload.len() == frame.len as usize))
}

/// Copies the frames `index` holds out of the log at `path` into a
/// sibling temp file — lattices still referenced by a live pass-2 record,
/// then pass-1 entries, then pass-2 entries, each ascending by
/// fingerprint — verifying each on the way, and atomically renames the
/// copy over the log. Returns the reopened append handle and the new
/// file's index, which leaves out stale lattices and every frame that
/// failed verification. On error the old log and `index` still agree.
fn compact_log(path: &Path, index: &Index) -> io::Result<(File, Index)> {
    let referenced: FxHashSet<u64> = index.of(KIND_REFINE).values().map(|f| f.lattice).collect();
    let mut old = File::open(path)?;
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut out = BufWriter::new(File::create(&tmp)?);
    out.write_all(MAGIC)?;
    let mut fresh = Index::default();
    let mut at = MAGIC.len() as u64;
    let mut buf = Vec::new();
    for kind in [KIND_LATTICE, KIND_SCHEMES, KIND_REFINE] {
        let mut frames: Vec<(u64, Frame)> = index
            .of(kind)
            .iter()
            .filter(|(fp, _)| kind != KIND_LATTICE || referenced.contains(fp))
            .map(|(&fp, &frame)| (fp, frame))
            .collect();
        frames.sort_unstable_by_key(|&(fp, _)| fp);
        for (fp, frame) in frames {
            if read_frame(&mut old, frame, &mut buf)? {
                out.write_all(&buf)?;
                fresh.insert(kind, fp, Frame { at, ..frame });
                at += frame.size();
            }
        }
    }
    let f = out.into_inner().map_err(|e| e.into_error())?;
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    Ok((OpenOptions::new().append(true).open(path)?, fresh))
}

// The store rides inside `AnalysisDriver<'static>`, which crosses thread
// boundaries in `retypd-serve`; pin the auto-traits here where the fields
// that determine them live.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SchemeStore>();
    assert_send_sync::<PersistStats>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic while the store's lock is held leaves the store broken,
    /// not panicking: serve's panic-rebuild path flushes the wounded
    /// driver's store, and a cache insert through it still lands.
    #[test]
    fn poisoned_store_is_broken_not_a_panic() {
        let path = std::env::temp_dir().join(format!(
            "retypd-store-poisoned-{}.store",
            std::process::id()
        ));
        let lattice = Lattice::c_types();
        let cache = SchemeCache::new();
        let store = SchemeStore::open(&path, &lattice, &cache).expect("open store");
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _log = store.log.lock().expect("fresh lock");
            panic!("poison the store's lock");
        }));
        assert!(poison.is_err() && store.log.is_poisoned());

        store.flush();
        store.compact();
        store.solve_finished();
        let entry = Arc::new(CachedSchemes {
            schemes: Vec::new(),
            constraints: 0,
        });
        assert!(store.insert_schemes(&cache, 1, entry, &[]).is_empty());
        assert_eq!(cache.stats().scheme_entries, 1, "the cache insert lands");
        let stats = store.stats();
        assert_eq!((stats.appended_entries, stats.persisted_entries), (0, 0));
        let _ = fs::remove_file(&path);
    }
}
