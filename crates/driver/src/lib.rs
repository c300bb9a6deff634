//! # retypd-driver
//!
//! Whole-program and multi-module orchestration for the Retypd
//! reproduction: a parallel SCC-wave analysis driver with a persistent
//! scheme cache and a batch API.
//!
//! The paper's pipeline is explicitly organized around the call-graph
//! condensation: `INFERPROCTYPES` (Algorithm F.1) visits SCCs callees
//! first, `INFERTYPES` (Algorithm F.2) re-visits them callers first, and
//! `REFINEPARAMETERS` (Algorithm F.3) specializes each procedure by the
//! actual sketches observed at its callsites. Those per-SCC steps are pure
//! functions of (a) the SCC's combined constraint set and (b) the
//! cross-SCC state produced by already-processed SCCs — which is exactly
//! the shape a scheduler wants:
//!
//! * **Waves** ([`retypd_core::Condensation::waves`] /
//!   [`retypd_core::Condensation::refine_waves`]): SCCs whose dependencies
//!   are all satisfied form a wave and are dispatched to a `std::thread`
//!   worker pool. Outputs are merged *in the sequential solver's order*
//!   ([`scheduler::run_indexed`] returns results task-indexed), so the
//!   parallel result is bit-identical to [`retypd_core::Solver::infer`] —
//!   the determinism tests pin this for 1 vs N workers.
//! * **Persistent scheme cache** ([`cache::SchemeCache`]): each SCC is
//!   fingerprinted by the constraint text of its members, its callsite
//!   structure, and its callee-scheme fingerprints ([`fingerprint`]).
//!   The cache persists across `solve`/`solve_batch` calls on one
//!   driver, so batches containing near-duplicate modules
//!   (shared library members, re-submitted binaries) re-solve only the
//!   dirtied SCCs.
//! * **Entry points**: [`AnalysisDriver::solve`] solves one program
//!   against the driver's own lattice; [`AnalysisDriver::solve_in`] solves
//!   one program against any [`retypd_core::Lattice`] the caller holds,
//!   keyed by its rendering ([`text::TextModule::from_job`]'s);
//!   [`AnalysisDriver::solve_text`] solves a module from its text (a
//!   [`text::TextModule`] checked by [`text::TextModule::into_text`]),
//!   keyed by that text and parsed only at the solve's first miss
//!   (`retypd-serve` hands each shard job's module and request lattice
//!   here). Both entry points read one type of text, so their keys agree
//!   on canonical text.
//! * **Batch API** ([`AnalysisDriver::solve_batch`]): modules are solved
//!   one after another, each at the driver's full wave parallelism,
//!   against the driver's lattice, sharing the cache.
//!
//! The driver assumes procedure names are unique within a program (as the
//! constraint generator guarantees). One driver serves *any number of
//! lattices*: every cache key mixes in the lattice's stable fingerprint
//! ([`retypd_core::Lattice::fingerprint`]), so two lattices never share
//! scheme-cache entries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod fingerprint;
pub mod scheduler;
pub mod store;
pub mod text;

use retypd_core::sync::{Arc, Mutex, OnceLock};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use retypd_telemetry::{Counter, Histogram};

use retypd_core::dtv::BaseVar;
use retypd_core::fxhash::FxHashMap;
use retypd_core::sketch::Sketch;
use retypd_core::{
    callsite_actuals, Condensation, Lattice, LatticeDescriptor, LatticeError, ProcResult, Program,
    SccGraph, SccRefinement, Solver, SolverResult, SolverStats, Symbol, TypeScheme,
};

pub use cache::{CacheStats, CachedSchemes, SchemeCache};
pub use store::PersistStats;
pub use text::{ModuleText, TextCallsite, TextModule, TextProc, TextScheme};

/// Process-global driver instruments, resolved once from
/// [`retypd_telemetry::global`] so recording on the solve path is a
/// handful of lock-free atomic adds — no registry lookup per solve.
struct DriverMetrics {
    solves: Arc<Counter>,
    solve_ns: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    /// Replay is a construction-time event, so these are counters (they
    /// sum correctly across the many drivers of a sharded server); levels
    /// like "entries currently persisted" stay per-driver in
    /// [`PersistStats`] where they can't clobber each other.
    store_replayed: Arc<Counter>,
    store_replay_ns: Arc<Histogram>,
    /// Frames appended to any store's log.
    store_append_frames: Arc<Counter>,
    /// Bumped when a store's compaction lands.
    store_compactions: Arc<Counter>,
    /// Pass-2 misses whose SCC graph had to be rebuilt because pass 1 was
    /// a cache hit (a cold pass 1 hands its graph to pass 2).
    scc_graph_rebuilds: Arc<Counter>,
}

fn driver_metrics() -> &'static DriverMetrics {
    static METRICS: OnceLock<DriverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = retypd_telemetry::global();
        DriverMetrics {
            solves: g.counter("driver.solves"),
            solve_ns: g.histogram("driver.solve_ns"),
            cache_hits: g.counter("driver.cache_hits"),
            cache_misses: g.counter("driver.cache_misses"),
            cache_evictions: g.counter("driver.cache_evictions"),
            store_replayed: g.counter("driver.store_replayed_entries"),
            store_replay_ns: g.histogram("driver.store_replay_ns"),
            store_append_frames: g.counter("driver.store_append_frames"),
            store_compactions: g.counter("driver.store_compactions"),
            scc_graph_rebuilds: g.counter("driver.scc_graph_rebuilds"),
        }
    })
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Worker threads for wave dispatch. `1` makes the driver fully
    /// sequential (still cache-enabled).
    pub workers: usize,
    /// Maximum entries retained per cache pass (pass-1 schemes and pass-2
    /// refinements are bounded independently); the least-recently-hit entry
    /// is evicted beyond it. `None` (the default) never evicts — right for
    /// one-shot batch runs, wrong for a resident service, which is why
    /// `retypd-serve` always sets a bound.
    pub cache_capacity: Option<usize>,
    /// Path of the persistent scheme-store log ([`store`]). `Some` makes
    /// cache inserts append to the log (flushed to the OS as each solve
    /// ends) and driver construction replay it, so a restarted process
    /// answers previously-seen modules from warm fingerprint hits. `None`
    /// (the default) keeps the cache process-lifetime only.
    pub persist_path: Option<PathBuf>,
}

impl DriverConfig {
    /// The default configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> DriverConfig {
        DriverConfig {
            workers,
            ..DriverConfig::default()
        }
    }
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            workers: retypd_core::sync::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: None,
            persist_path: None,
        }
    }
}

/// One module of a batch: a named constraint program.
#[derive(Clone, Debug)]
pub struct ModuleJob {
    /// Module name (reporting only).
    pub name: String,
    /// The module's constraint program.
    pub program: Program,
}

impl ModuleJob {
    /// Stable content fingerprint of the module's program (the name is
    /// deliberately excluded: a renamed re-submission of the same binary is
    /// the same content). `retypd-serve` routes modules to shards by this
    /// value, so identical modules always land on the same warm cache.
    pub fn fingerprint(&self) -> u64 {
        fingerprint::program_fp(&self.program)
    }
}

/// Per-module batch output.
#[derive(Clone, Debug)]
pub struct ModuleReport {
    /// Module name.
    pub name: String,
    /// The inference result; `result.stats` carries this module's
    /// `solve_ns` and cache hit/miss counters.
    pub result: SolverResult,
}

/// How a driver holds its lattice: borrowed from the caller (the classic
/// in-process shape) or owned (the `'static`, `Send`-able shape a shard
/// thread needs to carry the driver across a `std::thread::spawn`).
enum LatticeHandle<'l> {
    Borrowed(&'l Lattice),
    Owned(Arc<Lattice>),
}

impl LatticeHandle<'_> {
    fn get(&self) -> &Lattice {
        match self {
            LatticeHandle::Borrowed(l) => l,
            LatticeHandle::Owned(l) => l,
        }
    }
}

/// The analysis driver: owns scheduling and caching around
/// [`retypd_core::Solver`].
pub struct AnalysisDriver<'l> {
    lattice: LatticeHandle<'l>,
    config: DriverConfig,
    cache: SchemeCache,
    /// The persistent scheme store, when [`DriverConfig::persist_path`] is
    /// set and the path is usable (open failure degrades to in-memory-only
    /// caching with a warning — persistence is an accelerator, never a
    /// precondition).
    store: Option<store::SchemeStore>,
}

/// A bounded, thread-safe memo of descriptor-built lattices, keyed by
/// descriptor fingerprint. Past its capacity the memo is cleared
/// wholesale — rebuilding a lattice is cheap, an unbounded map under a
/// hostile stream of distinct descriptors is not. `retypd-serve` and the
/// gateway share one server-wide; store replay builds a private one.
#[derive(Debug, Default)]
pub struct LatticeMemo {
    map: Mutex<FxHashMap<u64, Arc<Lattice>>>,
}

/// Entries retained before a [`LatticeMemo`] clears itself.
const LATTICE_MEMO_CAP: usize = 64;

impl LatticeMemo {
    /// An empty memo.
    pub fn new() -> LatticeMemo {
        LatticeMemo::default()
    }

    /// Returns the memoized lattice for `descriptor`, building (and
    /// validating) it on first sight.
    ///
    /// # Errors
    ///
    /// Fails when the descriptor does not describe a valid lattice.
    pub fn get_or_build(
        &self,
        descriptor: &LatticeDescriptor,
    ) -> Result<Arc<Lattice>, LatticeError> {
        let key = descriptor.fingerprint();
        if let Some(l) = self.map.lock().expect("lattice memo").get(&key) {
            return Ok(Arc::clone(l));
        }
        let built = Arc::new(descriptor.build()?);
        let mut memo = self.map.lock().expect("lattice memo");
        if memo.len() >= LATTICE_MEMO_CAP {
            memo.clear();
        }
        Ok(Arc::clone(memo.entry(key).or_insert(built)))
    }
}

impl<'l> AnalysisDriver<'l> {
    /// A driver with the default configuration (all available cores).
    pub fn new(lattice: &'l Lattice) -> AnalysisDriver<'l> {
        AnalysisDriver::with_config(lattice, DriverConfig::default())
    }

    /// A driver with an explicit configuration.
    pub fn with_config(lattice: &'l Lattice, config: DriverConfig) -> AnalysisDriver<'l> {
        AnalysisDriver::build(LatticeHandle::Borrowed(lattice), config)
    }

    /// A driver that owns its lattice, giving it a `'static` lifetime so it
    /// can move into a long-lived shard thread (`retypd-serve`'s shard pool
    /// builds one of these per shard). Results are identical to a borrowed
    /// construction with an equal lattice.
    pub fn owned(lattice: Lattice, config: DriverConfig) -> AnalysisDriver<'static> {
        AnalysisDriver::build(LatticeHandle::Owned(Arc::new(lattice)), config)
    }

    /// The shared constructor: builds the cache, then (if configured)
    /// opens the persistent store, which replays its log *into* the cache
    /// before the driver ever sees a request — that is the warm-restart
    /// fast path.
    fn build<'x>(lattice: LatticeHandle<'x>, config: DriverConfig) -> AnalysisDriver<'x> {
        let cache = SchemeCache::with_capacity(config.cache_capacity);
        let store = config.persist_path.as_deref().and_then(|path| {
            let _span = retypd_telemetry::span("driver.store_replay");
            match store::SchemeStore::open(path, lattice.get(), &cache) {
                Ok(s) => {
                    let p = s.stats();
                    let m = driver_metrics();
                    m.store_replayed.add(p.replayed_entries);
                    m.store_replay_ns.record(p.replay_ns);
                    Some(s)
                }
                Err(e) => {
                    eprintln!(
                        "scheme store {}: persistence disabled (open failed: {e})",
                        path.display()
                    );
                    None
                }
            }
        });
        AnalysisDriver {
            lattice,
            config,
            cache,
            store,
        }
    }

    /// The lattice this driver solves against.
    pub fn lattice(&self) -> &Lattice {
        self.lattice.get()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Cumulative cache counters (across every solve this driver ran).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counters of the persistent scheme store; `None` when the driver
    /// runs without persistence (no [`DriverConfig::persist_path`], or the
    /// path was unusable at construction).
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Flushes buffered store appends to the OS. Every solve already
    /// flushes as it returns; a solve that panicked did not, so
    /// `retypd-serve`'s panic-rebuild path calls this on the wounded driver
    /// so the replacement's replay sees every entry the old driver solved.
    /// No-op without a store.
    pub fn flush_store(&self) {
        if let Some(s) = &self.store {
            s.flush();
        }
    }

    /// Forces a store compaction (snapshot rewrite + atomic rename).
    /// No-op without a store.
    pub fn compact_store(&self) {
        if let Some(s) = &self.store {
            s.compact();
        }
    }

    /// The wave-scheduled two-pass solve of one program over the driver's
    /// own lattice, on the configured worker count. Any worker count
    /// produces bit-identical results because wave outputs are merged in
    /// the sequential solver's SCC order.
    pub fn solve(&self, program: &Program) -> SolverResult {
        self.solve_in(self.lattice(), program)
    }

    /// [`AnalysisDriver::solve`] against an explicit lattice. The cache is
    /// shared across lattices and segregated by lattice fingerprint (mixed
    /// into every cache key — see [`fingerprint::scc_fingerprint`]), so a
    /// lattice equal to the driver's own hits the same entries. The
    /// program is rendered once ([`TextModule::from_job`]'s renderer), for
    /// its cache keys.
    pub fn solve_in(&self, lattice: &Lattice, program: &Program) -> SolverResult {
        let text = TextModule::render(String::new(), program);
        self.solve_program(lattice, program, &text, Some(program))
            .expect("a parsed program is never parsed again")
    }

    /// Solves a module from its text against `lattice`. Every cache key
    /// hashes the text as it arrived, and the constraint text is parsed
    /// only when the solve meets its first cache miss — at most once, on
    /// the calling thread — so a fully warm solve parses nothing. For
    /// canonical text ([`TextModule::from_job`]'s) the keys, and so the
    /// result, are those of [`AnalysisDriver::solve_in`] on the parsed
    /// program; other text keys apart from it and solves on its own
    /// entries.
    ///
    /// # Errors
    ///
    /// The first procedure or external constraint text that does not
    /// parse, when the solve misses. An external no callsite calls is in
    /// no cache key, so a fully warm solve answers without reading it.
    pub fn solve_text(
        &self,
        lattice: &Lattice,
        module: &ModuleText,
    ) -> Result<SolverResult, String> {
        self.solve_program(lattice, module.structure(), module.module(), None)
    }

    /// Solves a batch of modules against the driver's lattice, one module
    /// after another, each at the driver's full wave parallelism. All of
    /// them share this driver's cache, which is where the incremental win
    /// on near-duplicate corpora comes from. Reports come back in job
    /// order.
    pub fn solve_batch(&self, jobs: &[ModuleJob]) -> Vec<ModuleReport> {
        jobs.iter()
            .map(|job| ModuleReport {
                name: job.name.clone(),
                result: self.solve(&job.program),
            })
            .collect()
    }

    /// One module on an explicit lattice: the solve loop behind
    /// [`AnalysisDriver::solve_in`] and [`AnalysisDriver::solve_text`].
    /// Keys come from `structure` and `text`; the misses read `given`, or
    /// the text parsed onto `structure` at the first miss.
    fn solve_program(
        &self,
        lattice: &Lattice,
        structure: &Program,
        text: &TextModule,
        given: Option<&Program>,
    ) -> Result<SolverResult, String> {
        let _solve_span = retypd_telemetry::span("driver.solve");
        let metrics = driver_metrics();
        let workers = self.workers();
        let lattice_fp = lattice.fingerprint();
        let start = Instant::now();
        let solver = Solver::new(lattice);
        let cond = Condensation::compute(structure);

        // Cross-SCC state, updated between waves only. The externals'
        // schemes join `schemes` at the first miss, the only reader.
        let mut schemes: BTreeMap<Symbol, TypeScheme> = BTreeMap::new();
        let mut scheme_fps: BTreeMap<Symbol, u64> = BTreeMap::new();
        for e in &text.externals {
            let existentials = e.existentials.iter().map(String::as_str);
            let fp = fingerprint::scheme_fp_parts(&e.subject, existentials, &e.constraints);
            scheme_fps.insert(Symbol::intern(&e.name), fp);
        }
        let mut parsed: Option<Cow<'_, Program>> = None;
        // Phase work is added from cache misses only: cached entries had
        // their `phases` taken before insertion (see below), so a fully
        // warm solve reports zero phase work — the breakdown measures work
        // done, not work remembered.
        let mut stats = SolverStats::default();
        let mut scc_fps: Vec<u64> = vec![0; cond.sccs.len()];
        // Each cold SCC's graph, from its pass-1 solve until its pass-2 wave
        // takes (and frees) it.
        let graphs: Vec<Mutex<Option<SccGraph>>> =
            cond.sccs.iter().map(|_| Mutex::new(None)).collect();
        // ---- Pass 1: INFERPROCTYPES, one wave of independent SCCs at a
        // time (callees first). Keys and lookups run here, in wave order;
        // only the misses go to the workers. ----
        for wave in cond.waves() {
            let _wave_span = retypd_telemetry::span("driver.wave");
            let looked: Vec<(u64, Option<Arc<CachedSchemes>>)> = wave
                .iter()
                .map(|&i| {
                    let fp = fingerprint::scc_fingerprint_parts(
                        lattice_fp,
                        &text.globals,
                        structure,
                        |p| &text.procs[p].constraints,
                        &cond.sccs[i],
                        &cond.scc_of,
                        &scheme_fps,
                    );
                    (fp, self.cache.lookup_schemes(fp))
                })
                .collect();
            let misses: Vec<usize> = (0..wave.len()).filter(|&k| looked[k].1.is_none()).collect();
            let program = if misses.is_empty() {
                None
            } else {
                let ready = first_miss(&mut parsed, structure, text, given, &mut schemes);
                Some(ready?)
            };
            let solved = scheduler::run_indexed(misses.len(), workers, |m| {
                let program = program.expect("parsed before the misses");
                let i = wave[misses[m]];
                let (out, graph) = {
                    let _span = retypd_telemetry::span("driver.scc_solve");
                    solver.solve_scc(program, &cond.sccs[i], &cond.scc_of, &schemes)
                };
                // Render each scheme's canonical parts once and fingerprint
                // the strings; with persistence on they go to the store, so
                // the fingerprint covers exactly the text that gets
                // persisted and the store never renders a scheme itself.
                let mut texts = Vec::with_capacity(out.schemes.len());
                let entry = Arc::new(CachedSchemes {
                    schemes: out
                        .schemes
                        .into_iter()
                        .map(|(n, s)| {
                            let t = store::SchemeText {
                                subject: s.subject().to_string(),
                                constraints: s.constraints().to_string(),
                            };
                            let fp = fingerprint::scheme_fp_parts(
                                &t.subject,
                                s.existentials().iter().map(|x| x.as_str()),
                                &t.constraints,
                            );
                            texts.push(t);
                            (n, s, fp)
                        })
                        .collect(),
                    constraints: out.constraints,
                });
                (entry, out.phases, graph, texts)
            });
            // Deterministic merge: waves are emitted in ascending SCC order,
            // matching the sequential pass-1 loop. Every insert goes through
            // the store, if any, so the log sees it in this order too.
            let mut solved = solved.into_iter();
            for (k, (fp, hit)) in looked.into_iter().enumerate() {
                scc_fps[wave[k]] = fp;
                let entry = match hit {
                    Some(entry) => {
                        stats.cache_hits += 1;
                        entry
                    }
                    None => {
                        let (entry, phases, graph, texts) = solved.next().expect("one per miss");
                        stats.cache_misses += 1;
                        stats.phases += phases;
                        *graphs[wave[k]].lock().expect("scc graph") = Some(graph);
                        let evicted = match &self.store {
                            Some(store) => {
                                store.insert_schemes(&self.cache, fp, Arc::clone(&entry), &texts)
                            }
                            None => self.cache.insert_schemes(fp, Arc::clone(&entry)),
                        };
                        metrics.cache_evictions.add(evicted.len() as u64);
                        entry
                    }
                };
                stats.constraints += entry.constraints;
                for (name, scheme, sfp) in &entry.schemes {
                    schemes.insert(*name, scheme.clone());
                    scheme_fps.insert(*name, *sfp);
                }
            }
        }

        // ---- Pass 2: INFERTYPES + REFINEPARAMETERS, wave-scheduled over
        // the reversed condensation (callers first), looked up and merged
        // like pass 1. ----
        let actuals = callsite_actuals(structure);
        let mut sketches: BTreeMap<BaseVar, Sketch> = BTreeMap::new();
        let mut general: BTreeMap<Symbol, Sketch> = BTreeMap::new();
        let mut inconsistencies: Vec<(Symbol, Symbol)> = Vec::new();
        for wave in cond.refine_waves() {
            let _wave_span = retypd_telemetry::span("driver.wave");
            let looked: Vec<(u64, Option<Arc<SccRefinement>>)> = wave
                .iter()
                .map(|&i| {
                    let fp2 = fingerprint::refine_fingerprint(
                        scc_fps[i],
                        structure,
                        &cond.sccs[i],
                        &actuals,
                        &sketches,
                    );
                    let hit = self.cache.lookup_refine(fp2);
                    if hit.is_some() {
                        // A hit frees the SCC's graph unused.
                        graphs[i].lock().expect("scc graph").take();
                    }
                    (fp2, hit)
                })
                .collect();
            let misses: Vec<usize> = (0..wave.len()).filter(|&k| looked[k].1.is_none()).collect();
            let program = if misses.is_empty() {
                None
            } else {
                let ready = first_miss(&mut parsed, structure, text, given, &mut schemes);
                Some(ready?)
            };
            let solved = scheduler::run_indexed(misses.len(), workers, |m| {
                let program = program.expect("parsed before the misses");
                let i = wave[misses[m]];
                let graph = graphs[i].lock().expect("scc graph").take();
                if graph.is_none() {
                    // Pass 1 hit but pass 2 missed: rebuild the graph.
                    metrics.scc_graph_rebuilds.inc();
                }
                let mut fresh = {
                    let _span = retypd_telemetry::span("driver.scc_refine");
                    solver.refine_scc(
                        program,
                        &cond.sccs[i],
                        &cond.scc_of,
                        &schemes,
                        &actuals,
                        &sketches,
                        graph,
                    )
                };
                // Strip the phase work *before* the entry is cached (and
                // persisted): a later cache hit replays the result, not the
                // work, so hits must contribute zero phase work. This solve
                // keeps the stripped values through the merge below.
                let phases = std::mem::take(&mut fresh.stats.phases);
                (Arc::new(fresh), phases)
            });
            // Merging per wave is equivalent to the sequential merge:
            // distinct SCCs write disjoint keys (unique procedure names and
            // callsite tags), and reads only target keys that earlier
            // (dependent) waves fully merged — see
            // `Condensation::refine_waves`.
            let mut solved = solved.into_iter();
            for (fp2, hit) in looked {
                let r = match hit {
                    Some(r) => {
                        stats.cache_hits += 1;
                        r
                    }
                    None => {
                        let (r, phases) = solved.next().expect("one per miss");
                        stats.cache_misses += 1;
                        stats.phases += phases;
                        let evicted = match &self.store {
                            Some(store) => {
                                store.insert_refine(&self.cache, fp2, lattice, Arc::clone(&r))
                            }
                            None => self.cache.insert_refine(fp2, Arc::clone(&r)),
                        };
                        metrics.cache_evictions.add(evicted.len() as u64);
                        r
                    }
                };
                stats.merge(&r.stats);
                inconsistencies.extend(r.inconsistencies.iter().cloned());
                general.extend(r.general.iter().cloned());
                for (k, v) in &r.sketches {
                    sketches.insert(*k, v.clone());
                }
            }
        }

        // ---- Deterministic reduction into the result shape. ----
        let mut procs = BTreeMap::new();
        for proc in &structure.procs {
            let pv = BaseVar::Var(proc.name);
            procs.insert(
                proc.name,
                ProcResult {
                    scheme: schemes
                        .get(&proc.name)
                        .cloned()
                        .unwrap_or_else(|| TypeScheme::empty(pv)),
                    sketch: sketches.get(&pv).cloned(),
                    general_sketch: general.get(&proc.name).cloned(),
                },
            );
        }
        inconsistencies.sort();
        inconsistencies.dedup();
        // The store flushes this solve's records and checks compaction here
        // (not on the insert path), so eviction churn within one solve
        // triggers at most one rewrite.
        if let Some(store) = &self.store {
            store.solve_finished();
        }
        stats.solve_ns = start.elapsed().as_nanos() as u64;
        metrics.solves.inc();
        metrics.solve_ns.record(stats.solve_ns);
        metrics.cache_hits.add(stats.cache_hits);
        metrics.cache_misses.add(stats.cache_misses);
        Ok(SolverResult {
            procs,
            inconsistencies,
            stats,
        })
    }
}

/// The program a solve's misses read, made ready at the first miss: the
/// caller's, or the text parsed onto the structure (at most once per
/// solve). Either way the externals' schemes then join `schemes`, beneath
/// any procedure scheme of the same name already merged — where the
/// sequential solver's order leaves them.
fn first_miss<'a, 'p>(
    program: &'p mut Option<Cow<'a, Program>>,
    structure: &Program,
    text: &TextModule,
    given: Option<&'a Program>,
    schemes: &mut BTreeMap<Symbol, TypeScheme>,
) -> Result<&'p Program, String> {
    if program.is_none() {
        let ready = match given {
            Some(given) => Cow::Borrowed(given),
            None => Cow::Owned(text.parse_onto(structure.clone())?),
        };
        for (name, scheme) in &ready.externals {
            schemes.entry(*name).or_insert_with(|| scheme.clone());
        }
        *program = Some(ready);
    }
    Ok(program.as_deref().expect("set above"))
}

// An owned driver moves whole into a shard thread and its batch API is
// called behind `&self` from connection handlers, so the `'static` shape
// must be `Send + Sync`; guarantee it at compile time (the serve crate
// depends on this, like the core types' own assertions).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnalysisDriver<'static>>();
    assert_send_sync::<ModuleJob>();
    assert_send_sync::<ModuleReport>();
    assert_send_sync::<SchemeCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_core::solver::{CallTarget, Callsite, Procedure};

    fn proc(name: &str, cs: &str, callsites: Vec<Callsite>) -> Procedure {
        Procedure {
            name: Symbol::intern(name),
            constraints: retypd_core::parse::parse_constraint_set(cs).unwrap(),
            callsites,
        }
    }

    fn sample_program() -> Program {
        let mut prog = Program::new();
        prog.add_proc(proc(
            "main",
            "main.in_stack0 <= x; x <= leaf@c1.in_stack0",
            vec![Callsite {
                callee: CallTarget::Internal(1),
                tag: "c1".into(),
            }],
        ));
        prog.add_proc(proc(
            "leaf",
            "leaf.in_stack0 <= t; t.load.σ32@0 <= int; int <= leaf.out_eax",
            vec![],
        ));
        prog.add_proc(proc("iso", "iso.out_eax <= int32", vec![]));
        prog
    }

    fn render(r: &SolverResult) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, pr) in &r.procs {
            let _ = writeln!(out, "{name}: {}", pr.scheme);
            let _ = writeln!(out, "  sketch: {:?}", pr.sketch);
            let _ = writeln!(out, "  general: {:?}", pr.general_sketch);
        }
        let _ = writeln!(out, "{:?}", r.inconsistencies);
        out
    }

    #[test]
    fn driver_matches_sequential_solver() {
        let lattice = Lattice::c_types();
        let prog = sample_program();
        let seq = Solver::new(&lattice).infer(&prog);
        for workers in [1, 4] {
            let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(workers));
            let got = driver.solve(&prog);
            assert_eq!(render(&got), render(&seq), "workers = {workers}");
        }
    }

    #[test]
    fn resubmission_is_all_hits() {
        let lattice = Lattice::c_types();
        let prog = sample_program();
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(2));
        let first = driver.solve(&prog);
        assert_eq!(first.stats.cache_hits, 0);
        assert!(first.stats.cache_misses > 0);
        let second = driver.solve(&prog);
        assert_eq!(
            second.stats.cache_misses, 0,
            "re-submitted module must be a 100% hit"
        );
        assert_eq!(
            second.stats.cache_hits, first.stats.cache_misses,
            "every SCC answered from cache"
        );
        assert_eq!(render(&first), render(&second));
    }

    #[test]
    fn variable_and_constant_globals_never_share_an_entry() {
        use retypd_core::BaseVar;
        let lattice = Lattice::c_types();
        let with_global = |g: BaseVar| {
            let mut prog = Program::new();
            prog.add_proc(proc("f", "f.in_stack0 <= gx; gx <= f.out_eax", vec![]));
            prog.globals.insert(g);
            prog
        };
        let var = with_global(BaseVar::var("gx"));
        let constant = with_global(BaseVar::constant("gx"));
        let driver = AnalysisDriver::with_config(&lattice, DriverConfig::with_workers(1));
        driver.solve(&var);
        let got = driver.solve(&constant);
        assert_eq!(
            got.stats.cache_hits, 0,
            "`$gx` reused the entry solved for `gx`"
        );
        let want = Solver::new(&lattice).infer(&constant);
        assert_eq!(render(&got), render(&want));
        assert_ne!(
            fingerprint::program_fp(&var),
            fingerprint::program_fp(&constant)
        );
    }
}
