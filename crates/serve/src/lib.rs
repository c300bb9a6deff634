//! # retypd-serve
//!
//! A sharded network analysis service over the Retypd driver: the layer
//! that turns the single-process [`retypd_driver::AnalysisDriver`] into
//! something a fleet can talk to.
//!
//! * [`wire`] — a length-prefixed JSON protocol, version 2, in one
//!   dialect: every request carries `"v": 2` and every decoder requires
//!   each field the encoder writes. It has an optional `lattice`
//!   descriptor per solve request (absent ⇒ `c_types`) and a
//!   streaming `solve_batch` mode (`report` frame per module plus a
//!   terminal `batch_done`), every solve reply written by one
//!   [`wire::BatchReply`]. Programs travel as canonical constraint
//!   text, which round-trips exactly through [`retypd_core::parse`], so
//!   server-side solves are bit-identical to in-process ones.
//! * [`conn`] — the one connection layer, shared with the gateway: the
//!   accept loop, the length-prefix [`conn::FrameReader`], polled reads
//!   with a read timeout, per-connection frame/byte budgets, and the drain
//!   rule (close at the next frame boundary; handlers joined), so shutdown
//!   delivers every final frame before exit. A server supplies only a
//!   per-frame [`conn::Service`].
//! * [`server`] — N shard threads behind that layer, each owning a
//!   long-lived driver with a bounded persistent cache; shards pass each
//!   job's text and lattice to `AnalysisDriver::solve_text`, so
//!   per-request lattices segregate cache entries by lattice fingerprint
//!   and a fully warm module is never parsed. Modules route by content
//!   fingerprint, so a re-submitted module always finds its warm cache. Admission control refuses work past a queue-depth limit with
//!   `overloaded` instead of stacking latency.
//! * [`client`] — a blocking client (plus the [`client::BatchStream`]
//!   streaming iterator) used by the tests, the gateway's tests and the
//!   benchmark.
//! * [`json`] — the dependency-free JSON model backing the protocol (the
//!   offline vendor set has no `serde_json`; the wire structs still carry
//!   serde derives so the real serde can slot in later).
//! * [`launch`] — the `serve` binary's main as a library function, plus
//!   the machine-readable stdout readiness banner
//!   (`RETYPD_SERVE_READY addr=… pid=… shards=…`) a supervisor parses to
//!   learn the bound address without races or fixed sleeps; shared so the
//!   gateway crate can spawn the identical server from its own tests.
//!
//! The networking is deliberately `std`-only (`TcpListener` + threads):
//! the vendored dependency set has no async runtime, and the analysis
//! itself is CPU-bound thread-pool work — the socket layer just needs to
//! feed it without blocking admission.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod client;
pub mod conn;
pub mod json;
pub mod launch;
pub mod server;
pub mod stats_cells;
pub mod wire;

pub use client::{BatchStream, Client, ClientError};
pub use launch::{parse_ready_banner, ready_banner, serve_main, READY_SENTINEL};
pub use server::{start, MetricsObserver, ServeConfig, ServerHandle};
pub use wire::{Request, Response, WireBatchDone, WireModule, WireReport, WireStats};

#[cfg(test)]
mod tests {
    use retypd_core::parse::parse_constraint_set;
    use retypd_core::solver::{CallTarget, Callsite, Procedure};
    use retypd_core::{Program, Symbol};
    use retypd_driver::ModuleJob;

    use crate::wire::{Request, Response, WireModule, WireReport};

    fn sample_job() -> ModuleJob {
        let mut prog = Program::new();
        prog.add_proc(Procedure {
            name: Symbol::intern("main"),
            constraints: parse_constraint_set(
                "main.in_stack0 <= x; x <= leaf@c1.in_stack0; Add(x, one; y)",
            )
            .unwrap(),
            callsites: vec![Callsite {
                callee: CallTarget::Internal(1),
                tag: "c1".into(),
            }],
        });
        prog.add_proc(Procedure {
            name: Symbol::intern("leaf"),
            constraints: parse_constraint_set(
                "leaf.in_stack0 <= t; t.load.σ32@0 <= int; VAR t.load",
            )
            .unwrap(),
            callsites: vec![Callsite {
                callee: CallTarget::External(Symbol::intern("malloc")),
                tag: "x1".into(),
            }],
        });
        prog.externals.insert(
            Symbol::intern("malloc"),
            retypd_core::TypeScheme::new(
                retypd_core::BaseVar::var("malloc"),
                ["τ"].into_iter().map(Symbol::intern).collect(),
                parse_constraint_set("malloc.in_stack0 <= size_t").unwrap(),
            ),
        );
        prog.globals.insert(retypd_core::BaseVar::var("gbuf"));
        ModuleJob {
            name: "sample".into(),
            program: prog,
        }
    }

    /// A hand-set report: traced, with phase work, when `phase != 0`.
    fn hand_report(name: &str, phase: u64) -> WireReport {
        WireReport {
            name: name.into(),
            fingerprint: 11,
            lattice_fp: 22,
            shard: 1,
            procs: vec![crate::wire::WireProcResult {
                name: "f".into(),
                scheme: "∀τ. f.in_0 ⊑ int".into(),
                sketch: Some("sk".into()),
                general: None,
            }],
            inconsistencies: vec![("int".into(), "float".into())],
            stats: retypd_core::SolverStats {
                graph_nodes: 5,
                graph_edges: 8,
                quotient_nodes: 3,
                sketch_states: 13,
                constraints: 21,
                solve_ns: 34,
                cache_hits: 2,
                cache_misses: 1,
                phases: retypd_core::solver::PhaseNs {
                    combine_ns: phase,
                    saturate_ns: 2 * phase,
                    transducer_ns: 3 * phase,
                    simplify_ns: 4 * phase,
                    sketch_ns: 5 * phase,
                    saturations: phase.min(1),
                },
            },
            wall_ns: 55,
            trace_id: (phase != 0).then(|| "t-1".to_owned()),
        }
    }

    #[test]
    fn module_round_trips_through_the_wire_form() {
        let job = sample_job();
        let wire = WireModule::from_job(&job);
        let back = wire.to_job().expect("wire module reconstructs");
        assert_eq!(back.name, job.name);
        assert_eq!(back.fingerprint(), job.fingerprint(), "content-identical");
        // Spot-check structure, not just the fingerprint.
        assert_eq!(back.program.procs.len(), 2);
        assert_eq!(
            back.program.procs[0].constraints,
            job.program.procs[0].constraints
        );
        assert_eq!(back.program.externals.len(), 1);
        assert_eq!(back.program.globals, job.program.globals);
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let job = sample_job();
        let custom = retypd_core::Lattice::paper_example().descriptor().clone();
        for req in [
            Request::solve_module(WireModule::from_job(&job)),
            Request::solve_batch(vec![WireModule::from_job(&job); 3]),
            Request::SolveModule {
                module: WireModule::from_job(&job),
                lattice: Some(custom.clone()),
                trace_id: Some("req-7".into()),
            },
            Request::SolveBatch {
                modules: vec![WireModule::from_job(&job); 2],
                lattice: Some(custom),
                stream: true,
                trace_id: None,
            },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ] {
            let bytes = req.encode();
            let back = Request::decode(&bytes).expect("request decodes");
            assert_eq!(back.encode(), bytes, "deterministic re-encode");
        }
    }

    #[test]
    fn unversioned_and_other_versions_are_refused() {
        // Every request this build writes carries `"v": 2`; a frame
        // without it, or with any other version, is refused by name.
        let unversioned = br#"{"kind": "solve_batch", "modules": []}"#;
        let err = Request::decode(unversioned).expect_err("missing v refused");
        assert!(err.to_string().contains(r#""v""#), "{err}");
        let v1 = br#"{"v": 1, "kind": "solve_batch", "modules": []}"#;
        let err = Request::decode(v1).expect_err("version 1 refused");
        assert!(err.to_string().contains("version 1"), "{err}");
        let v9 = br#"{"v": 9, "kind": "stats"}"#;
        let err = Request::decode(v9).expect_err("future version refused");
        assert!(err.to_string().contains("version 9"), "{err}");
        // A malformed lattice descriptor is a protocol error, not a panic.
        let bad = br#"{"v": 2, "kind": "solve_batch", "lattice": "not a lattice", "modules": []}"#;
        assert!(Request::decode(bad).is_err());
    }

    #[test]
    fn responses_round_trip_through_frames() {
        let lattice = retypd_core::Lattice::c_types();
        let job = sample_job();
        let result = retypd_core::Solver::new(&lattice).infer(&job.program);
        let report = WireReport::from_result(&job.name, &result);
        // A fixed metrics snapshot: one counter, one negative gauge, and
        // one histogram with three non-empty buckets.
        let registry = retypd_telemetry::Registry::new();
        registry.counter("serve.frames").add(7);
        registry.gauge("cache.drift").set(-5);
        let wait = registry.histogram("shard.wait_ns");
        for v in [3u64, 3, 40, 1000] {
            wait.record(v);
        }
        let metrics = registry.snapshot();
        for resp in [
            Response::Solved(vec![report.clone()]),
            Response::Metrics(metrics.clone()),
            Response::Report {
                index: 3,
                result: Ok(Box::new(report.clone())),
            },
            Response::Report {
                index: 4,
                result: Err("solver panicked".into()),
            },
            Response::BatchDone(crate::wire::WireBatchDone {
                modules: 5,
                delivered: 4,
                errors: vec!["solver panicked".into()],
                wall_ns: 123,
                lattice_fp: 7,
            }),
            Response::Overloaded {
                queued: 9,
                limit: 8,
            },
            Response::ShuttingDown,
            Response::Error("boom".into()),
        ] {
            let bytes = resp.encode();
            let back = Response::decode(&bytes).expect("response decodes");
            assert_eq!(back.encode(), bytes, "deterministic re-encode");
        }
        // The canonical text survives the wire byte-for-byte.
        let bytes = Response::Solved(vec![report.clone()]).encode();
        let Response::Solved(reports) = Response::decode(&bytes).unwrap() else {
            panic!("expected solved");
        };
        assert_eq!(reports[0].canonical_text(), report.canonical_text());
        assert_eq!(reports[0].stats.constraints, result.stats.constraints);

        // Golden bytes pin the wire format: phase work travels in `stats`
        // only, and `trace_id` is written only when the request had one.
        let golden = Response::Solved(vec![hand_report("cold", 7), hand_report("warm", 0)]).encode();
        let want = concat!(
            r#"{"kind":"solved","reports":["#,
            r#"{"name":"cold","fingerprint":11,"lattice_fp":22,"shard":1,"#,
            r#""procs":[{"name":"f","scheme":"∀τ. f.in_0 ⊑ int","sketch":"sk","general":null}],"#,
            r#""inconsistencies":[["int","float"]],"#,
            r#""stats":{"graph_nodes":5,"graph_edges":8,"quotient_nodes":3,"sketch_states":13,"#,
            r#""constraints":21,"solve_ns":34,"cache_hits":2,"cache_misses":1,"#,
            r#""saturate_ns":14,"transducer_ns":21,"simplify_ns":28,"sketch_ns":35,"combine_ns":7,"#,
            r#""saturations":1},"wall_ns":55,"trace_id":"t-1"},"#,
            r#"{"name":"warm","fingerprint":11,"lattice_fp":22,"shard":1,"#,
            r#""procs":[{"name":"f","scheme":"∀τ. f.in_0 ⊑ int","sketch":"sk","general":null}],"#,
            r#""inconsistencies":[["int","float"]],"#,
            r#""stats":{"graph_nodes":5,"graph_edges":8,"quotient_nodes":3,"sketch_states":13,"#,
            r#""constraints":21,"solve_ns":34,"cache_hits":2,"cache_misses":1,"#,
            r#""saturate_ns":0,"transducer_ns":0,"simplify_ns":0,"sketch_ns":0,"combine_ns":0,"#,
            r#""saturations":0},"wall_ns":55}]}"#,
        );
        assert_eq!(String::from_utf8(golden).unwrap(), want);
        let back = Response::decode(want.as_bytes()).expect("golden decodes");
        assert_eq!(back.encode(), want.as_bytes(), "golden re-encodes");

        // Golden bytes pin the `metrics` reply; the quantiles are derived
        // from the buckets.
        let want = concat!(
            r#"{"kind":"metrics","counters":{"serve.frames":7},"gauges":{"cache.drift":-5},"#,
            r#""histograms":[{"name":"shard.wait_ns","count":4,"sum":1046,"#,
            r#""buckets":[[3,2],[47,1],[1023,1]],"p50":3,"p95":1023,"p99":1023}]}"#,
        );
        assert_eq!(
            String::from_utf8(Response::Metrics(metrics.clone()).encode()).unwrap(),
            want
        );
        let back = Response::decode(want.as_bytes()).expect("golden decodes");
        assert_eq!(back.encode(), want.as_bytes(), "golden re-encodes");
        // The text exposition renders the same from the decoded snapshot.
        let Response::Metrics(decoded) = back else {
            panic!("expected metrics");
        };
        assert_eq!(decoded.to_text(), metrics.to_text());
        // A histogram entry without its p95 is refused, and so is a
        // counter that is not a number.
        let no_p95 = want.replace(r#""p95":1023,"#, "");
        assert!(Response::decode(no_p95.as_bytes()).is_err(), "{no_p95}");
        let bad_counter = want.replace(r#""serve.frames":7"#, r#""serve.frames":"7""#);
        assert!(
            Response::decode(bad_counter.as_bytes()).is_err(),
            "{bad_counter}"
        );
    }

    /// Every key the encoder writes is required: removing any one of them
    /// (only a report's `trace_id` is optional, since the encoder omits it
    /// for an untraced request) makes the reply undecodable.
    #[test]
    fn decoders_refuse_any_missing_field() {
        use crate::json::Json;
        use crate::wire::{WireBatchDone, WireShardStats, WireStats};

        let report = hand_report("m", 7);
        let stats = WireStats {
            accepted: 1,
            rejected: 0,
            queued: 0,
            queue_limit: 8,
            pid: 1,
            start_ns: 1,
            shards: vec![WireShardStats {
                shard: 0,
                jobs: 1,
                rebuilds: 0,
                cache: retypd_driver::CacheStats::default(),
                persisted_entries: 0,
                replayed_entries: 0,
                replay_ns: 0,
            }],
        };
        let done = WireBatchDone {
            modules: 1,
            delivered: 1,
            errors: vec![],
            wall_ns: 1,
            lattice_fp: 1,
        };
        // (reply, path to the object whose keys are removed one by one)
        let cases: [(Response, &[&str]); 7] = [
            (Response::Solved(vec![report.clone()]), &["reports", "0"]),
            (Response::Solved(vec![report.clone()]), &["reports", "0", "procs", "0"]),
            (Response::Solved(vec![report]), &["reports", "0", "stats"]),
            (Response::Stats(stats.clone()), &[]),
            (Response::Stats(stats), &["shards", "0"]),
            (Response::BatchDone(done), &[]),
            (
                Response::Overloaded {
                    queued: 1,
                    limit: 1,
                },
                &[],
            ),
        ];
        fn at<'j, 'a>(j: &'j mut Json<'a>, path: &[&str]) -> &'j mut Json<'a> {
            path.iter().fold(j, |j, step| match j {
                Json::Obj(members) => {
                    &mut members.iter_mut().find(|(k, _)| k == step).expect("path").1
                }
                Json::Arr(items) => &mut items[step.parse::<usize>().expect("index")],
                _ => panic!("path leads through a scalar"),
            })
        }
        for (reply, path) in cases {
            let bytes = reply.encode();
            let whole = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
            let Json::Obj(members) = at(&mut whole.clone(), path).clone() else {
                panic!("{path:?} is not an object");
            };
            for (key, _) in members.iter().filter(|(k, _)| k != "trace_id") {
                let mut cut = whole.clone();
                if let Json::Obj(members) = at(&mut cut, path) {
                    members.retain(|(k, _)| k != key);
                }
                assert!(
                    Response::decode(cut.encode().as_bytes()).is_err(),
                    "decoded without {path:?}.{key}"
                );
            }
        }
    }

    #[test]
    fn framing_rejects_oversized_and_truncated() {
        use crate::wire::{read_frame, write_frame};
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{}").unwrap();
        assert_eq!(read_frame(&mut &buf[..]).unwrap().as_deref(), Some(&b"{}"[..]));
        // Clean EOF between frames.
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
        // EOF inside a frame is an error.
        let truncated = &buf[..buf.len() - 1];
        assert!(read_frame(&mut &truncated[..]).is_err());
        // An announced length over the cap is refused without allocating.
        let huge = (u32::MAX).to_be_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    /// A writer that takes at most 3 bytes per call, across slices, and
    /// is interrupted on every fourth call.
    #[derive(Default)]
    struct Trickle {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl std::io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[std::io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let before = self.bytes.len();
            for b in bufs {
                let room = 3 - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_survive_short_writes() {
        use crate::wire::{read_frame, write_frame};
        for payload in [&b""[..], b"{}", b"abcde", &Request::Stats.encode()] {
            let mut whole = Vec::new();
            write_frame(&mut whole, payload).unwrap();
            assert_eq!(whole[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&whole[4..], payload);
            let mut trickle = Trickle::default();
            write_frame(&mut trickle, payload).unwrap();
            assert_eq!(trickle.bytes, whole, "{payload:?}");
            assert!(trickle.calls >= whole.len().div_ceil(3));
            assert_eq!(read_frame(&mut &trickle.bytes[..]).unwrap().as_deref(), Some(payload));
        }
    }
}
