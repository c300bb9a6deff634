//! The Retypd pipeline benchmark: three closed-loop workloads
//! (`cold-solve`, `warm-routed`, `fresh-serve`) run in one process,
//! end-to-end metrics with tracing off and per-layer metrics from a
//! separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-solve --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result object; the line before it carries the host and input stamp,
//! the input mix and (traced) the per-layer self times.

mod corpus;
mod probes;
mod replica;
mod report;
mod stack;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;
use workloads::Run;

/// The metrics `BENCHMARK.json` declares, (name, unit): an untraced run
/// prints exactly the end-to-end ones, a traced run the per-layer ones.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_kinst_s", "kinst/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("tie_distance", "steps"),
    ("conservativeness", "ratio"),
    ("const_recall", "ratio"),
];

const PER_LAYER: [(&str, &str); 39] = [
    ("minic.compile_ms", "ms"),
    ("congen.generate_ms", "ms"),
    ("core.condense_ms", "ms"),
    ("core.p1.combine_ms", "ms"),
    ("core.p1.saturate_ms", "ms"),
    ("core.p1.quotient_ms", "ms"),
    ("core.p1.extract_ms", "ms"),
    ("core.p2.combine_ms", "ms"),
    ("core.p2.saturate_ms", "ms"),
    ("core.p2.quotient_ms", "ms"),
    ("core.p2.transducer_ms", "ms"),
    ("core.p2.sketch_ms", "ms"),
    ("core.saturations", "count"),
    ("core.graph_nodes", "count"),
    ("core.graph_edges", "count"),
    ("core.coverage", "ratio"),
    ("driver.cold_overhead_ms", "ms"),
    ("driver.fingerprint_ms", "ms"),
    ("driver.warm_solve_ms", "ms"),
    ("driver.hit_ratio", "ratio"),
    ("driver.evictions_per_req", "count"),
    ("store.replay_ms", "ms"),
    ("store.replayed_entries", "count"),
    ("store.flush_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.to_job_ms", "ms"),
    ("serve.reply_encode_ms", "ms"),
    ("serve.reply_decode_ms", "ms"),
    ("serve.request_kb", "KiB"),
    ("serve.reply_kb", "KiB"),
    ("serve.rtt_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.refused", "ratio"),
    ("gateway.route_us", "us"),
    ("gateway.hop_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("rss_growth_kb_per_req", "KiB"),
];

const WORKLOADS: [&str; 3] = ["cold-solve", "warm-routed", "fresh-serve"];

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !run.seconds.is_finite() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(run)
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tr = Tracer::new(run.trace);
    let mut rep = match run.workload.as_str() {
        "cold-solve" => workloads::cold_solve(&run, &tr),
        "warm-routed" => workloads::warm_routed(&run, &tr),
        _ => workloads::fresh_serve(&run, &tr),
    };
    if run.trace {
        let spans = tr.take();
        let times = trace::layer_times(&spans);
        probes::span_metrics(&times, &mut rep.metrics);
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            run.workload, run.seed
        ));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let layers: Vec<String> = times
            .into_iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "\"{name}\": {{\"count\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect();
        rep.details
            .push(("spans_file".into(), format!("\"{}\"", path.display())));
        rep.details
            .push(("layers".into(), format!("{{{}}}", layers.join(", "))));
    }

    let expected: BTreeSet<(&str, &str)> = if run.trace {
        PER_LAYER.into_iter().collect()
    } else {
        END_TO_END.into_iter().collect()
    };
    let got: BTreeSet<(&str, &str)> = rep
        .metrics
        .0
        .iter()
        .map(|(name, (_, unit))| (name.as_str(), *unit))
        .collect();
    if got != expected {
        eprintln!("perfbench: metrics differ from BENCHMARK.json: {got:?}");
        return ExitCode::FAILURE;
    }

    let details: Vec<String> = rep
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{{}}}", details.join(", "));
    println!(
        "{}",
        report::result_line(
            rep.wrong == 0,
            rep.attempted.max(1),
            rep.failed,
            &rep.metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_core::{Condensation, Lattice, Solver};
    use retypd_serve::json::Json;
    use retypd_serve::WireReport;

    fn fingerprints(seed: u64) -> [u64; 3] {
        [
            corpus::input_fingerprint(corpus::cold_corpus(seed).iter().map(|(_, m)| m)),
            corpus::input_fingerprint(corpus::warm_corpus(seed).iter().map(|(_, m, _)| m)),
            corpus::input_fingerprint(corpus::fresh_members(seed, "pool", 2).iter().map(|m| &m.1)),
        ]
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(fingerprints(7), fingerprints(7));
        let (a, b) = (fingerprints(7), fingerprints(8));
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn replica_is_bit_identical_to_solver_infer_on_rings() {
        let lattice = Lattice::c_types();
        let off = Tracer::new(false);
        let tr = Tracer::new(true);
        // The 10-function stratum's ringed modules: plans [2, 2], [8] and
        // [3, 3, 8, 8].
        let ringed: Vec<_> = corpus::cold_corpus(3).into_iter().skip(7).take(3).collect();
        for (name, module) in ringed {
            let p = corpus::prepare(&name, module, 0, &off);
            let mut sizes: Vec<usize> = Condensation::compute(&p.job.program)
                .sccs
                .iter()
                .map(Vec::len)
                .filter(|&k| k > 1)
                .collect();
            sizes.sort_unstable();
            assert!(
                [vec![2, 2], vec![8], vec![3, 3, 8, 8]].contains(&sizes),
                "{name}: {sizes:?}"
            );
            let want = Solver::new(&lattice).infer(&p.job.program);
            let got = replica::solve(&lattice, &p.job.program, &tr, 1).result;
            assert_eq!(
                WireReport::from_result(&name, &got).canonical_text(),
                WireReport::from_result(&name, &want).canonical_text(),
                "{name}"
            );
        }
        let layers = trace::layer_times(&tr.take());
        for name in probes::CORE_LAYERS {
            assert!(layers.contains_key(name), "no {name} span");
        }
    }

    #[test]
    fn renamed_members_are_new_to_the_service() {
        let off = Tracer::new(false);
        let (name, module, library, suffix) = corpus::fresh_members(5, "pool", 1).remove(0);
        let p = corpus::prepare(&name, module, library, &off);
        let job = corpus::renamed(&p.job, &suffix, "r0n0", "fresh_0_0".into());
        let procs = |j: &retypd_driver::ModuleJob| -> Vec<String> {
            j.program
                .procs
                .iter()
                .map(|p| p.name.as_str().to_owned())
                .collect()
        };
        let (before, after) = (procs(&p.job), procs(&job));
        assert_eq!(before.len(), after.len());
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(
            changed,
            before.len() - library,
            "exactly the member functions are renamed"
        );
        assert_ne!(job.fingerprint(), p.job.fingerprint());
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        json.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
