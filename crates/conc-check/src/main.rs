//! `conc-check`: runs the model-checked concurrency suite and emits a
//! JSON run-stats report.
//!
//! ```text
//! conc-check [--seed N] [--max-iterations N] [--min-iterations N] [--out FILE]
//! ```
//!
//! Exit status 0 when every passing model explores clean (and meets
//! `--min-iterations`, when given) AND every mutation model fails with
//! a schedule that replays to the same failure; 1 otherwise; 2 on
//! usage errors. The JSON goes to stdout (or `--out FILE`) and CI
//! archives it next to the fuzz smoke artifact:
//!
//! ```json
//! {
//!   "seed": 1,
//!   "product_models_included": true,
//!   "models": [ {"name": "...", "iterations": 1234, "complete": true, ...} ],
//!   "mutations": [ {"name": "...", "caught": true, "schedule": "s1-p5:..."} ],
//!   "ok": true
//! }
//! ```

use std::fmt::Write as _;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn main() {
    let mut seed = retypd_conc_check::DEFAULT_SEED;
    let mut max_iterations = retypd_conc_check::DEFAULT_MAX_ITERATIONS;
    let mut min_iterations = 0u64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    let usage = "usage: conc-check [--seed N] [--max-iterations N] [--min-iterations N] [--out FILE]";
    while let Some(a) = args.next() {
        let mut num = |flag: &str| match args.next().map(|v| v.parse::<u64>()) {
            Some(Ok(n)) => n,
            _ => {
                eprintln!("{flag} expects a non-negative integer; {usage}");
                std::process::exit(2);
            }
        };
        match a.as_str() {
            "--seed" => seed = num("--seed"),
            "--max-iterations" => max_iterations = num("--max-iterations"),
            "--min-iterations" => min_iterations = num("--min-iterations"),
            "--out" => match args.next() {
                Some(p) => out = Some(p.into()),
                None => {
                    eprintln!("--out expects a path; {usage}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("{usage}");
                return;
            }
            other => {
                eprintln!("unknown argument {other}; {usage}");
                std::process::exit(2);
            }
        }
    }

    let mut ok = true;
    let mut models_json = Vec::new();
    for def in retypd_conc_check::registry() {
        let report = def.check(seed, max_iterations);
        let model_ok = report.failure.is_none()
            && (report.iterations >= min_iterations || min_iterations == 0);
        if let Some(f) = &report.failure {
            eprintln!(
                "FAIL {}: {} (replay with schedule {:?})",
                def.name, f.message, f.schedule
            );
        } else if !model_ok {
            eprintln!(
                "FAIL {}: only {} interleavings explored (< {min_iterations})",
                def.name, report.iterations
            );
        } else {
            eprintln!(
                "ok   {}: {} interleavings, complete={}",
                def.name, report.iterations, report.complete
            );
        }
        ok &= model_ok;
        let mut m = String::new();
        let _ = write!(
            m,
            "{{\"name\": \"{}\", \"what\": \"{}\", \"preemption_bound\": {}, \
             \"iterations\": {}, \"complete\": {}, \"ok\": {}",
            json_escape(def.name),
            json_escape(def.what),
            def.preemption_bound,
            report.iterations,
            report.complete,
            model_ok
        );
        if let Some(f) = &report.failure {
            let _ = write!(
                m,
                ", \"failure\": \"{}\", \"schedule\": \"{}\"",
                json_escape(&f.message),
                json_escape(&f.schedule)
            );
        }
        m.push('}');
        models_json.push(m);
    }

    let mut mutations_json = Vec::new();
    for def in retypd_conc_check::mutations() {
        let report = def.check(seed, max_iterations);
        // A mutation is only "caught" if the failure also replays: the
        // schedule string must deterministically reproduce it.
        let caught = match &report.failure {
            Some(f) => def.replay(&f.schedule).failure.is_some(),
            None => false,
        };
        if caught {
            let f = report.failure.as_ref().expect("caught implies failure");
            eprintln!(
                "ok   {}: caught after {} interleavings, schedule {:?} replays",
                def.name, report.iterations, f.schedule
            );
        } else {
            eprintln!(
                "FAIL {}: the mutation was NOT caught ({} interleavings) — the checker has lost its teeth",
                def.name, report.iterations
            );
        }
        ok &= caught;
        let mut m = String::new();
        let _ = write!(
            m,
            "{{\"name\": \"{}\", \"what\": \"{}\", \"iterations\": {}, \"caught\": {}",
            json_escape(def.name),
            json_escape(def.what),
            report.iterations,
            caught
        );
        if let Some(f) = &report.failure {
            let _ = write!(
                m,
                ", \"failure\": \"{}\", \"schedule\": \"{}\"",
                json_escape(&f.message),
                json_escape(&f.schedule)
            );
        }
        m.push('}');
        mutations_json.push(m);
    }

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"max_iterations\": {max_iterations},\n  \
         \"min_iterations\": {min_iterations},\n  \
         \"product_models_included\": {},\n  \"models\": [\n    {}\n  ],\n  \
         \"mutations\": [\n    {}\n  ],\n  \"ok\": {ok}\n}}\n",
        cfg!(retypd_model_check),
        models_json.join(",\n    "),
        mutations_json.join(",\n    "),
    );
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("run stats written to {}", path.display());
        }
        None => print!("{json}"),
    }
    if !ok {
        std::process::exit(1);
    }
}
