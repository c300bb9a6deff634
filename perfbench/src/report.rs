//! Statistics, process measurements, the host/input stamp and the JSON
//! lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use retypd_core::Lattice;

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`).
pub fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so the next `VmHWM` read covers only what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Slot-weighted accuracy over a corpus (`retypd_eval::metrics::score`
/// per module, combined by slot and const-parameter counts).
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    dist: f64,
    cons: f64,
    slots: f64,
    found: f64,
    consts: f64,
}

impl Accuracy {
    pub fn merge(&mut self, o: &Accuracy) {
        self.dist += o.dist;
        self.cons += o.cons;
        self.slots += o.slots;
        self.found += o.found;
        self.consts += o.consts;
    }

    /// Scores one solve of a module against its `minic` ground truth.
    pub fn score(
        &mut self,
        lattice: &Lattice,
        result: &retypd_core::SolverResult,
        truth: &retypd_minic::truth::GroundTruth,
    ) {
        let inferred = retypd_eval::front::convert_result(result, lattice);
        let m = retypd_eval::metrics::score(lattice, &inferred, truth);
        let slots = m.slots as f64;
        self.dist += m.distance * slots;
        self.cons += m.conservativeness * slots;
        self.slots += slots;
        self.found += m.const_recall * m.const_truths as f64;
        self.consts += m.const_truths as f64;
    }

    pub fn tie_distance(&self) -> f64 {
        self.dist / self.slots.max(1.0)
    }

    pub fn conservativeness(&self) -> f64 {
        self.cons / self.slots.max(1.0)
    }

    pub fn const_recall(&self) -> f64 {
        self.found / self.consts.max(1.0)
    }
}

/// Metrics of one run, by name: (value, unit).
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, (value, unit))) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

/// Host and code stamp: numbers from different boxes or trees must not be
/// compared silently.
pub fn stamp(seed: u64, input_fp: u64) -> String {
    // Only a working directory that is itself a git checkout is asked, so
    // git never searches the directories above it.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"commit\": \"{commit}\", \"source_fp\": \"{:016x}\", \"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"seed\": {seed}, \"input_fp\": \"{input_fp:016x}\"}}",
        source_fingerprint()
    )
}

/// FNV over the workspace sources (`crates/*/src`, manifests, lock file)
/// read from the working directory: identifies the code under test where
/// the checkout carries no git metadata.
fn source_fingerprint() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    crate::corpus::fnv(&bytes)
}
