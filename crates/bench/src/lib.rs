//! # retypd-bench
//!
//! The benchmark suite definition and one binary per table/figure of the
//! paper's evaluation (§6). Run e.g.:
//!
//! ```text
//! cargo run --release -p retypd-bench --bin fig07_suite
//! cargo run --release -p retypd-bench --bin fig08_distance
//! cargo run --release -p retypd-bench --bin fig09_conservativeness
//! cargo run --release -p retypd-bench --bin fig10_clusters
//! cargo run --release -p retypd-bench --bin fig11_time_scaling
//! cargo run --release -p retypd-bench --bin fig12_memory
//! cargo run --release -p retypd-bench --bin tbl_const_recall
//! cargo run --release -p retypd-bench --bin fig02_close_last
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use retypd_core::ConstraintSet;
use retypd_minic::ast::Module;
use retypd_minic::genprog::{ClusterSpec, GenConfig, ProgramGenerator};

/// A value-flow chain of `n` links with pointer stores/loads every third
/// link — the workload whose graph counts the determinism regression
/// tests pin.
pub fn chain_constraints(n: usize) -> ConstraintSet {
    let mut cs = ConstraintSet::new();
    for i in 0..n {
        cs.add_sub_str(&format!("v{i}"), &format!("v{}", i + 1));
        if i % 3 == 0 {
            cs.add_sub_str(&format!("p{i}.load.σ32@0"), &format!("v{i}"));
            cs.add_sub_str(&format!("v{i}"), &format!("p{}.store.σ32@0", i + 1));
        }
    }
    cs.add_sub_str("v0", "int");
    cs
}

/// A named standalone benchmark (the Figure 7 singles).
pub struct SingleSpec {
    /// Benchmark name (mirrors the flavor of the paper's suite).
    pub name: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Generator function count (drives instruction count).
    pub functions: usize,
    /// Seed.
    pub seed: u64,
}

/// The standalone members of the benchmark suite, smallest to largest
/// (Figure 7's single binaries, scaled to harness-friendly sizes).
pub const SINGLES: &[SingleSpec] = &[
    SingleSpec { name: "libidn-like", description: "domain name translator", functions: 14, seed: 101 },
    SingleSpec { name: "tutorial-like", description: "graphics tutorial", functions: 18, seed: 102 },
    SingleSpec { name: "zlib-like", description: "compression library", functions: 28, seed: 103 },
    SingleSpec { name: "ogg-like", description: "multimedia library", functions: 40, seed: 104 },
    SingleSpec { name: "distributor-like", description: "network repeater", functions: 44, seed: 105 },
    SingleSpec { name: "libbz2-like", description: "BZIP library", functions: 74, seed: 106 },
    SingleSpec { name: "glut-like", description: "GL utility library", functions: 80, seed: 107 },
    SingleSpec { name: "pngtest-like", description: "PNG test driver", functions: 84, seed: 108 },
    SingleSpec { name: "freeglut-like", description: "GL utility, newer", functions: 154, seed: 109 },
    SingleSpec { name: "miranda-like", description: "IRC client", functions: 200, seed: 110 },
    SingleSpec { name: "xmail-like", description: "mail server", functions: 274, seed: 111 },
    SingleSpec { name: "yasm-like", description: "modular assembler", functions: 380, seed: 112 },
];

/// The clusters of Figure 10, scaled down.
pub fn clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec { name: "freeglut-demos".into(), members: 3, shared_functions: 4, member_functions: 3, seed: 201, call_depth: 0 },
        ClusterSpec { name: "coreutils".into(), members: 12, shared_functions: 16, member_functions: 4, seed: 202, call_depth: 0 },
        ClusterSpec { name: "vpx-d".into(), members: 4, shared_functions: 30, member_functions: 8, seed: 203, call_depth: 0 },
        ClusterSpec { name: "vpx-e".into(), members: 4, shared_functions: 40, member_functions: 10, seed: 204, call_depth: 0 },
        ClusterSpec { name: "sphinx2".into(), members: 4, shared_functions: 44, member_functions: 10, seed: 205, call_depth: 0 },
        ClusterSpec { name: "putty".into(), members: 4, shared_functions: 48, member_functions: 12, seed: 206, call_depth: 0 },
    ]
}

/// Generates a single benchmark module.
pub fn generate_single(spec: &SingleSpec) -> Module {
    ProgramGenerator::new(GenConfig {
        seed: spec.seed,
        functions: spec.functions,
        structs: 3 + (spec.functions / 25),
        ..GenConfig::default()
    })
    .generate()
}

/// Generates a module of approximately `target` instructions (for the
/// scaling sweeps of Figures 11–12).
pub fn generate_sized(target_insts: usize, seed: u64) -> Module {
    // ~55 machine instructions per generated function on average.
    let functions = (target_insts / 55).max(2);
    ProgramGenerator::new(GenConfig {
        seed,
        functions,
        structs: 3 + functions / 30,
        ..GenConfig::default()
    })
    .generate()
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}
