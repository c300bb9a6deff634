//! End-to-end benchmark harness: mini-C module → binary → constraints →
//! three tools → scores.

use std::time::{Duration, Instant};

use retypd_baselines::{infer_tie, infer_unification};
use retypd_core::solver::SolverStats;
use retypd_core::{Lattice, Solver};
use retypd_minic::ast::Module;
use retypd_minic::codegen::compile;

use crate::front::convert_result;
use crate::metrics::{score, ToolMetrics};

/// Scores for every tool on one program.
#[derive(Clone, Copy, Debug, Default)]
pub struct ToolScores {
    /// Retypd (this paper).
    pub retypd: ToolMetrics,
    /// TIE-style subtype bounds baseline.
    pub tie: ToolMetrics,
    /// SecondWrite/REWARDS-style unification baseline.
    pub unification: ToolMetrics,
}

/// Result of evaluating one program.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Program name.
    pub name: String,
    /// Machine instruction count (the paper's size measure).
    pub instructions: usize,
    /// Per-tool metrics.
    pub scores: ToolScores,
    /// Wall-clock time of the Retypd solve.
    pub retypd_time: Duration,
    /// Solver size statistics (memory model input).
    pub stats: SolverStats,
}

/// Compiles and evaluates one module with all three tools.
///
/// # Panics
///
/// Panics if the module fails to compile — generated benchmark modules are
/// well-typed by construction.
pub fn evaluate_module(name: &str, module: &Module, lattice: &Lattice) -> BenchResult {
    let (mir, truth) = compile(module).expect("benchmark module compiles");
    let instructions = mir.instruction_count();
    let program = retypd_congen::generate(&mir);

    let start = Instant::now();
    let solved = Solver::new(lattice).infer(&program);
    let retypd_time = start.elapsed();
    let stats = solved.stats;
    let retypd_inferred = convert_result(&solved, lattice);

    let tie_inferred = infer_tie(&program, lattice);
    let uni_inferred = infer_unification(&program, lattice);

    BenchResult {
        name: name.to_owned(),
        instructions,
        scores: ToolScores {
            retypd: score(lattice, &retypd_inferred, &truth),
            tie: score(lattice, &tie_inferred, &truth),
            unification: score(lattice, &uni_inferred, &truth),
        },
        retypd_time,
        stats,
    }
}

/// Runs only the Retypd pipeline, timed (for the scaling figures).
pub fn time_retypd(module: &Module, lattice: &Lattice) -> (usize, Duration, SolverStats) {
    let (mir, _) = compile(module).expect("benchmark module compiles");
    let instructions = mir.instruction_count();
    let program = retypd_congen::generate(&mir);
    let start = Instant::now();
    let solved = Solver::new(lattice).infer(&program);
    let t = start.elapsed();
    (instructions, t, solved.stats)
}

/// The estimated resident bytes of the solver structures (memory model for
/// Figure 12): graph nodes/edges, quotient nodes and sketch states have
/// known approximate footprints.
pub fn estimated_bytes(stats: &SolverStats) -> usize {
    stats.graph_nodes * 48 + stats.graph_edges * 24 + stats.quotient_nodes * 64
        + stats.sketch_states * 56
        + stats.constraints * 96
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_minic::genprog::{GenConfig, ProgramGenerator};
    use retypd_minic::parse_module;

    #[test]
    fn evaluates_hand_written_program() {
        let src = "
            struct LL { struct LL* next; int handle; };
            int close_last(const struct LL* list) {
                while (list->next != 0) { list = list->next; }
                return close(list->handle);
            }
        ";
        let module = parse_module(src).unwrap();
        let lattice = Lattice::c_types();
        let r = evaluate_module("close_last", &module, &lattice);
        assert!(r.instructions > 5);
        assert!(r.scores.retypd.slots >= 2);
        // Retypd recovers the const param.
        assert!(
            r.scores.retypd.const_recall > 0.99,
            "const recall {}",
            r.scores.retypd.const_recall
        );
        // Retypd should not be worse than the baselines on distance here.
        assert!(
            r.scores.retypd.distance <= r.scores.unification.distance + 1e-9,
            "retypd {} vs unification {}",
            r.scores.retypd.distance,
            r.scores.unification.distance
        );
    }

    #[test]
    fn evaluates_generated_program() {
        let module = ProgramGenerator::new(GenConfig {
            seed: 3,
            functions: 10,
            ..GenConfig::default()
        })
        .generate();
        let lattice = Lattice::c_types();
        let r = evaluate_module("gen3", &module, &lattice);
        assert!(r.scores.retypd.slots > 5);
        assert!(r.scores.retypd.conservativeness > 0.5);
    }
}
