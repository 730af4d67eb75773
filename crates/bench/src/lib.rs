//! # quhe-bench — experiment harness for the QuHE reproduction
//!
//! One binary per table/figure of the paper's evaluation section
//! (Section VI), plus Criterion micro-benchmarks of the stages and the
//! substrates. `crates/README.md` lists the commands that run them.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `tables_3_4` | Tables III and IV (scenario inputs) |
//! | `fig3_optimality` | Fig. 3(a)(b): optimality over random initializations |
//! | `fig4_convergence` | Fig. 4(a)–(d): per-stage convergence and duality gap |
//! | `fig5_comparison` | Fig. 5(a)–(d): stage calls/runtime, Stage-1 methods, whole-procedure comparison |
//! | `tables_5_6` | Tables V and VI: per-method `phi` and `w` values |
//! | `fig6_sweeps` | Fig. 6(a)–(d): objective vs. resource budgets |
//!
//! Serving and solver performance — latency, throughput, per-stage and
//! per-kernel timings, and the warm-serving policy the online engine shares
//! with the service — is measured by the repository benchmark in
//! `perfbench/`, not here.
//!
//! Every binary accepts the environment variables `QUHE_SEED` (default 42)
//! and, where relevant, `QUHE_SAMPLES` / `QUHE_POINTS`, so that quick smoke
//! runs and full paper-scale runs use the same code path. Every solving
//! binary routes through the unified [`Solver`] surface, drawing its solvers
//! from [`SolverRegistry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use quhe_core::prelude::*;

/// Reads an environment variable as `usize`, with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an environment variable as `u64`, with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default scenario every experiment binary starts from (seed taken from
/// `QUHE_SEED`, default 42).
pub fn default_scenario() -> SystemScenario {
    SystemScenario::paper_default(env_u64("QUHE_SEED", 42))
}

/// The configuration used by the experiment binaries: the paper's weights and
/// tolerance, with iteration budgets suited to repeated full runs.
pub fn experiment_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: env_usize("QUHE_OUTER_ITERS", 5),
        max_stage3_iterations: env_usize("QUHE_STAGE3_ITERS", 20),
        ..QuheConfig::default()
    }
}

/// The built-in solver registry under [`experiment_config`] — the solvers
/// every experiment binary draws from.
pub fn solver_registry() -> SolverRegistry {
    SolverRegistry::builtin_with(experiment_config())
}

/// The human-facing label of a built-in solver name (the paper's method
/// names); unknown names pass through unchanged.
pub fn display_name(solver: &str) -> &str {
    match solver {
        "quhe" => "QuHE",
        "aa" => "AA",
        "olaa" => "OLAA",
        "occr" => "OCCR",
        other => other,
    }
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let formatted: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("| {} |", formatted.join(" | "));
}

/// Prints a table header followed by a separator row.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    print_row(&separator, widths);
}

/// Formats a float with the given number of significant decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a float in scientific notation.
pub fn fmt_sci(value: f64) -> String {
    format!("{value:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back_to_defaults() {
        assert_eq!(env_usize("QUHE_THIS_VARIABLE_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("QUHE_THIS_VARIABLE_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn default_scenario_and_config_are_valid() {
        let scenario = default_scenario();
        assert_eq!(scenario.num_clients(), 6);
        assert!(experiment_config().validate().is_ok());
    }

    #[test]
    fn formatting_helpers_produce_expected_shapes() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert!(fmt_sci(12345.0).contains('e'));
    }

    #[test]
    fn the_registry_holds_the_four_paper_methods_with_their_labels() {
        assert_eq!(
            solver_registry().names(),
            vec!["quhe", "aa", "olaa", "occr"]
        );
        assert_eq!(display_name("quhe"), "QuHE");
        assert_eq!(display_name("custom"), "custom");
    }
}
