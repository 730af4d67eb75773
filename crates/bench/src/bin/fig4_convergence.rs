//! Regenerates Fig. 4 of the paper: convergence of each stage of the QuHE
//! algorithm — the Stage-1 and Stage-2 objective traces, the Stage-3 primal
//! objective ("POBJ") trace, and the Stage-3 duality-gap trace from the
//! interior-point polish.
//!
//! The whole figure comes out of a single [`Solver::solve`] call: the `quhe`
//! registry solver runs one outer iteration under
//! [`InstrumentationLevel::Full`], and the per-stage telemetry of the
//! returned [`SolveReport`] carries all four traces (the first outer
//! iteration's stage solves start from the deterministic initial point,
//! which is exactly what the paper's figure shows).
//!
//! ```bash
//! cargo run --release -p quhe-bench --bin fig4_convergence
//! ```

use quhe_bench::{default_scenario, fmt, fmt_sci, print_header, print_row, solver_registry};
use quhe_core::prelude::*;

fn main() {
    let scenario = default_scenario();
    let registry = solver_registry();
    // One outer iteration: the final per-stage telemetry is then the
    // first-iteration telemetry the figure plots.
    let mut config = *registry
        .resolve("quhe")
        .expect("quhe is a built-in")
        .config();
    config.max_outer_iterations = 1;
    let report = QuheSolver::new(config)
        .solve(
            &scenario,
            &SolveSpec::cold().with_instrumentation(InstrumentationLevel::Full),
        )
        .expect("QuHE solves");
    let stage1 = report.stage1.as_ref().expect("full instrumentation");
    let stage2 = report.stage2.as_ref().expect("full instrumentation");
    let stage3 = report.stage3.as_ref().expect("full instrumentation");

    // Stage 1 (Fig. 4(a)): P3 objective across interior-point iterations.
    println!("Fig. 4(a): objective function value in Stage 1 per iteration");
    let widths = [9, 16];
    print_header(&["Iteration", "P3 objective"], &widths);
    for (i, value) in stage1.trace.iter().enumerate() {
        print_row(&[i.to_string(), fmt(*value, 6)], &widths);
    }
    println!(
        "converged in {} iterations, {:.3} s\n",
        stage1.iterations, stage1.runtime_s
    );

    // Stage 2 (Fig. 4(b)): incumbent objective across the threshold sweep's
    // improvements, starting from the Stage-1 rates.
    println!("Fig. 4(b): objective function value in Stage 2 (incumbent trace)");
    print_header(&["Step", "F_s2 incumbent"], &widths);
    for (i, value) in stage2.trace.iter().enumerate() {
        print_row(&[i.to_string(), fmt(*value, 6)], &widths);
    }
    println!(
        "optimal lambda = {:?}, {} delay bounds examined, {} assignments scored\n",
        stage2.lambda, stage2.nodes_expanded, stage2.leaves_evaluated
    );

    // Stage 3 (Fig. 4(c)/(d)): POBJ trace of the fractional-programming loop
    // and the duality gap of the final interior-point polish.
    println!("Fig. 4(c): primal objective (POBJ) in Stage 3 per outer iteration");
    print_header(&["Iteration", "POBJ"], &widths);
    for (i, value) in stage3.trace.iter().enumerate() {
        print_row(&[i.to_string(), fmt_sci(*value)], &widths);
    }
    println!();
    println!("Fig. 4(d): duality gap in Stage 3 (interior-point polish)");
    print_header(&["Iteration", "Duality gap"], &widths);
    for (i, value) in stage3.gap_trace.iter().enumerate() {
        print_row(&[i.to_string(), fmt_sci(*value)], &widths);
    }
    println!(
        "\nStage 3 converged in {} outer iterations, {:.3} s; final gap {:.1e}",
        stage3.iterations,
        stage3.runtime_s,
        stage3.gap_trace.last().copied().unwrap_or(f64::NAN)
    );
    println!(
        "(paper: Stage 1 converges in 12 steps, Stage 2 in 26, Stage 3 in 34; gap reaches 1e-5)"
    );
}
