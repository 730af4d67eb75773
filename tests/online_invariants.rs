//! Differential tests of the online dynamic-world engine.
//!
//! * On a trace with zero events, `solve_online_with` on the QuHE solver is
//!   bit-identical to solving the (unchanged) world repeatedly.
//! * With events, every warm-started step's objective is at least the cold
//!   single-start solve of the same world — the fallback guarantee.
//! * The whole run is seed-deterministic: replaying a trace reproduces the
//!   exact same records and solutions.

use quhe::core::online::{anchor_config, step_config};
use quhe::prelude::*;

/// Iteration budgets sized for the debug-build test suite; the invariants
/// hold at any budget because they compare runs sharing the same budget.
fn test_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 3,
        max_stage3_iterations: 8,
        tolerance: 1e-3,
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

#[test]
fn zero_event_trace_is_bit_identical_to_repeated_solve() {
    let catalog = ScenarioCatalog::builtin();
    let trace = SystemTrace::generate(&catalog, "paper_default", 42, &OnlineTraceConfig::frozen(4))
        .unwrap();
    let online = solve_online_with(&QuheSolver::new(test_config()), &trace).unwrap();
    assert_eq!(online.outcomes.len(), 5);
    for (outcome, step) in online.outcomes.iter().zip(trace.steps()) {
        // Cold solves inside the engine run at the anchor tolerance, so the
        // repeated-solve baseline uses the same documented configuration.
        let repeated = QuheSolver::new(anchor_config(&test_config(), step))
            .solve(&step.scenario, &SolveSpec::cold())
            .unwrap();
        assert_eq!(outcome.variables, repeated.variables);
        assert_eq!(outcome.objective, repeated.objective);
        assert_eq!(outcome.outer_trace, repeated.outer_trace);
    }
    // And the engine did that work once, not five times.
    assert_eq!(online.count(SolveKind::Cold), 1);
    assert_eq!(online.count(SolveKind::Cached), 4);
}

#[test]
fn warm_steps_never_fall_below_the_cold_single_start_solve() {
    let catalog = ScenarioCatalog::builtin();
    let solver = QuheSolver::new(test_config());
    let traces = [
        SystemTrace::generate(
            &catalog,
            "paper_default",
            7,
            &OnlineTraceConfig::drift_only(3),
        )
        .unwrap(),
        SystemTrace::generate(
            &catalog,
            "paper_default",
            13,
            &OnlineTraceConfig {
                steps: 4,
                event_probability: 0.6,
                ..OnlineTraceConfig::default()
            },
        )
        .unwrap(),
    ];
    for trace in &traces {
        let online = solve_online_with(&solver, trace).unwrap();
        let mut warm_steps = 0;
        for (record, step) in online.records.iter().zip(trace.steps()) {
            if !matches!(record.kind, SolveKind::Warm | SolveKind::WarmFallback) {
                continue;
            }
            warm_steps += 1;
            let cold = QuheSolver::new(step_config(&test_config(), step))
                .solve(&step.scenario, &SolveSpec::single_start())
                .unwrap();
            assert!(
                record.objective >= cold.objective - 1e-6 * (1.0 + cold.objective.abs()),
                "step {}: warm objective {} fell below the cold single-start solve {}",
                record.step,
                record.objective,
                cold.objective
            );
        }
        assert!(
            warm_steps >= 1,
            "the trace exercised no warm re-solves at all"
        );
    }
}

#[test]
fn online_runs_are_seed_deterministic_end_to_end() {
    let catalog = ScenarioCatalog::builtin();
    let config = OnlineTraceConfig {
        steps: 3,
        event_probability: 0.5,
        ..OnlineTraceConfig::default()
    };
    let trace_a = SystemTrace::generate(&catalog, "paper_default", 19, &config).unwrap();
    let trace_b = SystemTrace::generate(&catalog, "paper_default", 19, &config).unwrap();
    assert_eq!(trace_a, trace_b, "trace generation must be deterministic");

    let solver = QuheSolver::new(test_config());
    let run_a = solve_online_with(&solver, &trace_a).unwrap();
    let run_b = solve_online_with(&solver, &trace_b).unwrap();
    for (a, b) in run_a.records.iter().zip(&run_b.records) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.outer_iterations, b.outer_iterations);
        assert_eq!(a.stage_calls, b.stage_calls);
        assert_eq!(a.event_kinds, b.event_kinds);
    }
    for (a, b) in run_a.outcomes.iter().zip(&run_b.outcomes) {
        assert_eq!(a.variables, b.variables);
        assert_eq!(a.outer_trace, b.outer_trace);
    }
}

#[test]
fn per_step_solutions_respect_their_own_worlds_constraints() {
    let catalog = ScenarioCatalog::builtin();
    let trace = SystemTrace::generate(
        &catalog,
        "far_edge",
        5,
        &OnlineTraceConfig {
            steps: 3,
            event_probability: 0.5,
            ..OnlineTraceConfig::default()
        },
    )
    .unwrap();
    let online = solve_online_with(&QuheSolver::new(test_config()), &trace).unwrap();
    for (outcome, step) in online.outcomes.iter().zip(trace.steps()) {
        let problem =
            Problem::new(step.scenario.clone(), step_config(&test_config(), step)).unwrap();
        problem.check_feasible(&outcome.variables).unwrap();
        assert!(outcome.objective.is_finite());
    }
}
