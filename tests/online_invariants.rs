//! Differential tests of the online dynamic-world engine.
//!
//! * On a trace with zero events, `solve_online_with` on the QuHE solver is
//!   bit-identical to solving the (unchanged) world repeatedly.
//! * With events, every warm-started step's objective is at least the cold
//!   single-start solve of the same world — the fallback guarantee — and a
//!   fallback step is at least the cold re-anchor of its world.
//! * On drift-only traces, warm tracking beats re-solving every step cold:
//!   pure warm steps spend fewer outer iterations than the cold solve, most
//!   steps stay pure warm, and the whole run spends fewer iterations.
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

/// A drift-only trace at the serve protocol's gentle ±1 % per-step channel
/// and key-rate drift.
fn gentle_drift(steps: usize) -> OnlineTraceConfig {
    OnlineTraceConfig {
        drift_amplitude: 0.01,
        key_rate_drift: 0.01,
        ..OnlineTraceConfig::drift_only(steps)
    }
}

#[test]
fn warm_tracking_beats_cold_re_solving_on_drift_traces() {
    // A coarse outer tolerance lets a warm step converge in one pass, and a
    // large Stage-3 budget keeps the cold baseline at an optimum rather than
    // at a budget-determined point; both sides run under this config.
    let config = QuheConfig {
        max_outer_iterations: 4,
        max_stage3_iterations: 30,
        tolerance: 1e-3,
        solver_threads: 1,
        ..QuheConfig::default()
    };
    let catalog = ScenarioCatalog::builtin();
    let solver = QuheSolver::new(config);
    let (mut steps, mut pure_warm, mut path_iterations, mut cold_iterations) = (0, 0, 0, 0);
    // `dense_cell` (32 clients) is left out to keep the suite's run time
    // down; the four other catalogue worlds cover 6 to 12 clients.
    for name in [
        "paper_default",
        "heterogeneous_devices",
        "far_edge",
        "bursty_workload",
    ] {
        for seed in 42..=44 {
            let trace = SystemTrace::generate(&catalog, name, seed, &gentle_drift(3)).unwrap();
            let online = solve_online_with(&solver, &trace).unwrap();
            for (record, step) in online.records.iter().zip(trace.steps()).skip(1) {
                let at = format!("{name} seed {seed} step {}", record.step);
                assert!(
                    matches!(record.kind, SolveKind::Warm | SolveKind::WarmFallback),
                    "{at}: drift step solved {:?}",
                    record.kind
                );
                let floor = record.guard_objective.unwrap();
                assert!(
                    record.objective >= floor,
                    "{at}: objective {} below the single-start floor {floor}",
                    record.objective
                );
                let cold = QuheSolver::new(step_config(&config, step))
                    .solve(&step.scenario, &SolveSpec::cold())
                    .unwrap();
                if record.kind == SolveKind::Warm {
                    pure_warm += 1;
                    assert!(
                        record.outer_iterations < cold.outer_iterations,
                        "{at}: warm used {} outer iterations, cold {}",
                        record.outer_iterations,
                        cold.outer_iterations
                    );
                }
                steps += 1;
                path_iterations += record.outer_iterations;
                cold_iterations += cold.outer_iterations;
            }
        }
    }
    assert!(
        2 * pure_warm >= steps,
        "warm tracking fell back on {} of {steps} drift steps",
        steps - pure_warm
    );
    assert!(
        path_iterations < cold_iterations,
        "online tracking spent {path_iterations} outer iterations, cold re-solving \
         {cold_iterations}"
    );
}

#[test]
fn fallback_steps_are_never_below_the_cold_re_anchor() {
    let catalog = ScenarioCatalog::builtin();
    let trace = SystemTrace::generate(&catalog, "bursty_workload", 7, &gentle_drift(1)).unwrap();
    let online = solve_online_with(&QuheSolver::new(test_config()), &trace).unwrap();
    let mut fallbacks = 0;
    for (record, step) in online.records.iter().zip(trace.steps()) {
        if record.kind != SolveKind::WarmFallback {
            continue;
        }
        fallbacks += 1;
        let re_anchor = QuheSolver::new(anchor_config(&test_config(), step))
            .solve(&step.scenario, &SolveSpec::cold())
            .unwrap();
        assert!(
            record.objective >= re_anchor.objective,
            "step {}: fallback kept {} below the cold re-anchor {}",
            record.step,
            record.objective,
            re_anchor.objective
        );
    }
    assert!(fallbacks >= 1, "the trace exercised no fallback");
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
