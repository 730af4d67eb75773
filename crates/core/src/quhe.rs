//! The complete QuHE algorithm (Algorithm 4 of the paper): alternating
//! optimization over the three blocks `(phi, w)`, `(lambda, T)` and
//! `(p, b, f^(c), f^(s), T)` until the objective converges.
//!
//! The alternation is reached only through
//! [`QuheSolver`](crate::solver::QuheSolver) (registry name `"quhe"` in
//! [`crate::solver::SolverRegistry::builtin`]): a [`SolveSpec`] describes
//! the run and a [`SolveReport`] carries its result.

use std::time::Instant;

use crate::error::{QuheError, QuheResult};
use crate::metrics::MethodMetrics;
use crate::params::QuheConfig;
use crate::problem::Problem;
use crate::solver::{InstrumentationLevel, SolveReport, SolveSpec, StartMode};
use crate::stage2::Stage2Solver;
use crate::stage3::Stage3Solver;
use crate::variables::DecisionVariables;

/// Per-outer-iteration record of the alternating optimization.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OuterIterationRecord {
    /// Outer iteration index (0-based).
    pub iteration: usize,
    /// Objective after Stage 1 of this iteration.
    pub after_stage1: f64,
    /// Objective after Stage 2 of this iteration.
    pub after_stage2: f64,
    /// Objective after Stage 3 of this iteration.
    pub after_stage3: f64,
}

/// Runs Algorithm 4 on a prepared problem under `config` (the spec-effective
/// configuration the problem was built with), starting from the spec's start
/// point, and returns the report of the `"quhe"` solver with every telemetry
/// slot filled; [`QuheSolver`](crate::solver::QuheSolver) applies the spec's
/// instrumentation level to it.
///
/// # Errors
/// * [`QuheError::InvalidConfig`] for an invalid configuration.
/// * [`QuheError::DimensionMismatch`] when a [`StartMode::WarmFrom`] start
///   does not match the problem's client and link counts.
/// * [`QuheError::ConstraintViolation`] when a warm start's degree lies
///   outside the choice set (17d), a resource entry is not positive and
///   finite (17e)–(17h), or the start leaves a client with a non-finite
///   Stage-2 gain or delay at some degree.
/// * Substrate and stage-solver errors.
pub(crate) fn alternate(
    config: &QuheConfig,
    problem: &Problem,
    spec: &SolveSpec,
) -> QuheResult<SolveReport> {
    config.validate()?;
    let wall_clock = Instant::now();
    let stage2_solver = Stage2Solver::new();
    let stage3_solver = Stage3Solver::new(config.max_stage3_iterations, config.tolerance * 1e-2)
        .with_threads(config.solver_threads)
        .with_start_budget(spec.multi_start_budget())
        .with_start_pruning(spec.start_pruning());

    let mut vars = match spec.start() {
        StartMode::Cold | StartMode::SingleStart => problem.initial_point()?,
        StartMode::WarmFrom(start) => {
            // A start is untrusted input on the serve path: the cost
            // evaluators index it per client and per link, and evaluate the
            // start before any stage replaces a block.
            start.check_dimensions(problem.num_clients(), problem.scenario().num_links())?;
            check_warm_domain(problem, start)?;
            start.clone()
        }
    };
    let mut best_objective = problem.objective_with_max_delay(&vars)?;
    let mut outer_trace = Vec::new();
    let mut stage_calls = [0usize; 3];
    let mut converged = false;

    // Stage 1 does not depend on the other blocks (the paper drops the
    // constant terms), so it runs once per problem and is reused: across
    // this loop, which still re-records it per iteration for the trace, and
    // across the solves of problems that share it (`Problem::stage1`), such
    // as the warm solve, floor guard and cold fallback of one warm-served
    // request. Each solve still counts it as one Stage-1 call.
    let stage1 = problem.stage1()?.clone();
    stage_calls[0] += 1;
    vars.phi = stage1.phi.clone();
    vars.w = stage1.w.clone();
    let mut last_stage2 = None;
    let mut last_stage3 = None;

    let mut iterations = 0;
    let mut explored_lambdas: std::collections::HashSet<Vec<u64>> =
        std::collections::HashSet::new();
    for iteration in 0..config.max_outer_iterations {
        iterations = iteration + 1;
        let objective_before = best_objective;
        let after_stage1 = problem.objective_with_max_delay(&vars)?;

        // Stage 2: polynomial degrees.
        let stage2 = stage2_solver.solve(problem, &vars)?;
        stage_calls[1] += 1;
        vars.lambda = stage2.lambda.clone();
        vars.delay_bound = stage2.delay_bound;
        let after_stage2 = problem.objective_with_max_delay(&vars)?;
        last_stage2 = Some(stage2);

        // Stage 3: communication and computation resources. The
        // multi-start basin exploration pays off only when the Stage-3
        // cost surface is new — i.e. the first time each `lambda` is
        // seen, since the surface depends on the variables only through
        // `lambda`. While `lambda` is unchanged the warm start already
        // sits in the best basin found and re-solving the fixed starts
        // would only cost time. Single-start mode skips the exploration
        // entirely and rides the carried start's basin.
        let surface_is_new = explored_lambdas.insert(vars.lambda.clone());
        let multi_start = spec.multi_start() && surface_is_new;
        let stage3 = stage3_solver.run(problem, &vars, multi_start)?;
        stage_calls[2] += 1;
        vars.power = stage3.power.clone();
        vars.bandwidth = stage3.bandwidth.clone();
        vars.client_frequency = stage3.client_frequency.clone();
        vars.server_frequency = stage3.server_frequency.clone();
        vars.delay_bound = stage3.delay_bound;
        let after_stage3 = problem.objective_with_max_delay(&vars)?;
        last_stage3 = Some(stage3);

        outer_trace.push(OuterIterationRecord {
            iteration,
            after_stage1,
            after_stage2,
            after_stage3,
        });
        best_objective = after_stage3;
        if (best_objective - objective_before).abs() < config.tolerance {
            converged = true;
            break;
        }
    }

    // `validate()` rejects a zero iteration budget, so the loop above ran
    // at least once; a structured error beats asserting that here.
    let (Some(stage2), Some(mut stage3)) = (last_stage2, last_stage3) else {
        return Err(QuheError::InvalidConfig {
            reason: "max_outer_iterations must be at least 1".to_string(),
        });
    };
    // The Fig. 4(d) polish reads only `lambda` and the resources, which the
    // last Stage-3 call left in `vars`: one polish of the final allocation is
    // the trace of that call.
    if spec.instrumentation() == InstrumentationLevel::Full {
        stage3.gap_trace = Stage3Solver::gap_trace(problem, &vars)?;
    }
    let metrics = MethodMetrics::evaluate(problem, &vars)?;
    Ok(SolveReport {
        solver: "quhe".to_string(),
        spec: spec.clone(),
        objective: metrics.objective,
        metrics,
        variables: vars,
        outer_iterations: iterations,
        converged,
        outer_trace,
        stage_calls,
        stage1: Some(stage1),
        stage2: Some(stage2),
        stage3: Some(stage3),
        runtime_s: wall_clock.elapsed().as_secs_f64(),
    })
}

/// Rejects a warm start outside the cost models' domain: a degree outside
/// the scenario's choice set (17d), or a power, bandwidth or frequency that
/// is not positive and finite (17e)–(17h). Values above a budget stay
/// admissible, because Stage 3 projects them back; `phi`, `w` and the delay
/// bound are recomputed before use.
fn check_warm_domain(problem: &Problem, start: &DecisionVariables) -> QuheResult<()> {
    let choices = problem.scenario().lambda_choices();
    if let Some((n, lambda)) = start
        .lambda
        .iter()
        .enumerate()
        .find(|(_, lambda)| !choices.contains(lambda))
    {
        return Err(QuheError::ConstraintViolation {
            reason: format!(
                "17d: warm start lambda of client {} is {lambda}, not in the choice set",
                n + 1
            ),
        });
    }
    for (constraint, field, values) in [
        ("17e", "power", &start.power),
        ("17f", "bandwidth", &start.bandwidth),
        ("17g", "client_frequency", &start.client_frequency),
        ("17h", "server_frequency", &start.server_frequency),
    ] {
        if let Some((n, value)) = values
            .iter()
            .enumerate()
            .find(|(_, value)| !(**value > 0.0 && value.is_finite()))
        {
            return Err(QuheError::ConstraintViolation {
                reason: format!(
                    "{constraint}: warm start {field} of client {} is {value}, \
                     not positive and finite",
                    n + 1
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SystemScenario;
    use crate::solver::{AaSolver, QuheSolver, Solver};

    fn scenario() -> SystemScenario {
        SystemScenario::paper_default(1)
    }

    fn quhe(config: QuheConfig) -> QuheSolver {
        QuheSolver::new(config)
    }

    #[test]
    fn quhe_produces_a_feasible_solution() {
        let result = quhe(QuheConfig::default())
            .solve(&scenario(), &SolveSpec::cold())
            .unwrap();
        let problem = Problem::new(scenario(), QuheConfig::default()).unwrap();
        problem.check_feasible(&result.variables).unwrap();
        assert!(result.objective.is_finite());
        assert!(result.outer_iterations >= 1);
        assert_eq!(result.stage_calls[0], 1);
        assert!(result.stage_calls[1] >= 1);
        assert!(result.stage_calls[2] >= 1);
        assert!(result.runtime_s > 0.0);
    }

    #[test]
    fn objective_is_monotone_across_stages_and_iterations() {
        let result = quhe(QuheConfig::default())
            .solve(&scenario(), &SolveSpec::cold())
            .unwrap();
        let mut previous = f64::NEG_INFINITY;
        for record in &result.outer_trace {
            assert!(record.after_stage2 >= record.after_stage1 - 1e-6);
            assert!(record.after_stage3 >= record.after_stage2 - 1e-6);
            assert!(record.after_stage3 >= previous - 1e-6);
            previous = record.after_stage3;
        }
    }

    #[test]
    fn quhe_beats_the_average_allocation_baseline() {
        let scenario = scenario();
        let config = QuheConfig::default();
        let quhe = quhe(config).solve(&scenario, &SolveSpec::cold()).unwrap();
        let aa = AaSolver::new(config)
            .solve(&scenario, &SolveSpec::cold())
            .unwrap();
        assert!(
            quhe.objective >= aa.objective - 1e-6,
            "QuHE ({}) should not lose to AA ({})",
            quhe.objective,
            aa.objective
        );
    }

    #[test]
    fn the_full_gap_trace_is_the_polish_of_the_final_allocation() {
        let config = QuheConfig::default();
        let spec = SolveSpec::cold().with_instrumentation(InstrumentationLevel::Full);
        let far_edge = crate::registry::ScenarioCatalog::builtin()
            .generate("far_edge", 8)
            .unwrap();
        for scenario in [scenario(), far_edge] {
            let report = quhe(config).solve(&scenario, &spec).unwrap();
            assert!(report.outer_iterations >= 2, "{}", report.outer_iterations);
            let problem = Problem::new(scenario, config).unwrap();
            let polish = Stage3Solver::gap_trace(&problem, &report.variables).unwrap();
            let trace = &report.stage3.as_ref().unwrap().gap_trace;
            assert!(!trace.is_empty());
            let bits = |trace: &[f64]| trace.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(trace), bits(&polish));
        }
    }

    #[test]
    fn a_solve_is_send_sync_with_no_shared_mutable_state() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Problem>();
        assert_send_sync::<QuheSolver>();
        assert_send_sync::<SolveReport>();
        assert_send_sync::<SystemScenario>();
        assert_send_sync::<crate::error::QuheError>();
    }

    #[test]
    fn stage3_thread_count_does_not_change_the_solution() {
        let scenario = scenario();
        let solver = quhe(QuheConfig::default());
        let serial = solver
            .solve(&scenario, &SolveSpec::cold().with_threads(1))
            .unwrap();
        let parallel = solver
            .solve(&scenario, &SolveSpec::cold().with_threads(0))
            .unwrap();
        assert_eq!(serial.objective, parallel.objective);
        assert_eq!(serial.variables, parallel.variables);
    }

    #[test]
    fn single_start_solve_is_feasible_and_never_beats_multi_start() {
        let scenario = scenario();
        let config = QuheConfig::default();
        let single = quhe(config)
            .solve(&scenario, &SolveSpec::single_start())
            .unwrap();
        let problem = Problem::new(scenario.clone(), config).unwrap();
        problem.check_feasible(&single.variables).unwrap();
        let multi = quhe(config).solve(&scenario, &SolveSpec::cold()).unwrap();
        assert!(
            multi.objective >= single.objective - 1e-9,
            "multi-start ({}) lost to its own single-start restriction ({})",
            multi.objective,
            single.objective
        );
    }

    #[test]
    fn warm_restart_from_an_optimum_converges_immediately() {
        let scenario = scenario();
        let config = QuheConfig::default();
        let solver = quhe(config);
        let cold = solver.solve(&scenario, &SolveSpec::cold()).unwrap();
        let warm = solver
            .solve(&scenario, &SolveSpec::warm_from(cold.variables.clone()))
            .unwrap();
        assert_eq!(warm.outer_iterations, 1, "an optimum needs no re-descent");
        assert!(warm.objective >= cold.objective - config.tolerance);
    }

    #[test]
    fn a_zero_multi_start_budget_degenerates_to_single_start() {
        let scenario = scenario();
        let solver = quhe(QuheConfig::default());
        let no_budget = solver
            .solve(&scenario, &SolveSpec::cold().with_multi_start_budget(0))
            .unwrap();
        let single = solver.solve(&scenario, &SolveSpec::single_start()).unwrap();
        assert_eq!(no_budget.objective, single.objective);
        assert_eq!(no_budget.variables, single.variables);
    }

    #[test]
    fn quhe_converges_within_the_iteration_budget() {
        let result = quhe(QuheConfig::default())
            .solve(&scenario(), &SolveSpec::cold())
            .unwrap();
        assert!(
            result.converged,
            "did not converge in {} iterations",
            result.outer_iterations
        );
    }

    #[test]
    fn a_warm_start_of_the_wrong_length_is_a_dimension_mismatch() {
        let one = vec![1.0];
        let start = DecisionVariables {
            phi: one.clone(),
            w: one.clone(),
            lambda: vec![1 << 15],
            power: one.clone(),
            bandwidth: one.clone(),
            client_frequency: one.clone(),
            server_frequency: one,
            delay_bound: 1.0,
        };
        let err = quhe(QuheConfig::default())
            .solve(&scenario(), &SolveSpec::warm_from(start))
            .unwrap_err();
        assert_eq!(
            err,
            QuheError::DimensionMismatch {
                expected: 6,
                actual: 1
            }
        );
    }

    #[test]
    fn a_warm_start_with_an_infinite_delay_is_a_constraint_violation() {
        let scenario = SystemScenario::paper_default(11);
        let solver = quhe(QuheConfig::default());
        let cold = solver.solve(&scenario, &SolveSpec::cold()).unwrap();
        let drifted = |edit: fn(&mut DecisionVariables)| {
            let mut start = cold.variables.clone();
            edit(&mut start);
            solver.solve(&scenario, &SolveSpec::warm_from(start))
        };
        // Each of these leaves client 1 with an infinite delay at every
        // degree, so no assignment has a finite objective.
        for edit in [
            (|v| v.bandwidth[0] = 1e300) as fn(&mut DecisionVariables),
            |v| v.server_frequency[0] = 1e-300,
        ] {
            let err = drifted(edit).unwrap_err();
            assert_eq!(err.kind(), "constraint_violation", "{err}");
            assert!(err.to_string().contains("client 1"), "{err}");
        }
        // Out-of-range starts that Stage 3 repairs still solve.
        for edit in [
            (|v| v.power[0] = 1e300) as fn(&mut DecisionVariables),
            |v| v.client_frequency[0] = 1e-300,
        ] {
            let report = drifted(edit).unwrap();
            assert!(report.objective.is_finite());
        }
    }

    #[test]
    fn a_warm_start_outside_the_cost_models_domain_is_a_constraint_violation() {
        let scenario = SystemScenario::paper_default(11);
        let solver = quhe(QuheConfig::default());
        let cold = solver.solve(&scenario, &SolveSpec::cold()).unwrap();
        for (edit, needle) in [
            (
                (|v| v.lambda[0] = 7) as fn(&mut DecisionVariables),
                "17d: warm start lambda of client 1 is 7",
            ),
            (
                |v| v.lambda[0] = 65537,
                "17d: warm start lambda of client 1 is 65537",
            ),
            (
                |v| v.power[0] = f64::NAN,
                "17e: warm start power of client 1",
            ),
            (
                |v| v.bandwidth[0] = 0.0,
                "17f: warm start bandwidth of client 1",
            ),
        ] {
            let mut start = cold.variables.clone();
            edit(&mut start);
            let err = solver
                .solve(&scenario, &SolveSpec::warm_from(start))
                .unwrap_err();
            assert_eq!(err.kind(), "constraint_violation", "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }
}
