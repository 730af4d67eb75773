//! Baseline methods of the paper's evaluation (Section VI-B).
//!
//! Whole-procedure baselines:
//! * **AA** (average allocation): smallest polynomial degree, maximum power
//!   and client CPU, equal splits of bandwidth and server CPU.
//! * **OLAA** (optimize lambda only, average allocation): Stage 2 on top of
//!   the AA resource allocation.
//! * **OCCR** (optimize computation and communication resources only):
//!   Stage 3 on top of the AA allocation with `lambda` fixed at `2^15`.
//!
//! All three share the Stage-1 `(phi, w)` solution, matching the paper's
//! Fig. 5(d) setup ("assuming the optimal `U_qkd` is obtained in Stage 1").
//! They are the registered solvers [`AaSolver`](crate::solver::AaSolver),
//! [`OlaaSolver`](crate::solver::OlaaSolver) and
//! [`OccrSolver`](crate::solver::OccrSolver) — `"aa"`, `"olaa"` and `"occr"`
//! in [`SolverRegistry::builtin`](crate::solver::SolverRegistry::builtin);
//! this module holds the Stage-1 start they share.
//!
//! Stage-1 baselines (Fig. 5(b)/(c), Tables V and VI): plain gradient descent
//! with learning rate 0.01, simulated annealing, and random selection over
//! `10^4` uniform samples — all optimizing exactly the same P3 objective as
//! QuHE's Stage 1. They are not full-procedure solvers (they explore the
//! `(phi, w)` block only), so they stay free functions, but they report
//! through the unified [`SolveReport`] shape: the rate vector and Werner
//! assignment land in the Stage-1 telemetry slot, and the report's variables
//! are the average allocation carrying that `(phi, w)`.

use std::time::Instant;

use quhe_opt::annealing::{SimulatedAnnealing, SimulatedAnnealingConfig};
use quhe_opt::gradient::{GradientDescent, GradientDescentConfig};
use quhe_opt::projection::BoxProjection;
use quhe_opt::random_search::{RandomSearch, RandomSearchConfig};
use quhe_qkd::allocation::optimal_werner;
use rand::Rng;

use crate::error::{QuheError, QuheResult};
use crate::metrics::MethodMetrics;
use crate::problem::Problem;
use crate::solver::{SolveReport, SolveSpec};
use crate::stage1::{Stage1Result, Stage1Solver};
use crate::variables::DecisionVariables;

pub(crate) fn shared_stage1_start(
    problem: &Problem,
) -> QuheResult<(DecisionVariables, Stage1Result)> {
    let stage1 = problem.stage1()?.clone();
    let mut vars = problem.initial_point()?;
    vars.phi = stage1.phi.clone();
    vars.w = stage1.w.clone();
    vars.delay_bound = problem.system_cost(&vars)?.total_delay_s;
    Ok((vars, stage1))
}

/// Builds the unified report of a Stage-1 baseline: the found `(phi, w)`
/// lands in the Stage-1 telemetry slot (with the P3 objective), and the
/// report's variables are the average allocation carrying that `(phi, w)`
/// with the delay bound tightened to the implied maximum delay.
/// `converged` is the underlying optimizer's verdict (criterion met vs
/// iteration cap); the spec echo is the canonical cold spec, since the
/// heuristics take no spec of their own.
fn stage1_baseline_report(
    problem: &Problem,
    name: &str,
    phi: Vec<f64>,
    iterations: usize,
    converged: bool,
    wall: Instant,
) -> QuheResult<SolveReport> {
    let objective = Stage1Solver::p3_objective(problem, &phi);
    if !objective.is_finite() {
        return Err(QuheError::ConstraintViolation {
            reason: format!("{name} produced an infeasible rate vector"),
        });
    }
    let w = optimal_werner(
        problem.scenario().qkd().incidence(),
        &phi,
        &problem.scenario().qkd().betas(),
    )?;
    let runtime_s = wall.elapsed().as_secs_f64();
    let stage1 = Stage1Result {
        phi: phi.clone(),
        w: w.clone(),
        objective,
        trace: Vec::new(),
        runtime_s,
        iterations,
    };
    let mut vars = problem.initial_point()?;
    vars.phi = phi;
    vars.w = w;
    vars.delay_bound = problem.system_cost(&vars)?.total_delay_s;
    let metrics = MethodMetrics::evaluate(problem, &vars)?;
    Ok(SolveReport {
        solver: name.to_string(),
        spec: SolveSpec::cold(),
        objective: metrics.objective,
        variables: vars,
        metrics,
        outer_iterations: 0,
        converged,
        outer_trace: Vec::new(),
        stage_calls: [1, 0, 0],
        stage1: Some(stage1),
        stage2: None,
        stage3: None,
        runtime_s,
    })
}

/// The box the sampling-based Stage-1 baselines search over. The lower bound
/// is the minimum rate; the upper bound is twice the largest symmetric rate
/// that keeps every route above the secret-key threshold (found by
/// bisection), capped by the per-route link-capacity bound. This keeps a
/// substantial fraction of the box feasible — mirroring the paper's
/// "uniform samples from the feasible space" — while still containing the
/// asymmetric optima of Table V.
fn stage1_search_box(problem: &Problem) -> BoxProjection {
    let n = problem.num_clients();
    let phi_min = problem.config().min_entanglement_rate;
    let capacity_bounds = Stage1Solver::phi_upper_bounds(problem);
    // Bisection for the largest symmetric feasible rate.
    let mut lo = phi_min;
    let mut hi = capacity_bounds
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if Stage1Solver::p3_objective(problem, &vec![mid; n]).is_finite() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let symmetric_max = lo;
    let lower = vec![phi_min; n];
    let upper: Vec<f64> = capacity_bounds
        .iter()
        .map(|&cap| {
            cap.min(phi_min + 2.0 * (symmetric_max - phi_min))
                .max(phi_min * 1.5)
        })
        .collect();
    BoxProjection::new(lower, upper).expect("upper bounds exceed the minimum rate")
}

/// Stage-1 baseline: plain gradient descent with learning rate 0.01 on the
/// P3 objective (the paper's "gradient descent" method).
///
/// # Errors
/// Propagates solver errors and reports infeasible outputs.
pub fn stage1_gradient_descent(problem: &Problem) -> QuheResult<SolveReport> {
    let wall = Instant::now();
    let objective = |phi: &[f64]| Stage1Solver::p3_objective(problem, phi);
    let bounds = stage1_search_box(problem);
    let solver = GradientDescent::new(GradientDescentConfig {
        learning_rate: 0.01,
        max_iterations: 20_000,
        tolerance: 1e-10,
        ..GradientDescentConfig::default()
    });
    let start_point = vec![problem.config().min_entanglement_rate * 1.05; problem.num_clients()];
    let outcome = solver.minimize(&objective, &bounds, &start_point)?;
    stage1_baseline_report(
        problem,
        "Gradient descent",
        outcome.solution,
        outcome.iterations,
        outcome.converged,
        wall,
    )
}

/// Stage-1 baseline: simulated annealing (the paper uses Matlab's
/// `simulannealbnd`).
///
/// # Errors
/// Propagates solver errors and reports infeasible outputs.
pub fn stage1_simulated_annealing<R: Rng + ?Sized>(
    problem: &Problem,
    rng: &mut R,
) -> QuheResult<SolveReport> {
    let wall = Instant::now();
    let objective = |phi: &[f64]| Stage1Solver::p3_objective(problem, phi);
    let bounds = stage1_search_box(problem);
    let solver = SimulatedAnnealing::new(SimulatedAnnealingConfig {
        iterations: 20_000,
        ..SimulatedAnnealingConfig::default()
    });
    let start_point = vec![problem.config().min_entanglement_rate * 1.05; problem.num_clients()];
    let outcome = solver.minimize(&objective, &bounds, &start_point, rng)?;
    stage1_baseline_report(
        problem,
        "Simulated annealing",
        outcome.solution,
        outcome.iterations,
        outcome.converged,
        wall,
    )
}

/// Stage-1 baseline: random selection — `10^4` uniform samples from the
/// feasible box, keeping the best.
///
/// # Errors
/// Propagates solver errors and reports infeasible outputs.
pub fn stage1_random_selection<R: Rng + ?Sized>(
    problem: &Problem,
    rng: &mut R,
) -> QuheResult<SolveReport> {
    let wall = Instant::now();
    let objective = |phi: &[f64]| Stage1Solver::p3_objective(problem, phi);
    let bounds = stage1_search_box(problem);
    let solver = RandomSearch::new(RandomSearchConfig { samples: 10_000 });
    let outcome = solver.minimize(&objective, &bounds, rng)?;
    stage1_baseline_report(
        problem,
        "Random selection",
        outcome.solution,
        outcome.iterations,
        outcome.converged,
        wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuheConfig;
    use crate::scenario::SystemScenario;
    use crate::solver::SolverRegistry;
    use rand::SeedableRng;

    fn scenario() -> SystemScenario {
        SystemScenario::paper_default(1)
    }

    fn problem() -> Problem {
        Problem::new(scenario(), QuheConfig::default()).unwrap()
    }

    #[test]
    fn baselines_produce_feasible_assignments() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin();
        let problem = problem();
        for name in ["aa", "olaa", "occr"] {
            let report = registry.solve(name, &scenario, &SolveSpec::cold()).unwrap();
            problem.check_feasible(&report.variables).unwrap();
            assert!(report.metrics.objective.is_finite(), "{name}");
        }
    }

    #[test]
    fn olaa_has_at_least_the_security_of_aa() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin();
        let aa = registry.solve("aa", &scenario, &SolveSpec::cold()).unwrap();
        let olaa = registry
            .solve("olaa", &scenario, &SolveSpec::cold())
            .unwrap();
        assert!(olaa.metrics.security_utility >= aa.metrics.security_utility - 1e-12);
        assert!(olaa.metrics.objective >= aa.metrics.objective - 1e-9);
    }

    #[test]
    fn occr_reduces_energy_relative_to_aa() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin();
        let aa = registry.solve("aa", &scenario, &SolveSpec::cold()).unwrap();
        let occr = registry
            .solve("occr", &scenario, &SolveSpec::cold())
            .unwrap();
        assert!(occr.metrics.energy_j <= aa.metrics.energy_j + 1e-9);
        assert!(occr.metrics.objective >= aa.metrics.objective - 1e-9);
    }

    #[test]
    fn baseline_stage_telemetry_reflects_the_stages_run() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin();
        let aa = registry.solve("aa", &scenario, &SolveSpec::cold()).unwrap();
        assert_eq!(aa.stage_calls, [1, 0, 0]);
        assert!(aa.stage1.is_some() && aa.stage2.is_none() && aa.stage3.is_none());
        let olaa = registry
            .solve("olaa", &scenario, &SolveSpec::cold())
            .unwrap();
        assert_eq!(olaa.stage_calls, [1, 1, 0]);
        assert!(olaa.stage2.is_some());
        let occr = registry
            .solve("occr", &scenario, &SolveSpec::cold())
            .unwrap();
        assert_eq!(occr.stage_calls, [1, 0, 1]);
        assert!(occr.stage1.is_some() && occr.stage3.is_some());
    }

    #[test]
    fn stage1_baselines_return_feasible_rates_in_unified_reports() {
        let problem = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let gd = stage1_gradient_descent(&problem).unwrap();
        let sa = stage1_simulated_annealing(&problem, &mut rng).unwrap();
        let rs = stage1_random_selection(&problem, &mut rng).unwrap();
        for report in [&gd, &sa, &rs] {
            let stage1 = report.stage1.as_ref().expect("stage-1 telemetry");
            assert_eq!(stage1.phi.len(), 6);
            assert_eq!(stage1.w.len(), 18);
            assert!(stage1.objective.is_finite(), "{}", report.solver);
            assert!(stage1.phi.iter().all(|&p| p >= 0.5 - 1e-9));
            // The report's variables carry the same (phi, w) and are a
            // complete, feasible assignment.
            assert_eq!(report.variables.phi, stage1.phi);
            assert_eq!(report.variables.w, stage1.w);
            problem.check_feasible(&report.variables).unwrap();
            assert!(report.objective.is_finite());
        }
    }

    #[test]
    fn quhe_stage1_is_at_least_as_good_as_the_baselines() {
        let problem = problem();
        let quhe = Stage1Solver::new().solve(&problem).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let rs = stage1_random_selection(&problem, &mut rng).unwrap();
        // Random selection over a coarse sample cannot beat the convex solve
        // by more than numerical noise.
        assert!(quhe.objective <= rs.stage1.as_ref().unwrap().objective + 1e-6);
    }
}
