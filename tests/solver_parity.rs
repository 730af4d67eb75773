//! Parity pins of the solve surface, across the builtin scenario catalogue ×
//! 2 seeds:
//!
//! * `Solver::solve_prepared` on a `Problem` built under the spec-effective
//!   configuration is **bit-identical** to `Solver::solve` on the scenario,
//!   for every start mode. The Fig. 3 optimality study, the online engine
//!   and the service's warm path all solve prepared problems, so a drift
//!   between the two entry points would silently change their results.
//! * `Solver::solve_batch` on a worker pool returns exactly the serial
//!   solves, in input order.

use quhe::prelude::*;
use rand::SeedableRng;

/// Budgets sized to the world so the debug-build suite stays fast (the
/// catalogue is crossed several times here); parity is budget-independent
/// because both entry points run under the same budget.
fn config_for(scenario: &SystemScenario) -> QuheConfig {
    let big = scenario.num_clients() > 16;
    QuheConfig {
        max_outer_iterations: 1,
        max_stage3_iterations: if big { 3 } else { 6 },
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

const SEEDS: [u64; 2] = [42, 43];

/// Everything except the wall clock must match bit-for-bit.
fn assert_reports_match(a: &SolveReport, b: &SolveReport, ctx: &str) {
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{ctx}: objective"
    );
    assert_eq!(a.variables, b.variables, "{ctx}: variables");
    assert_eq!(a.metrics, b.metrics, "{ctx}: metrics");
    assert_eq!(
        a.outer_iterations, b.outer_iterations,
        "{ctx}: outer iterations"
    );
    assert_eq!(a.converged, b.converged, "{ctx}: converged");
    assert_eq!(a.outer_trace, b.outer_trace, "{ctx}: outer trace");
    assert_eq!(a.stage_calls, b.stage_calls, "{ctx}: stage calls");
    assert_eq!(a.spec, b.spec, "{ctx}: spec echo");
}

/// Solves `spec` through both entry points and asserts bit-identical reports.
fn assert_prepared_matches_direct(
    solver: &QuheSolver,
    scenario: &SystemScenario,
    spec: &SolveSpec,
    ctx: &str,
) {
    let problem = Problem::new(scenario.clone(), spec.effective_config(solver.config())).unwrap();
    let prepared = solver.solve_prepared(&problem, spec).unwrap();
    let direct = solver.solve(scenario, spec).unwrap();
    assert_reports_match(&prepared, &direct, ctx);
}

#[test]
fn solve_prepared_matches_solve_across_the_catalogue() {
    let catalog = ScenarioCatalog::builtin();
    for name in catalog.names() {
        for seed in SEEDS {
            let scenario = catalog.generate(name, seed).unwrap();
            let solver = QuheSolver::new(config_for(&scenario));
            let cold = solver.solve(&scenario, &SolveSpec::cold()).unwrap();
            // Cold and single-start from the deterministic initial point, and
            // a warm track from the cold optimum.
            let specs = [
                ("cold", SolveSpec::cold()),
                ("single-start", SolveSpec::single_start()),
                ("warm", SolveSpec::warm_from(cold.variables.clone())),
            ];
            for (label, spec) in specs {
                let ctx = format!("{name}/{seed} {label}");
                assert_prepared_matches_direct(&solver, &scenario, &spec, &ctx);
            }
        }
    }
}

/// The Fig. 3 optimality study's solve: a warm start from a random sample
/// that still explores the multi-start levels.
#[test]
fn exploring_warm_solve_prepared_matches_solve_across_the_catalogue() {
    let catalog = ScenarioCatalog::builtin();
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    for name in catalog.names() {
        for seed in SEEDS {
            let scenario = catalog.generate(name, seed).unwrap();
            let solver = QuheSolver::new(config_for(&scenario));
            let sample = Problem::new(scenario.clone(), *solver.config())
                .unwrap()
                .random_initial_point(&mut rng)
                .unwrap();
            let spec = SolveSpec::warm_from(sample).with_multi_start(true);
            let ctx = format!("{name}/{seed} exploring warm");
            assert_prepared_matches_direct(&solver, &scenario, &spec, &ctx);
        }
    }
}

#[test]
fn solve_batch_matches_serial_solves() {
    let catalog = ScenarioCatalog::builtin();
    let scenarios: Vec<SystemScenario> = SEEDS
        .iter()
        .flat_map(|&seed| catalog.generate_all(seed).unwrap())
        .map(|(_, scenario)| scenario)
        .collect();
    // One budget for the whole batch: the small one of the largest world.
    let solver = QuheSolver::new(QuheConfig {
        max_stage3_iterations: 3,
        ..config_for(&scenarios[0])
    });
    let spec = SolveSpec::cold();
    let batch = solver.solve_batch(&scenarios, &spec, 0);
    assert_eq!(batch.len(), scenarios.len());
    for (i, (batched, scenario)) in batch.iter().zip(&scenarios).enumerate() {
        let serial = solver.solve(scenario, &spec).unwrap();
        assert_reports_match(
            batched.as_ref().unwrap(),
            &serial,
            &format!("batch item {i}"),
        );
    }
}
