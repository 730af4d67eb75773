//! Integration tests of the full QuHE algorithm against the paper's
//! baselines — all routed through the unified [`SolverRegistry`] surface:
//! feasibility, objective ordering and the qualitative claims of Section VI
//! (Fig. 5(d)).

use quhe::prelude::*;

fn scenario() -> SystemScenario {
    SystemScenario::paper_default(42)
}

fn fast_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 5,
        max_stage3_iterations: 15,
        ..QuheConfig::default()
    }
}

#[test]
fn quhe_dominates_every_baseline_on_the_objective() {
    let scenario = scenario();
    let config = fast_config();
    let registry = SolverRegistry::builtin_with(config);
    let problem = Problem::new(scenario.clone(), config).unwrap();

    let quhe = registry
        .solve("quhe", &scenario, &SolveSpec::cold())
        .unwrap();
    problem.check_feasible(&quhe.variables).unwrap();

    let mut baseline_reports = Vec::new();
    for name in ["aa", "olaa", "occr"] {
        let baseline = registry.solve(name, &scenario, &SolveSpec::cold()).unwrap();
        problem.check_feasible(&baseline.variables).unwrap();
        assert!(
            quhe.objective >= baseline.objective - 1e-6,
            "QuHE ({}) lost to {} ({})",
            quhe.objective,
            baseline.solver,
            baseline.objective
        );
        baseline_reports.push(baseline);
    }
    // Partial optimizers beat pure average allocation.
    let aa = &baseline_reports[0];
    assert!(baseline_reports[1].objective >= aa.objective - 1e-9);
    assert!(baseline_reports[2].objective >= aa.objective - 1e-9);
}

#[test]
fn quhe_beats_average_allocation_on_every_catalogued_scenario() {
    // The Fig. 5(d) dominance claim generalized to the whole scenario
    // catalogue at three seeds, solved as one parallel batch via
    // `Solver::solve_batch`: every world, from the paper's cell to the
    // 32-client dense cell, must end feasible and at least as good as
    // average allocation.
    let catalog = ScenarioCatalog::builtin();
    let named: Vec<(String, SystemScenario)> = (42..=44)
        .flat_map(|seed| {
            catalog
                .generate_all(seed)
                .unwrap()
                .into_iter()
                .map(move |(name, scenario)| (format!("{name} seed {seed}"), scenario))
        })
        .collect();
    assert!(named.len() >= 15, "{} worlds", named.len());
    let config = QuheConfig {
        max_outer_iterations: 1,
        max_stage3_iterations: 5,
        // The batch is the parallel axis; keep Stage 3 serial inside each
        // solve so the two pools don't multiply.
        solver_threads: 1,
        ..QuheConfig::default()
    };
    let registry = SolverRegistry::builtin_with(config);
    let scenarios: Vec<SystemScenario> = named.iter().map(|(_, s)| s.clone()).collect();
    let outcomes = registry
        .resolve("quhe")
        .unwrap()
        .solve_batch(&scenarios, &SolveSpec::cold(), 0);
    assert_eq!(outcomes.len(), named.len());
    for ((name, scenario), outcome) in named.iter().zip(outcomes) {
        let quhe = outcome.unwrap_or_else(|e| panic!("{name}: QuHE solve failed: {e}"));
        let problem = Problem::new(scenario.clone(), config).unwrap();
        problem
            .check_feasible(&quhe.variables)
            .unwrap_or_else(|e| panic!("{name}: infeasible solution: {e}"));
        let aa = registry.solve("aa", scenario, &SolveSpec::cold()).unwrap();
        assert!(
            quhe.objective >= aa.objective - 1e-6,
            "{name}: QuHE ({}) lost to AA ({})",
            quhe.objective,
            aa.objective
        );
    }
}

#[test]
fn fig5d_qualitative_shape_holds() {
    // Fig. 5(d): QuHE/OCCR excel on energy; QuHE/OLAA achieve the highest
    // security level; QuHE has the best objective.
    let scenario = scenario();
    let registry = SolverRegistry::builtin_with(fast_config());
    let quhe = registry
        .solve("quhe", &scenario, &SolveSpec::cold())
        .unwrap();
    let aa = registry.solve("aa", &scenario, &SolveSpec::cold()).unwrap();
    let olaa = registry
        .solve("olaa", &scenario, &SolveSpec::cold())
        .unwrap();
    let occr = registry
        .solve("occr", &scenario, &SolveSpec::cold())
        .unwrap();

    // Energy: resource-optimizing methods use no more energy than AA.
    assert!(occr.metrics.energy_j <= aa.metrics.energy_j * 1.001);
    assert!(quhe.metrics.energy_j <= aa.metrics.energy_j * 1.001);

    // Security: lambda-optimizing methods achieve at least AA's security.
    assert!(olaa.metrics.security_utility >= aa.metrics.security_utility - 1e-9);
    assert!(quhe.metrics.security_utility >= occr.metrics.security_utility - 1e-9);

    // Overall objective ordering.
    let best_baseline = [&aa, &olaa, &occr]
        .iter()
        .map(|r| r.objective)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(quhe.objective >= best_baseline - 1e-6);
}

#[test]
fn stage1_methods_agree_on_the_optimum_but_not_on_runtime_quality() {
    // Fig. 5(b)/(c) and Tables V/VI: the convex Stage-1 solve and gradient
    // descent find (near-)identical solutions; random selection is worse or
    // equal in objective. The heuristics report through the unified
    // `SolveReport`, with the Stage-1 payload in the telemetry slot.
    use rand::SeedableRng;
    let problem = Problem::new(scenario(), QuheConfig::default()).unwrap();
    let quhe_stage1 = Stage1Solver::new().solve(&problem).unwrap();
    let stage1_of = |report: SolveReport| report.stage1.expect("stage-1 telemetry");
    let gd = stage1_of(stage1_gradient_descent(&problem).unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let sa = stage1_of(stage1_simulated_annealing(&problem, &mut rng).unwrap());
    let rs = stage1_of(stage1_random_selection(&problem, &mut rng).unwrap());

    // The convex solve is at least as good as every heuristic (the P3
    // objective is minimized).
    for (name, value) in [
        ("gradient descent", gd.objective),
        ("simulated annealing", sa.objective),
        ("random selection", rs.objective),
    ] {
        assert!(
            quhe_stage1.objective <= value + 5e-2,
            "QuHE stage 1 ({}) should not be worse than {name} ({value})",
            quhe_stage1.objective
        );
    }
    // Gradient descent lands close to the convex optimum (Table V agreement).
    assert!((gd.objective - quhe_stage1.objective).abs() < 0.2);
    // All methods produce valid Werner assignments.
    for w in [&quhe_stage1.w, &gd.w, &sa.w, &rs.w] {
        assert!(w.iter().all(|&v| v > 0.0 && v <= 1.0));
    }
}

#[test]
fn optimality_study_produces_mostly_good_solutions() {
    // A miniature version of Fig. 3: a handful of random initializations
    // should cluster near the best observed objective.
    use rand::SeedableRng;
    let scenario = scenario();
    let config = QuheConfig {
        max_outer_iterations: 2,
        max_stage3_iterations: 8,
        ..QuheConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let study =
        OptimalityStudy::run(&scenario, &config, 6, vec![-1e6, 0.0, 1e6], &mut rng).unwrap();
    assert_eq!(study.objectives.len(), 6);
    assert!(study.objectives.iter().all(|o| o.is_finite()));
    // The paper's Fig. 3 reports "good or better" solutions (the upper half
    // of the observed range) in 88 % of runs; with this deliberately small
    // and iteration-capped study we only require that most runs land in the
    // upper three quarters of the observed range.
    assert!(study.fraction_within(0.75) >= 0.5);
}
