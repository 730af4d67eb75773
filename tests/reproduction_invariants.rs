//! Cross-crate invariants that the reproduction relies on: the monotonicity
//! and consistency properties connecting the QKD utility model, the cost
//! models and the optimizer, plus resource-sweep shape checks (Fig. 6).

use proptest::prelude::*;
use quhe::prelude::*;

#[test]
fn equation_18_werner_assignment_saturates_link_capacity() {
    // At the optimal Werner assignment every loaded link operates exactly at
    // its capacity (Eq. 3 holds with equality), and unloaded links stay at
    // w = 1.
    let network = surfnet_scenario();
    let phi = vec![1.2, 0.8, 0.9, 1.5, 0.6, 0.7];
    let w = optimal_werner(network.incidence(), &phi, &network.betas()).unwrap();
    for (l, &w_l) in w.iter().enumerate() {
        let load = network.incidence().link_load(l, &phi).unwrap();
        let capacity =
            link_capacity(network.betas()[l], WernerParameter::new(w_l).unwrap()).unwrap();
        if load > 0.0 {
            assert!(
                (capacity - load).abs() < 1e-9,
                "link {l}: load {load} vs capacity {capacity}"
            );
        } else {
            assert_eq!(w_l, 1.0);
        }
    }
}

#[test]
fn stage2_sweep_is_exact_on_randomized_resource_allocations() {
    use rand::SeedableRng;
    // Every world small enough to enumerate: N <= 12 clients, so each
    // exhaustive call scores at most 3^12 = 531,441 assignments.
    let catalog = ScenarioCatalog::builtin();
    let config = QuheConfig::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let solver = Stage2Solver::new();
    for world in [
        "paper_default",
        "heterogeneous_devices",
        "far_edge",
        "bursty_workload",
    ] {
        let problem = Problem::new(catalog.generate(world, 9).unwrap(), config).unwrap();
        for _ in 0..5 {
            let vars = problem.random_initial_point(&mut rng).unwrap();
            let sweep = solver.solve(&problem, &vars).unwrap();
            let exhaustive = solver.solve_exhaustive(&problem, &vars).unwrap();
            assert_eq!(sweep.objective, exhaustive.objective, "{world}");
            assert_eq!(sweep.lambda, exhaustive.lambda, "{world}");
        }
    }
}

#[test]
fn dense_seeds_that_broke_branch_and_bound_solve_with_bounded_stage2_work() {
    // The `dense_cell` seeds the repository benchmark excludes from its pool
    // (`EXCLUDED_DENSE_SEEDS` in perfbench): on the first six the former
    // branch-and-bound hit its 1,000,000-node cap and failed the solve, on
    // the rest it ran slow. Solved under the benchmark's solver config.
    let seeds = [
        51, 67, 173, 193, 457, 460, 23, 45, 89, 168, 276, 313, 395, 459, 532, 582, 609,
    ];
    let config = QuheConfig {
        max_outer_iterations: 5,
        max_stage3_iterations: 20,
        solver_threads: 1,
        ..QuheConfig::default()
    };
    let catalog = ScenarioCatalog::builtin();
    let solver = QuheSolver::new(config);
    for seed in seeds {
        let scenario = catalog.generate("dense_cell", seed).unwrap();
        let report = solver
            .solve(&scenario, &SolveSpec::cold())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let table_entries = scenario.num_clients() * scenario.lambda_choices().len();
        Problem::new(scenario, config)
            .unwrap()
            .check_feasible(&report.variables)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Bounded work per Stage-2 call: at most one delay bound and one
        // scored assignment per table entry.
        let stage2 = report.stage2.as_ref().expect("standard instrumentation");
        assert!(stage2.nodes_expanded <= table_entries, "seed {seed}");
        assert!(stage2.leaves_evaluated <= table_entries, "seed {seed}");
    }
}

#[test]
fn fig6_shape_quhe_never_loses_as_budgets_grow() {
    // Fig. 6: along each resource sweep QuHE dominates AA, and relaxing a
    // budget never hurts QuHE's achievable objective by more than solver
    // noise.
    let base = SystemScenario::paper_default(11);
    let config = QuheConfig {
        max_outer_iterations: 2,
        max_stage3_iterations: 8,
        ..QuheConfig::default()
    };
    let mut previous: Option<f64> = None;
    for bandwidth in [5e6, 10e6, 15e6] {
        let scenario = base
            .with_mec(base.mec().clone().with_total_bandwidth(bandwidth))
            .unwrap();
        let quhe = QuheSolver::new(config)
            .solve(&scenario, &SolveSpec::cold())
            .unwrap();
        let aa = AaSolver::new(config)
            .solve(&scenario, &SolveSpec::cold())
            .unwrap();
        assert!(quhe.objective >= aa.objective - 1e-6);
        if let Some(prev) = previous {
            assert!(
                quhe.objective >= prev - 0.05,
                "objective dropped from {prev} to {} when bandwidth grew",
                quhe.objective
            );
        }
        previous = Some(quhe.objective);
    }
}

#[test]
fn higher_power_budget_never_hurts() {
    let base = SystemScenario::paper_default(13);
    let config = QuheConfig {
        max_outer_iterations: 2,
        max_stage3_iterations: 8,
        ..QuheConfig::default()
    };
    let solver = QuheSolver::new(config);
    let low = solver
        .solve(
            &base
                .with_mec(base.mec().clone().with_max_power(0.2))
                .unwrap(),
            &SolveSpec::cold(),
        )
        .unwrap();
    let high = solver
        .solve(
            &base
                .with_mec(base.mec().clone().with_max_power(1.0))
                .unwrap(),
            &SolveSpec::cold(),
        )
        .unwrap();
    assert!(high.objective >= low.objective - 0.05);
}

/// A solver configuration sized to the scenario: the large catalogue worlds
/// (dense cells) get one outer iteration and a short Stage-3 budget so the
/// debug-build test suite stays fast; the monotonicity and dominance
/// assertions hold already at these budgets because Stage 1 is shared with
/// the baselines and Stages 2–3 only improve on it.
fn catalog_config(scenario: &SystemScenario) -> QuheConfig {
    let big = scenario.num_clients() > 16;
    QuheConfig {
        max_outer_iterations: if big { 1 } else { 2 },
        max_stage3_iterations: if big { 5 } else { 8 },
        ..QuheConfig::default()
    }
}

#[test]
fn every_catalogued_scenario_is_deterministic_for_a_fixed_seed() {
    let catalog = ScenarioCatalog::builtin();
    assert!(catalog.names().len() >= 5, "the catalogue shrank");
    for name in catalog.names() {
        assert_eq!(
            catalog.generate(name, 42).unwrap(),
            catalog.generate(name, 42).unwrap(),
            "{name} must generate identical scenarios for one seed"
        );
        assert_ne!(
            catalog.generate(name, 42).unwrap(),
            catalog.generate(name, 43).unwrap(),
            "{name} must vary with the seed"
        );
    }
}

#[test]
fn budget_monotonicity_holds_on_every_catalogued_scenario() {
    // The Fig. 6 shape generalized: on every world of the catalogue, growing
    // the bandwidth budget never hurts QuHE's achievable objective by more
    // than solver noise (5 % relative slack for the large-magnitude worlds).
    let catalog = ScenarioCatalog::builtin();
    for name in catalog.names() {
        let base = catalog.generate(name, 11).unwrap();
        let config = catalog_config(&base);
        let bandwidth = base.mec().total_bandwidth_hz();
        let mut previous: Option<f64> = None;
        for factor in [0.75, 1.5] {
            let scenario = base
                .with_mec(base.mec().clone().with_total_bandwidth(bandwidth * factor))
                .unwrap();
            let quhe = QuheSolver::new(config)
                .solve(&scenario, &SolveSpec::cold())
                .unwrap();
            if let Some(prev) = previous {
                let slack = 0.05 * (1.0 + prev.abs());
                assert!(
                    quhe.objective >= prev - slack,
                    "{name}: objective dropped from {prev} to {} when bandwidth grew",
                    quhe.objective
                );
            }
            previous = Some(quhe.objective);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn p3_objective_is_never_better_than_stage1_optimum(
        phi in proptest::collection::vec(0.5f64..1.4, 6)
    ) {
        // Stage 1 solves a convex problem to (near) global optimality: no
        // feasible rate vector sampled at random may beat it by more than
        // solver tolerance.
        let problem = Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap();
        let stage1 = Stage1Solver::new().solve(&problem).unwrap();
        let candidate = Stage1Solver::p3_objective(&problem, &phi);
        if candidate.is_finite() {
            prop_assert!(stage1.objective <= candidate + 1e-3,
                "random point ({candidate}) beat stage 1 ({})", stage1.objective);
        }
    }

    #[test]
    fn objective_decomposition_matches_metrics_for_random_allocations(seed in 0u64..50) {
        use rand::SeedableRng;
        let problem = Problem::new(SystemScenario::paper_default(3), QuheConfig::default()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vars = problem.random_initial_point(&mut rng).unwrap();
        let metrics = MethodMetrics::evaluate(&problem, &vars).unwrap();
        let weights = problem.config().weights;
        let reconstructed = weights.qkd_utility * metrics.qkd_utility
            + weights.security * metrics.security_utility
            - weights.delay * metrics.delay_s
            - weights.energy * metrics.energy_j;
        prop_assert!((metrics.objective - reconstructed).abs() < 1e-9);
    }
}
