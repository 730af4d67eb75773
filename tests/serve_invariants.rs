//! Differential tests of the serve layer, in the style of
//! `online_invariants.rs`: for catalogue worlds across seeds,
//!
//! * a cold response through the service is solution-identical to a direct
//!   cold `SolveReport` of the same scenario (bit-for-bit on every float
//!   except the wall clock, which is physical time);
//! * an exact cache hit is bit-identical to the service's cold response —
//!   *including* `runtime_s`: a hit carries the wall time of the solve that
//!   produced the report, never the lookup's;
//! * a warm near-miss response never falls below the cold single-start
//!   floor of its own scenario — the serve layer inherits the online
//!   engine's fallback guarantee;
//! * warm serving costs fewer outer iterations on the latency path than
//!   cold solves of the same drifted scenarios.

use quhe::prelude::*;

/// Iteration budgets sized for the debug-build test suite; the invariants
/// hold at any budget because they compare runs sharing the same budget.
fn test_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 2,
        max_stage3_iterations: 8,
        tolerance: 1e-3,
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

/// The (world, seed) grid: every built-in world once, the paper world on a
/// second seed.
fn grid() -> Vec<(String, u64)> {
    let catalog = ScenarioCatalog::builtin();
    let mut grid: Vec<(String, u64)> = catalog
        .names()
        .iter()
        .map(|name| (name.to_string(), 5))
        .collect();
    grid.push(("paper_default".to_string(), 6));
    grid
}

#[test]
fn cache_hits_are_bit_identical_to_the_cold_report() {
    let service = ServiceConfig::new(test_config()).build();
    let reference_solver = QuheSolver::new(test_config());
    for (name, seed) in grid() {
        let request = SolveRequest::catalog(&name, seed);
        let scenario = service.resolve_scenario(&request.scenario).unwrap();

        let cold = service.handle(&request).unwrap();
        assert_eq!(cold.cache, CacheOutcome::Cold, "{name} seed {seed}");
        assert_eq!(cold.fingerprint, scenario.fingerprint());

        // The service's cold path is the plain registry solve: every
        // solution field matches a direct solve bit-for-bit (runtime_s is
        // physical wall time and necessarily differs).
        let direct = reference_solver
            .solve(&scenario, &SolveSpec::cold())
            .unwrap();
        assert_eq!(
            cold.report.objective.to_bits(),
            direct.objective.to_bits(),
            "{name} seed {seed}"
        );
        assert_eq!(cold.report.variables, direct.variables);
        assert_eq!(cold.report.outer_trace, direct.outer_trace);
        assert_eq!(cold.report.stage_calls, direct.stage_calls);
        assert_eq!(cold.report.metrics, direct.metrics);

        // The repeat is an exact hit: the whole report comes back
        // bit-identically, including the original solve's wall time — the
        // lookup's cost is visible only in service_wall_s.
        let hit = service.handle(&request).unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit, "{name} seed {seed}");
        assert_eq!(hit.report, cold.report);
        assert_eq!(
            hit.report.runtime_s.to_bits(),
            cold.report.runtime_s.to_bits(),
            "{name} seed {seed}: a hit must carry the producing solve's runtime_s"
        );
        assert!(
            hit.service_wall_s < cold.service_wall_s,
            "{name} seed {seed}: the lookup cannot cost more than the solve"
        );
    }
}

#[test]
fn warm_near_misses_never_fall_below_the_single_start_floor() {
    let service = ServiceConfig::new(test_config()).build();
    let floor_solver = QuheSolver::new(test_config());
    let mut warm_served = 0usize;
    for (name, seed) in grid() {
        // Anchor the world, then request drifted variants of it.
        let base = service.handle(&SolveRequest::catalog(&name, seed)).unwrap();
        for step in 1..=2 {
            let request = SolveRequest::drifted(&name, seed, step);
            let scenario = service.resolve_scenario(&request.scenario).unwrap();
            // Drift preserves the world shape — that is what makes the
            // cached anchor warm-start compatible.
            assert_eq!(
                scenario.shape_fingerprint(),
                base.shape_fingerprint,
                "{name} seed {seed} step {step}"
            );
            assert_ne!(scenario.fingerprint(), base.fingerprint);

            let response = service.handle(&request).unwrap();
            assert!(
                matches!(
                    response.cache,
                    CacheOutcome::Warm | CacheOutcome::WarmFallback
                ),
                "{name} seed {seed} step {step}: drifted request served {:?}",
                response.cache
            );
            warm_served += 1;

            // The fallback guarantee, checked against an independent cold
            // single-start solve of the same world (deterministic, so the
            // floor the service computed internally is this exact value).
            let floor = floor_solver
                .solve(&scenario, &SolveSpec::single_start())
                .unwrap();
            assert!(
                response.report.objective >= floor.objective,
                "{name} seed {seed} step {step}: warm objective {} below the floor {}",
                response.report.objective,
                floor.objective
            );
        }
    }
    assert!(warm_served >= grid().len(), "warm path barely exercised");
}

#[test]
fn warm_serving_spends_fewer_outer_iterations_than_cold_solves() {
    // A budget with room to iterate: with the test config's two outer
    // iterations a cold solve cannot spend more than the warm path.
    let config = QuheConfig {
        max_outer_iterations: 6,
        max_stage3_iterations: 20,
        ..test_config()
    };
    let service = ServiceConfig::new(config).build();
    let cold_solver = QuheSolver::new(config);
    let (mut warm_path, mut cold) = (0usize, 0usize);
    for (name, seed) in grid() {
        service.handle(&SolveRequest::catalog(&name, seed)).unwrap();
        for step in 1..=2 {
            let request = SolveRequest::drifted(&name, seed, step);
            let response = service.handle(&request).unwrap();
            assert!(
                matches!(
                    response.cache,
                    CacheOutcome::Warm | CacheOutcome::WarmFallback
                ),
                "{name} seed {seed} step {step}: drifted request served {:?}",
                response.cache
            );
            let scenario = service.resolve_scenario(&request.scenario).unwrap();
            let reference = cold_solver.solve(&scenario, &request.spec).unwrap();
            // The path bill is the warm solve plus any cold fallback; the
            // floor guard is billed apart.
            warm_path += response.path_outer_iterations;
            cold += reference.outer_iterations;
        }
    }
    assert!(
        warm_path < cold,
        "warm serving spent {warm_path} path outer iterations, cold solves {cold}"
    );
}

#[test]
fn nearest_anchor_selection_does_not_regress_warm_iterations_vs_recency() {
    // Two cold anchors share the target's shape: a *near* one (1 drift step
    // away) inserted first and a *far* one (5 steps away) inserted last.
    // The old recency policy would nominate the far anchor; the distance
    // policy must nominate the near one, and warm-solving from it must not
    // cost more outer iterations than the recency choice would have.
    use quhe::core::online::prepare_warm_tracking;
    use quhe::serve::cache::CacheEntry;

    let service = ServiceConfig::new(test_config()).build();
    let solver = QuheSolver::new(test_config());
    let resolve = |step: usize| {
        service
            .resolve_scenario(&SolveRequest::drifted("paper_default", 42, step).scenario)
            .unwrap()
    };
    let target = resolve(2);
    let near = resolve(1);
    let far = resolve(5);
    assert_eq!(target.shape_fingerprint(), near.shape_fingerprint());
    assert_eq!(target.shape_fingerprint(), far.shape_fingerprint());
    let d_near = target.drift_distance(&near).unwrap();
    let d_far = target.drift_distance(&far).unwrap();
    assert!(
        d_near < d_far,
        "drift stream must order distances: {d_near} vs {d_far}"
    );

    let spec_key = SolveSpec::cold().to_json_value().to_compact_string();
    let mut reports = Vec::new();
    for scenario in [&near, &far] {
        let report = solver.solve(scenario, &SolveSpec::cold()).unwrap();
        service.cache().insert(CacheEntry {
            fingerprint: scenario.fingerprint(),
            shape: scenario.shape_fingerprint(),
            scenario: scenario.clone(),
            solver: "quhe".to_string(),
            spec_key: spec_key.clone(),
            report: report.clone(),
            anchor: true,
        });
        reports.push(report);
    }

    // The cache nominates the nearest anchor, not the most recent.
    let nominated = service
        .cache()
        .lookup_anchor(target.shape_fingerprint(), "quhe", &target)
        .unwrap();
    assert_eq!(nominated.fingerprint, near.fingerprint());

    // Quality: warm iterations from the nearest anchor never exceed the
    // recency policy's choice (the far anchor, inserted last). Both warm
    // solves replicate the service's warm path exactly.
    let warm_iters = |anchor_report: &SolveReport| {
        let config = SolveSpec::cold().effective_config(solver.config());
        let (problem, warm_start) = prepare_warm_tracking(
            &config,
            &target,
            anchor_report.objective,
            &anchor_report.variables,
        )
        .unwrap();
        solver
            .with_config(*problem.config())
            .solve_prepared(&problem, &SolveSpec::warm_from(warm_start))
            .unwrap()
            .outer_iterations
    };
    let from_near = warm_iters(&reports[0]);
    let from_far = warm_iters(&reports[1]);
    assert!(
        from_near <= from_far,
        "nearest anchor cost {from_near} outer iterations, recency choice {from_far}"
    );

    // End to end: the drifted request is warm-served off the nearest anchor.
    let response = service
        .handle(&SolveRequest::drifted("paper_default", 42, 2))
        .unwrap();
    assert!(matches!(
        response.cache,
        CacheOutcome::Warm | CacheOutcome::WarmFallback
    ));
    if response.cache == CacheOutcome::Warm {
        assert_eq!(response.path_outer_iterations, from_near);
    }
}

#[test]
fn served_solutions_are_feasible_in_their_scenarios() {
    let service = ServiceConfig::new(test_config()).build();
    for (request, expect_kind) in [
        (
            SolveRequest::catalog("paper_default", 9),
            CacheOutcome::Cold,
        ),
        (
            SolveRequest::drifted("paper_default", 9, 1),
            CacheOutcome::Warm,
        ),
    ] {
        let scenario = service.resolve_scenario(&request.scenario).unwrap();
        let response = service.handle(&request).unwrap();
        // The drifted step may fall back, which is still warm-served.
        if expect_kind == CacheOutcome::Cold {
            assert_eq!(response.cache, expect_kind);
        }
        let problem = Problem::new(scenario, test_config()).unwrap();
        problem.check_feasible(&response.report.variables).unwrap();
        assert!(response.report.objective.is_finite());
    }
}
