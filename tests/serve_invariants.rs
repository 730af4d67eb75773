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
//!   cold solves of the same drifted scenarios;
//! * every `quhe-serve/v2` response for one key carries the same report
//!   bytes — later hits, coalesced followers and a restarted service's hits
//!   alike.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use quhe::prelude::*;
use quhe::serve::wire::{self, Protocol};

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

/// The `quhe-serve/v2` body of `request`.
fn v2_body(request: &SolveRequest) -> String {
    request
        .to_json_value()
        .with("proto", JsonValue::String(PROTOCOL_V2.to_string()))
        .to_compact_string()
}

/// How a v2 success envelope's response was produced.
fn served_as(envelope: &str) -> CacheOutcome {
    match WireReply::from_json(envelope).unwrap() {
        WireReply::Ok(response) => response.cache,
        WireReply::Err { kind, message, .. } => panic!("{kind}: {message}"),
    }
}

/// A v2 success envelope's report bytes, from `"report": ` to the end: what
/// perfbench's client compares across the responses for one key.
fn report_bytes(envelope: &str) -> &str {
    let at = envelope
        .find("\"report\": ")
        .expect("a success envelope carries a report");
    &envelope[at..]
}

/// `envelope` with the value of `service_wall_s`, the one field that differs
/// between two hits of one key, blanked.
fn without_wall(envelope: &str) -> String {
    envelope
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("\"service_wall_s\": ") {
                "service_wall_s"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn v2_hits_carry_the_first_responses_report_bytes() {
    let service = ServiceConfig::new(test_config()).build();
    let mut firsts = Vec::new();
    for name in ScenarioCatalog::builtin().names() {
        // The catalogue key is served cold and its drift step warm (or by
        // the fallback); two hits follow each.
        for request in [
            SolveRequest::catalog(name, 5),
            SolveRequest::drifted(name, 5, 1),
        ] {
            let body = v2_body(&request);
            let first = service.handle_json(&body);
            assert_ne!(served_as(&first), CacheOutcome::Hit, "{body}");
            for _ in 0..2 {
                let hit = service.handle_json(&body);
                assert_eq!(served_as(&hit), CacheOutcome::Hit, "{body}");
                assert!(
                    report_bytes(&hit) == report_bytes(&first),
                    "{body}: a hit's report bytes differ from the first response's"
                );
                // The stored bytes are the in-process response's rendering.
                let response = service.handle(&request).unwrap();
                assert_eq!(
                    without_wall(&hit),
                    without_wall(&wire::ok_envelope(Protocol::V2, &response)),
                    "{body}"
                );
            }
            firsts.push((body, first));
        }
    }

    // A service restarted from the cache snapshot renders the restored
    // reports into the same bytes.
    let snapshot = JsonValue::parse(&service.cache().snapshot().to_compact_string()).unwrap();
    let restarted = ServiceConfig::new(test_config())
        .with_cache_snapshot(snapshot)
        .build();
    for (body, first) in &firsts {
        let hit = restarted.handle_json(body);
        assert_eq!(served_as(&hit), CacheOutcome::Hit, "{body}");
        assert!(
            report_bytes(&hit) == report_bytes(first),
            "{body}: a restored hit's report bytes differ from the first response's"
        );
    }
    assert_eq!(restarted.stats().exact_hits, firsts.len());
}

/// A `quhe` solver registered as `gated` whose solves announce themselves
/// and then wait for a release, so followers can join a leader's flight
/// before it publishes.
struct GatedSolver {
    inner: QuheSolver,
    entered: mpsc::Sender<()>,
    release: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl Solver for GatedSolver {
    fn name(&self) -> &str {
        "gated"
    }

    fn description(&self) -> &str {
        "quhe, held at a gate until released"
    }

    fn config(&self) -> &QuheConfig {
        self.inner.config()
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self {
            inner: QuheSolver::new(config),
            entered: self.entered.clone(),
            release: Arc::clone(&self.release),
        })
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        self.entered.send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        self.inner.solve(scenario, spec)
    }
}

#[test]
fn coalesced_followers_carry_the_leaders_report_bytes() {
    let (entered, entered_rx) = mpsc::channel();
    let (release_tx, release) = mpsc::channel();
    let mut registry = SolverRegistry::builtin_with(test_config());
    registry
        .register(Box::new(GatedSolver {
            inner: QuheSolver::new(test_config()),
            entered,
            release: Arc::new(Mutex::new(release)),
        }))
        .unwrap();
    let service =
        ServiceConfig::new(test_config()).build_with(registry, ScenarioCatalog::builtin());
    let body = v2_body(&SolveRequest::catalog("far_edge", 2).with_solver("gated"));
    let followers = 3;
    let envelopes: Vec<String> = std::thread::scope(|scope| {
        let leader = scope.spawn(|| service.handle_json(&body));
        entered_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the leader reaches the solve");
        let waiting: Vec<_> = (0..followers)
            .map(|_| scope.spawn(|| service.handle_json(&body)))
            .collect();
        // Let the followers join the flight, then release the one solve.
        std::thread::sleep(Duration::from_millis(200));
        release_tx.send(()).unwrap();
        std::iter::once(leader)
            .chain(waiting)
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    assert_eq!(served_as(&envelopes[0]), CacheOutcome::Cold);
    for follower in &envelopes[1..] {
        // A follower that arrived after the publication is an exact hit.
        assert!(matches!(
            served_as(follower),
            CacheOutcome::Coalesced | CacheOutcome::Hit
        ));
        assert!(
            report_bytes(follower) == report_bytes(&envelopes[0]),
            "a follower's report bytes differ from the leader's"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.cold_solves, 1, "{stats:?}");
    assert!(
        stats.coalesced >= 1,
        "no follower joined the flight: {stats:?}"
    );
}
