//! The online dynamic-world engine: system-level traces and warm-started
//! incremental re-solving.
//!
//! [`SystemTrace`] lifts the MEC-side event timeline of
//! [`quhe_mec::dynamic::EventTrace`] to complete [`SystemScenario`]s: the QKD
//! network evolves alongside the clients (per-link key-rate drift via
//! [`quhe_qkd::dynamics::LinkRateProcess`], per-route key pools refilling
//! from the drifted bottleneck rates and depleting under the encryption
//! demand), and every step's scenario is rebuilt through
//! [`SystemScenario::new`] so the whole timeline passes full validation.
//!
//! [`solve_online_with`] then tracks the timeline with any registered
//! [`Solver`]: each step is re-solved warm-started from the previous step's
//! optimum (a [`SolveSpec::warm_from`] solve, which rides the anchor's basin
//! without re-running the Stage-3 multi-start), falling back to a cold
//! multi-start solve when the world changed structurally (the client count
//! differs, so the previous variables do not even have the right dimensions)
//! or when the warm solve regressed suspiciously far below the previous
//! objective. Solvers without warm-start support (the one-shot baselines)
//! are re-solved cold at every changed step. Steps whose world did not
//! change at all reuse the previous outcome outright. Per-step work (solve
//! kind, outer iterations, stage calls, wall-clock) is recorded so the
//! warm-start saving is measurable — `online_eval` in `quhe-bench` turns
//! those records into `BENCH_online.json`.

use std::time::Instant;

use quhe_mec::dynamic::{EventTrace, EventTraceConfig};
use quhe_qkd::dynamics::{KeyPoolProcess, LinkRateProcess};
use quhe_qkd::topology::synthetic_scenario;

use crate::error::{QuheError, QuheResult};
use crate::params::QuheConfig;
use crate::problem::Problem;
use crate::registry::ScenarioCatalog;
use crate::scenario::SystemScenario;
use crate::solver::{SolveReport, SolveSpec, Solver};
use crate::variables::DecisionVariables;

/// Stylized secret-key yield per entangled pair used by the key-pool ledger
/// (a mid-range secret-key fraction; the ledger is a tracking model, not a
/// constraint of the optimization).
const SECRET_BITS_PER_PAIR: f64 = 0.5;

/// Symmetric key bits consumed per uploaded payload bit (ChaCha20 keystream
/// is expanded from a short key, so the demand is a small fraction of the
/// payload).
const KEY_BITS_PER_UPLOAD_BIT: f64 = 1e-8;

/// Relative drop below the previous step's objective beyond which a warm
/// re-solve is treated as having lost its basin and a cold multi-start
/// fallback is triggered.
pub const REGRESSION_SLACK: f64 = 0.05;

/// Relative tracking tolerance of warm re-solves: a warm step is accepted
/// once its first full alternation pass improves the objective by less than
/// this fraction of the objective scale. The world moved first-order, the
/// solution followed; polishing beyond drift precision is wasted work that
/// the next step's drift would erase. Cold solves keep the configured
/// absolute tolerance — they must descend from scratch.
pub const TRACKING_TOLERANCE: f64 = 0.05;

/// Cold anchor solves run at this fraction of the configured tolerance. A
/// warm start can only *track drift* if its anchor is converged beyond the
/// warm stop threshold — with equal tolerances the first warm step after an
/// anchor spends its iterations harvesting the anchor's leftover
/// optimization slack instead of following the world.
pub const ANCHOR_TOLERANCE_FACTOR: f64 = 0.1;

/// Knobs of the system-level trace generator.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OnlineTraceConfig {
    /// Number of steps after the initial world.
    pub steps: usize,
    /// Per-step relative channel-gain drift amplitude on the MEC side.
    pub drift_amplitude: f64,
    /// Per-step relative key-rate drift amplitude on the QKD side.
    pub key_rate_drift: f64,
    /// Per-step probability of one discrete MEC event (join/leave/burst/
    /// tighten); 0 gives a drift-only trace.
    pub event_probability: f64,
    /// Population band of the client churn.
    pub min_clients: usize,
    /// Upper population bound.
    pub max_clients: usize,
    /// Key-pool capacity per route, in bits.
    pub key_pool_capacity_bits: f64,
    /// Wall-clock duration modelled by one step, in seconds (scales the
    /// key-pool refill).
    pub step_duration_s: f64,
}

impl Default for OnlineTraceConfig {
    fn default() -> Self {
        Self {
            steps: 8,
            drift_amplitude: 0.02,
            key_rate_drift: 0.02,
            event_probability: 0.25,
            min_clients: 2,
            max_clients: 64,
            key_pool_capacity_bits: 200.0,
            step_duration_s: 1.0,
        }
    }
}

impl OnlineTraceConfig {
    /// A drift-only trace: channels and key rates drift, the client set and
    /// workloads stay fixed. This is the workload where warm-started
    /// re-solves pay off most directly.
    pub fn drift_only(steps: usize) -> Self {
        Self {
            steps,
            event_probability: 0.0,
            ..Self::default()
        }
    }

    /// A frozen trace: no drift, no events — every step's world is
    /// bit-identical to the initial one.
    pub fn frozen(steps: usize) -> Self {
        Self {
            steps,
            drift_amplitude: 0.0,
            key_rate_drift: 0.0,
            event_probability: 0.0,
            ..Self::default()
        }
    }

    fn mec_config(&self) -> EventTraceConfig {
        EventTraceConfig {
            steps: self.steps,
            drift_amplitude: self.drift_amplitude,
            event_probability: self.event_probability,
            min_clients: self.min_clients,
            max_clients: self.max_clients,
        }
    }
}

/// One step of a system trace.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemStep {
    /// The complete scenario at this step.
    pub scenario: SystemScenario,
    /// Accumulated delay-priority multiplier (from deadline-tighten events);
    /// the engine applies it to the objective's delay weight.
    pub delay_weight_factor: f64,
    /// Kind tags of the events applied at this step (empty for the initial
    /// world and frozen steps).
    pub event_kinds: Vec<String>,
    /// Per-route key-pool levels (bits) after this step's refill/depletion.
    pub key_pool_bits: Vec<f64>,
}

impl SystemStep {
    /// Whether the step changed the client count relative to `previous` — the
    /// structural change after which warm-starting is impossible.
    pub fn is_structural_change_from(&self, previous: &SystemStep) -> bool {
        self.scenario.num_clients() != previous.scenario.num_clients()
    }
}

/// A seed-deterministic T-step timeline of complete system scenarios.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemTrace {
    name: String,
    seed: u64,
    steps: Vec<SystemStep>,
}

impl SystemTrace {
    /// Generates the trace for the named catalogue world.
    ///
    /// The MEC side follows [`EventTrace::generate`]; the QKD side starts
    /// from the catalogue's pairing (SURFnet for the paper world, the
    /// synthetic tree otherwise) and drifts its rate coefficients each step.
    /// When a join/leave changes the client count, the network is rebuilt as
    /// a synthetic tree of the new size (seeded from `seed` and the step
    /// index, so the rebuild is deterministic) and the key pools are reset.
    ///
    /// # Errors
    /// * Unknown catalogue names and invalid knobs.
    /// * Scenario-consistency failures from [`SystemScenario::new`].
    pub fn generate(
        catalog: &ScenarioCatalog,
        name: &str,
        seed: u64,
        config: &OnlineTraceConfig,
    ) -> QuheResult<Self> {
        let base = catalog.generate(name, seed)?;
        let lambda_choices = base.lambda_choices().to_vec();
        let mec_trace = EventTrace::generate(
            base.mec().clone(),
            seed ^ 0x9e37_79b9_7f4a_7c15,
            &config.mec_config(),
        )?;

        let mut network = base.qkd().clone();
        let mut rates = LinkRateProcess::new(
            network.betas(),
            config.key_rate_drift,
            seed ^ 0x517c_c1b7_2722_0a95,
        )?;
        let mut pools =
            KeyPoolProcess::new(base.num_clients(), config.key_pool_capacity_bits, 0.5)?;

        let mut steps = vec![SystemStep {
            scenario: base.clone(),
            delay_weight_factor: mec_trace.initial().delay_weight_factor,
            event_kinds: Vec::new(),
            key_pool_bits: pools.levels().to_vec(),
        }];
        let mut previous_count = base.num_clients();
        for (t, trace_step) in mec_trace.steps().iter().enumerate() {
            let world = &trace_step.world;
            let count = world.scenario.num_clients();
            if count != previous_count {
                // Structural change: rebuild the network at the new size and
                // restart the drift process and pools from it.
                network = synthetic_scenario(count, seed.wrapping_add(1 + t as u64));
                rates = LinkRateProcess::new(
                    network.betas(),
                    config.key_rate_drift,
                    seed ^ (0x2545_f491_4f6c_dd1d ^ t as u64),
                )?;
                pools = KeyPoolProcess::new(count, config.key_pool_capacity_bits, 0.5)?;
                previous_count = count;
            } else if config.key_rate_drift > 0.0 {
                let betas = rates.step().to_vec();
                network = network.with_betas(&betas)?;
            }
            // Key-pool ledger: refill from the drifted bottleneck rate of
            // each route, depletion from the clients' encryption demand.
            let refill: Vec<f64> = (0..count)
                .map(|n| {
                    network.route_bottleneck_beta(n) * SECRET_BITS_PER_PAIR * config.step_duration_s
                })
                .collect();
            let demand: Vec<f64> = world
                .scenario
                .clients()
                .iter()
                .map(|c| c.upload_bits * KEY_BITS_PER_UPLOAD_BIT)
                .collect();
            pools.step(&refill, &demand)?;

            steps.push(SystemStep {
                scenario: SystemScenario::new(
                    network.clone(),
                    world.scenario.clone(),
                    lambda_choices.clone(),
                )?,
                delay_weight_factor: world.delay_weight_factor,
                event_kinds: trace_step
                    .events
                    .iter()
                    .map(|e| e.kind().to_string())
                    .collect(),
                key_pool_bits: pools.levels().to_vec(),
            });
        }
        Ok(Self {
            name: name.to_string(),
            seed,
            steps,
        })
    }

    /// The catalogue world this trace was generated from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The steps, in time order; index 0 is the initial world.
    pub fn steps(&self) -> &[SystemStep] {
        &self.steps
    }

    /// Number of steps including the initial world.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty (never true for generated traces).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// How one step of the online run was solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SolveKind {
    /// Cold multi-start solve from the deterministic initial point (first
    /// step and structural changes).
    Cold,
    /// Warm-started solve from the previous step's optimum.
    Warm,
    /// Warm solve regressed; a cold fallback ran and the better outcome was
    /// kept.
    WarmFallback,
    /// The world did not change; the previous outcome was reused without
    /// solving.
    Cached,
}

impl SolveKind {
    /// Stable machine-readable tag (used by the bench JSON).
    pub fn tag(&self) -> &'static str {
        match self {
            SolveKind::Cold => "cold",
            SolveKind::Warm => "warm",
            SolveKind::WarmFallback => "warm_fallback",
            SolveKind::Cached => "cached",
        }
    }
}

/// Per-step work record of an online run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OnlineStepRecord {
    /// Step index (0 = initial world).
    pub step: usize,
    /// How the step was solved.
    pub kind: SolveKind,
    /// Objective at the step's solution.
    pub objective: f64,
    /// Outer (Algorithm 4) iterations spent on the solve path of this step
    /// (0 for cached steps; warm + fallback iterations when a fallback ran).
    /// The floor guard's work is reported separately in
    /// [`OnlineStepRecord::guard_outer_iterations`].
    pub outer_iterations: usize,
    /// Stage calls spent on the solve path, `[stage1, stage2, stage3]`.
    pub stage_calls: [usize; 3],
    /// Outer iterations of the single-start floor guard (0 for cold and
    /// cached steps, which need no guard).
    pub guard_outer_iterations: usize,
    /// Wall-clock spent on the floor guard, in seconds (contained in
    /// [`OnlineStepRecord::runtime_s`]; subtract to get the tracking-path
    /// wall). The guard is an independent solve, so deployments can push it
    /// off the latency path onto an idle core.
    pub guard_runtime_s: f64,
    /// Objective of the floor guard's cold single-start solve (`None` for
    /// cold and cached steps, which run no guard). Consumers comparing
    /// against the single-start baseline can read it from here instead of
    /// re-solving.
    pub guard_objective: Option<f64>,
    /// Wall-clock spent solving this step, in seconds.
    pub runtime_s: f64,
    /// Whether the kept solve converged within its iteration budget.
    pub converged: bool,
    /// Number of clients at this step.
    pub num_clients: usize,
    /// Kind tags of the events applied at this step.
    pub event_kinds: Vec<String>,
}

/// Result of tracking a whole trace online.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OnlineOutcome {
    /// Per-step work records, one per trace step.
    pub records: Vec<OnlineStepRecord>,
    /// Per-step solver reports, one per trace step.
    pub outcomes: Vec<SolveReport>,
}

impl OnlineOutcome {
    /// Number of steps solved with the given kind.
    pub fn count(&self, kind: SolveKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// Total outer iterations across all steps.
    pub fn total_outer_iterations(&self) -> usize {
        self.records.iter().map(|r| r.outer_iterations).sum()
    }

    /// Total solve wall-clock across all steps, in seconds (including floor
    /// guards).
    pub fn total_runtime_s(&self) -> f64 {
        self.records.iter().map(|r| r.runtime_s).sum()
    }

    /// Total wall-clock spent on floor guards across all steps, in seconds.
    pub fn total_guard_runtime_s(&self) -> f64 {
        self.records.iter().map(|r| r.guard_runtime_s).sum()
    }
}

/// The per-step configuration: the base configuration with the step's
/// accumulated delay-priority multiplier applied to the delay weight.
pub fn step_config(base: &QuheConfig, step: &SystemStep) -> QuheConfig {
    let mut config = *base;
    config.weights.delay *= step.delay_weight_factor;
    config
}

/// The configuration of the cold anchor solves inside [`solve_online_with`]:
/// [`step_config`] with the tolerance tightened by
/// [`ANCHOR_TOLERANCE_FACTOR`].
pub fn anchor_config(base: &QuheConfig, step: &SystemStep) -> QuheConfig {
    let mut config = step_config(base, step);
    config.tolerance *= ANCHOR_TOLERANCE_FACTOR;
    config
}

/// Prepares a warm tracking re-solve from an anchor optimum — the one
/// definition of "warm-start semantics" shared by the online engine's
/// per-step warm solves and the `quhe-serve` near-miss path, so the two
/// cannot silently drift apart: the tolerance is widened to the scale-aware
/// [`TRACKING_TOLERANCE`] stop (a warm solve only needs to follow the drift
/// between the anchor's world and this one, not re-polish the anchor's
/// optimum), the problem is built under that widened configuration (read it
/// back with [`Problem::config`]), and the carried assignment's auxiliary
/// delay bound is re-tightened for the target scenario while the resource
/// blocks carry over unchanged.
///
/// # Errors
/// Scenario-consistency and substrate errors from problem construction and
/// cost evaluation.
pub fn prepare_warm_tracking(
    config: &QuheConfig,
    scenario: &SystemScenario,
    anchor_objective: f64,
    anchor_variables: &DecisionVariables,
) -> QuheResult<(Problem, DecisionVariables)> {
    let mut warm_config = *config;
    warm_config.tolerance = config
        .tolerance
        .max(TRACKING_TOLERANCE * (1.0 + anchor_objective.abs()));
    let problem = Problem::new(scenario.clone(), warm_config)?;
    let mut warm_start = anchor_variables.clone();
    warm_start.delay_bound = problem.system_cost(&warm_start)?.total_delay_s;
    Ok((problem, warm_start))
}

/// Tracks a dynamic world online with any [`Solver`]: solves every step of
/// the trace, warm-starting each re-solve from the previous step's optimum
/// when the solver supports it.
///
/// Per step, in order of preference:
/// 1. **Cached** — the scenario and delay priority are unchanged: the
///    previous report is reused without solving, so a frozen trace costs
///    one cold solve total and reproduces it bit-identically.
/// 2. **Warm** — same client count and [`Solver::supports_warm_start`]: a
///    [`SolveSpec::warm_from`] solve runs from the previous optimum (with
///    the delay bound re-tightened for the new world), tracking the anchor's
///    basin without Stage-3 multi-start and stopping at the scale-aware
///    [`TRACKING_TOLERANCE`] — one alternation pass when the world only
///    drifted. The engine then verifies the *fallback guarantee* against the
///    cold [`SolveSpec::single_start`] solve of the same world (the guard;
///    its work is reported separately in the step record): a warm step is
///    kept only if it reached at least that floor and stayed within
///    [`REGRESSION_SLACK`] of the previous objective.
/// 3. **Cold / fallback** — the first step and changed client counts solve
///    cold multi-start at the tighter [`anchor_config`] (warm tracking needs
///    a well-converged anchor). A warm solve that lost to the floor or
///    regressed triggers the same cold re-anchor, and the best of the warm,
///    floor and cold candidates is kept — a step therefore never reports
///    less than the cold single-start baseline. Solvers without warm-start
///    support solve every non-cached step (first, structural or drifted)
///    cold at the plain [`step_config`] — they have no chain to anchor.
///
/// # Errors
/// * [`QuheError::InvalidConfig`] for an empty trace.
/// * Solver and substrate errors from the per-step solves.
pub fn solve_online_with(solver: &dyn Solver, trace: &SystemTrace) -> QuheResult<OnlineOutcome> {
    if trace.is_empty() {
        return Err(QuheError::InvalidConfig {
            reason: "solve_online_with needs a trace with at least one step".to_string(),
        });
    }
    let base = *solver.config();
    let mut records = Vec::with_capacity(trace.len());
    let mut outcomes: Vec<SolveReport> = Vec::with_capacity(trace.len());
    let mut previous: Option<&SystemStep> = None;
    for (t, step) in trace.steps().iter().enumerate() {
        let config = step_config(&base, step);
        // Warm-capable solvers anchor their chain with a tighter-tolerance
        // cold solve (a warm start can only track drift from a
        // well-converged anchor). One-shot solvers have no chain, so every
        // cold solve — first step, structural change or drift — runs at the
        // plain step configuration and the per-step records stay comparable.
        let anchor = if solver.supports_warm_start() {
            solver.with_config(anchor_config(&base, step))
        } else {
            solver.with_config(config)
        };
        let wall = Instant::now();
        // Per step: the solve kind, the kept report, the iterations and
        // stage calls spent on the solve path, and the guard's own work.
        let (kind, outcome, path_iterations, path_calls, guard) = match previous {
            None => {
                let cold = anchor.solve(&step.scenario, &SolveSpec::cold())?;
                let (it, calls) = (cold.outer_iterations, cold.stage_calls);
                (SolveKind::Cold, cold, it, calls, None)
            }
            Some(prev) => {
                let prev_outcome = outcomes.last().expect("one outcome per solved step");
                if step.scenario == prev.scenario
                    && step.delay_weight_factor == prev.delay_weight_factor
                {
                    let reused = prev_outcome.clone();
                    records.push(OnlineStepRecord {
                        step: t,
                        kind: SolveKind::Cached,
                        objective: reused.objective,
                        outer_iterations: 0,
                        stage_calls: [0; 3],
                        guard_outer_iterations: 0,
                        guard_runtime_s: 0.0,
                        guard_objective: None,
                        runtime_s: wall.elapsed().as_secs_f64(),
                        converged: reused.converged,
                        num_clients: step.scenario.num_clients(),
                        event_kinds: step.event_kinds.clone(),
                    });
                    outcomes.push(reused);
                    previous = Some(step);
                    continue;
                }
                if step.is_structural_change_from(prev) {
                    let cold = anchor.solve(&step.scenario, &SolveSpec::cold())?;
                    let (it, calls) = (cold.outer_iterations, cold.stage_calls);
                    (SolveKind::Cold, cold, it, calls, None)
                } else if !solver.supports_warm_start() {
                    // One-shot solvers have no chain to track: re-solve the
                    // drifted world cold. For them `anchor` already holds the
                    // plain step configuration (see above), so this branch is
                    // the same cold solve as the structural-change one.
                    let cold = anchor.solve(&step.scenario, &SolveSpec::cold())?;
                    let (it, calls) = (cold.outer_iterations, cold.stage_calls);
                    (SolveKind::Cold, cold, it, calls, None)
                } else {
                    // Warm tracking with the scale-aware stop: the warm
                    // solve needs exactly one alternation pass when the
                    // world only drifted.
                    let (problem, warm_start) = prepare_warm_tracking(
                        &config,
                        &step.scenario,
                        prev_outcome.objective,
                        &prev_outcome.variables,
                    )?;
                    let warm_config = *problem.config();
                    // The regression reference is the previous solution
                    // re-evaluated in *this* step's world and weights —
                    // comparing against the previous step's objective
                    // directly would mistake a pure weight change (e.g. a
                    // deadline-tighten event raising the delay weight) for
                    // a solver regression.
                    let carried_objective = problem.objective_with_max_delay(&warm_start)?;
                    let warm = solver
                        .with_config(warm_config)
                        .solve_prepared(&problem, &SolveSpec::warm_from(warm_start))?;
                    // Floor guard: the engine itself checks the fallback
                    // guarantee against the cold single-start solve of
                    // this exact world and configuration. The guard is
                    // independent of the warm solve, so its wall-clock is
                    // recorded separately — it can run on an idle core.
                    let guard_wall = Instant::now();
                    let floor = solver
                        .with_config(config)
                        .solve(&step.scenario, &SolveSpec::single_start())?;
                    let guard = Some((
                        floor.outer_iterations,
                        guard_wall.elapsed().as_secs_f64(),
                        floor.objective,
                    ));
                    let slack = REGRESSION_SLACK * (1.0 + carried_objective.abs());
                    if warm.objective >= floor.objective
                        && warm.objective >= carried_objective - slack
                    {
                        let (it, calls) = (warm.outer_iterations, warm.stage_calls);
                        (SolveKind::Warm, warm, it, calls, guard)
                    } else {
                        // The floor found a better basin, or the warm
                        // chain regressed. Adopt the better of the two
                        // candidates — and when even that regressed
                        // beyond the slack, pay for a full cold
                        // multi-start re-anchor. Either way the kept
                        // objective is never below the single-start
                        // floor.
                        let mut path_iterations = warm.outer_iterations;
                        let mut path_calls = warm.stage_calls;
                        let mut kept = warm;
                        if floor.objective > kept.objective {
                            kept = floor;
                        }
                        if kept.objective < carried_objective - slack {
                            let cold = anchor.solve(&step.scenario, &SolveSpec::cold())?;
                            path_iterations += cold.outer_iterations;
                            for (total, calls) in path_calls.iter_mut().zip(cold.stage_calls) {
                                *total += calls;
                            }
                            if cold.objective > kept.objective {
                                kept = cold;
                            }
                        }
                        (
                            SolveKind::WarmFallback,
                            kept,
                            path_iterations,
                            path_calls,
                            guard,
                        )
                    }
                }
            }
        };
        records.push(OnlineStepRecord {
            step: t,
            kind,
            objective: outcome.objective,
            outer_iterations: path_iterations,
            stage_calls: path_calls,
            guard_outer_iterations: guard.map_or(0, |(it, _, _)| it),
            guard_runtime_s: guard.map_or(0.0, |(_, wall, _)| wall),
            guard_objective: guard.map(|(_, _, objective)| objective),
            runtime_s: wall.elapsed().as_secs_f64(),
            converged: outcome.converged,
            num_clients: step.scenario.num_clients(),
            event_kinds: step.event_kinds.clone(),
        });
        outcomes.push(outcome);
        previous = Some(step);
    }
    Ok(OnlineOutcome { records, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::QuheSolver;

    fn quick_config() -> QuheConfig {
        QuheConfig {
            max_outer_iterations: 3,
            max_stage3_iterations: 8,
            tolerance: 1e-3,
            solver_threads: 1,
            ..QuheConfig::default()
        }
    }

    #[test]
    fn traces_are_seed_deterministic_across_the_catalogue() {
        let catalog = ScenarioCatalog::builtin();
        let config = OnlineTraceConfig {
            steps: 4,
            event_probability: 0.5,
            ..OnlineTraceConfig::default()
        };
        for name in ["paper_default", "far_edge"] {
            let a = SystemTrace::generate(&catalog, name, 7, &config).unwrap();
            let b = SystemTrace::generate(&catalog, name, 7, &config).unwrap();
            assert_eq!(a, b, "{name} trace must be deterministic");
            let c = SystemTrace::generate(&catalog, name, 8, &config).unwrap();
            assert_ne!(a, c, "{name} trace must vary with the seed");
            assert_eq!(a.len(), 5);
            assert_eq!(a.name(), name);
            assert_eq!(a.seed(), 7);
        }
    }

    #[test]
    fn frozen_traces_repeat_the_initial_world_exactly() {
        let catalog = ScenarioCatalog::builtin();
        let trace =
            SystemTrace::generate(&catalog, "paper_default", 3, &OnlineTraceConfig::frozen(3))
                .unwrap();
        let first = &trace.steps()[0];
        for step in trace.steps() {
            assert_eq!(step.scenario, first.scenario);
            assert!(step.event_kinds.is_empty());
        }
    }

    #[test]
    fn drifting_traces_keep_routes_matched_to_clients() {
        let catalog = ScenarioCatalog::builtin();
        let config = OnlineTraceConfig {
            steps: 6,
            event_probability: 0.8,
            ..OnlineTraceConfig::default()
        };
        let trace = SystemTrace::generate(&catalog, "paper_default", 21, &config).unwrap();
        for step in trace.steps() {
            assert_eq!(
                step.scenario.num_clients(),
                step.scenario.qkd().num_clients()
            );
            assert_eq!(step.key_pool_bits.len(), step.scenario.num_clients());
            for level in &step.key_pool_bits {
                assert!(*level >= 0.0 && level.is_finite());
            }
        }
    }

    #[test]
    fn frozen_online_run_is_one_cold_solve_plus_cached_steps() {
        let catalog = ScenarioCatalog::builtin();
        let trace =
            SystemTrace::generate(&catalog, "paper_default", 5, &OnlineTraceConfig::frozen(3))
                .unwrap();
        let online = solve_online_with(&QuheSolver::new(quick_config()), &trace).unwrap();
        assert_eq!(online.records[0].kind, SolveKind::Cold);
        assert_eq!(online.count(SolveKind::Cached), 3);
        let cold = QuheSolver::new(anchor_config(&quick_config(), &trace.steps()[0]))
            .solve(&trace.steps()[0].scenario, &SolveSpec::cold())
            .unwrap();
        for outcome in &online.outcomes {
            assert_eq!(outcome.variables, cold.variables);
            assert_eq!(outcome.objective, cold.objective);
        }
        for record in &online.records[1..] {
            assert_eq!(record.outer_iterations, 0);
            assert_eq!(record.stage_calls, [0; 3]);
        }
    }

    #[test]
    fn drift_steps_are_warm_started_and_structural_steps_go_cold() {
        let catalog = ScenarioCatalog::builtin();
        let drift = SystemTrace::generate(
            &catalog,
            "paper_default",
            5,
            &OnlineTraceConfig::drift_only(3),
        )
        .unwrap();
        let solver = QuheSolver::new(quick_config());
        let online = solve_online_with(&solver, &drift).unwrap();
        for record in &online.records[1..] {
            assert!(
                matches!(record.kind, SolveKind::Warm | SolveKind::WarmFallback),
                "drift step {} solved {:?}",
                record.step,
                record.kind
            );
        }
        // A trace whose population changes must produce at least one cold
        // re-solve after step 0. Seed/config chosen so churn occurs.
        let churn_config = OnlineTraceConfig {
            steps: 8,
            event_probability: 1.0,
            max_clients: 9,
            min_clients: 3,
            ..OnlineTraceConfig::default()
        };
        let churn = SystemTrace::generate(&catalog, "paper_default", 2, &churn_config).unwrap();
        let counts: Vec<usize> = churn
            .steps()
            .iter()
            .map(|s| s.scenario.num_clients())
            .collect();
        assert!(
            counts.windows(2).any(|w| w[0] != w[1]),
            "expected churn in {counts:?}"
        );
        let online = solve_online_with(&solver, &churn).unwrap();
        let structural_cold = online.records[1..]
            .iter()
            .filter(|r| r.kind == SolveKind::Cold)
            .count();
        assert!(structural_cold >= 1);
        for (record, step) in online.records.iter().zip(churn.steps()) {
            assert_eq!(record.num_clients, step.scenario.num_clients());
        }
    }

    #[test]
    fn online_solutions_are_feasible_in_their_step_worlds() {
        let catalog = ScenarioCatalog::builtin();
        let config = OnlineTraceConfig {
            steps: 3,
            event_probability: 0.5,
            ..OnlineTraceConfig::default()
        };
        let trace = SystemTrace::generate(&catalog, "paper_default", 11, &config).unwrap();
        let online = solve_online_with(&QuheSolver::new(quick_config()), &trace).unwrap();
        for (outcome, step) in online.outcomes.iter().zip(trace.steps()) {
            let problem =
                Problem::new(step.scenario.clone(), step_config(&quick_config(), step)).unwrap();
            problem.check_feasible(&outcome.variables).unwrap();
        }
        assert!(online.total_runtime_s() > 0.0);
        assert!(online.total_outer_iterations() >= 1);
    }

    #[test]
    fn one_shot_solvers_track_a_trace_with_cold_re_solves() {
        let catalog = ScenarioCatalog::builtin();
        let trace = SystemTrace::generate(
            &catalog,
            "paper_default",
            5,
            &OnlineTraceConfig::drift_only(2),
        )
        .unwrap();
        let aa = crate::solver::AaSolver::new(quick_config());
        let online = solve_online_with(&aa, &trace).unwrap();
        assert_eq!(online.records[0].kind, SolveKind::Cold);
        for record in &online.records[1..] {
            assert_eq!(record.kind, SolveKind::Cold, "step {}", record.step);
            assert_eq!(record.guard_objective, None);
        }
        for outcome in &online.outcomes {
            assert_eq!(outcome.solver, "aa");
        }
        // A frozen trace still caches for one-shot solvers.
        let frozen =
            SystemTrace::generate(&catalog, "paper_default", 5, &OnlineTraceConfig::frozen(2))
                .unwrap();
        let online = solve_online_with(&aa, &frozen).unwrap();
        assert_eq!(online.count(SolveKind::Cached), 2);
    }

    #[test]
    fn deadline_tighten_raises_the_step_delay_weight() {
        let catalog = ScenarioCatalog::builtin();
        let trace =
            SystemTrace::generate(&catalog, "paper_default", 1, &OnlineTraceConfig::frozen(1))
                .unwrap();
        let mut step = trace.steps()[1].clone();
        step.delay_weight_factor = 2.0;
        let config = step_config(&quick_config(), &step);
        assert_eq!(config.weights.delay, 2.0 * quick_config().weights.delay);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let trace = SystemTrace {
            name: "empty".to_string(),
            seed: 0,
            steps: Vec::new(),
        };
        let err = solve_online_with(&QuheSolver::new(quick_config()), &trace).unwrap_err();
        assert!(err.to_string().contains("at least one step"));
    }
}
