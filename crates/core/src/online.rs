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
//! optimum under the warm-serving policy of [`solve_warm_guarded`], which
//! the `quhe-serve` near-miss path runs too: the warm solve is kept when it
//! reaches the cold single-start floor of the same world, and otherwise a
//! cold multi-start re-solve runs and the best of the three is kept. A step
//! whose client count changed (the previous variables do not even have the
//! right dimensions) solves cold, as does every changed step of a solver
//! without warm-start support (the one-shot baselines). Steps whose world did
//! not change at all reuse the previous outcome outright. Per-step work
//! (solve kind, outer iterations, stage calls, wall-clock) is recorded so
//! the warm-start saving is measurable.

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
    /// The warm solve fell below the single-start floor; the cold fallback
    /// ran and the best of the warm, floor and cold solves was kept.
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
    /// Stage calls spent on the solve path, `[stage1, stage2, stage3]`,
    /// counted like [`WarmSolve::path_stage_calls`] on warm steps.
    pub stage_calls: [usize; 3],
    /// Outer iterations of the single-start floor guard (0 for cold and
    /// cached steps, which need no guard).
    pub guard_outer_iterations: usize,
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

/// Prepares a warm tracking re-solve from an anchor optimum — the warm half
/// of [`solve_warm_guarded`]: the tolerance is widened to the scale-aware
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

/// What [`solve_warm_guarded`] kept, and the work it spent.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSolve {
    /// The kept report: the warm solve, or the best of the warm, floor and
    /// cold solves after a fallback.
    pub report: SolveReport,
    /// [`SolveKind::Warm`] when the warm solve reached the floor, else
    /// [`SolveKind::WarmFallback`].
    pub kind: SolveKind,
    /// Whether the kept report is the cold fallback's (the serve cache lets
    /// only such a report anchor later warm solves).
    pub cold_won: bool,
    /// Outer iterations on the solve path: the warm solve's, plus the cold
    /// fallback's when it ran.
    pub path_outer_iterations: usize,
    /// Stage calls on the solve path, `[stage1, stage2, stage3]`: the warm
    /// solve's, plus the cold fallback's Stage-2 and Stage-3 calls when it
    /// ran. The fallback reuses the warm solve's Stage-1 solution, so the
    /// Stage-1 entry is the warm solve's alone.
    pub path_stage_calls: [usize; 3],
    /// Outer iterations of the single-start floor guard.
    pub guard_outer_iterations: usize,
    /// Objective of the single-start floor guard.
    pub guard_objective: f64,
}

/// The warm-serving policy of the online engine and of the `quhe-serve`
/// near-miss path: re-solve `scenario` warm from `anchor`'s optimum, check
/// the result against the cold single-start floor of the same world, and
/// fall back to a cold solve when the warm solve loses to it.
///
/// 1. `solver` runs the warm solve from the anchor's optimum, under `spec`'s
///    effective configuration widened to the tracking stop
///    ([`prepare_warm_tracking`]) and without Stage-3 multi-start.
/// 2. `solver` runs the floor guard: the [`SolveSpec::single_start`] solve
///    of `scenario` under `spec`'s effective configuration. A warm solve that
///    reaches it is kept ([`SolveKind::Warm`]).
/// 3. Otherwise `fallback` solves `spec` cold, and the best of the warm,
///    floor and cold solves is kept ([`SolveKind::WarmFallback`]).
///
/// Either way the kept objective is never below the floor. Both warm and
/// guard solves run at `spec`'s instrumentation level. The fallback is the
/// caller's: the service re-solves the request as written, the online engine
/// re-anchors at [`anchor_config`].
///
/// The three solves share one Stage-1 solve. Problem P3 reads only the QKD
/// network and `min_entanglement_rate`, which the three configurations share
/// (they differ in tolerance and thread count), so the guard's and the
/// fallback's problems are derived from the warm problem with
/// [`Problem::with_config`] and run through [`Solver::solve_prepared`]: the
/// warm solve fills the Stage-1 solution, and the guard and the fallback
/// read it back bit for bit.
///
/// # Errors
/// Scenario, warm-start and solver errors of the three solves.
pub fn solve_warm_guarded(
    solver: &dyn Solver,
    scenario: &SystemScenario,
    spec: &SolveSpec,
    anchor: &SolveReport,
    fallback: &dyn Solver,
) -> QuheResult<WarmSolve> {
    let config = spec.effective_config(solver.config());
    let (problem, warm_start) =
        prepare_warm_tracking(&config, scenario, anchor.objective, &anchor.variables)?;
    let warm = solver.with_config(*problem.config()).solve_prepared(
        &problem,
        &SolveSpec::warm_from(warm_start).with_instrumentation(spec.instrumentation()),
    )?;
    let floor = solver.with_config(config).solve_prepared(
        &problem.with_config(config)?,
        &SolveSpec::single_start().with_instrumentation(spec.instrumentation()),
    )?;
    let (guard_outer_iterations, guard_objective) = (floor.outer_iterations, floor.objective);
    if warm.objective >= floor.objective {
        return Ok(WarmSolve {
            kind: SolveKind::Warm,
            cold_won: false,
            path_outer_iterations: warm.outer_iterations,
            path_stage_calls: warm.stage_calls,
            guard_outer_iterations,
            guard_objective,
            report: warm,
        });
    }
    let cold = fallback.solve_prepared(
        &problem.with_config(spec.effective_config(fallback.config()))?,
        spec,
    )?;
    let path_outer_iterations = warm.outer_iterations + cold.outer_iterations;
    let path_stage_calls = [
        warm.stage_calls[0],
        warm.stage_calls[1] + cold.stage_calls[1],
        warm.stage_calls[2] + cold.stage_calls[2],
    ];
    let mut report = if floor.objective > warm.objective {
        floor
    } else {
        warm
    };
    let cold_won = cold.objective > report.objective;
    if cold_won {
        report = cold;
    }
    Ok(WarmSolve {
        report,
        kind: SolveKind::WarmFallback,
        cold_won,
        path_outer_iterations,
        path_stage_calls,
        guard_outer_iterations,
        guard_objective,
    })
}

/// Tracks a dynamic world online with any [`Solver`]: solves every step of
/// the trace, warm-starting each re-solve from the previous step's optimum
/// when the solver supports it.
///
/// Per step, in order of preference:
/// 1. **Cached** — the scenario and delay priority are unchanged: the
///    previous report is reused without solving, so a frozen trace costs
///    one cold solve total and reproduces it bit-identically.
/// 2. **Warm** — same client count and [`Solver::supports_warm_start`]:
///    [`solve_warm_guarded`] re-solves the step at [`step_config`] from the
///    previous optimum, guarded by the step's cold single-start floor (its
///    work is reported separately in the step record). When the warm solve
///    falls below the floor, a cold multi-start solve at [`anchor_config`]
///    re-anchors the chain and the best of the three is kept, so a step
///    never reports less than the cold single-start baseline.
/// 3. **Cold** — the first step and changed client counts solve cold
///    multi-start at the tighter [`anchor_config`] (warm tracking needs a
///    well-converged anchor). Solvers without warm-start support solve
///    every non-cached step cold at the plain [`step_config`] — they have
///    no chain to anchor.
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
        let wall = Instant::now();
        let config = step_config(&base, step);
        // Warm-capable solvers anchor their chain at the tighter tolerance;
        // one-shot solvers have no chain and solve at the step config.
        let cold = solver.with_config(if solver.supports_warm_start() {
            anchor_config(&base, step)
        } else {
            config
        });
        // Per step: the solve kind, the kept report, the outer iterations
        // and stage calls of the solve path, and the guard's iterations and
        // objective.
        let (kind, report, (outer_iterations, stage_calls), guard) =
            match previous.zip(outcomes.last()) {
                Some((prev, kept))
                    if step.scenario == prev.scenario
                        && step.delay_weight_factor == prev.delay_weight_factor =>
                {
                    (SolveKind::Cached, kept.clone(), (0, [0; 3]), None)
                }
                Some((prev, kept))
                    if solver.supports_warm_start() && !step.is_structural_change_from(prev) =>
                {
                    let warm = solve_warm_guarded(
                        &*solver.with_config(config),
                        &step.scenario,
                        &SolveSpec::cold(),
                        kept,
                        &*cold,
                    )?;
                    let path = (warm.path_outer_iterations, warm.path_stage_calls);
                    let guard = (warm.guard_outer_iterations, warm.guard_objective);
                    (warm.kind, warm.report, path, Some(guard))
                }
                _ => {
                    let report = cold.solve(&step.scenario, &SolveSpec::cold())?;
                    let path = (report.outer_iterations, report.stage_calls);
                    (SolveKind::Cold, report, path, None)
                }
            };
        records.push(OnlineStepRecord {
            step: t,
            kind,
            objective: report.objective,
            outer_iterations,
            stage_calls,
            guard_outer_iterations: guard.map_or(0, |(iterations, _)| iterations),
            guard_objective: guard.map(|(_, objective)| objective),
            runtime_s: wall.elapsed().as_secs_f64(),
            converged: report.converged,
            num_clients: step.scenario.num_clients(),
            event_kinds: step.event_kinds.clone(),
        });
        outcomes.push(report);
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
    fn a_warm_fallback_path_solves_stage1_once() {
        // Drift step 1 of far_edge seed 7 at the service's 1 % drift loses
        // to its single-start floor (a `warm_fallback` row of
        // `tests/cold_parity.rs`'s warm goldens).
        let config = QuheConfig {
            max_outer_iterations: 5,
            max_stage3_iterations: 20,
            solver_threads: 1,
            ..QuheConfig::default()
        };
        let trace_config = OnlineTraceConfig {
            drift_amplitude: 0.01,
            key_rate_drift: 0.01,
            ..OnlineTraceConfig::drift_only(1)
        };
        let trace =
            SystemTrace::generate(&ScenarioCatalog::builtin(), "far_edge", 7, &trace_config)
                .unwrap();
        let solver = QuheSolver::new(config);
        let anchor = solver
            .solve(&trace.steps()[0].scenario, &SolveSpec::cold())
            .unwrap();
        let warm = solve_warm_guarded(
            &solver,
            &trace.steps()[1].scenario,
            &SolveSpec::cold(),
            &anchor,
            &solver,
        )
        .unwrap();
        assert_eq!(warm.kind, SolveKind::WarmFallback);
        // The warm solve, the floor guard and the cold fallback share one
        // Stage-1 solve; every report still records its one Stage-1 call.
        assert_eq!(warm.path_stage_calls[0], 1);
        assert_eq!(warm.report.stage_calls[0], 1);
        assert!(warm.path_stage_calls[1] >= 2 && warm.path_stage_calls[2] >= 2);
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
