//! The solver surface: one trait, one request type, one result type.
//!
//! * [`Solver`] — anything that maps a [`SystemScenario`] plus a
//!   [`SolveSpec`] to a [`SolveReport`]. Implementations are registered by
//!   name in a [`SolverRegistry`], mirroring the
//!   [`quhe_mec::generator::ScenarioRegistry`] pattern on the scenario side.
//! * [`SolveSpec`] — how a solve runs: the start mode
//!   ([`StartMode::Cold`], [`StartMode::SingleStart`],
//!   [`StartMode::WarmFrom`]), the Stage-3 multi-start switch and budget,
//!   thread count, tolerance override and [`InstrumentationLevel`].
//! * [`SolveReport`] — one result type for every solver: objective, final
//!   variables, metric bundle, outer-iteration trace, per-stage telemetry,
//!   wall clock, and an echo of the solver name and spec. It serializes to
//!   and from JSON through [`crate::json`] (the offline build's working
//!   substitute for serde), which is what the solve service sends and
//!   caches.
//!
//! The registry ships four built-ins — `quhe`, `aa`, `olaa`, `occr` — and
//! custom solvers plug in through [`SolverRegistry::register`] (see
//! `examples/custom_solver.rs`).

use std::time::Instant;

use crate::baselines::shared_stage1_start;
use crate::error::{QuheError, QuheResult};
use crate::json::JsonValue;
use crate::metrics::MethodMetrics;
use crate::params::QuheConfig;
use crate::problem::Problem;
use crate::quhe::{self, OuterIterationRecord};
use crate::scenario::SystemScenario;
use crate::stage1::Stage1Result;
use crate::stage2::{Stage2Result, Stage2Solver};
use crate::stage3::{Stage3Result, Stage3Solver, DEFAULT_START_BUDGET};
use crate::variables::DecisionVariables;

/// How a solve is started.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum StartMode {
    /// From the deterministic feasible point of [`Problem::initial_point`],
    /// with Stage-3 multi-start basin exploration (the default full solve).
    Cold,
    /// From the deterministic feasible point, Stage 3 restricted to the
    /// single carried start — the cheapest from-scratch solve and the floor
    /// guard of the online engine.
    SingleStart,
    /// From an explicit assignment (typically a previous optimum), riding its
    /// basin without multi-start exploration — the warm tracking mode.
    WarmFrom(DecisionVariables),
}

impl StartMode {
    /// Whether Stage-3 multi-start exploration is on by default in this mode
    /// (a [`SolveSpec::with_multi_start`] override wins).
    pub fn default_multi_start(&self) -> bool {
        matches!(self, StartMode::Cold)
    }

    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            StartMode::Cold => "cold",
            StartMode::SingleStart => "single_start",
            StartMode::WarmFrom(_) => "warm_from",
        }
    }
}

/// How much telemetry a [`SolveReport`] carries. Instrumentation never
/// changes the solution — only what is recorded alongside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum InstrumentationLevel {
    /// Objective, variables, metrics, iteration counts and wall clock only —
    /// traces and per-stage telemetry are dropped. The lean choice for large
    /// batch grids.
    Minimal,
    /// Everything [`Minimal`](InstrumentationLevel::Minimal) keeps plus the
    /// outer-iteration trace and the final per-stage results (the default).
    Standard,
    /// Everything, plus the Stage-3 interior-point duality-gap trace of the
    /// paper's Fig. 4(d) (extra polish work per Stage-3 call).
    Full,
}

impl InstrumentationLevel {
    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            InstrumentationLevel::Minimal => "minimal",
            InstrumentationLevel::Standard => "standard",
            InstrumentationLevel::Full => "full",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "minimal" => Some(InstrumentationLevel::Minimal),
            "standard" => Some(InstrumentationLevel::Standard),
            "full" => Some(InstrumentationLevel::Full),
            _ => None,
        }
    }
}

/// A solve request: start mode plus the knobs that used to be separate
/// methods and constructor arguments. Build with the `SolveSpec::cold()` /
/// `single_start()` / `warm_from(vars)` constructors and chain `with_*`
/// overrides.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolveSpec {
    start: StartMode,
    multi_start: Option<bool>,
    multi_start_budget: Option<usize>,
    start_pruning: Option<bool>,
    threads: Option<usize>,
    tolerance: Option<f64>,
    instrumentation: InstrumentationLevel,
}

impl Default for SolveSpec {
    fn default() -> Self {
        Self::cold()
    }
}

impl SolveSpec {
    /// A full cold solve (deterministic start, multi-start exploration).
    pub fn cold() -> Self {
        Self {
            start: StartMode::Cold,
            multi_start: None,
            multi_start_budget: None,
            start_pruning: None,
            threads: None,
            tolerance: None,
            instrumentation: InstrumentationLevel::Standard,
        }
    }

    /// A cold single-start solve (no Stage-3 multi-start).
    pub fn single_start() -> Self {
        Self {
            start: StartMode::SingleStart,
            ..Self::cold()
        }
    }

    /// A warm solve from an explicit assignment.
    pub fn warm_from(start: DecisionVariables) -> Self {
        Self {
            start: StartMode::WarmFrom(start),
            ..Self::cold()
        }
    }

    /// Forces Stage-3 multi-start on or off, overriding the start mode's
    /// default (`warm_from(..).with_multi_start(true)` is the Fig. 3
    /// study's exploration from a sampled start).
    #[must_use]
    pub fn with_multi_start(mut self, multi_start: bool) -> Self {
        self.multi_start = Some(multi_start);
        self
    }

    /// Overrides the Stage-3 multi-start budget: the number of canonical
    /// extra starts explored alongside the carried one (default
    /// [`DEFAULT_START_BUDGET`]).
    #[must_use]
    pub fn with_multi_start_budget(mut self, budget: usize) -> Self {
        self.multi_start_budget = Some(budget);
        self
    }

    /// Enables or disables Stage-3 dominated-start pruning (default:
    /// enabled). Pruning abandons multi-start explorations that provably
    /// cannot beat the warm start's objective; it never changes the returned
    /// solution, only how much work dominated starts burn, so disabling it
    /// is useful only for timing comparisons and determinism audits.
    #[must_use]
    pub fn with_start_pruning(mut self, start_pruning: bool) -> Self {
        self.start_pruning = Some(start_pruning);
        self
    }

    /// Overrides the solver's worker-thread count (`0` = machine
    /// parallelism, `1` = serial). Thread count never changes the solution.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the solver's convergence tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = Some(tolerance);
        self
    }

    /// Sets the instrumentation level (default
    /// [`InstrumentationLevel::Standard`]).
    #[must_use]
    pub fn with_instrumentation(mut self, level: InstrumentationLevel) -> Self {
        self.instrumentation = level;
        self
    }

    /// The start mode.
    pub fn start(&self) -> &StartMode {
        &self.start
    }

    /// Whether Stage-3 multi-start is active (override, else mode default).
    pub fn multi_start(&self) -> bool {
        self.multi_start
            .unwrap_or_else(|| self.start.default_multi_start())
    }

    /// The Stage-3 multi-start budget in effect.
    pub fn multi_start_budget(&self) -> usize {
        self.multi_start_budget.unwrap_or(DEFAULT_START_BUDGET)
    }

    /// The worker-thread override, if any (`None` keeps the solver's
    /// configured count).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Whether Stage-3 dominated-start pruning is active (default: `true`).
    pub fn start_pruning(&self) -> bool {
        self.start_pruning.unwrap_or(true)
    }

    /// The instrumentation level.
    pub fn instrumentation(&self) -> InstrumentationLevel {
        self.instrumentation
    }

    /// Applies the tolerance and thread overrides to a base configuration —
    /// the first thing every built-in solver does.
    pub fn effective_config(&self, base: &QuheConfig) -> QuheConfig {
        let mut config = *base;
        if let Some(tolerance) = self.tolerance {
            config.tolerance = tolerance;
        }
        if let Some(threads) = self.threads {
            config.solver_threads = threads;
        }
        config
    }

    /// Rejects warm starts for solvers that cannot honour them, with a
    /// uniform error message.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] when the spec requests
    /// [`StartMode::WarmFrom`].
    pub fn require_cold_start(&self, solver: &str) -> QuheResult<()> {
        if matches!(self.start, StartMode::WarmFrom(_)) {
            return Err(QuheError::InvalidConfig {
                reason: format!("solver '{solver}' does not support warm starts"),
            });
        }
        Ok(())
    }

    /// Serializes the spec to a [`JsonValue`] tree — the `spec` field of the
    /// serve protocol's request JSON and of every serialized
    /// [`SolveReport`].
    pub fn to_json_value(&self) -> JsonValue {
        let start = match &self.start {
            StartMode::WarmFrom(vars) => JsonValue::object()
                .with("mode", JsonValue::String("warm_from".to_string()))
                .with("variables", variables_to_json(vars)),
            mode => JsonValue::object().with("mode", JsonValue::String(mode.tag().to_string())),
        };
        JsonValue::object()
            .with("start", start)
            .with(
                "multi_start",
                self.multi_start.map_or(JsonValue::Null, JsonValue::Bool),
            )
            .with(
                "multi_start_budget",
                self.multi_start_budget
                    .map_or(JsonValue::Null, JsonValue::from_usize),
            )
            .with(
                "start_pruning",
                self.start_pruning.map_or(JsonValue::Null, JsonValue::Bool),
            )
            .with(
                "threads",
                self.threads.map_or(JsonValue::Null, JsonValue::from_usize),
            )
            .with(
                "tolerance",
                self.tolerance.map_or(JsonValue::Null, JsonValue::from_f64),
            )
            .with(
                "instrumentation",
                JsonValue::String(self.instrumentation.tag().to_string()),
            )
    }

    /// Deserializes a spec serialized with [`SolveSpec::to_json_value`].
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the first missing or malformed
    /// field.
    pub fn from_json_value(value: &JsonValue) -> QuheResult<Self> {
        Self::from_json_fields(value).map_err(malformed_document("SolveSpec"))
    }

    /// [`SolveSpec::from_json_value`] without the document name, for the
    /// spec a report embeds.
    fn from_json_fields(value: &JsonValue) -> QuheResult<Self> {
        let start_value = field(value, "start")?;
        let mode = str_field(start_value, "mode")?;
        let start = match mode.as_str() {
            "cold" => StartMode::Cold,
            "single_start" => StartMode::SingleStart,
            "warm_from" => {
                StartMode::WarmFrom(variables_from_json(field(start_value, "variables")?)?)
            }
            other => {
                return Err(malformed(&format!("unknown start mode '{other}'")));
            }
        };
        let instrumentation = InstrumentationLevel::from_tag(&str_field(value, "instrumentation")?)
            .ok_or_else(|| malformed("unknown instrumentation level"))?;
        Ok(Self {
            start,
            multi_start: match field(value, "multi_start")? {
                JsonValue::Null => None,
                other => Some(
                    other
                        .as_bool()
                        .ok_or_else(|| malformed("multi_start must be a bool or null"))?,
                ),
            },
            multi_start_budget: opt_usize_field(value, "multi_start_budget")?,
            // Tolerate the field's absence: specs serialized before pruning
            // existed deserialize to the default (pruning on).
            start_pruning: match value.get("start_pruning") {
                None | Some(JsonValue::Null) => None,
                Some(other) => Some(
                    other
                        .as_bool()
                        .ok_or_else(|| malformed("start_pruning must be a bool or null"))?,
                ),
            },
            threads: opt_usize_field(value, "threads")?,
            tolerance: match field(value, "tolerance")? {
                JsonValue::Null => None,
                other => Some(
                    other
                        .as_f64()
                        .ok_or_else(|| malformed("tolerance must be a number or null"))?,
                ),
            },
            instrumentation,
        })
    }
}

/// The unified result of any [`Solver::solve`] call.
///
/// Solvers that run only a subset of the three stages leave the unused
/// telemetry slots `None`; [`InstrumentationLevel::Minimal`] clears all of
/// them plus the traces.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolveReport {
    /// Registry name of the solver that produced this report.
    pub solver: String,
    /// Echo of the spec the solve ran under.
    pub spec: SolveSpec,
    /// The objective of Eq. (17) at the final assignment.
    pub objective: f64,
    /// The final variable assignment.
    pub variables: DecisionVariables,
    /// The evaluation metric bundle at the final assignment.
    pub metrics: MethodMetrics,
    /// Outer (Algorithm 4) iterations performed (0 for one-shot baselines).
    pub outer_iterations: usize,
    /// Whether the solver met its tolerance within its iteration budget.
    pub converged: bool,
    /// Objective after each stage of each outer iteration (empty for
    /// baselines and under minimal instrumentation).
    pub outer_trace: Vec<OuterIterationRecord>,
    /// Number of calls made to each stage, `[stage1, stage2, stage3]`.
    pub stage_calls: [usize; 3],
    /// Stage-1 telemetry of the final (or only) Stage-1 call.
    pub stage1: Option<Stage1Result>,
    /// Stage-2 telemetry of the final (or only) Stage-2 call.
    pub stage2: Option<Stage2Result>,
    /// Stage-3 telemetry of the final (or only) Stage-3 call.
    pub stage3: Option<Stage3Result>,
    /// Total wall-clock runtime of the *solve* in seconds.
    ///
    /// Accounting contract (audited across every `Instant::now()` capture in
    /// this module): the clock starts before problem construction and stops
    /// when the solver returns, so `runtime_s` covers solver work only.
    /// Serving-layer bookkeeping — cache lookups, fingerprinting, warm-start
    /// floor guards — must never be added to it: a cached report travels
    /// with the wall time of the solve that *produced* it, and the serve
    /// layer reports its own wall clock separately (`service_wall_s` in
    /// `quhe-serve`).
    pub runtime_s: f64,
}

impl SolveReport {
    /// Applies the spec's instrumentation level: minimal reports drop traces
    /// and per-stage telemetry. Called by every built-in solver just before
    /// returning.
    #[must_use]
    pub fn instrumented(mut self, level: InstrumentationLevel) -> Self {
        if level == InstrumentationLevel::Minimal {
            self.outer_trace.clear();
            self.stage1 = None;
            self.stage2 = None;
            self.stage3 = None;
        }
        self
    }

    /// Serializes to a [`JsonValue`] tree (the serve layer nests it in its
    /// response envelopes at `result.report`).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object()
            .with("solver", JsonValue::String(self.solver.clone()))
            .with("spec", self.spec.to_json_value())
            .with("objective", JsonValue::from_f64(self.objective))
            .with("variables", variables_to_json(&self.variables))
            .with("metrics", metrics_to_json(&self.metrics))
            .with(
                "outer_iterations",
                JsonValue::from_usize(self.outer_iterations),
            )
            .with("converged", JsonValue::Bool(self.converged))
            .with(
                "outer_trace",
                JsonValue::Array(self.outer_trace.iter().map(outer_record_to_json).collect()),
            )
            .with(
                "stage_calls",
                JsonValue::Array(
                    self.stage_calls
                        .iter()
                        .map(|&c| JsonValue::from_usize(c))
                        .collect(),
                ),
            )
            .with(
                "stage1",
                self.stage1.as_ref().map_or(JsonValue::Null, stage1_to_json),
            )
            .with(
                "stage2",
                self.stage2.as_ref().map_or(JsonValue::Null, stage2_to_json),
            )
            .with(
                "stage3",
                self.stage3.as_ref().map_or(JsonValue::Null, stage3_to_json),
            )
            .with("runtime_s", JsonValue::from_f64(self.runtime_s))
    }

    /// Deserializes from a [`JsonValue`] tree.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the first missing or malformed
    /// field.
    pub fn from_json_value(value: &JsonValue) -> QuheResult<Self> {
        Self::from_json_fields(value).map_err(malformed_document("SolveReport"))
    }

    fn from_json_fields(value: &JsonValue) -> QuheResult<Self> {
        let stage_calls_raw = usize_vec_field(value, "stage_calls")?;
        let stage_calls: [usize; 3] = stage_calls_raw
            .try_into()
            .map_err(|_| malformed("stage_calls must have exactly three entries"))?;
        Ok(Self {
            solver: str_field(value, "solver")?,
            spec: SolveSpec::from_json_fields(field(value, "spec")?)?,
            objective: f64_field(value, "objective")?,
            variables: variables_from_json(field(value, "variables")?)?,
            metrics: metrics_from_json(field(value, "metrics")?)?,
            outer_iterations: usize_field(value, "outer_iterations")?,
            converged: bool_field(value, "converged")?,
            outer_trace: field(value, "outer_trace")?
                .as_array()
                .ok_or_else(|| malformed("outer_trace must be an array"))?
                .iter()
                .map(outer_record_from_json)
                .collect::<QuheResult<Vec<_>>>()?,
            stage_calls,
            stage1: optional(field(value, "stage1")?, stage1_from_json)?,
            stage2: optional(field(value, "stage2")?, stage2_from_json)?,
            stage3: optional(field(value, "stage3")?, stage3_from_json)?,
            runtime_s: f64_field(value, "runtime_s")?,
        })
    }

    /// Serializes to a pretty-printed JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty_string()
    }

    /// Parses a report serialized with [`SolveReport::to_json`].
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] for malformed JSON or a malformed report
    /// shape.
    pub fn from_json(text: &str) -> QuheResult<Self> {
        let value = JsonValue::parse(text).map_err(|e| QuheError::InvalidConfig {
            reason: format!("malformed SolveReport JSON: {e}"),
        })?;
        Self::from_json_value(&value)
    }
}

/// A named solver: scenario + spec in, unified report out.
///
/// Implementations own their [`QuheConfig`] (weights, budgets, tolerance) so
/// that a registry entry is a complete, runnable method; per-call overrides
/// travel in the [`SolveSpec`]. Implementations must be deterministic
/// functions of `(config, scenario, spec)` — thread counts and
/// instrumentation levels must never change the solution.
pub trait Solver: Send + Sync {
    /// Registry key, e.g. `"quhe"`.
    fn name(&self) -> &str;

    /// One-line human description of the method.
    fn description(&self) -> &str;

    /// The configuration the solver runs under.
    fn config(&self) -> &QuheConfig;

    /// A copy of this solver with a different configuration (the online
    /// engine uses this for per-step weight and tolerance adjustments).
    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver>;

    /// Whether [`StartMode::WarmFrom`] is honoured (the online engine only
    /// warm-tracks solvers that say yes; everything else re-solves cold).
    fn supports_warm_start(&self) -> bool {
        false
    }

    /// Runs the solver on a scenario under a spec.
    ///
    /// # Errors
    /// Configuration, substrate and solver errors; solvers without warm-start
    /// support reject [`StartMode::WarmFrom`] specs.
    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport>;

    /// Like [`Solver::solve`] but on a pre-built [`Problem`]. The caller
    /// must have built `problem` under this solver's spec-effective
    /// configuration. The default implementation rebuilds from
    /// `problem.scenario()`; solvers that can reuse the instance (the QuHE
    /// driver) override it to skip the scenario clone and re-validation and
    /// to read the problem's stored Stage-1 solution ([`Problem::stage1`])
    /// — which is what keeps per-sample and per-step hot paths (the Fig. 3
    /// study, the warm path's three solves) free of redundant problem
    /// construction and P3 solves.
    ///
    /// # Errors
    /// As for [`Solver::solve`].
    fn solve_prepared(&self, problem: &Problem, spec: &SolveSpec) -> QuheResult<SolveReport> {
        self.solve(problem.scenario(), spec)
    }

    /// Solves every scenario of a batch concurrently on a scoped worker pool
    /// (`threads = 0` sizes the pool to the machine, `1` runs serially),
    /// returning reports in input order, bit-identical to a serial loop.
    fn solve_batch(
        &self,
        scenarios: &[SystemScenario],
        spec: &SolveSpec,
        threads: usize,
    ) -> Vec<QuheResult<SolveReport>> {
        threadpool::ThreadPool::new(threads)
            .par_map(scenarios, |scenario| self.solve(scenario, spec))
    }
}

/// The complete three-stage QuHE algorithm (Algorithm 4) as a [`Solver`].
#[derive(Debug, Clone, Copy)]
pub struct QuheSolver {
    config: QuheConfig,
}

impl QuheSolver {
    /// Creates the solver with the given configuration.
    pub fn new(config: QuheConfig) -> Self {
        Self { config }
    }
}

impl Solver for QuheSolver {
    fn name(&self) -> &str {
        "quhe"
    }

    fn description(&self) -> &str {
        "three-stage QuHE alternating optimization (Algorithm 4)"
    }

    fn config(&self) -> &QuheConfig {
        &self.config
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self { config })
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        let problem = Problem::new(scenario.clone(), spec.effective_config(&self.config))?;
        self.solve_prepared(&problem, spec)
    }

    fn solve_prepared(&self, problem: &Problem, spec: &SolveSpec) -> QuheResult<SolveReport> {
        let config = spec.effective_config(&self.config);
        Ok(quhe::alternate(&config, problem, spec)?.instrumented(spec.instrumentation()))
    }
}

/// The **AA** (average allocation) baseline as a [`Solver`]: Stage-1
/// `(phi, w)`, smallest polynomial degree, maximum power and client CPU,
/// equal splits of bandwidth and server CPU.
#[derive(Debug, Clone, Copy)]
pub struct AaSolver {
    config: QuheConfig,
}

impl AaSolver {
    /// Creates the solver with the given configuration.
    pub fn new(config: QuheConfig) -> Self {
        Self { config }
    }
}

impl Solver for AaSolver {
    fn name(&self) -> &str {
        "aa"
    }

    fn description(&self) -> &str {
        "average allocation: Stage-1 rates, equal resource splits, smallest degree"
    }

    fn config(&self) -> &QuheConfig {
        &self.config
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self { config })
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        spec.require_cold_start(self.name())?;
        let config = spec.effective_config(&self.config);
        let wall = Instant::now();
        let problem = Problem::new(scenario.clone(), config)?;
        let (vars, stage1) = shared_stage1_start(&problem)?;
        let metrics = MethodMetrics::evaluate(&problem, &vars)?;
        Ok(baseline_report(self.name(), spec, vars, metrics, wall)
            .with_stage1(stage1)
            .instrumented(spec.instrumentation()))
    }
}

/// The **OLAA** baseline as a [`Solver`]: Stage-2 polynomial degrees on top
/// of the average allocation.
#[derive(Debug, Clone, Copy)]
pub struct OlaaSolver {
    config: QuheConfig,
}

impl OlaaSolver {
    /// Creates the solver with the given configuration.
    pub fn new(config: QuheConfig) -> Self {
        Self { config }
    }
}

impl Solver for OlaaSolver {
    fn name(&self) -> &str {
        "olaa"
    }

    fn description(&self) -> &str {
        "optimize lambda only: Stage-2 degrees over the average allocation"
    }

    fn config(&self) -> &QuheConfig {
        &self.config
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self { config })
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        spec.require_cold_start(self.name())?;
        let config = spec.effective_config(&self.config);
        let wall = Instant::now();
        let problem = Problem::new(scenario.clone(), config)?;
        let (mut vars, stage1) = shared_stage1_start(&problem)?;
        let stage2 = Stage2Solver::new().solve(&problem, &vars)?;
        vars.lambda = stage2.lambda.clone();
        vars.delay_bound = stage2.delay_bound;
        let metrics = MethodMetrics::evaluate(&problem, &vars)?;
        Ok(baseline_report(self.name(), spec, vars, metrics, wall)
            .with_stage1(stage1)
            .with_stage2(stage2)
            .instrumented(spec.instrumentation()))
    }
}

/// The **OCCR** baseline as a [`Solver`]: Stage-3 communication and
/// computation resources on top of the average allocation, `lambda` fixed at
/// the smallest degree.
#[derive(Debug, Clone, Copy)]
pub struct OccrSolver {
    config: QuheConfig,
}

impl OccrSolver {
    /// Creates the solver with the given configuration.
    pub fn new(config: QuheConfig) -> Self {
        Self { config }
    }
}

impl Solver for OccrSolver {
    fn name(&self) -> &str {
        "occr"
    }

    fn description(&self) -> &str {
        "optimize resources only: Stage-3 powers/bandwidth/CPU over the average allocation"
    }

    fn config(&self) -> &QuheConfig {
        &self.config
    }

    fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
        Box::new(Self { config })
    }

    fn solve(&self, scenario: &SystemScenario, spec: &SolveSpec) -> QuheResult<SolveReport> {
        spec.require_cold_start(self.name())?;
        let config = spec.effective_config(&self.config);
        let wall = Instant::now();
        let problem = Problem::new(scenario.clone(), config)?;
        let (mut vars, stage1) = shared_stage1_start(&problem)?;
        // OCCR runs a real Stage-3 descent, so unlike the one-shot baselines
        // it honours the spec's multi-start switch (single-start rides the
        // AA point's basin) and the full-instrumentation gap trace.
        let mut stage3 = Stage3Solver::new(config.max_stage3_iterations, config.tolerance * 1e-2)
            .with_threads(config.solver_threads)
            .with_start_budget(spec.multi_start_budget())
            .with_start_pruning(spec.start_pruning())
            .run(&problem, &vars, spec.multi_start())?;
        vars.power = stage3.power.clone();
        vars.bandwidth = stage3.bandwidth.clone();
        vars.client_frequency = stage3.client_frequency.clone();
        vars.server_frequency = stage3.server_frequency.clone();
        vars.delay_bound = stage3.delay_bound;
        if spec.instrumentation() == InstrumentationLevel::Full {
            stage3.gap_trace = Stage3Solver::gap_trace(&problem, &vars)?;
        }
        let metrics = MethodMetrics::evaluate(&problem, &vars)?;
        // Unlike the one-shot baselines, OCCR runs an iterative descent: its
        // convergence verdict is Stage 3's, not an unconditional `true`.
        let converged = stage3.converged;
        let mut report = baseline_report(self.name(), spec, vars, metrics, wall)
            .with_stage1(stage1)
            .with_stage3(stage3);
        report.converged = converged;
        Ok(report.instrumented(spec.instrumentation()))
    }
}

fn baseline_report(
    name: &str,
    spec: &SolveSpec,
    variables: DecisionVariables,
    metrics: MethodMetrics,
    wall: Instant,
) -> SolveReport {
    SolveReport {
        solver: name.to_string(),
        spec: spec.clone(),
        objective: metrics.objective,
        variables,
        metrics,
        outer_iterations: 0,
        converged: true,
        outer_trace: Vec::new(),
        stage_calls: [0; 3],
        stage1: None,
        stage2: None,
        stage3: None,
        runtime_s: wall.elapsed().as_secs_f64(),
    }
}

impl SolveReport {
    fn with_stage1(mut self, stage1: Stage1Result) -> Self {
        self.stage_calls[0] += 1;
        self.stage1 = Some(stage1);
        self
    }

    fn with_stage2(mut self, stage2: Stage2Result) -> Self {
        self.stage_calls[1] += 1;
        self.stage2 = Some(stage2);
        self
    }

    fn with_stage3(mut self, stage3: Stage3Result) -> Self {
        self.stage_calls[2] += 1;
        self.stage3 = Some(stage3);
        self
    }
}

/// A named catalogue of [`Solver`]s — the solver-side sibling of
/// [`crate::registry::ScenarioCatalog`]. Experiment grids iterate
/// `registry.names() x catalogue worlds x seeds` without hard-coding either
/// axis.
#[derive(Default)]
pub struct SolverRegistry {
    solvers: Vec<Box<dyn Solver>>,
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The four built-in solvers — `quhe`, `aa`, `olaa`, `occr` — under the
    /// default configuration.
    pub fn builtin() -> Self {
        Self::builtin_with(QuheConfig::default())
    }

    /// The built-in solvers under an explicit shared configuration.
    pub fn builtin_with(config: QuheConfig) -> Self {
        let mut registry = Self::new();
        for solver in [
            Box::new(QuheSolver::new(config)) as Box<dyn Solver>,
            Box::new(AaSolver::new(config)),
            Box::new(OlaaSolver::new(config)),
            Box::new(OccrSolver::new(config)),
        ] {
            registry
                .register(solver)
                .expect("built-in names are unique");
        }
        registry
    }

    /// Registers a solver under its [`Solver::name`].
    ///
    /// # Errors
    /// Returns [`QuheError::InvalidConfig`] if a solver with the same name is
    /// already registered (names are the lookup key, so shadowing would
    /// silently change experiment grids).
    pub fn register(&mut self, solver: Box<dyn Solver>) -> QuheResult<()> {
        if self.get(solver.name()).is_some() {
            return Err(QuheError::InvalidConfig {
                reason: format!("solver '{}' is already registered", solver.name()),
            });
        }
        self.solvers.push(solver);
        Ok(())
    }

    /// Looks up a solver by name.
    pub fn get(&self, name: &str) -> Option<&dyn Solver> {
        self.solvers
            .iter()
            .find(|s| s.name() == name)
            .map(Box::as_ref)
    }

    /// Looks up a solver by name, erroring with the registered catalogue.
    ///
    /// # Errors
    /// Returns [`QuheError::InvalidConfig`] naming the unknown solver and
    /// listing the registered names.
    pub fn resolve(&self, name: &str) -> QuheResult<&dyn Solver> {
        self.get(name).ok_or_else(|| QuheError::InvalidConfig {
            reason: format!(
                "unknown solver '{name}'; registered: {}",
                self.names().join(", ")
            ),
        })
    }

    /// Runs the named solver on a scenario under a spec.
    ///
    /// # Errors
    /// Unknown names plus anything [`Solver::solve`] reports.
    pub fn solve(
        &self,
        name: &str,
        scenario: &SystemScenario,
        spec: &SolveSpec,
    ) -> QuheResult<SolveReport> {
        self.resolve(name)?.solve(scenario, spec)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Iterates over the registered solvers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Solver> {
        self.solvers.iter().map(Box::as_ref)
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

// ---------------------------------------------------------------- JSON I/O --

/// A malformed field; [`malformed_document`] names the document it is in.
fn malformed(detail: &str) -> QuheError {
    QuheError::InvalidConfig {
        reason: detail.to_string(),
    }
}

/// Prefixes a [`malformed`] field error with the document that holds it.
fn malformed_document(document: &'static str) -> impl Fn(QuheError) -> QuheError {
    move |error| match error {
        QuheError::InvalidConfig { reason } => QuheError::InvalidConfig {
            reason: format!("malformed {document} JSON: {reason}"),
        },
        other => other,
    }
}

fn field<'a>(value: &'a JsonValue, key: &str) -> QuheResult<&'a JsonValue> {
    value
        .get(key)
        .ok_or_else(|| malformed(&format!("missing field '{key}'")))
}

fn f64_field(value: &JsonValue, key: &str) -> QuheResult<f64> {
    field(value, key)?
        .as_f64_or_nan()
        .ok_or_else(|| malformed(&format!("field '{key}' must be a number")))
}

fn usize_field(value: &JsonValue, key: &str) -> QuheResult<usize> {
    field(value, key)?
        .as_usize()
        .ok_or_else(|| malformed(&format!("field '{key}' must be a non-negative integer")))
}

fn opt_usize_field(value: &JsonValue, key: &str) -> QuheResult<Option<usize>> {
    match field(value, key)? {
        JsonValue::Null => Ok(None),
        other => Ok(Some(other.as_usize().ok_or_else(|| {
            malformed(&format!("field '{key}' must be an integer or null"))
        })?)),
    }
}

fn bool_field(value: &JsonValue, key: &str) -> QuheResult<bool> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| malformed(&format!("field '{key}' must be a bool")))
}

fn str_field(value: &JsonValue, key: &str) -> QuheResult<String> {
    Ok(field(value, key)?
        .as_str()
        .ok_or_else(|| malformed(&format!("field '{key}' must be a string")))?
        .to_string())
}

fn f64_vec_field(value: &JsonValue, key: &str) -> QuheResult<Vec<f64>> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| malformed(&format!("field '{key}' must be an array")))?
        .iter()
        .map(|v| {
            v.as_f64_or_nan()
                .ok_or_else(|| malformed(&format!("field '{key}' must hold numbers")))
        })
        .collect()
}

fn u64_vec_field(value: &JsonValue, key: &str) -> QuheResult<Vec<u64>> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| malformed(&format!("field '{key}' must be an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| malformed(&format!("field '{key}' must hold integers")))
        })
        .collect()
}

fn usize_vec_field(value: &JsonValue, key: &str) -> QuheResult<Vec<usize>> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| malformed(&format!("field '{key}' must be an array")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| malformed(&format!("field '{key}' must hold integers")))
        })
        .collect()
}

fn optional<T>(
    value: &JsonValue,
    parse: impl Fn(&JsonValue) -> QuheResult<T>,
) -> QuheResult<Option<T>> {
    match value {
        JsonValue::Null => Ok(None),
        other => Ok(Some(parse(other)?)),
    }
}

fn variables_to_json(vars: &DecisionVariables) -> JsonValue {
    JsonValue::object()
        .with("phi", JsonValue::from_f64_slice(&vars.phi))
        .with("w", JsonValue::from_f64_slice(&vars.w))
        .with("lambda", JsonValue::from_u64_slice(&vars.lambda))
        .with("power", JsonValue::from_f64_slice(&vars.power))
        .with("bandwidth", JsonValue::from_f64_slice(&vars.bandwidth))
        .with(
            "client_frequency",
            JsonValue::from_f64_slice(&vars.client_frequency),
        )
        .with(
            "server_frequency",
            JsonValue::from_f64_slice(&vars.server_frequency),
        )
        .with("delay_bound", JsonValue::from_f64(vars.delay_bound))
}

fn variables_from_json(value: &JsonValue) -> QuheResult<DecisionVariables> {
    Ok(DecisionVariables {
        phi: f64_vec_field(value, "phi")?,
        w: f64_vec_field(value, "w")?,
        lambda: u64_vec_field(value, "lambda")?,
        power: f64_vec_field(value, "power")?,
        bandwidth: f64_vec_field(value, "bandwidth")?,
        client_frequency: f64_vec_field(value, "client_frequency")?,
        server_frequency: f64_vec_field(value, "server_frequency")?,
        delay_bound: f64_field(value, "delay_bound")?,
    })
}

fn metrics_to_json(metrics: &MethodMetrics) -> JsonValue {
    JsonValue::object()
        .with("energy_j", JsonValue::from_f64(metrics.energy_j))
        .with("delay_s", JsonValue::from_f64(metrics.delay_s))
        .with(
            "security_utility",
            JsonValue::from_f64(metrics.security_utility),
        )
        .with("qkd_utility", JsonValue::from_f64(metrics.qkd_utility))
        .with("objective", JsonValue::from_f64(metrics.objective))
}

fn metrics_from_json(value: &JsonValue) -> QuheResult<MethodMetrics> {
    Ok(MethodMetrics {
        energy_j: f64_field(value, "energy_j")?,
        delay_s: f64_field(value, "delay_s")?,
        security_utility: f64_field(value, "security_utility")?,
        qkd_utility: f64_field(value, "qkd_utility")?,
        objective: f64_field(value, "objective")?,
    })
}

fn outer_record_to_json(record: &OuterIterationRecord) -> JsonValue {
    JsonValue::object()
        .with("iteration", JsonValue::from_usize(record.iteration))
        .with("after_stage1", JsonValue::from_f64(record.after_stage1))
        .with("after_stage2", JsonValue::from_f64(record.after_stage2))
        .with("after_stage3", JsonValue::from_f64(record.after_stage3))
}

fn outer_record_from_json(value: &JsonValue) -> QuheResult<OuterIterationRecord> {
    Ok(OuterIterationRecord {
        iteration: usize_field(value, "iteration")?,
        after_stage1: f64_field(value, "after_stage1")?,
        after_stage2: f64_field(value, "after_stage2")?,
        after_stage3: f64_field(value, "after_stage3")?,
    })
}

fn stage1_to_json(result: &Stage1Result) -> JsonValue {
    JsonValue::object()
        .with("phi", JsonValue::from_f64_slice(&result.phi))
        .with("w", JsonValue::from_f64_slice(&result.w))
        .with("objective", JsonValue::from_f64(result.objective))
        .with("trace", JsonValue::from_f64_slice(&result.trace))
        .with("runtime_s", JsonValue::from_f64(result.runtime_s))
        .with("iterations", JsonValue::from_usize(result.iterations))
}

fn stage1_from_json(value: &JsonValue) -> QuheResult<Stage1Result> {
    Ok(Stage1Result {
        phi: f64_vec_field(value, "phi")?,
        w: f64_vec_field(value, "w")?,
        objective: f64_field(value, "objective")?,
        trace: f64_vec_field(value, "trace")?,
        runtime_s: f64_field(value, "runtime_s")?,
        iterations: usize_field(value, "iterations")?,
    })
}

fn stage2_to_json(result: &Stage2Result) -> JsonValue {
    JsonValue::object()
        .with("lambda", JsonValue::from_u64_slice(&result.lambda))
        .with("delay_bound", JsonValue::from_f64(result.delay_bound))
        .with("objective", JsonValue::from_f64(result.objective))
        .with("trace", JsonValue::from_f64_slice(&result.trace))
        .with(
            "nodes_expanded",
            JsonValue::from_usize(result.nodes_expanded),
        )
        .with(
            "leaves_evaluated",
            JsonValue::from_usize(result.leaves_evaluated),
        )
        .with("runtime_s", JsonValue::from_f64(result.runtime_s))
}

fn stage2_from_json(value: &JsonValue) -> QuheResult<Stage2Result> {
    Ok(Stage2Result {
        lambda: u64_vec_field(value, "lambda")?,
        delay_bound: f64_field(value, "delay_bound")?,
        objective: f64_field(value, "objective")?,
        trace: f64_vec_field(value, "trace")?,
        nodes_expanded: usize_field(value, "nodes_expanded")?,
        leaves_evaluated: usize_field(value, "leaves_evaluated")?,
        runtime_s: f64_field(value, "runtime_s")?,
    })
}

fn stage3_to_json(result: &Stage3Result) -> JsonValue {
    JsonValue::object()
        .with("power", JsonValue::from_f64_slice(&result.power))
        .with("bandwidth", JsonValue::from_f64_slice(&result.bandwidth))
        .with(
            "client_frequency",
            JsonValue::from_f64_slice(&result.client_frequency),
        )
        .with(
            "server_frequency",
            JsonValue::from_f64_slice(&result.server_frequency),
        )
        .with("delay_bound", JsonValue::from_f64(result.delay_bound))
        .with("cost", JsonValue::from_f64(result.cost))
        .with("trace", JsonValue::from_f64_slice(&result.trace))
        .with("gap_trace", JsonValue::from_f64_slice(&result.gap_trace))
        .with("iterations", JsonValue::from_usize(result.iterations))
        .with("converged", JsonValue::Bool(result.converged))
        .with("runtime_s", JsonValue::from_f64(result.runtime_s))
}

fn stage3_from_json(value: &JsonValue) -> QuheResult<Stage3Result> {
    Ok(Stage3Result {
        power: f64_vec_field(value, "power")?,
        bandwidth: f64_vec_field(value, "bandwidth")?,
        client_frequency: f64_vec_field(value, "client_frequency")?,
        server_frequency: f64_vec_field(value, "server_frequency")?,
        delay_bound: f64_field(value, "delay_bound")?,
        cost: f64_field(value, "cost")?,
        trace: f64_vec_field(value, "trace")?,
        gap_trace: f64_vec_field(value, "gap_trace")?,
        iterations: usize_field(value, "iterations")?,
        converged: bool_field(value, "converged")?,
        runtime_s: f64_field(value, "runtime_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> SystemScenario {
        SystemScenario::paper_default(1)
    }

    fn quick_config() -> QuheConfig {
        QuheConfig {
            max_outer_iterations: 2,
            max_stage3_iterations: 8,
            solver_threads: 1,
            ..QuheConfig::default()
        }
    }

    #[test]
    fn builtin_registry_has_the_four_solvers_in_order() {
        let registry = SolverRegistry::builtin();
        assert_eq!(registry.names(), vec!["quhe", "aa", "olaa", "occr"]);
        assert_eq!(registry.len(), 4);
        assert!(!registry.is_empty());
        for solver in registry.iter() {
            assert!(!solver.description().is_empty());
        }
        assert!(registry.get("quhe").unwrap().supports_warm_start());
        assert!(!registry.get("aa").unwrap().supports_warm_start());
    }

    #[test]
    fn every_builtin_solver_produces_a_feasible_report() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin_with(quick_config());
        let problem = Problem::new(scenario.clone(), quick_config()).unwrap();
        for solver in registry.iter() {
            let report = solver.solve(&scenario, &SolveSpec::cold()).unwrap();
            assert_eq!(report.solver, solver.name());
            assert!(report.objective.is_finite(), "{}", solver.name());
            assert_eq!(report.objective, report.metrics.objective);
            problem.check_feasible(&report.variables).unwrap();
            assert!(report.runtime_s > 0.0);
        }
    }

    #[test]
    fn quhe_report_beats_every_baseline_report() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin_with(quick_config());
        let quhe = registry
            .solve("quhe", &scenario, &SolveSpec::cold())
            .unwrap();
        for name in ["aa", "olaa", "occr"] {
            let baseline = registry.solve(name, &scenario, &SolveSpec::cold()).unwrap();
            assert!(
                quhe.objective >= baseline.objective - 1e-6,
                "quhe ({}) lost to {name} ({})",
                quhe.objective,
                baseline.objective
            );
        }
    }

    #[test]
    fn spec_defaults_and_overrides_resolve_as_documented() {
        assert!(SolveSpec::cold().multi_start());
        assert!(!SolveSpec::single_start().multi_start());
        let vars = Problem::new(scenario(), quick_config())
            .unwrap()
            .initial_point()
            .unwrap();
        assert!(!SolveSpec::warm_from(vars.clone()).multi_start());
        assert!(SolveSpec::warm_from(vars)
            .with_multi_start(true)
            .multi_start());
        assert_eq!(SolveSpec::cold().multi_start_budget(), DEFAULT_START_BUDGET);
        assert_eq!(
            SolveSpec::cold()
                .with_multi_start_budget(1)
                .multi_start_budget(),
            1
        );
        let config = SolveSpec::cold()
            .with_tolerance(0.5)
            .with_threads(1)
            .effective_config(&QuheConfig::default());
        assert_eq!(config.tolerance, 0.5);
        assert_eq!(config.solver_threads, 1);
        assert_eq!(SolveSpec::default(), SolveSpec::cold());
    }

    #[test]
    fn baselines_reject_warm_starts_with_a_pinned_message() {
        let scenario = scenario();
        let registry = SolverRegistry::builtin_with(quick_config());
        let vars = Problem::new(scenario.clone(), quick_config())
            .unwrap()
            .initial_point()
            .unwrap();
        let err = registry
            .solve("aa", &scenario, &SolveSpec::warm_from(vars))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: solver 'aa' does not support warm starts"
        );
    }

    #[test]
    fn instrumentation_changes_telemetry_but_never_the_solution() {
        let scenario = scenario();
        let solver = QuheSolver::new(quick_config());
        let minimal = solver
            .solve(
                &scenario,
                &SolveSpec::cold().with_instrumentation(InstrumentationLevel::Minimal),
            )
            .unwrap();
        let standard = solver.solve(&scenario, &SolveSpec::cold()).unwrap();
        let full = solver
            .solve(
                &scenario,
                &SolveSpec::cold().with_instrumentation(InstrumentationLevel::Full),
            )
            .unwrap();
        assert_eq!(minimal.variables, standard.variables);
        assert_eq!(standard.variables, full.variables);
        assert_eq!(minimal.objective, full.objective);
        assert!(minimal.stage1.is_none() && minimal.outer_trace.is_empty());
        assert!(standard.stage3.as_ref().unwrap().gap_trace.is_empty());
        assert!(!full.stage3.as_ref().unwrap().gap_trace.is_empty());
    }

    #[test]
    fn occr_honours_start_mode_and_full_instrumentation() {
        let scenario = scenario();
        let occr = OccrSolver::new(quick_config());
        let multi = occr.solve(&scenario, &SolveSpec::cold()).unwrap();
        let single = occr.solve(&scenario, &SolveSpec::single_start()).unwrap();
        // Multi-start explores strictly more basins than the AA warm start.
        assert!(multi.objective >= single.objective - 1e-9);
        let full = occr
            .solve(
                &scenario,
                &SolveSpec::cold().with_instrumentation(InstrumentationLevel::Full),
            )
            .unwrap();
        assert_eq!(full.variables, multi.variables);
        assert!(multi.stage3.as_ref().unwrap().gap_trace.is_empty());
        assert!(!full.stage3.as_ref().unwrap().gap_trace.is_empty());
    }

    #[test]
    fn solve_batch_matches_serial_solves_in_order() {
        let scenarios: Vec<SystemScenario> = (1..=3).map(SystemScenario::paper_default).collect();
        let solver = QuheSolver::new(quick_config());
        let spec = SolveSpec::cold();
        let parallel = solver.solve_batch(&scenarios, &spec, 0);
        let serial = solver.solve_batch(&scenarios, &spec, 1);
        assert_eq!(parallel.len(), 3);
        for (p, s) in parallel.iter().zip(&serial) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.objective, s.objective);
            assert_eq!(p.variables, s.variables);
        }
    }

    #[test]
    fn solve_batch_runs_solves_concurrently_on_its_worker_threads() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;

        /// Counts its solves in flight and records the maximum; each solve
        /// waits until two have been in flight at once, or the deadline
        /// passes, then returns AA's report.
        struct Rendezvous {
            aa: AaSolver,
            deadline: Duration,
            // (in flight, maximum in flight)
            state: Mutex<(usize, usize)>,
            changed: Condvar,
        }
        impl Solver for Rendezvous {
            fn name(&self) -> &str {
                "rendezvous"
            }
            fn description(&self) -> &str {
                "AA, once two solves have been in flight at the same time"
            }
            fn config(&self) -> &QuheConfig {
                self.aa.config()
            }
            fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
                self.aa.with_config(config)
            }
            fn solve(
                &self,
                scenario: &SystemScenario,
                spec: &SolveSpec,
            ) -> QuheResult<SolveReport> {
                let mut state = self.state.lock().unwrap();
                state.0 += 1;
                state.1 = state.1.max(state.0);
                self.changed.notify_all();
                let (state, _) = self
                    .changed
                    .wait_timeout_while(state, self.deadline, |state| state.1 < 2)
                    .unwrap();
                drop(state);
                let report = self.aa.solve(scenario, spec);
                self.state.lock().unwrap().0 -= 1;
                report
            }
        }

        let scenarios: Vec<SystemScenario> = (1..=4).map(SystemScenario::paper_default).collect();
        // Two workers meet at once; if `solve_batch` ran the solves one by
        // one, every solve would wait out the long deadline and the test
        // would fail on the maximum instead of hanging. One worker never
        // has company, so its case waits out a short deadline per solve.
        for (threads, deadline, expected) in [
            (2, Duration::from_secs(10), 2),
            (1, Duration::from_millis(20), 1),
        ] {
            let solver = Rendezvous {
                aa: AaSolver::new(quick_config()),
                deadline,
                state: Mutex::new((0, 0)),
                changed: Condvar::new(),
            };
            let reports = solver.solve_batch(&scenarios, &SolveSpec::cold(), threads);
            assert_eq!(reports.len(), scenarios.len());
            assert!(reports.iter().all(Result::is_ok));
            assert_eq!(
                solver.state.lock().unwrap().1,
                expected,
                "{threads} worker threads"
            );
        }
    }

    #[test]
    fn custom_solvers_can_be_registered_once() {
        #[derive(Debug)]
        struct Fixed(QuheConfig);
        impl Solver for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn description(&self) -> &str {
                "returns the deterministic initial point"
            }
            fn config(&self) -> &QuheConfig {
                &self.0
            }
            fn with_config(&self, config: QuheConfig) -> Box<dyn Solver> {
                Box::new(Fixed(config))
            }
            fn solve(
                &self,
                scenario: &SystemScenario,
                spec: &SolveSpec,
            ) -> QuheResult<SolveReport> {
                let wall = Instant::now();
                let problem = Problem::new(scenario.clone(), self.0)?;
                let vars = problem.initial_point()?;
                let metrics = MethodMetrics::evaluate(&problem, &vars)?;
                Ok(baseline_report(self.name(), spec, vars, metrics, wall))
            }
        }
        let mut registry = SolverRegistry::builtin_with(quick_config());
        registry.register(Box::new(Fixed(quick_config()))).unwrap();
        let report = registry
            .solve("fixed", &scenario(), &SolveSpec::cold())
            .unwrap();
        assert!(report.objective.is_finite());
        let err = registry
            .register(Box::new(Fixed(quick_config())))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: solver 'fixed' is already registered"
        );
    }

    #[test]
    fn unknown_solver_names_report_the_registered_catalogue() {
        let err = SolverRegistry::builtin()
            .resolve("atlantis")
            .map(Solver::name)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: unknown solver 'atlantis'; registered: quhe, aa, olaa, occr"
        );
    }
}
