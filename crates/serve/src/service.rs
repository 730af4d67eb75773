//! The solve service: request resolution, cache consultation, warm-start
//! reuse and the response protocol.
//!
//! [`SolveService::handle`] processes one [`SolveRequest`] through a fixed
//! preference order:
//!
//! 1. **Request-key hit** — the request's canonical key (its scenario spec,
//!    solver and spec, without the id) names a cached entry: an earlier
//!    request with that key resolved to the entry's scenario and stored or
//!    matched it. The entry answers as an exact hit with no scenario
//!    resolution, no fingerprint and no equality check; both fingerprints
//!    are read from the entry. The TCP front end's readers take this step
//!    themselves, right after parsing a frame.
//! 2. **Exact hit** — the resolved scenario's full fingerprint, the solver
//!    name and the canonical spec key match a cached entry (with scenario
//!    equality verified): the cached [`SolveReport`] is returned
//!    bit-identically with zero solver work, the shape fingerprint is read
//!    from the entry, and the request's key is registered on the entry when
//!    it has none. A `quhe-serve/v2` response splices in the report bytes
//!    the cache rendered when it stored the report, so a hit (of either
//!    kind) renders nothing and its report bytes equal the first
//!    response's by construction. The report keeps the `runtime_s` of the
//!    solve that produced it; the lookup's own wall goes to
//!    [`SolveResponse::service_wall_s`].
//! 3. **Warm near miss** — no exact hit, but a cached *anchor* (a cold
//!    multi-start solve) shares the scenario's shape fingerprint: the
//!    nearest such anchor by the pinned drift distance (see
//!    [`crate::cache`]) donates its optimum, and the request is served by
//!    [`solve_warm_guarded`], the warm-serving policy the online engine
//!    runs per step: a warm solve from the anchor's optimum at the
//!    scale-aware tracking tolerance, checked against the cold single-start
//!    floor of this exact scenario. A warm solve that reaches the floor is
//!    returned as [`CacheOutcome::Warm`]; one that falls below it triggers a
//!    cold re-solve of the request as written, and the best of the three
//!    candidates is returned as [`CacheOutcome::WarmFallback`] — a response
//!    therefore never reports an objective below the single-start cold
//!    floor.
//! 4. **Cold** — no reusable state: the request is solved as specified and
//!    cached for future requests.
//!
//! Warm, fallback and cold responses carry the bytes their own insert
//! rendered, and coalesced followers the leader's. A stored entry carries
//! the key of the request that stored it.
//!
//! The TCP front end's workers call `SolveService::handle_v2`, the v2 path
//! of [`SolveService::handle_json`], concurrently on one shared service:
//! they share one cache, and concurrent identical misses coalesce to one
//! solve.

use std::time::Instant;

use parking_lot::Mutex;
use quhe_core::error::{QuheError, QuheResult};
use quhe_core::fingerprint::Fingerprint;
use quhe_core::json::JsonValue;
use quhe_core::online::{solve_warm_guarded, OnlineTraceConfig, SolveKind, SystemTrace};
use quhe_core::params::QuheConfig;
use quhe_core::registry::ScenarioCatalog;
use quhe_core::scenario::SystemScenario;
use quhe_core::solver::{InstrumentationLevel, SolveReport, SolverRegistry, StartMode};
use quhe_mec::compute::MIN_CYCLE_MODEL_DEGREE;
use quhe_mec::scenario::MecScenario;
use quhe_qkd::topology::synthetic_scenario;

use crate::cache::{CacheEntry, CacheStats, ScenarioCache, Stored};
use crate::coalesce::{FlightKey, FlightResult, Join, Singleflight};
use crate::request::{
    InlineScenario, ScenarioSpec, SolveRequest, MAX_FULL_INSTRUMENTATION_CLIENTS,
};
use crate::wire::{self, Protocol};

/// Per-step relative drift amplitude of the serve protocol's fixed drift
/// model (applied to both MEC channel gains and QKD key rates by
/// [`ScenarioSpec::Drifted`] resolution) — a gentle ±1 % per step.
pub const DRIFT_AMPLITUDE: f64 = 0.01;

/// Default number of cached reports ([`ServiceConfig::with_cache_capacity`]
/// overrides).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Default bound of the network front end's admission queue: requests past
/// this many pending are shed with an `overloaded` error envelope.
pub const DEFAULT_QUEUE_BOUND: usize = 64;

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact fingerprint hit: the cached report, bit-identical, zero solver
    /// work.
    Hit,
    /// Warm near miss: solved from a same-shape anchor's optimum and kept
    /// (met the single-start cold floor).
    Warm,
    /// Warm near miss that fell below the floor: the best of the warm,
    /// floor and cold candidates.
    WarmFallback,
    /// Solved from scratch as requested.
    Cold,
    /// Coalesced onto an identical request already in flight: this request
    /// spent no solver work and received the leader's report bit-identically
    /// the moment the leader finished.
    Coalesced,
}

impl CacheOutcome {
    /// Stable machine-readable tag (the response JSON's `cache` field).
    pub fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::WarmFallback => "warm_fallback",
            CacheOutcome::Cold => "cold",
            CacheOutcome::Coalesced => "coalesced",
        }
    }

    /// Parses a [`CacheOutcome::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "hit" => Some(CacheOutcome::Hit),
            "warm" => Some(CacheOutcome::Warm),
            "warm_fallback" => Some(CacheOutcome::WarmFallback),
            "cold" => Some(CacheOutcome::Cold),
            "coalesced" => Some(CacheOutcome::Coalesced),
            _ => None,
        }
    }
}

/// One solve response: the report plus the serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// Echo of the request's correlation id.
    pub id: Option<String>,
    /// Registry name of the solver that answered.
    pub solver: String,
    /// How the response was produced.
    pub cache: CacheOutcome,
    /// Full content fingerprint of the resolved scenario.
    pub fingerprint: Fingerprint,
    /// Shape fingerprint of the resolved scenario.
    pub shape_fingerprint: Fingerprint,
    /// Wall-clock the *service* spent on this request — resolution, cache
    /// lookups, guard solves and solver work. Deliberately separate from
    /// [`SolveReport::runtime_s`], which always carries the wall time of the
    /// solve that produced the report: a cache hit reports the original
    /// solve's `runtime_s` next to a microsecond `service_wall_s`.
    pub service_wall_s: f64,
    /// Outer iterations spent on the serving path of *this* request: 0 for
    /// exact hits, the solve's iterations for cold responses, and the warm
    /// solve's plus any cold fallback's for warm-served responses — the
    /// same accounting as `OnlineStepRecord::outer_iterations`, so the true
    /// cost of a warm-served request (not just the kept report's) is
    /// visible.
    pub path_outer_iterations: usize,
    /// Outer iterations of the single-start floor guard (0 when no guard
    /// ran — hits, cold responses). Reported separately from the path, as
    /// in `OnlineStepRecord::guard_outer_iterations`. The guard is not an
    /// independent solve: it shares the request's one Stage-1 solve with
    /// the warm solve and any fallback.
    pub guard_outer_iterations: usize,
    /// The solve report (bit-identical to the cached one on exact hits).
    pub report: SolveReport,
}

fn malformed(detail: &str) -> QuheError {
    QuheError::InvalidConfig {
        reason: format!("malformed SolveResponse JSON: {detail}"),
    }
}

/// A response's serving metadata: every field of [`SolveResponse`] but the
/// report, which the v2 envelope writes from the cache's rendered bytes.
#[derive(Debug, Clone)]
pub(crate) struct ResponseHead {
    pub(crate) id: Option<String>,
    pub(crate) solver: String,
    pub(crate) cache: CacheOutcome,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) shape_fingerprint: Fingerprint,
    pub(crate) service_wall_s: f64,
    pub(crate) path_outer_iterations: usize,
    pub(crate) guard_outer_iterations: usize,
}

impl ResponseHead {
    /// The request id as JSON (`null` when the request had none).
    pub(crate) fn id_value(&self) -> JsonValue {
        self.id
            .as_ref()
            .map_or(JsonValue::Null, |id| JsonValue::String(id.clone()))
    }

    /// The response object's fields before `report`, in wire order.
    pub(crate) fn fields(&self) -> [(&'static str, JsonValue); 8] {
        [
            ("id", self.id_value()),
            ("solver", JsonValue::String(self.solver.clone())),
            ("cache", JsonValue::String(self.cache.tag().to_string())),
            ("fingerprint", JsonValue::String(self.fingerprint.to_hex())),
            (
                "shape_fingerprint",
                JsonValue::String(self.shape_fingerprint.to_hex()),
            ),
            ("service_wall_s", JsonValue::from_f64(self.service_wall_s)),
            (
                "path_outer_iterations",
                JsonValue::from_usize(self.path_outer_iterations),
            ),
            (
                "guard_outer_iterations",
                JsonValue::from_usize(self.guard_outer_iterations),
            ),
        ]
    }
}

/// One served request: the response's head, and the report shared with the
/// cache together with the bytes rendered when it was stored.
pub(crate) struct Served {
    head: ResponseHead,
    stored: Stored,
}

impl Served {
    /// The `quhe-serve/v2` success envelope, with the report bytes the cache
    /// rendered when it stored the report.
    pub(crate) fn envelope_v2(&self) -> String {
        wire::ok_envelope_v2(&self.head, &self.stored.report_json)
    }

    fn into_response(self) -> SolveResponse {
        let ResponseHead {
            id,
            solver,
            cache,
            fingerprint,
            shape_fingerprint,
            service_wall_s,
            path_outer_iterations,
            guard_outer_iterations,
        } = self.head;
        SolveResponse {
            id,
            solver,
            cache,
            fingerprint,
            shape_fingerprint,
            service_wall_s,
            path_outer_iterations,
            guard_outer_iterations,
            report: self.stored.entry.report.clone(),
        }
    }
}

impl SolveResponse {
    /// Every field but the report.
    pub(crate) fn head(&self) -> ResponseHead {
        ResponseHead {
            id: self.id.clone(),
            solver: self.solver.clone(),
            cache: self.cache,
            fingerprint: self.fingerprint,
            shape_fingerprint: self.shape_fingerprint,
            service_wall_s: self.service_wall_s,
            path_outer_iterations: self.path_outer_iterations,
            guard_outer_iterations: self.guard_outer_iterations,
        }
    }

    /// Serializes to the response JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = self
            .head()
            .fields()
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect();
        fields.push(("report".to_string(), self.report.to_json_value()));
        JsonValue::Object(fields)
    }

    /// Serializes to a pretty-printed JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty_string()
    }

    /// Deserializes from the response JSON object.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the first missing or malformed
    /// field.
    pub fn from_json_value(value: &JsonValue) -> QuheResult<Self> {
        let str_field = |key: &str| -> QuheResult<String> {
            Ok(value
                .get(key)
                .ok_or_else(|| malformed(&format!("missing field '{key}'")))?
                .as_str()
                .ok_or_else(|| malformed(&format!("field '{key}' must be a string")))?
                .to_string())
        };
        let fp_field = |key: &str| -> QuheResult<Fingerprint> {
            Fingerprint::from_hex(&str_field(key)?)
                .ok_or_else(|| malformed(&format!("field '{key}' must be 32 hex characters")))
        };
        let id = match value.get("id") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(
                other
                    .as_str()
                    .ok_or_else(|| malformed("field 'id' must be a string or null"))?
                    .to_string(),
            ),
        };
        let cache = CacheOutcome::from_tag(&str_field("cache")?)
            .ok_or_else(|| malformed("unknown cache outcome"))?;
        let usize_field = |key: &str| -> QuheResult<usize> {
            value
                .get(key)
                .ok_or_else(|| malformed(&format!("missing field '{key}'")))?
                .as_usize()
                .ok_or_else(|| malformed(&format!("field '{key}' must be a non-negative integer")))
        };
        Ok(Self {
            id,
            solver: str_field("solver")?,
            cache,
            fingerprint: fp_field("fingerprint")?,
            shape_fingerprint: fp_field("shape_fingerprint")?,
            service_wall_s: value
                .get("service_wall_s")
                .ok_or_else(|| malformed("missing field 'service_wall_s'"))?
                .as_f64()
                .ok_or_else(|| malformed("field 'service_wall_s' must be a number"))?,
            path_outer_iterations: usize_field("path_outer_iterations")?,
            guard_outer_iterations: usize_field("guard_outer_iterations")?,
            report: SolveReport::from_json_value(
                value
                    .get("report")
                    .ok_or_else(|| malformed("missing field 'report'"))?,
            )?,
        })
    }

    /// Parses a response serialized with [`SolveResponse::to_json`].
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] for malformed JSON or a malformed
    /// response shape.
    pub fn from_json(text: &str) -> QuheResult<Self> {
        let value = JsonValue::parse(text).map_err(|e| QuheError::InvalidConfig {
            reason: format!("malformed SolveResponse JSON: {e}"),
        })?;
        Self::from_json_value(&value)
    }
}

/// Monotonic serving counters behind one lock, so a [`ServiceStats`]
/// snapshot is a consistent point in time even while workers are counting —
/// independently updated atomics could be observed torn (a request counted
/// in one counter but not yet in a related one).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    exact_hits: usize,
    warm_hits: usize,
    warm_fallbacks: usize,
    cold_solves: usize,
    coalesced: usize,
}

/// A point-in-time snapshot of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered from the cache bit-identically.
    pub exact_hits: usize,
    /// Requests answered by an accepted warm solve.
    pub warm_hits: usize,
    /// Requests where the warm solve fell below the floor and a fallback
    /// ran.
    pub warm_fallbacks: usize,
    /// Requests solved from scratch.
    pub cold_solves: usize,
    /// Requests coalesced onto an identical in-flight request (they spent no
    /// solver work and received the leader's report bit-identically).
    pub coalesced: usize,
    /// Reports currently cached. Read from the same cache-lock acquisition
    /// as [`ServiceStats::cache`], so it always equals `cache.entries`.
    pub cached_reports: usize,
    /// The cache's own telemetry (lookups, hits, evictions, anchor
    /// promotions…), taken as one consistent snapshot under the cache lock —
    /// the [`CacheStats`] invariants hold exactly, never just eventually.
    pub cache: CacheStats,
}

impl ServiceStats {
    /// Total requests served.
    pub fn total(&self) -> usize {
        self.exact_hits + self.warm_hits + self.warm_fallbacks + self.cold_solves + self.coalesced
    }
}

/// Configuration of a [`SolveService`] and the defaults its network front
/// end inherits — the one place to size the serving stack:
///
/// ```
/// use quhe_serve::service::ServiceConfig;
/// use quhe_core::params::QuheConfig;
///
/// let service = ServiceConfig::new(QuheConfig {
///     max_outer_iterations: 1,
///     max_stage3_iterations: 4,
///     solver_threads: 1,
///     ..QuheConfig::default()
/// })
/// .with_cache_capacity(256)
/// .with_worker_threads(2)
/// .with_queue_bound(32)
/// .build();
/// assert_eq!(service.cache().capacity(), 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    solver: QuheConfig,
    cache_capacity: usize,
    worker_threads: usize,
    queue_bound: usize,
    cache_snapshot: Option<JsonValue>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new(QuheConfig::default())
    }
}

impl ServiceConfig {
    /// A configuration with the given solver configuration and the service
    /// defaults: [`DEFAULT_CACHE_CAPACITY`], machine-sized workers,
    /// [`DEFAULT_QUEUE_BOUND`].
    pub fn new(solver: QuheConfig) -> Self {
        Self {
            solver,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            worker_threads: 0,
            queue_bound: DEFAULT_QUEUE_BOUND,
            cache_snapshot: None,
        }
    }

    /// Sets the report-cache capacity (at least 1).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the worker-thread count of the network front end (`0` sizes to
    /// the machine).
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Sets the admission-queue bound of the network front end: requests
    /// beyond this many pending are shed with an `overloaded` envelope.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound.max(1);
        self
    }

    /// Warms the cache at startup from a [`ScenarioCache::snapshot`] tree
    /// (e.g. one persisted to disk before a restart), so the service answers
    /// its previous working set as exact hits instead of cold solves. The
    /// snapshot is consumed when the service is built; entries beyond
    /// [`ServiceConfig::with_cache_capacity`] keep the most recently used
    /// tail. Use [`ServiceConfig::try_build`] /
    /// [`ServiceConfig::try_build_with`] to surface a rejected snapshot as
    /// an error instead of a panic.
    #[must_use]
    pub fn with_cache_snapshot(mut self, snapshot: JsonValue) -> Self {
        self.cache_snapshot = Some(snapshot);
        self
    }

    /// The solver configuration.
    pub fn solver(&self) -> &QuheConfig {
        &self.solver
    }

    /// The report-cache capacity.
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// The worker-thread count (`0` = machine-sized).
    pub fn worker_threads(&self) -> usize {
        self.worker_threads
    }

    /// The admission-queue bound.
    pub fn queue_bound(&self) -> usize {
        self.queue_bound
    }

    /// The startup cache snapshot, if one is pending
    /// ([`ServiceConfig::with_cache_snapshot`]); `None` after the service is
    /// built.
    pub fn cache_snapshot(&self) -> Option<&JsonValue> {
        self.cache_snapshot.as_ref()
    }

    /// Builds a service over the built-in solvers and catalogue.
    ///
    /// # Panics
    /// If a startup cache snapshot ([`ServiceConfig::with_cache_snapshot`])
    /// is malformed or fails its fingerprint verification — use
    /// [`ServiceConfig::try_build`] to handle that fallibly.
    pub fn build(self) -> SolveService {
        self.try_build()
            .unwrap_or_else(|e| panic!("startup cache snapshot rejected: {e}"))
    }

    /// Builds a service over an explicit registry and catalogue.
    ///
    /// # Panics
    /// As [`ServiceConfig::build`]; use [`ServiceConfig::try_build_with`]
    /// to handle a rejected snapshot fallibly.
    pub fn build_with(self, registry: SolverRegistry, catalog: ScenarioCatalog) -> SolveService {
        self.try_build_with(registry, catalog)
            .unwrap_or_else(|e| panic!("startup cache snapshot rejected: {e}"))
    }

    /// Fallible [`ServiceConfig::build`].
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] when the startup cache snapshot is
    /// malformed or fails its fingerprint verification.
    pub fn try_build(self) -> QuheResult<SolveService> {
        let registry = SolverRegistry::builtin_with(self.solver);
        self.try_build_with(registry, ScenarioCatalog::builtin())
    }

    /// Fallible [`ServiceConfig::build_with`].
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] when the startup cache snapshot is
    /// malformed or fails its fingerprint verification.
    pub fn try_build_with(
        mut self,
        registry: SolverRegistry,
        catalog: ScenarioCatalog,
    ) -> QuheResult<SolveService> {
        let cache = ScenarioCache::new(self.cache_capacity);
        if let Some(snapshot) = self.cache_snapshot.take() {
            cache.restore(&snapshot)?;
        }
        Ok(SolveService {
            registry,
            catalog,
            cache,
            counters: Mutex::new(Counters::default()),
            flights: Singleflight::new(),
            config: self,
        })
    }
}

/// A multi-worker solve service over a solver registry and a scenario
/// catalogue, with a shared content-addressed report cache and an in-flight
/// singleflight table. Built from a [`ServiceConfig`].
#[derive(Debug)]
pub struct SolveService {
    registry: SolverRegistry,
    catalog: ScenarioCatalog,
    cache: ScenarioCache,
    counters: Mutex<Counters>,
    flights: Singleflight,
    config: ServiceConfig,
}

impl SolveService {
    /// A service over an explicit registry and catalogue under the default
    /// [`ServiceConfig`] sizing.
    pub fn new(registry: SolverRegistry, catalog: ScenarioCatalog) -> Self {
        ServiceConfig::default().build_with(registry, catalog)
    }

    /// The solver registry.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The scenario catalogue.
    pub fn catalog(&self) -> &ScenarioCatalog {
        &self.catalog
    }

    /// The report cache.
    pub fn cache(&self) -> &ScenarioCache {
        &self.cache
    }

    /// The configuration this service was built from (the network front end
    /// reads its worker and queue sizing from here).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// A snapshot of the serving counters and the cache's telemetry. The
    /// serving counters come from one lock acquisition and the cache block
    /// from one cache-lock acquisition, so each block is internally
    /// consistent — in particular `cached_reports` always equals
    /// `cache.entries` and the [`CacheStats`] invariants hold exactly
    /// (previously `cached_reports` was read under a separate lock and
    /// could disagree with the counters mid-burst).
    pub fn stats(&self) -> ServiceStats {
        let counters = *self.counters.lock();
        let cache = self.cache.stats();
        ServiceStats {
            exact_hits: counters.exact_hits,
            warm_hits: counters.warm_hits,
            warm_fallbacks: counters.warm_fallbacks,
            cold_solves: counters.cold_solves,
            coalesced: counters.coalesced,
            cached_reports: cache.entries,
            cache,
        }
    }

    fn count(&self, bump: impl FnOnce(&mut Counters)) {
        bump(&mut self.counters.lock());
    }

    /// Resolves a [`ScenarioSpec`] to a concrete scenario.
    ///
    /// # Errors
    /// Unknown catalogue names, invalid inline parameters and
    /// scenario-consistency failures.
    pub fn resolve_scenario(&self, spec: &ScenarioSpec) -> QuheResult<SystemScenario> {
        match spec {
            ScenarioSpec::Catalog { name, seed } => self.catalog.generate(name, *seed),
            ScenarioSpec::Drifted { name, seed, step } => {
                let config = OnlineTraceConfig {
                    drift_amplitude: DRIFT_AMPLITUDE,
                    key_rate_drift: DRIFT_AMPLITUDE,
                    ..OnlineTraceConfig::drift_only(*step)
                };
                let trace = SystemTrace::generate(&self.catalog, name, *seed, &config)?;
                let step = trace
                    .steps()
                    .last()
                    .ok_or_else(|| QuheError::InvalidConfig {
                        reason: format!("drifted scenario `{name}`: generated trace has no steps"),
                    })?;
                Ok(step.scenario.clone())
            }
            ScenarioSpec::Inline(inline) => resolve_inline(inline),
        }
    }

    /// Handles one request: resolve, consult the cache, solve as needed.
    ///
    /// # Errors
    /// Resolution failures, unknown solver names and solver errors.
    pub fn handle(&self, request: &SolveRequest) -> QuheResult<SolveResponse> {
        self.serve(request, &request.key())
            .map(Served::into_response)
    }

    /// Handles one request like [`SolveService::handle`] and writes its
    /// `quhe-serve/v2` success envelope with the report bytes the cache
    /// rendered when it stored the report: an exact hit renders nothing and
    /// copies no report. `key` is the request's [`SolveRequest::key`]. The
    /// TCP front end's workers answer through it.
    ///
    /// # Errors
    /// As [`SolveService::handle`]; the caller writes the error envelope.
    pub(crate) fn handle_v2(&self, request: &SolveRequest, key: &str) -> QuheResult<String> {
        self.serve(request, key).map(|served| served.envelope_v2())
    }

    /// Answers `request` from the cached entry its key names, if any: an
    /// exact hit without resolving the scenario. The key was registered
    /// only once a request with it had resolved to the entry's scenario, so
    /// the entry is the one an exact lookup would find. The TCP front end's
    /// readers call it before admitting a request; a miss costs one key
    /// lookup.
    pub(crate) fn serve_by_key(&self, request: &SolveRequest, key: &str) -> Option<Served> {
        let wall = Instant::now();
        let stored = self.cache.lookup_request(key)?;
        Some(self.hit(request, stored, wall))
    }

    /// An exact hit on `stored`, with zero solver work. The solver name and
    /// both fingerprints are read from the entry: an exact match makes them
    /// the request's.
    fn hit(&self, request: &SolveRequest, stored: Stored, wall: Instant) -> Served {
        self.count(|c| c.exact_hits += 1);
        Served {
            head: ResponseHead {
                id: request.id.clone(),
                solver: stored.entry.solver.clone(),
                cache: CacheOutcome::Hit,
                fingerprint: stored.entry.fingerprint,
                shape_fingerprint: stored.entry.shape,
                service_wall_s: wall.elapsed().as_secs_f64(),
                path_outer_iterations: 0,
                guard_outer_iterations: 0,
            },
            stored,
        }
    }

    /// Serves `request`, whose [`SolveRequest::key`] is `key`: by key when
    /// the key is cached, else by resolving the scenario.
    fn serve(&self, request: &SolveRequest, key: &str) -> QuheResult<Served> {
        if let Some(served) = self.serve_by_key(request, key) {
            return Ok(served);
        }
        let wall = Instant::now();
        let scenario = self.resolve_scenario(&request.scenario)?;
        self.serve_resolved(request, key, &scenario, wall)
    }

    fn serve_resolved(
        &self,
        request: &SolveRequest,
        key: &str,
        scenario: &SystemScenario,
        wall: Instant,
    ) -> QuheResult<Served> {
        let (solver_name, spec) = (request.solver.as_str(), &request.spec);
        // Resolve the solver name and bound the solve's work before anything
        // else, so a rejected request fails fast without touching the cache
        // or the flight table.
        self.registry.resolve(solver_name)?;
        if spec.instrumentation() == InstrumentationLevel::Full
            && scenario.num_clients() > MAX_FULL_INSTRUMENTATION_CLIENTS
        {
            return Err(QuheError::InvalidConfig {
                reason: format!(
                    "instrumentation 'full' is limited to {MAX_FULL_INSTRUMENTATION_CLIENTS} \
                     clients, the scenario has {}",
                    scenario.num_clients()
                ),
            });
        }
        let fingerprint = scenario.fingerprint();
        let spec_key = spec.to_json_value().to_compact_string();

        // Fast path: an exact hit needs no flight — the report and its
        // bytes already exist, concurrent duplicates each share them.
        if let Some(stored) =
            self.cache
                .lookup_stored(fingerprint, scenario, solver_name, &spec_key, Some(key))
        {
            return Ok(self.hit(request, stored, wall));
        }

        // Singleflight: identical concurrent requests elect one leader; the
        // rest block on its flight and share its report and bytes.
        match self.flights.join(FlightKey {
            fingerprint: fingerprint.as_u128(),
            solver: solver_name.to_string(),
            spec_key: spec_key.clone(),
        }) {
            Join::Lead(token) => {
                let result = self.serve_slow(request, key, scenario, spec_key, wall);
                token.publish(match &result {
                    Ok(served) => Ok(FlightResult {
                        leader_outcome: served.head.cache,
                        stored: served.stored.clone(),
                    }),
                    Err(e) => Err(e.clone()),
                });
                result
            }
            Join::Coalesced(outcome) => {
                let flight = outcome?;
                self.count(|c| c.coalesced += 1);
                Ok(Served {
                    head: ResponseHead {
                        id: request.id.clone(),
                        solver: solver_name.to_string(),
                        cache: CacheOutcome::Coalesced,
                        fingerprint,
                        shape_fingerprint: flight.stored.entry.shape,
                        // The wall includes the time spent blocked on the
                        // leader — that is what this request actually waited.
                        service_wall_s: wall.elapsed().as_secs_f64(),
                        // No solver work was spent on this request's behalf;
                        // the leader's own response carries the path bill.
                        path_outer_iterations: 0,
                        guard_outer_iterations: 0,
                    },
                    stored: flight.stored,
                })
            }
        }
    }

    /// The cache-miss path: warm near miss or cold solve. Runs at most once
    /// per in-flight key (this is what the flight leader executes); re-checks
    /// the exact index first because a previous leader for the same key may
    /// have completed between this request's fast-path lookup and its
    /// flight-table join.
    fn serve_slow(
        &self,
        request: &SolveRequest,
        key: &str,
        scenario: &SystemScenario,
        spec_key: String,
        wall: Instant,
    ) -> QuheResult<Served> {
        let (solver_name, spec) = (request.solver.as_str(), &request.spec);
        let solver = self.registry.resolve(solver_name)?;
        let fingerprint = scenario.fingerprint();
        let shape_fingerprint = scenario.shape_fingerprint();

        let respond =
            |cache: CacheOutcome, stored: Stored, path_iters: usize, guard_iters: usize| Served {
                head: ResponseHead {
                    id: request.id.clone(),
                    solver: solver_name.to_string(),
                    cache,
                    fingerprint,
                    shape_fingerprint,
                    service_wall_s: wall.elapsed().as_secs_f64(),
                    path_outer_iterations: path_iters,
                    guard_outer_iterations: guard_iters,
                },
                stored,
            };

        // 1. Exact hit (latecomer re-check, see above).
        if let Some(stored) =
            self.cache
                .lookup_stored(fingerprint, scenario, solver_name, &spec_key, Some(key))
        {
            return Ok(self.hit(request, stored, wall));
        }

        // 2. Warm near miss: only for plain cold requests to a warm-capable
        //    solver — single-start and explicit warm requests are served as
        //    written.
        if matches!(spec.start(), StartMode::Cold) && solver.supports_warm_start() {
            if let Some(anchor) = self
                .cache
                .lookup_anchor(shape_fingerprint, solver_name, scenario)
            {
                // The request's own cold solve is the fallback.
                let warm = solve_warm_guarded(solver, scenario, spec, &anchor.report, solver)?;
                let outcome = if warm.kind == SolveKind::Warm {
                    self.count(|c| c.warm_hits += 1);
                    CacheOutcome::Warm
                } else {
                    self.count(|c| c.warm_fallbacks += 1);
                    CacheOutcome::WarmFallback
                };
                // Cache for exact reuse. Warm-path results anchor future
                // warm chains only when the kept report actually came from
                // the from-scratch cold multi-start fallback — a fresher
                // converged anchor than the one that just lost; warm and
                // floor winners never re-anchor.
                let stored = self.cache.store(
                    CacheEntry {
                        scenario: scenario.clone(),
                        fingerprint,
                        shape: shape_fingerprint,
                        solver: solver_name.to_string(),
                        spec_key,
                        report: warm.report,
                        anchor: warm.cold_won && spec.multi_start(),
                    },
                    Some(key),
                );
                return Ok(respond(
                    outcome,
                    stored,
                    warm.path_outer_iterations,
                    warm.guard_outer_iterations,
                ));
            }
        }

        // 3. Cold: solve as requested and cache.
        let report = solver.solve(scenario, spec)?;
        self.count(|c| c.cold_solves += 1);
        let path_iters = report.outer_iterations;
        let stored = self.cache.store(
            CacheEntry {
                scenario: scenario.clone(),
                fingerprint,
                shape: shape_fingerprint,
                solver: solver_name.to_string(),
                spec_key,
                report,
                // Only full cold multi-start solves anchor warm chains.
                anchor: matches!(spec.start(), StartMode::Cold) && spec.multi_start(),
            },
            Some(key),
        );
        Ok(respond(CacheOutcome::Cold, stored, path_iters, 0))
    }

    /// Handles a JSON request string, returning a JSON response string —
    /// never an `Err`: malformed requests and solver failures become an
    /// error envelope.
    ///
    /// The response shape follows the request's protocol version: a
    /// `quhe-serve/v2` body is answered with the v2 envelope (`ok`
    /// discriminator, stable `error.kind`), its report spliced in from the
    /// bytes the cache rendered when it stored the report; a legacy
    /// unversioned v1 body with the deprecated v1 shapes (the plain
    /// response object, or `{"id", "error": "<message>"}`), so existing
    /// callers keep working. See [`crate::wire`] for both shapes.
    pub fn handle_json(&self, text: &str) -> String {
        let (proto, id, request) = wire::parse_request(text);
        let request = match request {
            Ok(request) => request,
            Err(e) => return wire::error_envelope(proto, id.as_deref(), &e),
        };
        let body = match proto {
            Protocol::V1 => self
                .handle(&request)
                .map(|response| wire::ok_envelope(proto, &response)),
            Protocol::V2 => self.handle_v2(&request, &request.key()),
        };
        body.unwrap_or_else(|e| wire::error_envelope(proto, request.id.as_deref(), &e))
    }
}

fn resolve_inline(inline: &InlineScenario) -> QuheResult<SystemScenario> {
    // Overrides arrive on untrusted requests and the `with_*` builders
    // mutate without re-validating (their in-repo callers sweep known-good
    // grids), so the positivity checks `MecScenario::new` would enforce are
    // applied here — a bad value must come back as the error envelope, not
    // as a downstream panic.
    for (name, value) in [
        ("total_bandwidth_hz", inline.total_bandwidth_hz),
        (
            "total_server_frequency_hz",
            inline.total_server_frequency_hz,
        ),
        ("max_power_w", inline.max_power_w),
        ("max_client_frequency_hz", inline.max_client_frequency_hz),
    ] {
        if let Some(v) = value {
            if !(v > 0.0 && v.is_finite()) {
                return Err(QuheError::InvalidConfig {
                    reason: format!("inline {name} must be positive and finite, got {v}"),
                });
            }
        }
    }
    let mut mec = MecScenario::paper_with_num_clients(inline.num_clients, inline.seed);
    if let Some(bandwidth) = inline.total_bandwidth_hz {
        mec = mec.with_total_bandwidth(bandwidth);
    }
    if let Some(frequency) = inline.total_server_frequency_hz {
        mec = mec.with_total_server_frequency(frequency);
    }
    if let Some(power) = inline.max_power_w {
        mec = mec.with_max_power(power);
    }
    if let Some(frequency) = inline.max_client_frequency_hz {
        mec = mec.with_max_client_frequency(frequency);
    }
    // A degree is a CKKS ring degree, a power of two, and the fitted cycle
    // model is valid only from its smallest one. Other values pass the
    // scenario's own checks but are costed off the fitted range (below the
    // bound, where far enough down the solve fails) or buy several times
    // the default set's solver work (between powers of two).
    for (index, &degree) in inline.lambda_choices.iter().flatten().enumerate() {
        if !degree.is_power_of_two() || degree < MIN_CYCLE_MODEL_DEGREE {
            return Err(QuheError::InvalidConfig {
                reason: format!(
                    "inline lambda_choices entry {index} ({degree}) must be a power of two \
                     of at least {MIN_CYCLE_MODEL_DEGREE}"
                ),
            });
        }
    }
    let lambda_choices = inline
        .lambda_choices
        .clone()
        .unwrap_or_else(|| vec![1 << 15, 1 << 16, 1 << 17]);
    SystemScenario::new(
        synthetic_scenario(inline.num_clients, inline.seed),
        mec,
        lambda_choices,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quhe_core::solver::SolveSpec;

    fn quick_config() -> QuheConfig {
        QuheConfig {
            max_outer_iterations: 2,
            max_stage3_iterations: 8,
            solver_threads: 1,
            ..QuheConfig::default()
        }
    }

    fn quick_service() -> SolveService {
        ServiceConfig::new(quick_config()).build()
    }

    #[test]
    fn repeat_requests_hit_the_cache_bit_identically() {
        let service = quick_service();
        let request = SolveRequest::catalog("paper_default", 42).with_id("first");
        let cold = service.handle(&request).unwrap();
        assert_eq!(cold.cache, CacheOutcome::Cold);

        let hit = service
            .handle(&SolveRequest::catalog("paper_default", 42).with_id("second"))
            .unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.id.as_deref(), Some("second"));
        // A hit spends zero solver work on its path; the cold response's
        // path bill is exactly its solve.
        assert_eq!(hit.path_outer_iterations, 0);
        assert_eq!(hit.guard_outer_iterations, 0);
        assert_eq!(cold.path_outer_iterations, cold.report.outer_iterations);
        assert_eq!(cold.guard_outer_iterations, 0);
        // Bit-identical: the whole report, including the original wall time.
        assert_eq!(hit.report, cold.report);
        assert_eq!(
            hit.report.runtime_s.to_bits(),
            cold.report.runtime_s.to_bits(),
            "a hit carries the producing solve's wall time"
        );
        let stats = service.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn different_spec_or_solver_is_not_an_exact_hit() {
        let service = quick_service();
        service
            .handle(&SolveRequest::catalog("paper_default", 1))
            .unwrap();
        let single = service
            .handle(&SolveRequest::catalog("paper_default", 1).with_spec(SolveSpec::single_start()))
            .unwrap();
        assert_ne!(single.cache, CacheOutcome::Hit);
        let aa = service
            .handle(&SolveRequest::catalog("paper_default", 1).with_solver("aa"))
            .unwrap();
        assert_eq!(aa.cache, CacheOutcome::Cold);
    }

    #[test]
    fn drifted_requests_warm_start_and_respect_the_floor() {
        let service = quick_service();
        let base = service
            .handle(&SolveRequest::catalog("paper_default", 42))
            .unwrap();
        assert_eq!(base.cache, CacheOutcome::Cold);

        let drifted_request = SolveRequest::drifted("paper_default", 42, 2);
        let scenario = service.resolve_scenario(&drifted_request.scenario).unwrap();
        assert_eq!(scenario.shape_fingerprint(), base.shape_fingerprint);
        assert_ne!(scenario.fingerprint(), base.fingerprint);

        let drifted = service.handle(&drifted_request).unwrap();
        assert!(
            matches!(
                drifted.cache,
                CacheOutcome::Warm | CacheOutcome::WarmFallback
            ),
            "drifted request served {:?}",
            drifted.cache
        );
        // Warm serving always runs the floor guard; a purely warm response
        // bills exactly its warm solve on the path.
        assert!(drifted.guard_outer_iterations >= 1);
        if drifted.cache == CacheOutcome::Warm {
            assert_eq!(
                drifted.path_outer_iterations,
                drifted.report.outer_iterations
            );
        }
        // The fallback guarantee: never below the cold single-start floor.
        let floor = service
            .registry()
            .resolve("quhe")
            .unwrap()
            .solve(&scenario, &SolveSpec::single_start())
            .unwrap();
        assert!(drifted.report.objective >= floor.objective);
        // And the drifted result was cached for exact reuse.
        let repeat = service.handle(&drifted_request).unwrap();
        assert_eq!(repeat.cache, CacheOutcome::Hit);
        assert_eq!(repeat.report, drifted.report);
    }

    #[test]
    fn one_shot_solvers_never_warm_start() {
        let service = quick_service();
        service
            .handle(&SolveRequest::catalog("paper_default", 7).with_solver("aa"))
            .unwrap();
        let drifted = service
            .handle(&SolveRequest::drifted("paper_default", 7, 1).with_solver("aa"))
            .unwrap();
        assert_eq!(drifted.cache, CacheOutcome::Cold);
    }

    #[test]
    fn inline_scenarios_resolve_with_overrides() {
        let service = quick_service();
        let request = SolveRequest {
            id: None,
            scenario: ScenarioSpec::Inline(InlineScenario {
                total_bandwidth_hz: Some(5e6),
                ..InlineScenario::new(4, 9)
            }),
            solver: "aa".to_string(),
            spec: SolveSpec::cold(),
        };
        let scenario = service.resolve_scenario(&request.scenario).unwrap();
        assert_eq!(scenario.num_clients(), 4);
        assert_eq!(scenario.mec().total_bandwidth_hz(), 5e6);
        let response = service.handle(&request).unwrap();
        assert_eq!(response.cache, CacheOutcome::Cold);
        assert!(response.report.objective.is_finite());
    }

    #[test]
    fn responses_round_trip_through_json() {
        let service = quick_service();
        let response = service
            .handle(&SolveRequest::catalog("paper_default", 3).with_id("rt"))
            .unwrap();
        let parsed = SolveResponse::from_json(&response.to_json()).unwrap();
        assert_eq!(parsed, response);
        assert_eq!(
            parsed.report.objective.to_bits(),
            response.report.objective.to_bits()
        );
    }

    #[test]
    fn handle_json_wraps_errors_in_an_envelope() {
        let service = quick_service();
        let ok = service.handle_json(
            "{\"id\": \"j1\", \"scenario\": {\"catalog\": \"paper_default\", \"seed\": 5}}",
        );
        let response = SolveResponse::from_json(&ok).unwrap();
        assert_eq!(response.id.as_deref(), Some("j1"));

        let bad = service.handle_json("{\"scenario\": {}}");
        let value = JsonValue::parse(&bad).unwrap();
        assert!(value
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("'catalog' or 'inline'"));

        let unknown = service.handle_json(
            "{\"id\": \"j2\", \"scenario\": {\"catalog\": \"atlantis\", \"seed\": 1}}",
        );
        let value = JsonValue::parse(&unknown).unwrap();
        assert_eq!(value.get("id").and_then(JsonValue::as_str), Some("j2"));
        assert!(value
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("atlantis"));

        // Hostile inline overrides come back as the envelope, never as a
        // panic: the unchecked `with_*` builders are guarded by the
        // service's own validation.
        for bad in [
            "{\"id\": \"j3\", \"scenario\": {\"inline\": {\"num_clients\": 2, \"seed\": 1, \
             \"total_bandwidth_hz\": -1.0}}}",
            "{\"id\": \"j4\", \"scenario\": {\"inline\": {\"num_clients\": 2, \"seed\": 1, \
             \"max_power_w\": 0.0}}}",
        ] {
            let value = JsonValue::parse(&service.handle_json(bad)).unwrap();
            assert!(
                value
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .contains("must be positive and finite"),
                "{bad}"
            );
        }

        // Inline degrees must be CKKS ring degrees the cost model covers: a
        // degree between powers of two buys several times the default
        // set's work, and one below 2^15 lies outside the range the cycle
        // model was fitted on. Both were accepted and solved before.
        for (degrees, entry) in [
            ("32768, 36864", "entry 1 (36864)"),
            ("16384", "entry 0 (16384)"),
        ] {
            let bad = format!(
                "{{\"proto\": \"quhe-serve/v2\", \"id\": \"d\", \"scenario\": {{\"inline\": \
                 {{\"num_clients\": 2, \"seed\": 1, \"lambda_choices\": [{degrees}]}}}}}}"
            );
            let value = JsonValue::parse(&service.handle_json(&bad)).unwrap();
            let error = value.get("error").unwrap();
            assert_eq!(
                error.get("kind").and_then(JsonValue::as_str),
                Some("invalid_request"),
                "{bad}"
            );
            let message = error.get("message").and_then(JsonValue::as_str).unwrap();
            assert!(
                message.contains(&format!(
                    "lambda_choices {entry} must be a power of two of at least 32768"
                )),
                "{message}"
            );
        }
    }

    #[test]
    fn full_instrumentation_is_limited_by_the_resolved_client_count() {
        let service = quick_service();
        let spec = SolveSpec::cold()
            .with_instrumentation(InstrumentationLevel::Full)
            .to_json_value()
            .to_compact_string();
        let full = |scenario: &str| {
            let text = service.handle_json(&format!(
                "{{\"proto\": \"quhe-serve/v2\", \"scenario\": {scenario}, \"spec\": {spec}}}"
            ));
            JsonValue::parse(&text).unwrap()
        };
        let rejected = full("{\"inline\": {\"num_clients\": 9, \"seed\": 1}}");
        assert_eq!(rejected.get("ok").and_then(JsonValue::as_bool), Some(false));
        let error = rejected.get("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(JsonValue::as_str),
            Some("invalid_request")
        );
        let message = error.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(
            message.contains(&format!(
                "limited to {MAX_FULL_INSTRUMENTATION_CLIENTS} clients"
            )),
            "{message}"
        );
        let served = full("{\"catalog\": \"paper_default\", \"seed\": 1}");
        assert_eq!(
            served.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{served:?}"
        );
        assert_eq!(service.stats().total(), 1);
    }

    #[test]
    fn concurrent_identical_cold_requests_coalesce_to_one_solve() {
        let service = std::sync::Arc::new(quick_service());
        let clients = 4;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let service = std::sync::Arc::clone(&service);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service
                        .handle(&SolveRequest::catalog("paper_default", 77).with_id(&i.to_string()))
                        .unwrap()
                })
            })
            .collect();
        let responses: Vec<SolveResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = service.stats();
        assert_eq!(
            stats.cold_solves, 1,
            "identical concurrent requests must trigger exactly one solve: {stats:?}"
        );
        assert_eq!(stats.total(), clients);
        // Every response carries the bit-identical report, whatever path
        // (leader, coalesced follower, or post-publication cache hit)
        // served it, and coalesced responses bill zero solver work.
        let reference = &responses[0].report;
        for response in &responses {
            assert_eq!(&response.report, reference);
            assert_eq!(
                response.report.runtime_s.to_bits(),
                reference.runtime_s.to_bits()
            );
            if response.cache == CacheOutcome::Coalesced {
                assert_eq!(response.path_outer_iterations, 0);
                assert_eq!(response.guard_outer_iterations, 0);
            }
        }
        // A later identical request is a plain cache hit, not a flight.
        let after = service
            .handle(&SolveRequest::catalog("paper_default", 77))
            .unwrap();
        assert_eq!(after.cache, CacheOutcome::Hit);
    }

    #[test]
    fn a_snapshot_restored_service_answers_its_working_set_as_hits() {
        let service = quick_service();
        // The working set: three paper_default seeds, every other catalogue
        // world once, and one drift step that is served warm.
        let mut requests: Vec<SolveRequest> = (1..=3)
            .map(|seed| SolveRequest::catalog("paper_default", seed))
            .collect();
        requests.extend(
            service
                .catalog()
                .names()
                .into_iter()
                .filter(|&name| name != "paper_default")
                .map(|name| SolveRequest::catalog(name, 1)),
        );
        let mut originals: Vec<SolveResponse> = requests
            .iter()
            .map(|r| service.handle(r).unwrap())
            .collect();
        assert!(originals.iter().all(|r| r.cache == CacheOutcome::Cold));
        let drifted = SolveRequest::drifted("paper_default", 1, 1);
        let warm = service.handle(&drifted).unwrap();
        assert!(
            matches!(warm.cache, CacheOutcome::Warm | CacheOutcome::WarmFallback),
            "{:?}",
            warm.cache
        );
        requests.push(drifted);
        originals.push(warm);

        // "Restart": the snapshot goes through its text form and back, as
        // it would through a file, and a fresh service warmed from it
        // answers the same working set bit-identically with zero solver
        // work.
        let text = service.cache().snapshot().to_compact_string();
        let restarted = ServiceConfig::new(quick_config())
            .with_cache_snapshot(JsonValue::parse(&text).unwrap())
            .build();
        assert_eq!(restarted.cache().len(), requests.len());
        assert!(restarted.config().cache_snapshot().is_none());
        for (request, original) in requests.iter().zip(&originals) {
            let replay = restarted.handle(request).unwrap();
            assert_eq!(replay.cache, CacheOutcome::Hit, "{}", request.to_json());
            assert_eq!(replay.report, original.report);
            assert_eq!(
                replay.report.runtime_s.to_bits(),
                original.report.runtime_s.to_bits()
            );
            assert_eq!(replay.report.to_json(), original.report.to_json());
        }
        let stats = restarted.stats();
        assert_eq!(stats.cold_solves, 0);
        assert_eq!(stats.warm_hits, 0);
        assert_eq!(stats.warm_fallbacks, 0);
        assert_eq!(stats.exact_hits, requests.len());

        // A rejected snapshot surfaces as an error through try_build.
        let err = ServiceConfig::new(quick_config())
            .with_cache_snapshot(JsonValue::object())
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
    }

    #[test]
    fn stats_snapshots_are_never_torn() {
        // Regression: `cached_reports` used to be read under a different
        // lock than the cache counters, so a snapshot could show an entry
        // count that disagreed with the cache's own arithmetic mid-burst.
        // Hammer the service from several threads while polling stats: the
        // CacheStats invariants must hold on *every* snapshot.
        let service = std::sync::Arc::new(
            ServiceConfig::new(quick_config())
                .with_cache_capacity(4)
                .build(),
        );
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..3u64)
            .map(|w| {
                let service = std::sync::Arc::clone(&service);
                std::thread::spawn(move || {
                    for seed in 0..8u64 {
                        service
                            .handle(&SolveRequest::catalog("paper_default", 100 * w + seed))
                            .unwrap();
                    }
                })
            })
            .collect();
        let poller = {
            let service = std::sync::Arc::clone(&service);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut polls = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let stats = service.stats();
                    let cache = stats.cache;
                    assert_eq!(stats.cached_reports, cache.entries, "{stats:?}");
                    assert_eq!(
                        cache.exact_hits + cache.exact_misses,
                        cache.exact_lookups(),
                        "{cache:?}"
                    );
                    assert_eq!(
                        cache.insertions - cache.evictions,
                        cache.entries as u64,
                        "{cache:?}"
                    );
                    assert!(cache.entries <= cache.capacity, "{cache:?}");
                    polls += 1;
                }
                polls
            })
        };
        for worker in workers {
            worker.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(poller.join().unwrap() > 0);
        let final_stats = service.stats();
        assert_eq!(final_stats.cached_reports, final_stats.cache.entries);
        assert!(final_stats.cache.entries <= 4);
    }

    #[test]
    fn v2_bodies_are_answered_with_the_v2_envelope() {
        let service = quick_service();
        let ok = service.handle_json(
            "{\"proto\": \"quhe-serve/v2\", \"id\": \"w1\", \
             \"scenario\": {\"catalog\": \"paper_default\", \"seed\": 5}}",
        );
        let value = JsonValue::parse(&ok).unwrap();
        assert_eq!(
            value.get("proto").and_then(JsonValue::as_str),
            Some("quhe-serve/v2")
        );
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(true));
        let response = SolveResponse::from_json_value(value.get("result").unwrap()).unwrap();
        assert_eq!(response.id.as_deref(), Some("w1"));

        let bad = service.handle_json(
            "{\"proto\": \"quhe-serve/v2\", \"id\": \"w2\", \
             \"scenario\": {\"catalog\": \"paper_default\", \"seed\": 1}, \
             \"solver\": \"atlantis\"}",
        );
        let value = JsonValue::parse(&bad).unwrap();
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(value.get("id").and_then(JsonValue::as_str), Some("w2"));
        let error = value.get("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(JsonValue::as_str),
            Some("invalid_request")
        );
        assert!(error
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("atlantis"));

        // Scenario-domain failures keep their own stable kind.
        let unknown_world = service.handle_json(
            "{\"proto\": \"quhe-serve/v2\", \"id\": \"w3\", \
             \"scenario\": {\"catalog\": \"atlantis\", \"seed\": 1}}",
        );
        let value = JsonValue::parse(&unknown_world).unwrap();
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("mec")
        );
    }

    #[test]
    fn concurrent_cold_requests_match_a_serial_service() {
        // Two worlds of different shapes, so neither can donate a warm
        // anchor to the other: both are served cold, concurrently, through
        // one service, and each equals a fresh serial service's solve (wall
        // clocks differ; the solutions must not).
        let requests = [
            SolveRequest::catalog("far_edge", 1),
            SolveRequest::catalog("bursty_workload", 1),
        ];
        let service = quick_service();
        let barrier = std::sync::Barrier::new(requests.len());
        let concurrent: Vec<SolveResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|request| {
                    let (service, barrier) = (&service, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        service.handle(request).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (request, response) in requests.iter().zip(&concurrent) {
            assert_eq!(response.cache, CacheOutcome::Cold, "{}", request.to_json());
            let serial = quick_service().handle(request).unwrap();
            assert_eq!(serial.cache, CacheOutcome::Cold);
            assert_eq!(
                serial.report.objective.to_bits(),
                response.report.objective.to_bits(),
                "{}",
                request.to_json()
            );
            assert_eq!(serial.report.variables, response.report.variables);
        }
        assert_eq!(service.stats().cold_solves, requests.len());
    }
}
