//! The serve protocol's request side: [`SolveRequest`] and the
//! [`ScenarioSpec`] ways of naming a scenario.
//!
//! A request is a JSON object:
//!
//! ```json
//! {
//!   "id": "req-17",
//!   "scenario": {"catalog": "paper_default", "seed": 42},
//!   "solver": "quhe",
//!   "spec": { ... }
//! }
//! ```
//!
//! * `id` (optional) — an opaque correlation token echoed in the response.
//! * `scenario` (required) — one of the three [`ScenarioSpec`] shapes.
//! * `solver` (optional, default `"quhe"`) — a registry name.
//! * `spec` (optional, default cold) — a serialized [`SolveSpec`], exactly
//!   the shape embedded in every serialized `SolveReport`.
//!
//! Because the underlying [`quhe_core::json`] parser rejects duplicate
//! object keys, a request cannot smuggle two conflicting values for the same
//! field past the service.

use quhe_core::error::{QuheError, QuheResult};
use quhe_core::json::JsonValue;
use quhe_core::solver::SolveSpec;

/// Upper bound on `num_clients` an inline request may ask for. Requests are
/// untrusted input, and a cold solve's cost grows roughly cubically with the
/// client count: on a 2-vCPU x86_64 host, cold inline solves at the default
/// configuration took at most 0.47 s at 20 clients, 1.55 s at 24 and 3.68 s
/// at 32. The bound is the largest measured size that fits a 1 s budget;
/// the catalogue worlds (up to 32 clients) are not limited by it.
pub const MAX_INLINE_CLIENTS: usize = 20;

/// Upper bound on the resolved client count of a request with
/// `"instrumentation": "full"`. Full instrumentation adds the Fig. 4(d)
/// interior-point polish of Stage 3, which dominates the solve: on a 2-vCPU
/// x86_64 host, full inline solves took at most 0.51 s at 8 clients and
/// 1.04 s at 10, and a full `dense_cell` solve (32 clients) about 45 s.
/// Checked once the scenario is resolved, so it covers every scenario shape.
pub const MAX_FULL_INSTRUMENTATION_CLIENTS: usize = 8;

/// Upper bound on `drift_step`. Resolving a drifted world replays that many
/// deterministic drift steps, so an unbounded value would be a CPU
/// denial-of-service knob on an untrusted field.
pub const MAX_DRIFT_STEP: usize = 512;

/// Upper bound on `spec.threads`. A solve's Stage-3 multi-start runs on a
/// scoped pool of that many OS threads, so an unbounded value would let one
/// request spawn arbitrarily many threads.
pub const MAX_SPEC_THREADS: usize = 64;

/// Upper bound on `spec.multi_start_budget`: every unit is one more Stage-3
/// descent per new `lambda` surface, and the budget sizes an allocation, so
/// an unbounded value would be a CPU and memory knob on an untrusted field.
pub const MAX_MULTI_START_BUDGET: usize = 64;

/// How a request names the scenario to solve.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// A named catalogue world at a seed:
    /// `{"catalog": "paper_default", "seed": 42}`.
    Catalog {
        /// Registered name in the service's `ScenarioCatalog`.
        name: String,
        /// Generation seed.
        seed: u64,
    },
    /// A catalogue world observed after `step` steps of the serve layer's
    /// fixed drift model (±1 % per-step channel and key-rate drift, no
    /// discrete events):
    /// `{"catalog": "paper_default", "seed": 42, "drift_step": 3}`.
    ///
    /// The drifted world keeps the catalogue world's *shape* (same clients,
    /// routes, budgets and degree choices), so it shares the base request's
    /// shape fingerprint and is the protocol's way of asking for a
    /// warm-start-eligible near miss deterministically.
    Drifted {
        /// Registered catalogue name.
        name: String,
        /// Generation seed (of both the base world and the drift).
        seed: u64,
        /// Number of drift steps applied (must be at least 1).
        step: usize,
    },
    /// An inline parameterization:
    /// `{"inline": {"num_clients": 8, "seed": 3, ...}}`.
    Inline(InlineScenario),
}

/// Inline scenario parameters: the paper's world scaled to `num_clients`
/// (clients drawn with `seed`, QKD side the synthetic two-level tree of the
/// same size and seed), with optional budget overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineScenario {
    /// Number of clients (and QKD routes).
    pub num_clients: usize,
    /// Placement / fading / topology seed.
    pub seed: u64,
    /// Override of the total FDMA bandwidth in Hz.
    pub total_bandwidth_hz: Option<f64>,
    /// Override of the total server compute in Hz.
    pub total_server_frequency_hz: Option<f64>,
    /// Override of every client's maximum transmit power in W.
    pub max_power_w: Option<f64>,
    /// Override of every client's maximum CPU frequency in Hz.
    pub max_client_frequency_hz: Option<f64>,
    /// Override of the CKKS degree choice set (default the paper's
    /// `{2^15, 2^16, 2^17}`).
    pub lambda_choices: Option<Vec<u64>>,
}

impl InlineScenario {
    /// A plain inline spec with no overrides.
    pub fn new(num_clients: usize, seed: u64) -> Self {
        Self {
            num_clients,
            seed,
            total_bandwidth_hz: None,
            total_server_frequency_hz: None,
            max_power_w: None,
            max_client_frequency_hz: None,
            lambda_choices: None,
        }
    }
}

fn malformed(detail: &str) -> QuheError {
    QuheError::InvalidConfig {
        reason: format!("malformed SolveRequest JSON: {detail}"),
    }
}

fn u64_field(value: &JsonValue, key: &str) -> QuheResult<u64> {
    value
        .get(key)
        .ok_or_else(|| malformed(&format!("missing field '{key}'")))?
        .as_u64()
        .ok_or_else(|| malformed(&format!("field '{key}' must be a non-negative integer")))
}

fn opt_f64_field(value: &JsonValue, key: &str) -> QuheResult<Option<f64>> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(other) => {
            Ok(Some(other.as_f64().ok_or_else(|| {
                malformed(&format!("field '{key}' must be a number"))
            })?))
        }
    }
}

impl ScenarioSpec {
    /// Serializes to the protocol's `scenario` JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            ScenarioSpec::Catalog { name, seed } => JsonValue::object()
                .with("catalog", JsonValue::String(name.clone()))
                .with("seed", JsonValue::from_u64(*seed)),
            ScenarioSpec::Drifted { name, seed, step } => JsonValue::object()
                .with("catalog", JsonValue::String(name.clone()))
                .with("seed", JsonValue::from_u64(*seed))
                .with("drift_step", JsonValue::from_usize(*step)),
            ScenarioSpec::Inline(inline) => {
                let mut body = JsonValue::object()
                    .with("num_clients", JsonValue::from_usize(inline.num_clients))
                    .with("seed", JsonValue::from_u64(inline.seed));
                for (key, value) in [
                    ("total_bandwidth_hz", inline.total_bandwidth_hz),
                    (
                        "total_server_frequency_hz",
                        inline.total_server_frequency_hz,
                    ),
                    ("max_power_w", inline.max_power_w),
                    ("max_client_frequency_hz", inline.max_client_frequency_hz),
                ] {
                    if let Some(v) = value {
                        body.set(key, JsonValue::from_f64(v));
                    }
                }
                if let Some(lambda) = &inline.lambda_choices {
                    body.set("lambda_choices", JsonValue::from_u64_slice(lambda));
                }
                JsonValue::object().with("inline", body)
            }
        }
    }

    /// Parses the protocol's `scenario` JSON object.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the first missing or malformed
    /// field; a spec with neither `catalog` nor `inline` is rejected.
    pub fn from_json_value(value: &JsonValue) -> QuheResult<Self> {
        if let Some(inline) = value.get("inline") {
            // Conflicting shapes are rejected, not silently resolved: an
            // inline spec must not also carry catalogue fields, which would
            // otherwise be dropped and solve a different world than the
            // client asked for.
            for key in ["catalog", "seed", "drift_step"] {
                if value.get(key).is_some() {
                    return Err(malformed(&format!(
                        "scenario mixes 'inline' with '{key}'; pick one shape"
                    )));
                }
            }
            let num_clients_raw = u64_field(inline, "num_clients")?;
            if num_clients_raw == 0 {
                return Err(malformed("inline num_clients must be at least 1"));
            }
            if num_clients_raw > MAX_INLINE_CLIENTS as u64 {
                return Err(malformed(&format!(
                    "inline num_clients {num_clients_raw} exceeds the service \
                     limit of {MAX_INLINE_CLIENTS}"
                )));
            }
            let num_clients = num_clients_raw as usize;
            let lambda_choices = match inline.get("lambda_choices") {
                None | Some(JsonValue::Null) => None,
                Some(other) => Some(
                    other
                        .as_array()
                        .ok_or_else(|| malformed("field 'lambda_choices' must be an array"))?
                        .iter()
                        .map(|v| {
                            v.as_u64().ok_or_else(|| {
                                malformed("field 'lambda_choices' must hold integers")
                            })
                        })
                        .collect::<QuheResult<Vec<u64>>>()?,
                ),
            };
            return Ok(ScenarioSpec::Inline(InlineScenario {
                num_clients,
                seed: u64_field(inline, "seed")?,
                total_bandwidth_hz: opt_f64_field(inline, "total_bandwidth_hz")?,
                total_server_frequency_hz: opt_f64_field(inline, "total_server_frequency_hz")?,
                max_power_w: opt_f64_field(inline, "max_power_w")?,
                max_client_frequency_hz: opt_f64_field(inline, "max_client_frequency_hz")?,
                lambda_choices,
            }));
        }
        if let Some(name) = value.get("catalog") {
            let name = name
                .as_str()
                .ok_or_else(|| malformed("field 'catalog' must be a string"))?
                .to_string();
            let seed = u64_field(value, "seed")?;
            return match value.get("drift_step") {
                None | Some(JsonValue::Null) => Ok(ScenarioSpec::Catalog { name, seed }),
                Some(step) => {
                    let step = step.as_usize().ok_or_else(|| {
                        malformed("field 'drift_step' must be a non-negative integer")
                    })?;
                    if step == 0 {
                        return Err(malformed(
                            "drift_step must be at least 1 (omit it for the undrifted world)",
                        ));
                    }
                    if step > MAX_DRIFT_STEP {
                        return Err(malformed(&format!(
                            "drift_step {step} exceeds the service limit of {MAX_DRIFT_STEP}"
                        )));
                    }
                    Ok(ScenarioSpec::Drifted { name, seed, step })
                }
            };
        }
        Err(malformed(
            "scenario must name a world via 'catalog' or 'inline'",
        ))
    }
}

/// One solve request: a scenario, a solver name and a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Opaque correlation token, echoed in the response.
    pub id: Option<String>,
    /// The scenario to solve.
    pub scenario: ScenarioSpec,
    /// Registry name of the solver to run (default `"quhe"`).
    pub solver: String,
    /// The solve spec (default [`SolveSpec::cold`]).
    pub spec: SolveSpec,
}

impl SolveRequest {
    /// A cold `quhe` request for a catalogue world.
    pub fn catalog(name: &str, seed: u64) -> Self {
        Self {
            id: None,
            scenario: ScenarioSpec::Catalog {
                name: name.to_string(),
                seed,
            },
            solver: "quhe".to_string(),
            spec: SolveSpec::cold(),
        }
    }

    /// A cold `quhe` request for a drifted catalogue world.
    pub fn drifted(name: &str, seed: u64, step: usize) -> Self {
        Self {
            scenario: ScenarioSpec::Drifted {
                name: name.to_string(),
                seed,
                step,
            },
            ..Self::catalog(name, seed)
        }
    }

    /// Sets the correlation id.
    #[must_use]
    pub fn with_id(mut self, id: &str) -> Self {
        self.id = Some(id.to_string());
        self
    }

    /// Sets the solver name.
    #[must_use]
    pub fn with_solver(mut self, solver: &str) -> Self {
        self.solver = solver.to_string();
        self
    }

    /// Sets the solve spec.
    #[must_use]
    pub fn with_spec(mut self, spec: SolveSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Serializes to the request JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let mut value = JsonValue::object();
        if let Some(id) = &self.id {
            value.set("id", JsonValue::String(id.clone()));
        }
        value
            .with("scenario", self.scenario.to_json_value())
            .with("solver", JsonValue::String(self.solver.clone()))
            .with("spec", self.spec.to_json_value())
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_compact_string()
    }

    /// Parses a request JSON object.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the first missing or malformed
    /// field.
    pub fn from_json_value(value: &JsonValue) -> QuheResult<Self> {
        let id = match value.get("id") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(
                other
                    .as_str()
                    .ok_or_else(|| malformed("field 'id' must be a string"))?
                    .to_string(),
            ),
        };
        let scenario = ScenarioSpec::from_json_value(
            value
                .get("scenario")
                .ok_or_else(|| malformed("missing field 'scenario'"))?,
        )?;
        let solver = match value.get("solver") {
            None | Some(JsonValue::Null) => "quhe".to_string(),
            Some(other) => other
                .as_str()
                .ok_or_else(|| malformed("field 'solver' must be a string"))?
                .to_string(),
        };
        let spec = match value.get("spec") {
            None | Some(JsonValue::Null) => SolveSpec::cold(),
            Some(other) => SolveSpec::from_json_value(other)?,
        };
        if let Some(threads) = spec.threads().filter(|&t| t > MAX_SPEC_THREADS) {
            return Err(malformed(&format!(
                "spec.threads {threads} exceeds the service limit of {MAX_SPEC_THREADS}"
            )));
        }
        if spec.multi_start_budget() > MAX_MULTI_START_BUDGET {
            return Err(malformed(&format!(
                "spec.multi_start_budget {} exceeds the service limit of \
                 {MAX_MULTI_START_BUDGET}",
                spec.multi_start_budget()
            )));
        }
        Ok(Self {
            id,
            scenario,
            solver,
            spec,
        })
    }

    /// Parses a request JSON string.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] for malformed JSON (including duplicate
    /// object keys) or a malformed request shape.
    pub fn from_json(text: &str) -> QuheResult<Self> {
        let value = JsonValue::parse(text).map_err(|e| QuheError::InvalidConfig {
            reason: format!("malformed SolveRequest JSON: {e}"),
        })?;
        Self::from_json_value(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quhe_core::solver::InstrumentationLevel;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = [
            SolveRequest::catalog("paper_default", 42).with_id("req-1"),
            SolveRequest::drifted("far_edge", 7, 3).with_solver("aa"),
            SolveRequest {
                id: None,
                scenario: ScenarioSpec::Inline(InlineScenario {
                    num_clients: 8,
                    seed: 3,
                    total_bandwidth_hz: Some(5e6),
                    total_server_frequency_hz: None,
                    max_power_w: Some(0.4),
                    max_client_frequency_hz: None,
                    lambda_choices: Some(vec![1 << 14, 1 << 15]),
                }),
                solver: "quhe".to_string(),
                spec: SolveSpec::single_start().with_instrumentation(InstrumentationLevel::Minimal),
            },
        ];
        for request in requests {
            let parsed = SolveRequest::from_json(&request.to_json()).unwrap();
            assert_eq!(parsed, request);
        }
    }

    #[test]
    fn defaults_fill_solver_and_spec() {
        let request = SolveRequest::from_json(
            "{\"scenario\": {\"catalog\": \"paper_default\", \"seed\": 1}}",
        )
        .unwrap();
        assert_eq!(request.solver, "quhe");
        assert_eq!(request.spec, SolveSpec::cold());
        assert_eq!(request.id, None);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (text, needle) in [
            ("{}", "missing field 'scenario'"),
            ("{\"scenario\": {}}", "'catalog' or 'inline'"),
            (
                "{\"scenario\": {\"catalog\": \"x\"}}",
                "missing field 'seed'",
            ),
            (
                "{\"scenario\": {\"catalog\": \"x\", \"seed\": 1, \"drift_step\": 0}}",
                "drift_step must be at least 1",
            ),
            (
                "{\"scenario\": {\"inline\": {\"num_clients\": 0, \"seed\": 1}}}",
                "num_clients must be at least 1",
            ),
            (
                "{\"scenario\": {\"inline\": {\"num_clients\": 6, \"seed\": 1}, \
                 \"drift_step\": 2}}",
                "mixes 'inline' with 'drift_step'",
            ),
            (
                "{\"scenario\": {\"inline\": {\"num_clients\": 18446744073709551615, \
                 \"seed\": 1}}}",
                "exceeds the service limit of 20",
            ),
            (
                "{\"scenario\": {\"inline\": {\"num_clients\": 21, \"seed\": 1}}}",
                "inline num_clients 21 exceeds the service limit of 20",
            ),
            (
                "{\"scenario\": {\"catalog\": \"x\", \"seed\": 1, \"drift_step\": 100000}}",
                "exceeds the service limit of 512",
            ),
            (
                "{\"scenario\": {\"catalog\": \"x\", \"seed\": 1}, \"spec\": \
                 {\"start\": {\"mode\": \"cold\"}, \"multi_start\": null, \
                 \"multi_start_budget\": null, \"threads\": 100000, \"tolerance\": null, \
                 \"instrumentation\": \"standard\"}}",
                "spec.threads 100000 exceeds the service limit of 64",
            ),
            (
                "{\"scenario\": {\"catalog\": \"x\", \"seed\": 1}, \"spec\": \
                 {\"start\": {\"mode\": \"cold\"}, \"multi_start\": null, \
                 \"multi_start_budget\": 18446744073709551615, \"threads\": null, \
                 \"tolerance\": null, \"instrumentation\": \"standard\"}}",
                "spec.multi_start_budget 18446744073709551615 exceeds the service limit of 64",
            ),
            (
                "{\"scenario\": {\"catalog\": \"x\", \"inline\": {\"num_clients\": 6, \
                 \"seed\": 1}}}",
                "mixes 'inline' with 'catalog'",
            ),
            ("not json", "malformed SolveRequest JSON"),
        ] {
            let err = SolveRequest::from_json(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn duplicate_keys_in_a_request_are_rejected() {
        let err = SolveRequest::from_json(
            "{\"scenario\": {\"catalog\": \"a\", \"seed\": 1, \"seed\": 2}}",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("duplicate object key 'seed'"), "{err}");
    }
}
