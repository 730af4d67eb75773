//! The combined QKD + MEC evaluation scenario.

use quhe_mec::scenario::{ClientProfile, MecScenario};
use quhe_qkd::routes::Route;
use quhe_qkd::topology::{surfnet_scenario, Link, NetworkScenario, Node};

use crate::error::{QuheError, QuheResult};
use crate::json::JsonValue;

/// A complete system scenario: the QKD network serving the clients plus the
/// MEC-side description of the same clients.
///
/// The paper's evaluation pairs the six SURFnet routes of Table III with six
/// MEC clients placed in a 1 km cell (Section VI-A); route `n` serves client
/// `n`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemScenario {
    qkd: NetworkScenario,
    mec: MecScenario,
    /// The discrete CKKS polynomial-degree choices (constraint 17d).
    lambda_choices: Vec<u64>,
}

impl SystemScenario {
    /// Combines a QKD network scenario and an MEC scenario.
    ///
    /// # Errors
    /// Returns [`QuheError::InvalidConfig`] naming the violated consistency
    /// requirement:
    /// * client-count mismatch — the number of QKD routes differs from the
    ///   number of MEC clients (route `n` must serve client `n`);
    /// * `lambda_choices` empty — constraint (17d) needs a non-empty choice
    ///   set;
    /// * `lambda_choices` containing a duplicate or out-of-order entry — the
    ///   choice set must be strictly ascending so each set has one canonical
    ///   encoding (and fingerprint), and Stage 2's lowest-index tie-break
    ///   always favours the smaller degree.
    pub fn new(
        qkd: NetworkScenario,
        mec: MecScenario,
        lambda_choices: Vec<u64>,
    ) -> QuheResult<Self> {
        if qkd.num_clients() != mec.num_clients() {
            return Err(QuheError::InvalidConfig {
                reason: format!(
                    "client-count mismatch: the QKD network has {} routes but the MEC scenario \
                     has {} clients (route n serves client n, so the counts must match)",
                    qkd.num_clients(),
                    mec.num_clients()
                ),
            });
        }
        if lambda_choices.is_empty() {
            return Err(QuheError::InvalidConfig {
                reason: "lambda_choices must not be empty: constraint (17d) draws every \
                         polynomial degree from this set"
                    .to_string(),
            });
        }
        for (index, pair) in lambda_choices.windows(2).enumerate() {
            if pair[0] == pair[1] {
                return Err(QuheError::InvalidConfig {
                    reason: format!(
                        "lambda_choices contains duplicate entry {} (positions {} and {})",
                        pair[0],
                        index,
                        index + 1
                    ),
                });
            }
            if pair[0] > pair[1] {
                return Err(QuheError::InvalidConfig {
                    reason: format!(
                        "lambda_choices must be sorted ascending, but {} at position {} \
                         precedes {} at position {}",
                        pair[0],
                        index,
                        pair[1],
                        index + 1
                    ),
                });
            }
        }
        Ok(Self {
            qkd,
            mec,
            lambda_choices,
        })
    }

    /// Builds the paper's Section VI-A scenario: the SURFnet QKD network, six
    /// MEC clients with the paper's parameters (placement seeded by `seed`)
    /// and `lambda in {2^15, 2^16, 2^17}`.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(
            surfnet_scenario(),
            MecScenario::paper_default(seed),
            vec![1 << 15, 1 << 16, 1 << 17],
        )
        .expect("the paper scenario is internally consistent")
    }

    /// The QKD side of the scenario.
    pub fn qkd(&self) -> &NetworkScenario {
        &self.qkd
    }

    /// The MEC side of the scenario.
    pub fn mec(&self) -> &MecScenario {
        &self.mec
    }

    /// The discrete polynomial-degree choices.
    pub fn lambda_choices(&self) -> &[u64] {
        &self.lambda_choices
    }

    /// Number of clients (= number of QKD routes).
    pub fn num_clients(&self) -> usize {
        self.mec.num_clients()
    }

    /// Number of QKD links.
    pub fn num_links(&self) -> usize {
        self.qkd.num_links()
    }

    /// Replaces the MEC side (used by the Fig. 6 resource sweeps, which keep
    /// the QKD network fixed while varying budgets).
    ///
    /// # Errors
    /// Returns [`QuheError::InvalidConfig`] describing the client-count
    /// mismatch if the new MEC scenario has a different number of clients
    /// than the QKD network.
    pub fn with_mec(&self, mec: MecScenario) -> QuheResult<Self> {
        Self::new(self.qkd.clone(), mec, self.lambda_choices.clone())
    }

    /// Serializes the complete scenario to a JSON object.
    ///
    /// Every `f64` is written in Rust's shortest-round-trip form through
    /// [`JsonValue::from_f64`], so [`SystemScenario::from_json_value`]
    /// reconstructs the scenario *bit-exactly*: the round-tripped scenario is
    /// `==` to the original and carries identical
    /// [`SystemScenario::fingerprint`] /
    /// [`SystemScenario::shape_fingerprint`] digests. The serve-layer cache
    /// snapshot (`quhe-serve`) persists scenarios in this format.
    pub fn to_json_value(&self) -> JsonValue {
        let qkd = JsonValue::object()
            .with(
                "key_center",
                JsonValue::String(self.qkd.key_center().to_string()),
            )
            .with(
                "nodes",
                JsonValue::Array(
                    self.qkd
                        .nodes()
                        .iter()
                        .map(|node| {
                            JsonValue::object()
                                .with("id", JsonValue::from_usize(node.id))
                                .with("name", JsonValue::String(node.name.clone()))
                        })
                        .collect(),
                ),
            )
            .with(
                "links",
                JsonValue::Array(
                    self.qkd
                        .links()
                        .iter()
                        .map(|link| {
                            JsonValue::object()
                                .with("id", JsonValue::from_usize(link.id))
                                .with("length_km", JsonValue::from_f64(link.length_km))
                                .with("beta", JsonValue::from_f64(link.beta))
                        })
                        .collect(),
                ),
            )
            .with(
                "routes",
                JsonValue::Array(
                    self.qkd
                        .routes()
                        .iter()
                        .map(|route| {
                            JsonValue::object()
                                .with("id", JsonValue::from_usize(route.id))
                                .with("source", JsonValue::String(route.source.clone()))
                                .with("destination", JsonValue::String(route.destination.clone()))
                                .with(
                                    "link_ids",
                                    JsonValue::Array(
                                        route
                                            .link_ids
                                            .iter()
                                            .map(|&id| JsonValue::from_usize(id))
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            );
        let mec = JsonValue::object()
            .with(
                "clients",
                JsonValue::Array(
                    self.mec
                        .clients()
                        .iter()
                        .map(|c| {
                            JsonValue::object()
                                .with("distance_m", JsonValue::from_f64(c.distance_m))
                                .with("channel_gain", JsonValue::from_f64(c.channel_gain))
                                .with("upload_bits", JsonValue::from_f64(c.upload_bits))
                                .with("tokens", JsonValue::from_f64(c.tokens))
                                .with(
                                    "tokens_per_sample",
                                    JsonValue::from_f64(c.tokens_per_sample),
                                )
                                .with(
                                    "encryption_cycles",
                                    JsonValue::from_f64(c.encryption_cycles),
                                )
                                .with(
                                    "client_capacitance",
                                    JsonValue::from_f64(c.client_capacitance),
                                )
                                .with(
                                    "max_client_frequency_hz",
                                    JsonValue::from_f64(c.max_client_frequency_hz),
                                )
                                .with("max_power_w", JsonValue::from_f64(c.max_power_w))
                                .with("privacy_weight", JsonValue::from_f64(c.privacy_weight))
                        })
                        .collect(),
                ),
            )
            .with(
                "total_bandwidth_hz",
                JsonValue::from_f64(self.mec.total_bandwidth_hz()),
            )
            .with(
                "total_server_frequency_hz",
                JsonValue::from_f64(self.mec.total_server_frequency_hz()),
            )
            .with(
                "server_capacitance",
                JsonValue::from_f64(self.mec.server_capacitance()),
            )
            .with("noise_psd", JsonValue::from_f64(self.mec.noise_psd()));
        JsonValue::object().with("qkd", qkd).with("mec", mec).with(
            "lambda_choices",
            JsonValue::from_u64_slice(&self.lambda_choices),
        )
    }

    /// Deserializes a scenario serialized with
    /// [`SystemScenario::to_json_value`], re-running every construction-time
    /// validation (link ids, route references, positive budgets, consistent
    /// client counts, sorted `lambda_choices`).
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the first missing or malformed
    /// field, or the substrate/consistency error a reconstructed part fails
    /// with.
    pub fn from_json_value(value: &JsonValue) -> QuheResult<Self> {
        let field = |value: &JsonValue, key: &str| -> QuheResult<JsonValue> {
            value
                .get(key)
                .cloned()
                .ok_or_else(|| malformed_scenario(&format!("missing field '{key}'")))
        };
        let f64_field = |value: &JsonValue, key: &str| -> QuheResult<f64> {
            field(value, key)?
                .as_f64()
                .ok_or_else(|| malformed_scenario(&format!("field '{key}' must be a number")))
        };
        let usize_field = |value: &JsonValue, key: &str| -> QuheResult<usize> {
            field(value, key)?.as_usize().ok_or_else(|| {
                malformed_scenario(&format!("field '{key}' must be a non-negative integer"))
            })
        };
        let str_field = |value: &JsonValue, key: &str| -> QuheResult<String> {
            Ok(field(value, key)?
                .as_str()
                .ok_or_else(|| malformed_scenario(&format!("field '{key}' must be a string")))?
                .to_string())
        };
        let array_field = |value: &JsonValue, key: &str| -> QuheResult<Vec<JsonValue>> {
            Ok(field(value, key)?
                .as_array()
                .ok_or_else(|| malformed_scenario(&format!("field '{key}' must be an array")))?
                .to_vec())
        };

        let qkd_value = field(value, "qkd")?;
        let nodes = array_field(&qkd_value, "nodes")?
            .iter()
            .map(|node| {
                Ok(Node {
                    id: usize_field(node, "id")?,
                    name: str_field(node, "name")?,
                })
            })
            .collect::<QuheResult<Vec<_>>>()?;
        let links = array_field(&qkd_value, "links")?
            .iter()
            .map(|link| {
                Ok(Link::new(
                    usize_field(link, "id")?,
                    f64_field(link, "length_km")?,
                    f64_field(link, "beta")?,
                )?)
            })
            .collect::<QuheResult<Vec<_>>>()?;
        let routes = array_field(&qkd_value, "routes")?
            .iter()
            .map(|route| {
                let link_ids = array_field(route, "link_ids")?
                    .iter()
                    .map(|id| {
                        id.as_usize().ok_or_else(|| {
                            malformed_scenario("route link_ids must be non-negative integers")
                        })
                    })
                    .collect::<QuheResult<Vec<_>>>()?;
                Ok(Route::new(
                    usize_field(route, "id")?,
                    str_field(route, "source")?,
                    str_field(route, "destination")?,
                    link_ids,
                )?)
            })
            .collect::<QuheResult<Vec<_>>>()?;
        let qkd = NetworkScenario::new(str_field(&qkd_value, "key_center")?, nodes, links, routes)?;

        let mec_value = field(value, "mec")?;
        let clients = array_field(&mec_value, "clients")?
            .iter()
            .map(|c| {
                Ok(ClientProfile {
                    distance_m: f64_field(c, "distance_m")?,
                    channel_gain: f64_field(c, "channel_gain")?,
                    upload_bits: f64_field(c, "upload_bits")?,
                    tokens: f64_field(c, "tokens")?,
                    tokens_per_sample: f64_field(c, "tokens_per_sample")?,
                    encryption_cycles: f64_field(c, "encryption_cycles")?,
                    client_capacitance: f64_field(c, "client_capacitance")?,
                    max_client_frequency_hz: f64_field(c, "max_client_frequency_hz")?,
                    max_power_w: f64_field(c, "max_power_w")?,
                    privacy_weight: f64_field(c, "privacy_weight")?,
                })
            })
            .collect::<QuheResult<Vec<_>>>()?;
        let mec = MecScenario::new(
            clients,
            f64_field(&mec_value, "total_bandwidth_hz")?,
            f64_field(&mec_value, "total_server_frequency_hz")?,
            f64_field(&mec_value, "server_capacitance")?,
            f64_field(&mec_value, "noise_psd")?,
        )?;

        let lambda_choices = array_field(value, "lambda_choices")?
            .iter()
            .map(|v| {
                v.as_u64().ok_or_else(|| {
                    malformed_scenario("lambda_choices entries must be non-negative integers")
                })
            })
            .collect::<QuheResult<Vec<_>>>()?;
        Self::new(qkd, mec, lambda_choices)
    }
}

fn malformed_scenario(detail: &str) -> QuheError {
    QuheError::InvalidConfig {
        reason: format!("malformed SystemScenario JSON: {detail}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_consistent() {
        let s = SystemScenario::paper_default(1);
        assert_eq!(s.num_clients(), 6);
        assert_eq!(s.num_links(), 18);
        assert_eq!(s.lambda_choices(), &[1 << 15, 1 << 16, 1 << 17]);
        assert_eq!(s.qkd().num_clients(), s.mec().num_clients());
    }

    #[test]
    fn mismatched_sides_report_the_client_counts() {
        let qkd = surfnet_scenario();
        let mec = MecScenario::paper_with_num_clients(4, 1);
        let err = SystemScenario::new(qkd, mec, vec![1 << 15]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("client-count mismatch"), "{msg}");
        assert!(
            msg.contains("6 routes") && msg.contains("4 clients"),
            "{msg}"
        );
    }

    #[test]
    fn lambda_choice_validation_names_the_failure() {
        let qkd = surfnet_scenario();
        let mec = MecScenario::paper_default(1);
        let empty = SystemScenario::new(qkd.clone(), mec.clone(), vec![])
            .unwrap_err()
            .to_string();
        assert!(empty.contains("must not be empty"), "{empty}");
        let unsorted = SystemScenario::new(qkd.clone(), mec.clone(), vec![1 << 16, 1 << 15])
            .unwrap_err()
            .to_string();
        assert!(unsorted.contains("sorted ascending"), "{unsorted}");
        assert!(
            unsorted.contains("65536") && unsorted.contains("32768"),
            "{unsorted}"
        );
        let duplicate = SystemScenario::new(qkd, mec, vec![1 << 15, 1 << 15, 1 << 16])
            .unwrap_err()
            .to_string();
        assert!(duplicate.contains("duplicate entry 32768"), "{duplicate}");
    }

    #[test]
    fn every_validation_message_is_pinned_verbatim() {
        // PR 2 made `SystemScenario::new` name the violated consistency
        // requirement; downstream tests and operators match on these strings,
        // so each variant's full message is pinned here — change a message
        // and this test names exactly what regressed.
        let qkd = surfnet_scenario();
        let mec = MecScenario::paper_default(1);

        let mismatch = SystemScenario::new(
            qkd.clone(),
            MecScenario::paper_with_num_clients(4, 1),
            vec![1 << 15],
        )
        .unwrap_err();
        assert_eq!(
            mismatch.to_string(),
            "invalid configuration: client-count mismatch: the QKD network has 6 routes but \
             the MEC scenario has 4 clients (route n serves client n, so the counts must match)"
        );

        let empty = SystemScenario::new(qkd.clone(), mec.clone(), vec![]).unwrap_err();
        assert_eq!(
            empty.to_string(),
            "invalid configuration: lambda_choices must not be empty: constraint (17d) draws \
             every polynomial degree from this set"
        );

        let duplicate =
            SystemScenario::new(qkd.clone(), mec.clone(), vec![1 << 15, 1 << 15]).unwrap_err();
        assert_eq!(
            duplicate.to_string(),
            "invalid configuration: lambda_choices contains duplicate entry 32768 \
             (positions 0 and 1)"
        );

        let unsorted = SystemScenario::new(qkd, mec, vec![1 << 16, 1 << 15]).unwrap_err();
        assert_eq!(
            unsorted.to_string(),
            "invalid configuration: lambda_choices must be sorted ascending, but 65536 at \
             position 0 precedes 32768 at position 1"
        );
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        // Snapshot persistence relies on this: a scenario written to JSON and
        // read back must be `==` (every f64 bit-identical via the shortest
        // round-trip form) and must keep both canonical fingerprints.
        for seed in [1, 42] {
            let scenario = SystemScenario::paper_default(seed);
            let text = scenario.to_json_value().to_pretty_string();
            let parsed = crate::json::JsonValue::parse(&text).unwrap();
            let back = SystemScenario::from_json_value(&parsed).unwrap();
            assert_eq!(back, scenario);
            assert_eq!(back.fingerprint(), scenario.fingerprint());
            assert_eq!(back.shape_fingerprint(), scenario.shape_fingerprint());
        }
    }

    #[test]
    fn malformed_scenario_json_names_the_field() {
        let scenario = SystemScenario::paper_default(1);
        let value = scenario.to_json_value();

        let missing = SystemScenario::from_json_value(&crate::json::JsonValue::object())
            .unwrap_err()
            .to_string();
        assert!(missing.contains("missing field 'qkd'"), "{missing}");

        // Dropping a client field names it.
        let mut broken = value.clone();
        if let crate::json::JsonValue::Object(fields) = &mut broken {
            let mec = fields.iter_mut().find(|(k, _)| k == "mec").unwrap();
            if let crate::json::JsonValue::Object(mec_fields) = &mut mec.1 {
                let clients = mec_fields.iter_mut().find(|(k, _)| k == "clients").unwrap();
                if let crate::json::JsonValue::Array(items) = &mut clients.1 {
                    if let crate::json::JsonValue::Object(client) = &mut items[0] {
                        client.retain(|(k, _)| k != "tokens");
                    }
                }
            }
        }
        let err = SystemScenario::from_json_value(&broken)
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field 'tokens'"), "{err}");

        // Reconstructed parts re-run their own validation: a negative beta
        // is rejected by the QKD substrate, not silently accepted.
        let mut bad_beta = value;
        if let crate::json::JsonValue::Object(fields) = &mut bad_beta {
            let qkd = fields.iter_mut().find(|(k, _)| k == "qkd").unwrap();
            if let crate::json::JsonValue::Object(qkd_fields) = &mut qkd.1 {
                let links = qkd_fields.iter_mut().find(|(k, _)| k == "links").unwrap();
                if let crate::json::JsonValue::Array(items) = &mut links.1 {
                    if let crate::json::JsonValue::Object(link) = &mut items[0] {
                        for (k, v) in link.iter_mut() {
                            if k == "beta" {
                                *v = crate::json::JsonValue::from_f64(-1.0);
                            }
                        }
                    }
                }
            }
        }
        let err = SystemScenario::from_json_value(&bad_beta)
            .unwrap_err()
            .to_string();
        assert!(err.contains("beta must be positive"), "{err}");
    }

    #[test]
    fn with_mec_swaps_budgets() {
        let s = SystemScenario::paper_default(1);
        let swapped = s
            .with_mec(s.mec().clone().with_total_bandwidth(5e6))
            .unwrap();
        assert_eq!(swapped.mec().total_bandwidth_hz(), 5e6);
        assert_eq!(swapped.qkd(), s.qkd());
    }
}
