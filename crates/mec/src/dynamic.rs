//! Dynamic scenarios: discrete world events and seed-deterministic traces.
//!
//! The generators in [`crate::generator`] produce *static* worlds. Production
//! edge deployments are not static: clients join and leave the cell, wireless
//! channels drift, workloads burst, and applications tighten their latency
//! requirements. This module makes that evolution first-class:
//!
//! * [`ScenarioEvent`] — the atomic world changes (client join/leave,
//!   channel-gain drift, load burst, deadline tightening).
//! * [`DynamicWorld`] — a [`MecScenario`] plus the accumulated
//!   delay-priority multiplier, with [`DynamicWorld::apply`] validating and
//!   applying events (the produced scenario always passes
//!   [`MecScenario::new`] validation).
//! * [`EventTrace`] — a seed-deterministic T-step timeline over any starting
//!   world: every step carries its event list and the world after applying
//!   them, so online solvers can replay the exact same drift sequence.
//!
//! Traces are pure functions of `(initial world, seed, config)`: generating
//! the same trace twice yields identical worlds byte for byte, which the
//! online engine's differential tests rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::ChannelModel;
use crate::error::{MecError, MecResult};
use crate::scenario::{place_in_paper_cell, ClientProfile, MecScenario};

/// An atomic change to a dynamic world.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ScenarioEvent {
    /// A new client joins the cell with the given profile.
    ClientJoin {
        /// The profile of the arriving client.
        client: ClientProfile,
    },
    /// The client at `index` leaves the cell.
    ClientLeave {
        /// Index of the departing client (0-based).
        index: usize,
    },
    /// Every client's channel gain is multiplied by its drift factor
    /// (fading, mobility, blockage).
    ChannelDrift {
        /// One multiplicative factor per client, all positive.
        factors: Vec<f64>,
    },
    /// The client at `index` bursts: upload payload and token count are
    /// scaled by `factor`.
    LoadBurst {
        /// Index of the bursting client (0-based).
        index: usize,
        /// Multiplicative load factor (positive; > 1 is a burst).
        factor: f64,
    },
    /// The application tightens its latency requirement: the world's delay
    /// priority is multiplied by `factor` (>= 1 tightens).
    DeadlineTighten {
        /// Multiplicative delay-priority factor (positive).
        factor: f64,
    },
}

impl ScenarioEvent {
    /// The registry of event kinds, in the order used by trace generation.
    pub const KINDS: [&'static str; 5] = [
        "client_join",
        "client_leave",
        "channel_drift",
        "load_burst",
        "deadline_tighten",
    ];

    /// Stable machine-readable kind tag of this event.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioEvent::ClientJoin { .. } => "client_join",
            ScenarioEvent::ClientLeave { .. } => "client_leave",
            ScenarioEvent::ChannelDrift { .. } => "channel_drift",
            ScenarioEvent::LoadBurst { .. } => "load_burst",
            ScenarioEvent::DeadlineTighten { .. } => "deadline_tighten",
        }
    }

    /// Whether this event changes the number of clients — the structural
    /// changes after which a warm-started re-solve is not meaningful.
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            ScenarioEvent::ClientJoin { .. } | ScenarioEvent::ClientLeave { .. }
        )
    }
}

/// A [`MecScenario`] with the accumulated dynamic state that is not part of
/// the scenario itself: the delay-priority multiplier raised by
/// [`ScenarioEvent::DeadlineTighten`] events (the solver applies it to the
/// objective's delay weight).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DynamicWorld {
    /// The MEC scenario at this point of the timeline.
    pub scenario: MecScenario,
    /// Accumulated delay-priority multiplier (starts at 1).
    pub delay_weight_factor: f64,
}

impl DynamicWorld {
    /// Wraps a static scenario as the start of a timeline.
    pub fn new(scenario: MecScenario) -> Self {
        Self {
            scenario,
            delay_weight_factor: 1.0,
        }
    }

    /// Returns the world after applying `event`, validating the event against
    /// the current state. The scenario is rebuilt through
    /// [`MecScenario::new`], so every produced world passes full scenario
    /// validation.
    ///
    /// # Errors
    /// Returns [`MecError::InvalidParameter`] for an out-of-range client
    /// index, a removal that would empty the cell, a factor vector of the
    /// wrong length, or a non-positive/non-finite factor.
    pub fn apply(&self, event: &ScenarioEvent) -> MecResult<Self> {
        let scenario = &self.scenario;
        let mut clients = scenario.clients().to_vec();
        let mut delay_weight_factor = self.delay_weight_factor;
        match event {
            ScenarioEvent::ClientJoin { client } => clients.push(*client),
            ScenarioEvent::ClientLeave { index } => {
                if *index >= clients.len() {
                    return Err(MecError::InvalidParameter {
                        reason: format!(
                            "client_leave index {index} out of range for {} clients",
                            clients.len()
                        ),
                    });
                }
                if clients.len() == 1 {
                    return Err(MecError::InvalidParameter {
                        reason: "client_leave would empty the cell (a scenario requires at \
                                 least one client)"
                            .to_string(),
                    });
                }
                clients.remove(*index);
            }
            ScenarioEvent::ChannelDrift { factors } => {
                if factors.len() != clients.len() {
                    return Err(MecError::InvalidParameter {
                        reason: format!(
                            "channel_drift carries {} factors for {} clients",
                            factors.len(),
                            clients.len()
                        ),
                    });
                }
                for (client, &factor) in clients.iter_mut().zip(factors) {
                    check_factor("channel_drift", factor)?;
                    client.channel_gain *= factor;
                }
            }
            ScenarioEvent::LoadBurst { index, factor } => {
                check_factor("load_burst", *factor)?;
                let client = clients
                    .get_mut(*index)
                    .ok_or_else(|| MecError::InvalidParameter {
                        reason: format!("load_burst index {index} out of range"),
                    })?;
                client.upload_bits *= factor;
                client.tokens = (client.tokens * factor).max(1.0).round();
            }
            ScenarioEvent::DeadlineTighten { factor } => {
                check_factor("deadline_tighten", *factor)?;
                delay_weight_factor *= factor;
            }
        }
        Ok(Self {
            scenario: MecScenario::new(
                clients,
                scenario.total_bandwidth_hz(),
                scenario.total_server_frequency_hz(),
                scenario.server_capacitance(),
                scenario.noise_psd(),
            )?,
            delay_weight_factor,
        })
    }
}

fn check_factor(kind: &str, factor: f64) -> MecResult<()> {
    if !(factor > 0.0 && factor.is_finite()) {
        return Err(MecError::InvalidParameter {
            reason: format!("{kind} factor must be positive and finite, got {factor}"),
        });
    }
    Ok(())
}

/// Knobs of the seed-deterministic trace generator.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventTraceConfig {
    /// Number of steps after the initial world.
    pub steps: usize,
    /// Per-step relative channel-gain drift amplitude (0 disables drift; the
    /// per-client factors are drawn uniformly from `[1 - a, 1 + a]`).
    pub drift_amplitude: f64,
    /// Per-step probability of one discrete event (join/leave/burst/tighten)
    /// in addition to the drift; 0 gives a drift-only trace.
    pub event_probability: f64,
    /// Joins are suppressed at this population and leaves at
    /// `min_clients`, keeping the trace inside a solvable band.
    pub max_clients: usize,
    /// Lower population bound (must be at least 1).
    pub min_clients: usize,
}

impl Default for EventTraceConfig {
    fn default() -> Self {
        Self {
            steps: 8,
            drift_amplitude: 0.02,
            event_probability: 0.25,
            max_clients: 64,
            min_clients: 2,
        }
    }
}

impl EventTraceConfig {
    /// A drift-only trace of `steps` steps: channels drift, nothing else
    /// happens. This is the workload on which warm-started re-solves shine.
    pub fn drift_only(steps: usize) -> Self {
        Self {
            steps,
            event_probability: 0.0,
            ..Self::default()
        }
    }

    /// A frozen trace of `steps` steps: no events at all, every step's world
    /// is bit-identical to the initial one (the differential-test baseline).
    pub fn frozen(steps: usize) -> Self {
        Self {
            steps,
            drift_amplitude: 0.0,
            event_probability: 0.0,
            ..Self::default()
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    /// Returns [`MecError::InvalidParameter`] for out-of-range values.
    pub fn validate(&self) -> MecResult<()> {
        if !(0.0..1.0).contains(&self.drift_amplitude) {
            return Err(MecError::InvalidParameter {
                reason: format!(
                    "drift amplitude must lie in [0, 1), got {}",
                    self.drift_amplitude
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.event_probability) {
            return Err(MecError::InvalidParameter {
                reason: format!(
                    "event probability must lie in [0, 1], got {}",
                    self.event_probability
                ),
            });
        }
        if self.min_clients == 0 || self.min_clients > self.max_clients {
            return Err(MecError::InvalidParameter {
                reason: format!(
                    "need 1 <= min_clients <= max_clients, got {}..{}",
                    self.min_clients, self.max_clients
                ),
            });
        }
        Ok(())
    }
}

/// One step of a trace: the events of the step and the world after them.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceStep {
    /// Events applied at this step, in application order.
    pub events: Vec<ScenarioEvent>,
    /// The world after the events.
    pub world: DynamicWorld,
}

/// A seed-deterministic T-step timeline over a starting world.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventTrace {
    initial: DynamicWorld,
    steps: Vec<TraceStep>,
}

impl EventTrace {
    /// Generates a trace from `initial` with the given seed and knobs.
    ///
    /// Each step applies one [`ScenarioEvent::ChannelDrift`] (skipped when
    /// the amplitude is zero) and, with `event_probability`, one discrete
    /// event whose kind is drawn uniformly among the applicable ones (joins
    /// respect `max_clients`, leaves respect `min_clients`). Joining clients
    /// are placed like the paper's world: area-uniform in a 1 km disk with
    /// the Section VI-A workload and privacy weights cycling through the
    /// paper's values.
    ///
    /// # Errors
    /// Returns [`MecError::InvalidParameter`] for invalid knobs, or when the
    /// initial world's population already lies outside the configured
    /// `min_clients..=max_clients` band.
    pub fn generate(initial: MecScenario, seed: u64, config: &EventTraceConfig) -> MecResult<Self> {
        config.validate()?;
        // The band is an invariant of the whole trace, so a starting world
        // outside it is a configuration error, not something churn can fix
        // (joins/leaves are suppressed at the boundary, never forced).
        let population = initial.num_clients();
        if !(config.min_clients..=config.max_clients).contains(&population) {
            return Err(MecError::InvalidParameter {
                reason: format!(
                    "the initial world has {population} clients, outside the configured \
                     population band {}..={}",
                    config.min_clients, config.max_clients
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let channel = ChannelModel::default();
        let initial = DynamicWorld::new(initial);
        let mut world = initial.clone();
        let mut joined = 0usize;
        let mut steps = Vec::with_capacity(config.steps);
        for _ in 0..config.steps {
            let mut events = Vec::new();
            if config.drift_amplitude > 0.0 {
                let factors = (0..world.scenario.num_clients())
                    .map(|_| 1.0 + config.drift_amplitude * rng.gen_range(-1.0f64..1.0))
                    .collect();
                events.push(ScenarioEvent::ChannelDrift { factors });
            }
            if config.event_probability > 0.0
                && rng.gen_range(0.0f64..1.0) < config.event_probability
            {
                let population = world.scenario.num_clients();
                let mut kinds = vec!["load_burst", "deadline_tighten"];
                if population < config.max_clients {
                    kinds.push("client_join");
                }
                if population > config.min_clients {
                    kinds.push("client_leave");
                }
                let kind = kinds[rng.gen_range(0..kinds.len())];
                events.push(match kind {
                    "client_join" => {
                        joined += 1;
                        ScenarioEvent::ClientJoin {
                            client: sample_joining_client(&mut rng, &channel, population + joined),
                        }
                    }
                    "client_leave" => ScenarioEvent::ClientLeave {
                        index: rng.gen_range(0..population),
                    },
                    "load_burst" => ScenarioEvent::LoadBurst {
                        index: rng.gen_range(0..population),
                        factor: rng.gen_range(1.5f64..4.0),
                    },
                    _ => ScenarioEvent::DeadlineTighten {
                        factor: rng.gen_range(1.05f64..1.3),
                    },
                });
            }
            for event in &events {
                world = world.apply(event)?;
            }
            steps.push(TraceStep {
                events,
                world: world.clone(),
            });
        }
        Ok(Self { initial, steps })
    }

    /// The world before any step.
    pub fn initial(&self) -> &DynamicWorld {
        &self.initial
    }

    /// The trace steps, in time order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of steps after the initial world.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total number of events across all steps.
    pub fn num_events(&self) -> usize {
        self.steps.iter().map(|s| s.events.len()).sum()
    }
}

/// Samples the profile of a joining client: placed like the paper's world,
/// running the paper's NLP workload, with the privacy weight cycling through
/// the paper's values by arrival order.
fn sample_joining_client(
    rng: &mut StdRng,
    channel: &ChannelModel,
    ordinal: usize,
) -> ClientProfile {
    let (radius, gain) = place_in_paper_cell(rng, channel);
    ClientProfile::paper(radius, gain, ordinal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> DynamicWorld {
        DynamicWorld::new(MecScenario::paper_default(1))
    }

    #[test]
    fn join_and_leave_change_the_population() {
        let base = world();
        let joined = base
            .apply(&ScenarioEvent::ClientJoin {
                client: base.scenario.clients()[0],
            })
            .unwrap();
        assert_eq!(joined.scenario.num_clients(), 7);
        let left = joined
            .apply(&ScenarioEvent::ClientLeave { index: 3 })
            .unwrap();
        assert_eq!(left.scenario.num_clients(), 6);
        // Budgets are unchanged: churn shifts per-client shares, not totals.
        assert_eq!(
            left.scenario.total_bandwidth_hz(),
            base.scenario.total_bandwidth_hz()
        );
    }

    #[test]
    fn drift_scales_gains_only() {
        let base = world();
        let factors = vec![1.1, 0.9, 1.0, 1.05, 0.95, 1.02];
        let drifted = base
            .apply(&ScenarioEvent::ChannelDrift {
                factors: factors.clone(),
            })
            .unwrap();
        for ((before, after), factor) in base
            .scenario
            .clients()
            .iter()
            .zip(drifted.scenario.clients())
            .zip(&factors)
        {
            assert_eq!(after.channel_gain, before.channel_gain * factor);
            assert_eq!(after.upload_bits, before.upload_bits);
        }
    }

    #[test]
    fn burst_scales_load_and_tighten_scales_priority() {
        let base = world();
        let burst = base
            .apply(&ScenarioEvent::LoadBurst {
                index: 2,
                factor: 2.0,
            })
            .unwrap();
        assert_eq!(burst.scenario.clients()[2].upload_bits, 6e9);
        assert_eq!(burst.scenario.clients()[2].tokens, 320.0);
        assert_eq!(burst.scenario.clients()[0].upload_bits, 3e9);
        let tightened = burst
            .apply(&ScenarioEvent::DeadlineTighten { factor: 1.2 })
            .unwrap();
        assert!((tightened.delay_weight_factor - 1.2).abs() < 1e-12);
    }

    #[test]
    fn invalid_events_are_rejected_with_reasons() {
        let base = world();
        assert!(base
            .apply(&ScenarioEvent::ClientLeave { index: 9 })
            .is_err());
        assert!(base
            .apply(&ScenarioEvent::ChannelDrift {
                factors: vec![1.0; 3]
            })
            .is_err());
        assert!(base
            .apply(&ScenarioEvent::LoadBurst {
                index: 0,
                factor: 0.0
            })
            .is_err());
        assert!(base
            .apply(&ScenarioEvent::DeadlineTighten { factor: f64::NAN })
            .is_err());
        // A one-client cell cannot lose its last client.
        let mut single = base.clone();
        while single.scenario.num_clients() > 1 {
            single = single
                .apply(&ScenarioEvent::ClientLeave { index: 0 })
                .unwrap();
        }
        assert!(single
            .apply(&ScenarioEvent::ClientLeave { index: 0 })
            .is_err());
    }

    #[test]
    fn event_kinds_are_stable_and_complete() {
        let events = [
            ScenarioEvent::ClientJoin {
                client: world().scenario.clients()[0],
            },
            ScenarioEvent::ClientLeave { index: 0 },
            ScenarioEvent::ChannelDrift { factors: vec![] },
            ScenarioEvent::LoadBurst {
                index: 0,
                factor: 2.0,
            },
            ScenarioEvent::DeadlineTighten { factor: 1.1 },
        ];
        let kinds: Vec<&str> = events.iter().map(ScenarioEvent::kind).collect();
        assert_eq!(kinds, ScenarioEvent::KINDS);
        assert!(events[0].is_structural());
        assert!(events[1].is_structural());
        assert!(!events[2].is_structural());
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let config = EventTraceConfig {
            steps: 12,
            event_probability: 0.8,
            ..EventTraceConfig::default()
        };
        let a = EventTrace::generate(MecScenario::paper_default(5), 9, &config).unwrap();
        let b = EventTrace::generate(MecScenario::paper_default(5), 9, &config).unwrap();
        assert_eq!(a, b);
        let c = EventTrace::generate(MecScenario::paper_default(5), 10, &config).unwrap();
        assert_ne!(a, c, "traces must vary with the seed");
        assert_eq!(a.len(), 12);
        assert!(a.num_events() >= 12, "every step drifts");
    }

    #[test]
    fn frozen_traces_have_no_events_and_identical_worlds() {
        let initial = MecScenario::paper_default(3);
        let trace = EventTrace::generate(initial.clone(), 7, &EventTraceConfig::frozen(5)).unwrap();
        assert_eq!(trace.num_events(), 0);
        for step in trace.steps() {
            assert_eq!(step.world.scenario, initial);
            assert_eq!(step.world.delay_weight_factor, 1.0);
        }
    }

    #[test]
    fn drift_only_traces_never_change_the_population() {
        let trace = EventTrace::generate(
            MecScenario::paper_default(3),
            7,
            &EventTraceConfig::drift_only(10),
        )
        .unwrap();
        for step in trace.steps() {
            assert_eq!(step.world.scenario.num_clients(), 6);
            assert_eq!(step.events.len(), 1);
            assert_eq!(step.events[0].kind(), "channel_drift");
        }
    }

    #[test]
    fn population_stays_inside_the_configured_band() {
        let config = EventTraceConfig {
            steps: 40,
            event_probability: 1.0,
            min_clients: 4,
            max_clients: 8,
            ..EventTraceConfig::default()
        };
        let trace = EventTrace::generate(MecScenario::paper_default(2), 17, &config).unwrap();
        for step in trace.steps() {
            let n = step.world.scenario.num_clients();
            assert!((4..=8).contains(&n), "population {n} escaped the band");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let initial = MecScenario::paper_default(1);
        for config in [
            EventTraceConfig {
                drift_amplitude: 1.0,
                ..EventTraceConfig::default()
            },
            EventTraceConfig {
                event_probability: 1.5,
                ..EventTraceConfig::default()
            },
            EventTraceConfig {
                min_clients: 0,
                ..EventTraceConfig::default()
            },
            EventTraceConfig {
                min_clients: 10,
                max_clients: 5,
                ..EventTraceConfig::default()
            },
        ] {
            assert!(EventTrace::generate(initial.clone(), 1, &config).is_err());
        }
    }

    #[test]
    fn initial_world_outside_the_population_band_is_rejected() {
        // The six-client paper world cannot start a trace whose band caps the
        // population at four — churn never forces a world into the band.
        let err = EventTrace::generate(
            MecScenario::paper_default(1),
            1,
            &EventTraceConfig {
                min_clients: 2,
                max_clients: 4,
                ..EventTraceConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("outside the configured"), "{err}");
    }
}
