//! Scenario generators and the named scenario registry.
//!
//! The paper evaluates a single world — six clients in a 1 km cell running
//! the NLP workload of Section VI-A — but the reproduction targets many more:
//! dense cells, heterogeneous device fleets, far-edge deployments, bursty
//! workloads. This module makes worlds first-class: a [`ScenarioGenerator`]
//! turns a seed into a complete [`MecScenario`] deterministically, and a
//! [`ScenarioRegistry`] holds generators by name so experiment harnesses can
//! iterate "every known scenario" without hard-coding the list.
//!
//! The five built-in worlds of [`ScenarioRegistry::builtin`] are plain
//! functions of the client count and the seed, each holding its world's
//! constants. They are seed-deterministic (same seed, same scenario — byte
//! for byte) and every produced scenario passes [`MecScenario::new`]
//! validation. Other worlds implement [`ScenarioGenerator`] and plug in
//! through [`ScenarioRegistry::register`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::ChannelModel;
use crate::error::{MecError, MecResult};
use crate::scenario::{ClientProfile, MecScenario};

/// A named, seed-deterministic source of MEC scenarios.
///
/// Implementations must be pure functions of `(self, seed)`: calling
/// [`ScenarioGenerator::generate`] twice with the same seed must produce
/// identical scenarios, so that experiments are reproducible and batch grids
/// can be re-run incrementally.
pub trait ScenarioGenerator: Send + Sync {
    /// Registry key, e.g. `"dense_cell"`.
    fn name(&self) -> &str;

    /// One-line human description of the world this generator models.
    fn description(&self) -> &str;

    /// Number of clients in the generated scenarios.
    fn num_clients(&self) -> usize;

    /// Generates the scenario for `seed`.
    fn generate(&self, seed: u64) -> MecScenario;
}

/// The built-in worlds. Each is a plain function of the client count and
/// the seed; this enum only names them for the registry.
enum World {
    PaperDefault,
    DenseCell,
    HeterogeneousDevices,
    FarEdge,
    BurstyWorkload,
}

impl ScenarioGenerator for World {
    fn name(&self) -> &str {
        match self {
            World::PaperDefault => "paper_default",
            World::DenseCell => "dense_cell",
            World::HeterogeneousDevices => "heterogeneous_devices",
            World::FarEdge => "far_edge",
            World::BurstyWorkload => "bursty_workload",
        }
    }

    fn description(&self) -> &str {
        match self {
            World::PaperDefault => {
                "the paper's Section VI-A world: 6 clients uniform in a 1 km cell, NLP workload"
            }
            World::DenseCell => {
                "dense small cell: 32+ clients in a 500 m radius, budgets scaled with the population"
            }
            World::HeterogeneousDevices => {
                "mixed device fleet: phone / laptop / edge-gateway classes with distinct CPU, power and privacy weights"
            }
            World::FarEdge => {
                "far-edge deployment: 2–5 km clients with weak channels and 0.5 W amplifiers"
            }
            World::BurstyWorkload => {
                "heavy-tailed workload: bounded-Pareto upload sizes and token counts (few clients carry most load)"
            }
        }
    }

    fn num_clients(&self) -> usize {
        match self {
            World::PaperDefault => 6,
            World::DenseCell => 32,
            World::HeterogeneousDevices => 12,
            World::FarEdge => 8,
            World::BurstyWorkload => 10,
        }
    }

    fn generate(&self, seed: u64) -> MecScenario {
        let num_clients = self.num_clients();
        match self {
            World::PaperDefault => MecScenario::paper_with_num_clients(num_clients, seed),
            World::DenseCell => dense_cell(num_clients, seed),
            World::HeterogeneousDevices => heterogeneous_devices(num_clients, seed),
            World::FarEdge => far_edge(num_clients, seed),
            World::BurstyWorkload => bursty_workload(num_clients, seed),
        }
    }
}

/// Samples an area-uniform position in the annulus between the two radii
/// and the composite channel gain at that distance: `(distance, gain)`.
fn place_client<R: Rng + ?Sized>(
    rng: &mut R,
    channel: &ChannelModel,
    min_radius_m: f64,
    max_radius_m: f64,
) -> (f64, f64) {
    let min_sq = (min_radius_m / max_radius_m).powi(2);
    let radius = max_radius_m * rng.gen_range(min_sq..1.0f64).sqrt();
    let gain = channel
        .sample_gain(radius, rng)
        .expect("annulus radii are positive");
    (radius, gain)
}

/// Budgets grow with the population relative to the paper's six-client
/// cell, so the per-client share of bandwidth and server CPU is preserved
/// and the scenario stresses allocation, not starvation.
fn scaled_cell(clients: Vec<ClientProfile>, channel: &ChannelModel) -> MecScenario {
    let scale = clients.len() as f64 / 6.0;
    MecScenario::new(
        clients,
        10e6 * scale,
        20e9 * scale,
        1e-28,
        channel.noise_psd,
    )
    .expect("population-scaled budgets are positive")
}

/// A dense small cell: the paper's clients packed into a 500 m radius.
fn dense_cell(num_clients: usize, seed: u64) -> MecScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let channel = ChannelModel::default();
    let clients = (0..num_clients)
        .map(|i| {
            let (radius, gain) = place_client(&mut rng, &channel, 25.0, 500.0);
            ClientProfile::paper(radius, gain, i)
        })
        .collect();
    scaled_cell(clients, &channel)
}

/// A mixed fleet of device classes — phones, laptops and edge gateways — with
/// different CPU budgets, power amplifiers, switched capacitances and privacy
/// weights. Each client draws its class, then its position.
fn heterogeneous_devices(num_clients: usize, seed: u64) -> MecScenario {
    // `(max CPU Hz, max power W, capacitance, privacy weight)` per class.
    const DEVICE_CLASSES: [(f64, f64, f64, f64); 3] = [
        (1.5e9, 0.1, 3e-28, 0.3),  // phone: weak CPU, privacy-sensitive
        (3.0e9, 0.2, 1e-28, 0.1),  // laptop: the paper's client
        (4.5e9, 0.4, 5e-29, 0.05), // edge gateway: strong CPU, aggregated data
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let channel = ChannelModel::default();
    let clients = (0..num_clients)
        .map(|_| {
            let (max_freq, max_power, capacitance, privacy) =
                DEVICE_CLASSES[rng.gen_range(0..DEVICE_CLASSES.len())];
            let (radius, gain) = place_client(&mut rng, &channel, 50.0, 1000.0);
            ClientProfile {
                client_capacitance: capacitance,
                max_client_frequency_hz: max_freq,
                max_power_w: max_power,
                privacy_weight: privacy,
                ..ClientProfile::paper(radius, gain, 0)
            }
        })
        .collect();
    scaled_cell(clients, &channel)
}

/// Far-edge clients: 2–5 km away (rural and industrial deployments), with
/// weak channels and a 0.5 W amplifier to partially compensate.
fn far_edge(num_clients: usize, seed: u64) -> MecScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let channel = ChannelModel::default();
    let clients = (0..num_clients)
        .map(|i| {
            let (radius, gain) = place_client(&mut rng, &channel, 2_000.0, 5_000.0);
            ClientProfile {
                max_power_w: 0.5,
                ..ClientProfile::paper(radius, gain, i)
            }
        })
        .collect();
    scaled_cell(clients, &channel)
}

/// A bursty workload: upload sizes and token counts follow a bounded
/// Pareto distribution with tail index 1.2, so a few clients carry most of
/// the load. Each client draws its position, then its burst.
fn bursty_workload(num_clients: usize, seed: u64) -> MecScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let channel = ChannelModel::default();
    let clients = (0..num_clients)
        .map(|i| {
            let (radius, gain) = place_client(&mut rng, &channel, 50.0, 1000.0);
            // Inverse-CDF sample of the multiplier, capped at 20.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let burst = (1.0 / u.powf(1.0 / 1.2)).min(20.0);
            // Tokens scale with the same burst so compute load follows the
            // upload load; tokens_per_sample stays at the paper's 10.
            ClientProfile {
                upload_bits: 1e9 * burst,
                tokens: (40.0 * burst).round(),
                ..ClientProfile::paper(radius, gain, i)
            }
        })
        .collect();
    scaled_cell(clients, &channel)
}

/// A name-keyed collection of scenario generators.
///
/// The registry is an offline, in-process catalogue: it is built once
/// (typically via [`ScenarioRegistry::builtin`]), optionally extended with
/// custom generators, and then read concurrently by experiment harnesses
/// (`&ScenarioRegistry` is `Send + Sync`).
#[derive(Default)]
pub struct ScenarioRegistry {
    generators: Vec<Box<dyn ScenarioGenerator>>,
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of built-in worlds: `paper_default`, `dense_cell`,
    /// `heterogeneous_devices`, `far_edge` and `bursty_workload`.
    pub fn builtin() -> Self {
        let mut registry = Self::new();
        for world in [
            World::PaperDefault,
            World::DenseCell,
            World::HeterogeneousDevices,
            World::FarEdge,
            World::BurstyWorkload,
        ] {
            registry
                .register(Box::new(world))
                .expect("built-in names are unique");
        }
        registry
    }

    /// Registers a generator under its [`ScenarioGenerator::name`].
    ///
    /// # Errors
    /// Returns [`MecError::InvalidParameter`] if a generator with the same
    /// name is already registered (names are the lookup key, so shadowing
    /// would silently change experiment grids).
    pub fn register(&mut self, generator: Box<dyn ScenarioGenerator>) -> MecResult<()> {
        if self.get(generator.name()).is_some() {
            return Err(MecError::InvalidParameter {
                reason: format!(
                    "scenario generator '{}' is already registered",
                    generator.name()
                ),
            });
        }
        self.generators.push(generator);
        Ok(())
    }

    /// Looks up a generator by name.
    pub fn get(&self, name: &str) -> Option<&dyn ScenarioGenerator> {
        self.generators
            .iter()
            .find(|g| g.name() == name)
            .map(Box::as_ref)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.generators.iter().map(|g| g.name()).collect()
    }

    /// Iterates over the registered generators in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn ScenarioGenerator> {
        self.generators.iter().map(Box::as_ref)
    }

    /// Number of registered generators.
    pub fn len(&self) -> usize {
        self.generators.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }

    /// Generates the named scenario for `seed`.
    ///
    /// # Errors
    /// Returns [`MecError::InvalidParameter`] naming the unknown generator
    /// and listing the registered names.
    pub fn generate(&self, name: &str, seed: u64) -> MecResult<MecScenario> {
        match self.get(name) {
            Some(generator) => Ok(generator.generate(seed)),
            None => Err(MecError::InvalidParameter {
                reason: format!(
                    "unknown scenario '{name}'; registered: {}",
                    self.names().join(", ")
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtin_generators() -> ScenarioRegistry {
        ScenarioRegistry::builtin()
    }

    #[test]
    fn builtin_registry_has_the_five_worlds() {
        let registry = builtin_generators();
        assert_eq!(
            registry.names(),
            vec![
                "paper_default",
                "dense_cell",
                "heterogeneous_devices",
                "far_edge",
                "bursty_workload"
            ]
        );
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
    }

    #[test]
    fn every_builtin_generator_is_seed_deterministic() {
        let registry = builtin_generators();
        for name in registry.names() {
            let a = registry.generate(name, 42).unwrap();
            let b = registry.generate(name, 42).unwrap();
            assert_eq!(a, b, "{name} is not deterministic");
            let c = registry.generate(name, 43).unwrap();
            assert_ne!(a, c, "{name} ignores its seed");
        }
    }

    #[test]
    fn every_builtin_scenario_is_valid_and_sized_as_declared() {
        let registry = builtin_generators();
        for generator in registry.iter() {
            let scenario = generator.generate(1);
            assert_eq!(scenario.num_clients(), generator.num_clients());
            assert!(scenario.total_bandwidth_hz() > 0.0);
            assert!(scenario.total_server_frequency_hz() > 0.0);
            for client in scenario.clients() {
                assert!(client.channel_gain > 0.0, "{}", generator.name());
                assert!(client.upload_bits > 0.0);
                assert!(client.tokens > 0.0);
                assert!(client.max_power_w > 0.0);
                assert!(client.max_client_frequency_hz > 0.0);
                assert!(client.privacy_weight > 0.0);
            }
            assert!(!generator.description().is_empty());
        }
    }

    #[test]
    fn paper_default_generator_matches_the_legacy_constructor() {
        assert_eq!(
            World::PaperDefault.generate(9),
            MecScenario::paper_default(9)
        );
    }

    #[test]
    fn dense_cell_packs_clients_into_the_small_cell() {
        let scenario = World::DenseCell.generate(5);
        assert_eq!(scenario.num_clients(), 32);
        for client in scenario.clients() {
            assert!(client.distance_m <= 500.0);
        }
        // Budgets scale with the population.
        assert!((scenario.total_bandwidth_hz() - 10e6 * 32.0 / 6.0).abs() < 1.0);
    }

    #[test]
    fn heterogeneous_fleet_mixes_device_classes() {
        let scenario = heterogeneous_devices(24, 3);
        let mut frequencies: Vec<f64> = scenario
            .clients()
            .iter()
            .map(|c| c.max_client_frequency_hz)
            .collect();
        frequencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        frequencies.dedup();
        assert!(
            frequencies.len() >= 2,
            "24 seed-random draws should hit at least two classes"
        );
    }

    #[test]
    fn far_edge_clients_are_distant_and_weak() {
        let far = World::FarEdge.generate(2);
        let near = MecScenario::paper_default(2);
        for client in far.clients() {
            assert!(client.distance_m >= 2_000.0 && client.distance_m <= 5_000.0);
        }
        let avg = |s: &MecScenario| {
            s.clients().iter().map(|c| c.channel_gain).sum::<f64>() / s.num_clients() as f64
        };
        assert!(avg(&far) < avg(&near));
    }

    #[test]
    fn bursty_workload_is_heavy_tailed() {
        let scenario = bursty_workload(64, 11);
        let mut uploads: Vec<f64> = scenario.clients().iter().map(|c| c.upload_bits).collect();
        uploads.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = uploads.iter().sum();
        let top_quarter: f64 = uploads[..16].iter().sum();
        assert!(
            top_quarter > 0.5 * total,
            "top 25% of clients should carry >50% of load, got {:.0}%",
            100.0 * top_quarter / total
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut registry = builtin_generators();
        let err = registry
            .register(Box::new(World::PaperDefault))
            .unwrap_err();
        assert!(err.to_string().contains("already registered"));
    }

    #[test]
    fn unknown_scenario_error_lists_the_catalogue() {
        let registry = builtin_generators();
        let err = registry.generate("marsnet", 1).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("marsnet") && msg.contains("dense_cell"),
            "{msg}"
        );
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScenarioRegistry>();
    }
}
