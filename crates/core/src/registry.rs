//! The system-scenario catalogue: named, seed-deterministic full scenarios.
//!
//! [`quhe_mec::generator::ScenarioRegistry`] produces the MEC side of a
//! world; a solvable [`SystemScenario`] also needs a QKD network with one
//! route per client and the discrete CKKS degree choices. The
//! [`ScenarioCatalog`] wires the three together: the `paper_default` world is
//! paired with the paper's SURFnet network (Tables III/IV), every other world
//! gets the seed-deterministic synthetic two-level tree of
//! [`quhe_qkd::topology::synthetic_scenario`] sized to its client count, and
//! every world shares the paper's `lambda in {2^15, 2^16, 2^17}` choice set
//! unless overridden.
//!
//! The catalogue is the unit the serve layer resolves requests against and
//! the integration tests iterate: `catalog.names() x seeds` is the standing
//! experiment grid.

use quhe_mec::generator::{ScenarioGenerator, ScenarioRegistry};
use quhe_qkd::topology::{surfnet_scenario, synthetic_scenario};

use crate::error::QuheResult;
use crate::scenario::SystemScenario;

/// A named catalogue of complete (QKD + MEC + lambda) scenarios.
#[derive(Debug)]
pub struct ScenarioCatalog {
    registry: ScenarioRegistry,
    lambda_choices: Vec<u64>,
}

impl Default for ScenarioCatalog {
    fn default() -> Self {
        Self::builtin()
    }
}

impl ScenarioCatalog {
    /// The catalogue over the built-in generator registry
    /// ([`ScenarioRegistry::builtin`]) with the paper's lambda choices.
    pub fn builtin() -> Self {
        Self::from_registry(ScenarioRegistry::builtin())
    }

    /// Wraps an arbitrary generator registry with the paper's lambda choices.
    pub fn from_registry(registry: ScenarioRegistry) -> Self {
        Self {
            registry,
            lambda_choices: vec![1 << 15, 1 << 16, 1 << 17],
        }
    }

    /// Overrides the CKKS degree choice set used for every generated
    /// scenario.
    #[must_use]
    pub fn with_lambda_choices(mut self, lambda_choices: Vec<u64>) -> Self {
        self.lambda_choices = lambda_choices;
        self
    }

    /// The underlying MEC generator registry.
    pub fn registry(&self) -> &ScenarioRegistry {
        &self.registry
    }

    /// Registers a custom generator (see
    /// [`ScenarioRegistry::register`]).
    ///
    /// # Errors
    /// Returns an error if a generator with the same name already exists.
    pub fn register(&mut self, generator: Box<dyn ScenarioGenerator>) -> QuheResult<()> {
        Ok(self.registry.register(generator)?)
    }

    /// The scenario names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.registry.names()
    }

    /// Generates the named system scenario for `seed`: the MEC side from the
    /// registry, the QKD side from the paper's SURFnet network (for the
    /// `paper_default` world, whose six clients are the Table III routes) or
    /// the synthetic tree sized to the client count (every other world —
    /// matching on the world's identity rather than an incidental client
    /// count of six), and the catalogue's lambda choices.
    ///
    /// # Errors
    /// * An unknown `name` (the error lists the registered names).
    /// * Scenario-consistency failures from [`SystemScenario::new`].
    pub fn generate(&self, name: &str, seed: u64) -> QuheResult<SystemScenario> {
        let mec = self.registry.generate(name, seed)?;
        // SURFnet is built only for the paper's world. The client-count
        // guard keeps a custom registry whose "paper_default" is not
        // actually the paper's world from being paired with an unusable
        // network.
        let surfnet = match name {
            "paper_default" => Some(surfnet_scenario()),
            _ => None,
        };
        let qkd = match surfnet {
            Some(surfnet) if surfnet.num_clients() == mec.num_clients() => surfnet,
            _ => synthetic_scenario(mec.num_clients(), seed),
        };
        SystemScenario::new(qkd, mec, self.lambda_choices.clone())
    }

    /// Generates every catalogued scenario for `seed`, in registration order.
    ///
    /// # Errors
    /// Propagates the first generation failure.
    pub fn generate_all(&self, seed: u64) -> QuheResult<Vec<(String, SystemScenario)>> {
        self.registry
            .iter()
            .map(|g| Ok((g.name().to_string(), self.generate(g.name(), seed)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quhe_mec::scenario::MecScenario;

    #[test]
    fn builtin_catalog_generates_every_world() {
        let catalog = ScenarioCatalog::builtin();
        assert!(catalog.names().len() >= 5);
        for (name, scenario) in catalog.generate_all(42).unwrap() {
            assert_eq!(
                scenario.num_clients(),
                scenario.qkd().num_clients(),
                "{name}: QKD routes must match MEC clients"
            );
            assert_eq!(scenario.lambda_choices(), &[1 << 15, 1 << 16, 1 << 17]);
        }
    }

    #[test]
    fn paper_default_world_uses_surfnet() {
        let catalog = ScenarioCatalog::builtin();
        let scenario = catalog.generate("paper_default", 42).unwrap();
        assert_eq!(scenario.qkd().key_center(), "Hilversum");
        assert_eq!(scenario, SystemScenario::paper_default(42));
    }

    #[test]
    fn larger_worlds_get_the_synthetic_network() {
        let catalog = ScenarioCatalog::builtin();
        let scenario = catalog.generate("dense_cell", 42).unwrap();
        assert_eq!(scenario.qkd().key_center(), "KeyCenter");
        assert_eq!(scenario.num_clients(), 32);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let catalog = ScenarioCatalog::builtin();
        for name in catalog.names() {
            assert_eq!(
                catalog.generate(name, 7).unwrap(),
                catalog.generate(name, 7).unwrap()
            );
            assert_ne!(
                catalog.generate(name, 7).unwrap(),
                catalog.generate(name, 8).unwrap()
            );
        }
    }

    #[test]
    fn unknown_name_is_reported_with_the_catalogue() {
        let err = ScenarioCatalog::builtin()
            .generate("atlantis", 1)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("atlantis") && msg.contains("far_edge"),
            "{msg}"
        );
    }

    #[test]
    fn custom_generators_can_be_registered() {
        struct Tiny;
        impl ScenarioGenerator for Tiny {
            fn name(&self) -> &str {
                "tiny"
            }
            fn description(&self) -> &str {
                "two clients for fast tests"
            }
            fn num_clients(&self) -> usize {
                2
            }
            fn generate(&self, seed: u64) -> MecScenario {
                MecScenario::paper_with_num_clients(2, seed)
            }
        }
        let mut catalog = ScenarioCatalog::builtin();
        catalog.register(Box::new(Tiny)).unwrap();
        let scenario = catalog.generate("tiny", 5).unwrap();
        assert_eq!(scenario.num_clients(), 2);
        assert_eq!(scenario.qkd().key_center(), "KeyCenter");
        // Registering the same name twice fails loudly.
        assert!(catalog.register(Box::new(Tiny)).is_err());
    }

    #[test]
    fn non_paper_six_client_worlds_get_the_synthetic_network() {
        // The SURFnet pairing is keyed on the world's identity, not on an
        // incidental client count of six.
        struct SixFar;
        impl ScenarioGenerator for SixFar {
            fn name(&self) -> &str {
                "six_far"
            }
            fn description(&self) -> &str {
                "six clients that are not the paper's world"
            }
            fn num_clients(&self) -> usize {
                6
            }
            fn generate(&self, seed: u64) -> MecScenario {
                MecScenario::paper_with_num_clients(6, seed)
            }
        }
        let mut catalog = ScenarioCatalog::builtin();
        catalog.register(Box::new(SixFar)).unwrap();
        let scenario = catalog.generate("six_far", 5).unwrap();
        assert_eq!(scenario.qkd().key_center(), "KeyCenter");
    }

    #[test]
    fn lambda_override_applies_to_generated_scenarios() {
        let catalog = ScenarioCatalog::builtin().with_lambda_choices(vec![1 << 14, 1 << 15]);
        let scenario = catalog.generate("far_edge", 3).unwrap();
        assert_eq!(scenario.lambda_choices(), &[1 << 14, 1 << 15]);
    }
}
