//! The MEC evaluation scenario of the paper (Section VI-A).
//!
//! Six client nodes are placed uniformly at random in a circular cell of
//! radius 1000 m around the server; each runs the paper's NLP workload
//! (160 tokens per request, 10 tokens per sample, `3 x 10^9` encrypted bits
//! to upload, `10^6` cycles of symmetric/HE-key encryption work) and has a
//! 3 GHz CPU, a 0.2 W power amplifier and a `10^-28` switched capacitance.
//! The server offers 20 GHz of compute and 10 MHz of FDMA bandwidth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::ChannelModel;
use crate::compute::{ClientComputeParams, ServerComputeParams};
use crate::error::{MecError, MecResult};
use crate::fdma::BandwidthBudget;

/// Static description of one client node.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClientProfile {
    /// Distance from the server in metres.
    pub distance_m: f64,
    /// Composite channel power gain `g_n` (path loss times Rayleigh fade).
    pub channel_gain: f64,
    /// Encrypted uplink payload `d^(tr)` in bits.
    pub upload_bits: f64,
    /// Number of tokens `d^(cmp)` in the server workload.
    pub tokens: f64,
    /// Tokens per sample `rho_n`.
    pub tokens_per_sample: f64,
    /// Client encryption cycles `f^(se)`.
    pub encryption_cycles: f64,
    /// Client switched capacitance `kappa^(c)`.
    pub client_capacitance: f64,
    /// Maximum client CPU frequency `f^(max)` in Hz.
    pub max_client_frequency_hz: f64,
    /// Maximum transmit power `p^(max)` in W.
    pub max_power_w: f64,
    /// Privacy-importance weight `varsigma_n`.
    pub privacy_weight: f64,
}

impl ClientProfile {
    /// The paper's Section VI-A client at `distance_m` with channel gain
    /// `channel_gain`: the NLP workload, a 3 GHz CPU, a 0.2 W amplifier and
    /// the privacy weight at `ordinal` in the cycle of the paper's values.
    pub(crate) fn paper(distance_m: f64, channel_gain: f64, ordinal: usize) -> Self {
        Self {
            distance_m,
            channel_gain,
            upload_bits: 3e9,
            tokens: 160.0,
            tokens_per_sample: 10.0,
            encryption_cycles: 1e6,
            client_capacitance: 1e-28,
            max_client_frequency_hz: 3e9,
            max_power_w: 0.2,
            privacy_weight: MecScenario::PAPER_PRIVACY_WEIGHTS
                [ordinal % MecScenario::PAPER_PRIVACY_WEIGHTS.len()],
        }
    }

    /// The client-compute parameter block for [`crate::compute`].
    pub fn client_compute_params(&self) -> ClientComputeParams {
        ClientComputeParams {
            encryption_cycles: self.encryption_cycles,
            switched_capacitance: self.client_capacitance,
        }
    }
}

/// Samples an area-uniform position in the paper's 1 km cell, at least
/// 50 m from the server, and the channel gain there: `(distance, gain)`.
pub(crate) fn place_in_paper_cell(rng: &mut StdRng, channel: &ChannelModel) -> (f64, f64) {
    let radius = 1000.0 * rng.gen_range(0.0f64..1.0).sqrt().max(0.05);
    let gain = channel
        .sample_gain(radius, rng)
        .expect("radius is positive");
    (radius, gain)
}

/// The full MEC-side scenario: per-client profiles plus shared budgets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MecScenario {
    clients: Vec<ClientProfile>,
    /// Total FDMA bandwidth `B_total` in Hz.
    total_bandwidth_hz: f64,
    /// Total server compute `f_total` in Hz.
    total_server_frequency_hz: f64,
    /// Server switched capacitance `kappa^(s)`.
    server_capacitance: f64,
    /// Noise power spectral density `N0` in W/Hz.
    noise_psd: f64,
}

impl MecScenario {
    /// The paper's default privacy weights for the six clients.
    pub const PAPER_PRIVACY_WEIGHTS: [f64; 6] = [0.1, 0.1, 0.1, 0.2, 0.2, 0.3];

    /// Builds a scenario from explicit parts.
    ///
    /// # Errors
    /// Returns [`MecError::InvalidParameter`] for an empty client list or a
    /// non-positive budget.
    pub fn new(
        clients: Vec<ClientProfile>,
        total_bandwidth_hz: f64,
        total_server_frequency_hz: f64,
        server_capacitance: f64,
        noise_psd: f64,
    ) -> MecResult<Self> {
        if clients.is_empty() {
            return Err(MecError::InvalidParameter {
                reason: "a scenario requires at least one client".to_string(),
            });
        }
        for (name, value) in [
            ("total bandwidth", total_bandwidth_hz),
            ("total server frequency", total_server_frequency_hz),
            ("server capacitance", server_capacitance),
            ("noise PSD", noise_psd),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(MecError::InvalidParameter {
                    reason: format!("{name} must be positive, got {value}"),
                });
            }
        }
        Ok(Self {
            clients,
            total_bandwidth_hz,
            total_server_frequency_hz,
            server_capacitance,
            noise_psd,
        })
    }

    /// Builds the Section VI-A scenario with the paper's parameter values.
    /// Client positions and Rayleigh fades are drawn from a deterministic RNG
    /// seeded with `seed`, so experiments are reproducible.
    pub fn paper_default(seed: u64) -> Self {
        Self::paper_with_num_clients(6, seed)
    }

    /// Same as [`MecScenario::paper_default`] but with an arbitrary number of
    /// clients (useful for scaling studies). Privacy weights cycle through
    /// the paper's values.
    ///
    /// # Panics
    /// Panics if `num_clients` is zero.
    pub fn paper_with_num_clients(num_clients: usize, seed: u64) -> Self {
        assert!(num_clients > 0, "scenario requires at least one client");
        let mut rng = StdRng::seed_from_u64(seed);
        let channel = ChannelModel::default();
        let clients = (0..num_clients)
            .map(|i| {
                let (radius, gain) = place_in_paper_cell(&mut rng, &channel);
                ClientProfile::paper(radius, gain, i)
            })
            .collect();
        Self {
            clients,
            total_bandwidth_hz: 10e6,
            total_server_frequency_hz: 20e9,
            server_capacitance: 1e-28,
            noise_psd: ChannelModel::default().noise_psd,
        }
    }

    /// The client profiles.
    pub fn clients(&self) -> &[ClientProfile] {
        &self.clients
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The total FDMA bandwidth in Hz.
    pub fn total_bandwidth_hz(&self) -> f64 {
        self.total_bandwidth_hz
    }

    /// The total server compute in Hz.
    pub fn total_server_frequency_hz(&self) -> f64 {
        self.total_server_frequency_hz
    }

    /// The server's effective switched capacitance.
    pub fn server_capacitance(&self) -> f64 {
        self.server_capacitance
    }

    /// The noise power spectral density in W/Hz.
    pub fn noise_psd(&self) -> f64 {
        self.noise_psd
    }

    /// Overrides the total bandwidth (used by the Fig. 6(a) sweep).
    #[must_use]
    pub fn with_total_bandwidth(mut self, total_bandwidth_hz: f64) -> Self {
        self.total_bandwidth_hz = total_bandwidth_hz;
        self
    }

    /// Overrides the total server compute (used by the Fig. 6(d) sweep).
    #[must_use]
    pub fn with_total_server_frequency(mut self, total_server_frequency_hz: f64) -> Self {
        self.total_server_frequency_hz = total_server_frequency_hz;
        self
    }

    /// Overrides every client's maximum transmit power (Fig. 6(b) sweep).
    #[must_use]
    pub fn with_max_power(mut self, max_power_w: f64) -> Self {
        for client in &mut self.clients {
            client.max_power_w = max_power_w;
        }
        self
    }

    /// Overrides every client's maximum CPU frequency (Fig. 6(c) sweep).
    #[must_use]
    pub fn with_max_client_frequency(mut self, max_client_frequency_hz: f64) -> Self {
        for client in &mut self.clients {
            client.max_client_frequency_hz = max_client_frequency_hz;
        }
        self
    }

    /// The bandwidth budget object for constraint checking.
    pub fn bandwidth_budget(&self) -> BandwidthBudget {
        BandwidthBudget::new(self.total_bandwidth_hz).expect("validated at construction")
    }

    /// Equal split of the bandwidth budget (the AA baseline allocation).
    pub fn equal_bandwidth_split(&self) -> Vec<f64> {
        self.bandwidth_budget()
            .equal_split(self.num_clients())
            .expect("scenario has at least one client")
    }

    /// Equal split of the server compute budget (the AA baseline allocation).
    pub fn equal_server_split(&self) -> Vec<f64> {
        vec![self.total_server_frequency_hz / self.num_clients() as f64; self.num_clients()]
    }

    /// The server-compute parameter block for client `n`.
    ///
    /// # Panics
    /// Panics when `n` is out of range.
    pub fn server_compute_params(&self, n: usize) -> ServerComputeParams {
        let client = &self.clients[n];
        ServerComputeParams {
            tokens: client.tokens,
            tokens_per_sample: client.tokens_per_sample,
            switched_capacitance: self.server_capacitance,
        }
    }

    /// The per-client privacy weights `varsigma`.
    pub fn privacy_weights(&self) -> Vec<f64> {
        self.clients.iter().map(|c| c.privacy_weight).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_vi_a() {
        let s = MecScenario::paper_default(1);
        assert_eq!(s.num_clients(), 6);
        assert_eq!(s.total_bandwidth_hz(), 10e6);
        assert_eq!(s.total_server_frequency_hz(), 20e9);
        assert_eq!(s.privacy_weights(), vec![0.1, 0.1, 0.1, 0.2, 0.2, 0.3]);
        for c in s.clients() {
            assert_eq!(c.upload_bits, 3e9);
            assert_eq!(c.tokens, 160.0);
            assert_eq!(c.tokens_per_sample, 10.0);
            assert_eq!(c.max_power_w, 0.2);
            assert_eq!(c.max_client_frequency_hz, 3e9);
            assert!(c.distance_m > 0.0 && c.distance_m <= 1000.0);
            assert!(c.channel_gain > 0.0);
        }
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        assert_eq!(MecScenario::paper_default(7), MecScenario::paper_default(7));
        assert_ne!(MecScenario::paper_default(7), MecScenario::paper_default(8));
    }

    #[test]
    fn builders_override_budgets() {
        let s = MecScenario::paper_default(1)
            .with_total_bandwidth(5e6)
            .with_total_server_frequency(30e9)
            .with_max_power(0.6)
            .with_max_client_frequency(9e9);
        assert_eq!(s.total_bandwidth_hz(), 5e6);
        assert_eq!(s.total_server_frequency_hz(), 30e9);
        assert!(s.clients().iter().all(|c| c.max_power_w == 0.6));
        assert!(s.clients().iter().all(|c| c.max_client_frequency_hz == 9e9));
    }

    #[test]
    fn equal_splits_are_budget_feasible() {
        let s = MecScenario::paper_default(3);
        let b = s.equal_bandwidth_split();
        s.bandwidth_budget().check(&b).unwrap();
        let f: f64 = s.equal_server_split().iter().sum();
        assert!((f - s.total_server_frequency_hz()).abs() < 1.0);
    }

    #[test]
    fn custom_scenario_validation() {
        assert!(MecScenario::new(vec![], 1e6, 1e9, 1e-28, 1e-20).is_err());
        let client = MecScenario::paper_default(1).clients()[0];
        assert!(MecScenario::new(vec![client], 0.0, 1e9, 1e-28, 1e-20).is_err());
        assert!(MecScenario::new(vec![client], 1e6, 1e9, 1e-28, 1e-20).is_ok());
    }

    #[test]
    fn scaled_scenario_cycles_privacy_weights() {
        let s = MecScenario::paper_with_num_clients(8, 2);
        assert_eq!(s.num_clients(), 8);
        assert_eq!(s.privacy_weights()[6], 0.1);
        assert_eq!(s.privacy_weights()[7], 0.1);
    }
}
