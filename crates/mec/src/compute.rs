//! Client-side encryption and server-side computation costs
//! (Eqs. 7–8 and 13–14 of the paper).

use quhe_crypto::cost_model::{eval_cycles_per_sample, server_cycles_per_sample};

use crate::error::{MecError, MecResult};

/// Parameters of one client's encryption task.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClientComputeParams {
    /// CPU cycles `f^(se)` needed for the symmetric encryption plus the HE
    /// encryption of the symmetric key.
    pub encryption_cycles: f64,
    /// Effective switched capacitance `kappa^(c)` of the client.
    pub switched_capacitance: f64,
}

/// Delay and energy of one client's encryption phase.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClientComputeCost {
    /// Encryption delay `T^(enc) = f^(se) / f^(c)` in seconds (Eq. 7).
    pub delay_s: f64,
    /// Encryption energy `E^(enc) = kappa^(c) f^(se) (f^(c))^2` in joules
    /// (Eq. 8).
    pub energy_j: f64,
}

/// Computes the encryption delay and energy of a client running at CPU
/// frequency `client_frequency_hz`.
///
/// # Errors
/// Returns [`MecError::InvalidParameter`] for non-positive cycles, frequency
/// or capacitance.
pub fn client_encryption_cost(
    params: &ClientComputeParams,
    client_frequency_hz: f64,
) -> MecResult<ClientComputeCost> {
    for (name, value) in [
        ("encryption cycles", params.encryption_cycles),
        ("switched capacitance", params.switched_capacitance),
        ("client frequency", client_frequency_hz),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(MecError::InvalidParameter {
                reason: format!("{name} must be positive, got {value}"),
            });
        }
    }
    Ok(ClientComputeCost {
        delay_s: params.encryption_cycles / client_frequency_hz,
        energy_j: params.switched_capacitance
            * params.encryption_cycles
            * client_frequency_hz
            * client_frequency_hz,
    })
}

/// The smallest CKKS ring degree the fitted cycle model of
/// [`server_computation_cost`] covers (`2^15`, the paper's smallest
/// candidate): below it the model's cycle count per sample is not
/// positive.
pub const MIN_CYCLE_MODEL_DEGREE: u64 = 1 << 15;

/// Parameters of one client's server-side workload.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerComputeParams {
    /// Number of tokens `d^(cmp)` submitted by the client.
    pub tokens: f64,
    /// Tokens per sample `rho`.
    pub tokens_per_sample: f64,
    /// Effective switched capacitance `kappa^(s)` of the server.
    pub switched_capacitance: f64,
}

/// Delay and energy of the server computation for one client.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerComputeCost {
    /// Total CPU cycles charged for this client's workload:
    /// `(f^(cmp)(lambda) + f^(eval)(lambda)) d^(cmp) / rho`.
    pub total_cycles: f64,
    /// Computation delay `T^(cmp)` in seconds (Eq. 13).
    pub delay_s: f64,
    /// Computation energy `E^(cmp)` in joules (Eq. 14).
    pub energy_j: f64,
}

/// Computes the server-side computation cost for a client whose CKKS degree
/// is `lambda` and that was allocated `server_frequency_hz` of server CPU.
///
/// # Errors
/// Returns [`MecError::InvalidParameter`] for non-positive inputs or a
/// `lambda` small enough to make the fitted cycle model negative (the model
/// of Eq. 31 is only valid on the paper's candidate range).
pub fn server_computation_cost(
    params: &ServerComputeParams,
    lambda: f64,
    server_frequency_hz: f64,
) -> MecResult<ServerComputeCost> {
    for (name, value) in [
        ("tokens", params.tokens),
        ("tokens per sample", params.tokens_per_sample),
        ("switched capacitance", params.switched_capacitance),
        ("server frequency", server_frequency_hz),
        ("lambda", lambda),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(MecError::InvalidParameter {
                reason: format!("{name} must be positive, got {value}"),
            });
        }
    }
    let cycles_per_sample = eval_cycles_per_sample(lambda) + server_cycles_per_sample(lambda);
    if cycles_per_sample <= 0.0 {
        return Err(MecError::InvalidParameter {
            reason: format!(
                "the fitted cycle model is non-positive at lambda = {lambda}; it is only valid for lambda >= 2^{}",
                MIN_CYCLE_MODEL_DEGREE.trailing_zeros()
            ),
        });
    }
    let total_cycles = cycles_per_sample * params.tokens / params.tokens_per_sample;
    Ok(ServerComputeCost {
        total_cycles,
        delay_s: total_cycles / server_frequency_hz,
        energy_j: params.switched_capacitance
            * total_cycles
            * server_frequency_hz
            * server_frequency_hz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn client_params() -> ClientComputeParams {
        ClientComputeParams {
            encryption_cycles: 1e6,
            switched_capacitance: 1e-28,
        }
    }

    fn server_params() -> ServerComputeParams {
        ServerComputeParams {
            tokens: 160.0,
            tokens_per_sample: 10.0,
            switched_capacitance: 1e-28,
        }
    }

    #[test]
    fn client_cost_matches_equations_7_and_8() {
        let cost = client_encryption_cost(&client_params(), 3e9).unwrap();
        assert!((cost.delay_s - 1e6 / 3e9).abs() < 1e-18);
        assert!((cost.energy_j - 1e-28 * 1e6 * 9e18).abs() < 1e-9);
    }

    #[test]
    fn server_cost_matches_equations_13_and_14() {
        let lambda = (1u64 << 15) as f64;
        let cost = server_computation_cost(&server_params(), lambda, 3.3e9).unwrap();
        let cycles_per_sample = quhe_crypto::cost_model::total_server_cycles_per_sample(lambda);
        let expected_cycles = cycles_per_sample * 160.0 / 10.0;
        assert!((cost.total_cycles - expected_cycles).abs() / expected_cycles < 1e-12);
        assert!((cost.delay_s - expected_cycles / 3.3e9).abs() < 1e-6);
        assert!(
            (cost.energy_j - 1e-28 * expected_cycles * 3.3e9 * 3.3e9).abs() / cost.energy_j < 1e-9
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(client_encryption_cost(&client_params(), 0.0).is_err());
        let bad = ClientComputeParams {
            encryption_cycles: -1.0,
            switched_capacitance: 1e-28,
        };
        assert!(client_encryption_cost(&bad, 1e9).is_err());
        assert!(server_computation_cost(&server_params(), 0.0, 1e9).is_err());
        assert!(server_computation_cost(&server_params(), (1u64 << 15) as f64, -1.0).is_err());
        // lambda = 1024 makes Eq. 31 negative: rejected.
        assert!(server_computation_cost(&server_params(), 1024.0, 1e9).is_err());
    }

    #[test]
    fn higher_lambda_costs_more_server_cycles() {
        let l1 = server_computation_cost(&server_params(), (1u64 << 15) as f64, 3e9).unwrap();
        let l2 = server_computation_cost(&server_params(), (1u64 << 16) as f64, 3e9).unwrap();
        let l3 = server_computation_cost(&server_params(), (1u64 << 17) as f64, 3e9).unwrap();
        assert!(l1.total_cycles < l2.total_cycles && l2.total_cycles < l3.total_cycles);
    }

    proptest! {
        #[test]
        fn client_delay_energy_tradeoff(f1 in 5e8f64..3e9, f2 in 5e8f64..3e9) {
            // Raising the client frequency lowers delay but raises energy.
            let (lo, hi) = if f1 < f2 { (f1, f2) } else { (f2, f1) };
            let c_lo = client_encryption_cost(&client_params(), lo).unwrap();
            let c_hi = client_encryption_cost(&client_params(), hi).unwrap();
            prop_assert!(c_hi.delay_s <= c_lo.delay_s);
            prop_assert!(c_hi.energy_j >= c_lo.energy_j);
        }

        #[test]
        fn server_delay_energy_tradeoff(f1 in 1e9f64..2e10, f2 in 1e9f64..2e10) {
            let lambda = (1u64 << 16) as f64;
            let (lo, hi) = if f1 < f2 { (f1, f2) } else { (f2, f1) };
            let c_lo = server_computation_cost(&server_params(), lambda, lo).unwrap();
            let c_hi = server_computation_cost(&server_params(), lambda, hi).unwrap();
            prop_assert!(c_hi.delay_s <= c_lo.delay_s);
            prop_assert!(c_hi.energy_j >= c_lo.energy_j);
        }
    }
}
