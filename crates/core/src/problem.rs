//! Problem P1 (Eq. 17): objective evaluation, constraint checking and
//! feasible-point construction.

use std::sync::{Arc, OnceLock};

use quhe_crypto::cost_model::min_security_level;
use quhe_mec::compute::{client_encryption_cost, server_computation_cost};
use quhe_mec::cost::{ClientCostBreakdown, SystemCost};
use quhe_mec::transmission::transmission_cost;
use quhe_qkd::allocation::optimal_werner;
use quhe_qkd::utility::network_utility;
use rand::Rng;

use crate::error::{QuheError, QuheResult};
use crate::params::QuheConfig;
use crate::scenario::SystemScenario;
use crate::stage1::{Stage1Result, Stage1Solver};
use crate::variables::DecisionVariables;

/// Relative tolerance applied to budget and delay constraints to absorb
/// floating-point noise from the solvers.
const CONSTRAINT_TOLERANCE: f64 = 1e-6;

/// Problem P1: the scenario, the configuration and everything needed to
/// evaluate the objective of Eq. (17) and its constraints (17a)–(17i).
///
/// The problem also holds its Stage-1 solution (problem P3), solved on first
/// use by [`Problem::stage1`]. P3 reads only the QKD network and
/// `min_entanglement_rate`, so clones and the problems [`Problem::with_config`]
/// derives for another configuration with the same minimum rate share that
/// solution.
#[derive(Debug, Clone)]
pub struct Problem {
    scenario: SystemScenario,
    config: QuheConfig,
    stage1: Arc<OnceLock<QuheResult<Stage1Result>>>,
}

impl Problem {
    /// Creates the problem.
    ///
    /// # Errors
    /// Returns [`QuheError::InvalidConfig`] when the configuration is
    /// invalid.
    pub fn new(scenario: SystemScenario, config: QuheConfig) -> QuheResult<Self> {
        config.validate()?;
        Ok(Self {
            scenario,
            config,
            stage1: Arc::default(),
        })
    }

    /// The same scenario under another configuration. The derived problem
    /// shares this problem's Stage-1 solution when both configurations have
    /// bit-equal `min_entanglement_rate`s, and solves its own otherwise.
    ///
    /// # Errors
    /// Returns [`QuheError::InvalidConfig`] when the configuration is
    /// invalid.
    pub fn with_config(&self, config: QuheConfig) -> QuheResult<Self> {
        config.validate()?;
        let same_rate =
            config.min_entanglement_rate.to_bits() == self.config.min_entanglement_rate.to_bits();
        Ok(Self {
            scenario: self.scenario.clone(),
            config,
            stage1: if same_rate {
                Arc::clone(&self.stage1)
            } else {
                Arc::default()
            },
        })
    }

    /// The Stage-1 solution `(phi*, w*)` of problem P3. The first call runs
    /// [`Stage1Solver::solve`]; later calls, on this problem or on one that
    /// shares its solution, return the stored result. Its `runtime_s` is the
    /// wall time of that first solve.
    ///
    /// # Errors
    /// The errors of [`Stage1Solver::solve`], stored and returned again on
    /// every call.
    pub fn stage1(&self) -> QuheResult<&Stage1Result> {
        self.stage1
            .get_or_init(|| Stage1Solver::new().solve(self))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The scenario.
    pub fn scenario(&self) -> &SystemScenario {
        &self.scenario
    }

    /// The configuration.
    pub fn config(&self) -> &QuheConfig {
        &self.config
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.scenario.num_clients()
    }

    /// The QKD network utility `U_qkd` (Eq. 6) at the given variables.
    ///
    /// # Errors
    /// Returns a [`QuheError::Qkd`] dimension error for malformed variables.
    pub fn qkd_utility(&self, vars: &DecisionVariables) -> QuheResult<f64> {
        Ok(network_utility(
            self.scenario.qkd().incidence(),
            &vars.phi,
            &vars.w,
        )?)
    }

    /// The weighted minimum-security-level utility `U_msl` (Eq. 9).
    pub fn security_utility(&self, lambda: &[u64]) -> f64 {
        self.scenario
            .mec()
            .privacy_weights()
            .iter()
            .zip(lambda)
            .map(|(weight, &l)| weight * min_security_level(l as f64))
            .sum()
    }

    /// The cost breakdown (encryption, transmission, server computation) of
    /// client `n` at the given variables.
    ///
    /// # Errors
    /// Returns [`QuheError::Mec`] when a resource value is non-positive.
    pub fn client_cost(
        &self,
        vars: &DecisionVariables,
        n: usize,
    ) -> QuheResult<ClientCostBreakdown> {
        let client = &self.scenario.mec().clients()[n];
        let enc =
            client_encryption_cost(&client.client_compute_params(), vars.client_frequency[n])?;
        let tr = transmission_cost(
            client.upload_bits,
            vars.bandwidth[n],
            vars.power[n],
            client.channel_gain,
            self.scenario.mec().noise_psd(),
        )?;
        let cmp = server_computation_cost(
            &self.scenario.mec().server_compute_params(n),
            vars.lambda[n] as f64,
            vars.server_frequency[n],
        )?;
        Ok(ClientCostBreakdown {
            encryption_delay_s: enc.delay_s,
            encryption_energy_j: enc.energy_j,
            transmission_delay_s: tr.delay_s,
            transmission_energy_j: tr.energy_j,
            computation_delay_s: cmp.delay_s,
            computation_energy_j: cmp.energy_j,
        })
    }

    /// The system cost (per-client breakdowns plus the `T_total`/`E_total`
    /// aggregates of Eqs. 15–16).
    ///
    /// # Errors
    /// Returns [`QuheError::Mec`] when a resource value is non-positive.
    pub fn system_cost(&self, vars: &DecisionVariables) -> QuheResult<SystemCost> {
        let per_client = (0..self.num_clients())
            .map(|n| self.client_cost(vars, n))
            .collect::<QuheResult<Vec<_>>>()?;
        Ok(SystemCost::aggregate(per_client)?)
    }

    /// The objective of Eq. (17),
    /// `alpha_qkd U_qkd + alpha_msl U_msl - alpha_t T - alpha_e E_total`,
    /// using the auxiliary delay bound `T` stored in the variables.
    ///
    /// # Errors
    /// Returns substrate errors for malformed variables.
    pub fn objective(&self, vars: &DecisionVariables) -> QuheResult<f64> {
        let cost = self.system_cost(vars)?;
        self.objective_with_delay(vars, vars.delay_bound, cost.total_energy_j)
    }

    /// The objective of Eq. (17) with `T` replaced by the actual maximum
    /// client delay (`T_total` of Eq. 15). This is the value reported by the
    /// figures, where the auxiliary variable has been tightened to its
    /// optimum.
    ///
    /// # Errors
    /// Returns substrate errors for malformed variables.
    pub fn objective_with_max_delay(&self, vars: &DecisionVariables) -> QuheResult<f64> {
        let cost = self.system_cost(vars)?;
        self.objective_with_delay(vars, cost.total_delay_s, cost.total_energy_j)
    }

    fn objective_with_delay(
        &self,
        vars: &DecisionVariables,
        delay: f64,
        energy: f64,
    ) -> QuheResult<f64> {
        let weights = self.config.weights;
        Ok(weights.qkd_utility * self.qkd_utility(vars)?
            + weights.security * self.security_utility(&vars.lambda)
            - weights.delay * delay
            - weights.energy * energy)
    }

    /// Checks every constraint (17a)–(17i) of problem P1.
    ///
    /// # Errors
    /// Returns [`QuheError::ConstraintViolation`] naming the first violated
    /// constraint (with the paper's numbering), or
    /// [`QuheError::DimensionMismatch`] for malformed variables.
    pub fn check_feasible(&self, vars: &DecisionVariables) -> QuheResult<()> {
        let n_clients = self.num_clients();
        let n_links = self.scenario.num_links();
        vars.check_dimensions(n_clients, n_links)?;
        let mec = self.scenario.mec();
        let qkd = self.scenario.qkd();

        // (17a) minimum entanglement rate.
        for (n, &phi) in vars.phi.iter().enumerate() {
            if phi < self.config.min_entanglement_rate * (1.0 - CONSTRAINT_TOLERANCE) {
                return Err(QuheError::ConstraintViolation {
                    reason: format!(
                        "17a: route {} rate {} below the minimum {}",
                        n + 1,
                        phi,
                        self.config.min_entanglement_rate
                    ),
                });
            }
        }
        // (17b) Werner parameter bounds.
        for (l, &w) in vars.w.iter().enumerate() {
            if !(w > 0.0 && w <= 1.0 + CONSTRAINT_TOLERANCE) {
                return Err(QuheError::ConstraintViolation {
                    reason: format!("17b: link {} werner parameter {} outside (0, 1]", l + 1, w),
                });
            }
        }
        // (17c) link entanglement-rate capacity.
        let betas = qkd.betas();
        debug_assert_eq!(betas.len(), n_links, "one beta per QKD link");
        for (l, &beta) in betas.iter().enumerate() {
            let load = qkd.incidence().link_load(l, &vars.phi)?;
            let capacity = beta * (1.0 - vars.w[l]);
            if load > capacity + CONSTRAINT_TOLERANCE * beta {
                return Err(QuheError::ConstraintViolation {
                    reason: format!(
                        "17c: link {} load {} exceeds capacity {}",
                        l + 1,
                        load,
                        capacity
                    ),
                });
            }
        }
        // (17d) lambda drawn from the discrete choice set.
        for (n, l) in vars.lambda.iter().enumerate() {
            if !self.scenario.lambda_choices().contains(l) {
                return Err(QuheError::ConstraintViolation {
                    reason: format!("17d: client {} lambda {} not in the choice set", n + 1, l),
                });
            }
        }
        // (17e) transmit power bounds.
        for (n, (&p, client)) in vars.power.iter().zip(mec.clients()).enumerate() {
            if !(p > 0.0) || p > client.max_power_w * (1.0 + CONSTRAINT_TOLERANCE) {
                return Err(QuheError::ConstraintViolation {
                    reason: format!(
                        "17e: client {} power {} outside (0, {}]",
                        n + 1,
                        p,
                        client.max_power_w
                    ),
                });
            }
        }
        // (17f) total bandwidth budget.
        let total_bandwidth: f64 = vars.bandwidth.iter().sum();
        if vars.bandwidth.iter().any(|&b| !(b > 0.0))
            || total_bandwidth > mec.total_bandwidth_hz() * (1.0 + CONSTRAINT_TOLERANCE)
        {
            return Err(QuheError::ConstraintViolation {
                reason: format!(
                    "17f: bandwidth allocation sums to {} Hz over a budget of {} Hz",
                    total_bandwidth,
                    mec.total_bandwidth_hz()
                ),
            });
        }
        // (17g) client CPU bounds.
        for (n, (&f, client)) in vars.client_frequency.iter().zip(mec.clients()).enumerate() {
            if !(f > 0.0) || f > client.max_client_frequency_hz * (1.0 + CONSTRAINT_TOLERANCE) {
                return Err(QuheError::ConstraintViolation {
                    reason: format!(
                        "17g: client {} CPU frequency {} outside (0, {}]",
                        n + 1,
                        f,
                        client.max_client_frequency_hz
                    ),
                });
            }
        }
        // (17h) total server CPU budget.
        let total_server: f64 = vars.server_frequency.iter().sum();
        if vars.server_frequency.iter().any(|&f| !(f > 0.0))
            || total_server > mec.total_server_frequency_hz() * (1.0 + CONSTRAINT_TOLERANCE)
        {
            return Err(QuheError::ConstraintViolation {
                reason: format!(
                    "17h: server CPU allocation sums to {} Hz over a budget of {} Hz",
                    total_server,
                    mec.total_server_frequency_hz()
                ),
            });
        }
        // (17i) per-client delay bounded by the auxiliary variable T.
        for n in 0..n_clients {
            let delay = self.client_cost(vars, n)?.total_delay_s();
            if delay > vars.delay_bound * (1.0 + CONSTRAINT_TOLERANCE) {
                return Err(QuheError::ConstraintViolation {
                    reason: format!(
                        "17i: client {} delay {} s exceeds the bound T = {} s",
                        n + 1,
                        delay,
                        vars.delay_bound
                    ),
                });
            }
        }
        Ok(())
    }

    /// A deterministic feasible starting point: minimum entanglement rates
    /// with the Eq. (18) Werner assignment, the smallest polynomial degree,
    /// maximum transmit power and client CPU, and equal splits of the
    /// bandwidth and server-CPU budgets (this is also the AA baseline's
    /// resource allocation).
    ///
    /// # Errors
    /// Returns substrate errors if the scenario itself is inconsistent (e.g.
    /// minimum rates exceeding a link capacity).
    pub fn initial_point(&self) -> QuheResult<DecisionVariables> {
        let n = self.num_clients();
        let mec = self.scenario.mec();
        let phi = vec![self.config.min_entanglement_rate; n];
        let w = optimal_werner(
            self.scenario.qkd().incidence(),
            &phi,
            &self.scenario.qkd().betas(),
        )?;
        let lambda = vec![self.scenario.lambda_choices()[0]; n];
        let power: Vec<f64> = mec.clients().iter().map(|c| c.max_power_w).collect();
        let bandwidth = mec.equal_bandwidth_split();
        let client_frequency: Vec<f64> = mec
            .clients()
            .iter()
            .map(|c| c.max_client_frequency_hz)
            .collect();
        let server_frequency = mec.equal_server_split();
        let mut vars = DecisionVariables {
            phi,
            w,
            lambda,
            power,
            bandwidth,
            client_frequency,
            server_frequency,
            delay_bound: 0.0,
        };
        vars.delay_bound = self.system_cost(&vars)?.total_delay_s;
        Ok(vars)
    }

    /// A random feasible starting point for the Fig. 3 optimality study:
    /// bandwidth, power and CPU frequencies are drawn uniformly from their
    /// feasible ranges (budgets respected by scaling), the QKD and lambda
    /// blocks start from the deterministic initial point.
    ///
    /// # Errors
    /// Returns substrate errors if the scenario itself is inconsistent.
    pub fn random_initial_point<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> QuheResult<DecisionVariables> {
        let mut vars = self.initial_point()?;
        let n = self.num_clients();
        let mec = self.scenario.mec();
        for (p, client) in vars.power.iter_mut().zip(mec.clients()) {
            *p = rng.gen_range(0.05..=1.0) * client.max_power_w;
        }
        for (f, client) in vars.client_frequency.iter_mut().zip(mec.clients()) {
            *f = rng.gen_range(0.05..=1.0) * client.max_client_frequency_hz;
        }
        // Draw raw shares and scale them into the budgets.
        let raw_b: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
        let sum_b: f64 = raw_b.iter().sum();
        let budget_fraction = rng.gen_range(0.5..1.0);
        for (b, raw) in vars.bandwidth.iter_mut().zip(&raw_b) {
            *b = raw / sum_b * mec.total_bandwidth_hz() * budget_fraction;
        }
        let raw_f: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
        let sum_f: f64 = raw_f.iter().sum();
        let budget_fraction = rng.gen_range(0.5..1.0);
        for (f, raw) in vars.server_frequency.iter_mut().zip(&raw_f) {
            *f = raw / sum_f * mec.total_server_frequency_hz() * budget_fraction;
        }
        vars.delay_bound = self.system_cost(&vars)?.total_delay_s;
        Ok(vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn problem() -> Problem {
        Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap()
    }

    #[test]
    fn initial_point_is_feasible() {
        let p = problem();
        let vars = p.initial_point().unwrap();
        p.check_feasible(&vars).unwrap();
        assert!(vars.is_finite());
    }

    #[test]
    fn with_config_shares_the_stage1_solve_at_the_same_minimum_rate() {
        let p = problem();
        let wider = QuheConfig {
            tolerance: 0.5,
            solver_threads: 2,
            ..*p.config()
        };
        let derived = p.with_config(wider).unwrap();
        assert_eq!(derived.config(), &wider);
        assert_eq!(derived.scenario(), p.scenario());
        // The derived problem solves first; the original and a clone read
        // the same result back.
        let shared = derived.stage1().unwrap();
        assert!(std::ptr::eq(shared, p.stage1().unwrap()));
        assert!(std::ptr::eq(shared, p.clone().stage1().unwrap()));
        // The stored result is the one a fresh solve computes.
        let fresh = Stage1Solver::new().solve(&p).unwrap();
        assert_eq!(
            (&shared.phi, &shared.w, shared.objective, &shared.trace),
            (&fresh.phi, &fresh.w, fresh.objective, &fresh.trace)
        );
        assert_eq!(shared.iterations, fresh.iterations);

        // Another minimum rate is another P3: it gets its own solve.
        let higher = QuheConfig {
            min_entanglement_rate: 0.6,
            ..*p.config()
        };
        let other = p.with_config(higher).unwrap();
        let own = other.stage1().unwrap();
        assert!(!std::ptr::eq(shared, own));
        assert!(own.phi.iter().all(|&phi| phi >= 0.6 - 1e-6));
        assert!(shared.phi.iter().any(|&phi| phi < 0.6));

        let invalid = QuheConfig {
            tolerance: -1.0,
            ..*p.config()
        };
        assert!(matches!(
            p.with_config(invalid),
            Err(QuheError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn random_initial_points_are_feasible() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let vars = p.random_initial_point(&mut rng).unwrap();
            p.check_feasible(&vars).unwrap();
        }
    }

    #[test]
    fn objective_decomposition_is_consistent() {
        let p = problem();
        let vars = p.initial_point().unwrap();
        let cost = p.system_cost(&vars).unwrap();
        let weights = p.config().weights;
        let expected = weights.qkd_utility * p.qkd_utility(&vars).unwrap()
            + weights.security * p.security_utility(&vars.lambda)
            - weights.delay * vars.delay_bound
            - weights.energy * cost.total_energy_j;
        assert!((p.objective(&vars).unwrap() - expected).abs() < 1e-9);
        // With T set to the max delay the two objective forms agree.
        assert!(
            (p.objective(&vars).unwrap() - p.objective_with_max_delay(&vars).unwrap()).abs() < 1e-9
        );
    }

    #[test]
    fn security_utility_increases_with_lambda() {
        let p = problem();
        let low = p.security_utility(&[1 << 15; 6]);
        let high = p.security_utility(&[1 << 17; 6]);
        assert!(high > low);
        // Weighted sum with the paper's weights: sum(varsigma) = 1, so the
        // utility equals f_msl(lambda) when all clients share one lambda.
        assert!((low - quhe_crypto::cost_model::min_security_level(32_768.0)).abs() < 1e-9);
    }

    #[test]
    fn each_constraint_violation_is_detected() {
        let p = problem();
        let good = p.initial_point().unwrap();

        let mut v = good.clone();
        v.phi[0] = 0.1;
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17a"));

        let mut v = good.clone();
        v.w[3] = 1.5;
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17b"));

        let mut v = good.clone();
        v.phi = vec![50.0; 6]; // overloads shared links given the w from phi=0.5
        let msg = p.check_feasible(&v).unwrap_err().to_string();
        assert!(msg.contains("17c"), "got {msg}");

        let mut v = good.clone();
        v.lambda[2] = 1 << 14;
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17d"));

        let mut v = good.clone();
        v.power[1] = 0.5;
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17e"));

        let mut v = good.clone();
        v.bandwidth = vec![3e6; 6];
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17f"));

        let mut v = good.clone();
        v.client_frequency[0] = 5e9;
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17g"));

        let mut v = good.clone();
        v.server_frequency = vec![5e9; 6];
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17h"));

        let mut v = good.clone();
        v.delay_bound = 1e-3;
        assert!(p
            .check_feasible(&v)
            .unwrap_err()
            .to_string()
            .contains("17i"));

        let mut v = good;
        v.w.pop();
        assert!(matches!(
            p.check_feasible(&v),
            Err(QuheError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn system_cost_has_positive_components() {
        let p = problem();
        let vars = p.initial_point().unwrap();
        let cost = p.system_cost(&vars).unwrap();
        assert_eq!(cost.per_client.len(), 6);
        for c in &cost.per_client {
            assert!(c.encryption_delay_s > 0.0);
            assert!(c.transmission_delay_s > 0.0);
            assert!(c.computation_delay_s > 0.0);
            assert!(c.total_energy_j() > 0.0);
        }
        assert!(cost.total_delay_s > 0.0);
        assert!(cost.total_energy_j > 0.0);
    }
}
