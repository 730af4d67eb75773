//! Stage 3 of the QuHE algorithm: transmit powers, bandwidths and CPU
//! frequencies via quadratic-transform fractional programming
//! (Eqs. 24–28, Algorithm 3 of the paper).
//!
//! With `(phi, w, lambda)` fixed, the remaining objective is the (negated)
//! cost
//!
//! ```text
//! G(p, b, f^(c), f^(s)) = alpha_e sum_n kappa^(c) f^(se) (f^(c)_n)^2
//!                       + alpha_e sum_n kappa^(s) C_n(lambda) (f^(s)_n)^2 / rho_n
//!                       + alpha_e sum_n p_n d_n / r_n(b_n, p_n)
//!                       + alpha_t T
//! ```
//!
//! subject to the per-variable boxes (17e, 17g) and budgets (17f, 17h), with
//! `T` equal to the largest per-client delay (constraint 17i holds with
//! equality at the optimum). The only non-convex term is the transmission
//! energy ratio `p_n d_n / r_n`; following the paper, it is handled by the
//! quadratic transform of Shen & Yu (Eqs. 25–27): an auxiliary variable
//! `z_n = 1 / (2 p_n d_n r_n)` is updated in closed form, and the remaining
//! convex subproblem is solved numerically. The inner solver here is the
//! projected-gradient method of `quhe-opt` (fast; used inside the alternating
//! loop); [`Stage3Solver::gap_trace`] re-solves the convex subproblem at a
//! given allocation with an interior-point method to produce the
//! duality-gap trace of the paper's Fig. 4(d).

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use quhe_opt::barrier::{BarrierConfig, BarrierSolver, FnProblem};
use quhe_opt::fractional::{
    QuadraticTransform, QuadraticTransformConfig, QuadraticTransformResult, RatioTerm,
};
use quhe_opt::gradient::{GradientWorkspace, ProjectedGradient, ProjectedGradientConfig};
use quhe_opt::newton::NewtonConfig;
use quhe_opt::projection::{BoxProjection, Projection, SimplexCapProjection};

use crate::error::QuheResult;
use crate::problem::Problem;
use crate::variables::DecisionVariables;

/// Relative lower bound applied to every resource so that rates and delays
/// stay finite (resources of exactly zero are never optimal: they would make
/// the delay infinite).
const RELATIVE_FLOOR: f64 = 1e-3;

/// Result of Stage 3.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stage3Result {
    /// Optimal transmit powers `p*`.
    pub power: Vec<f64>,
    /// Optimal bandwidth allocation `b*`.
    pub bandwidth: Vec<f64>,
    /// Optimal client CPU frequencies `(f^(c))*`.
    pub client_frequency: Vec<f64>,
    /// Optimal server CPU allocation `(f^(s))*`.
    pub server_frequency: Vec<f64>,
    /// Optimal delay bound `T*` (the largest per-client delay).
    pub delay_bound: f64,
    /// The Stage-3 cost `G` at the solution (the quantity minimized here;
    /// the paper's Fig. 4(c) plots this "POBJ" trace).
    pub cost: f64,
    /// Cost after each outer (quadratic-transform) iteration.
    pub trace: Vec<f64>,
    /// Duality-gap trace of the interior-point polish at this result's
    /// allocation ([`Stage3Solver::gap_trace`]; reproduces Fig. 4(d)). Empty
    /// unless the solve ran at full instrumentation, which fills it for the
    /// final Stage-3 call only.
    pub gap_trace: Vec<f64>,
    /// Number of outer iterations of the fractional-programming loop.
    pub iterations: usize,
    /// Whether the winning start met the tolerance before the iteration cap.
    pub converged: bool,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
}

/// Per-client constants of the Stage-3 cost.
///
/// The struct also carries the per-coordinate `scales` of the normalized
/// decision vector, so every cost/rate/delay can be evaluated **directly in
/// normalized coordinates** — the hot inner loop (numerical gradients inside
/// the projected-gradient solver evaluate the objective thousands of times
/// per Stage-3 call) never allocates an unscaled copy of the point.
#[derive(Debug, Clone)]
struct Stage3Constants {
    /// `kappa^(c) f^(se)` per client.
    client_energy_coeff: Vec<f64>,
    /// `kappa^(s) C_n(lambda) d^(cmp)_n / rho_n` per client (the coefficient
    /// of `(f^(s))^2` in the computation energy, equivalently the total
    /// server cycles times `kappa^(s)`).
    server_energy_coeff: Vec<f64>,
    /// Total server cycles for client `n` (delay numerator).
    server_cycles: Vec<f64>,
    /// Client encryption cycles `f^(se)_n`.
    encryption_cycles: Vec<f64>,
    /// Uplink payload `d^(tr)_n` in bits.
    upload_bits: Vec<f64>,
    /// Channel gains `g_n`.
    gains: Vec<f64>,
    /// Noise PSD.
    noise_psd: f64,
    /// Objective weights.
    alpha_e: f64,
    alpha_t: f64,
    /// Per-coordinate scales of the packed decision vector
    /// `[p, b, f^(c), f^(s)]`: the inner solvers work on `y = x / scales` so
    /// that powers (~0.2 W), bandwidths (~10^6 Hz) and CPU frequencies
    /// (~10^9–10^10 Hz) all live on the unit scale — without this the
    /// projected-gradient steps are dominated by the best-conditioned block
    /// and the CPU frequencies never move.
    scales: Vec<f64>,
}

impl Stage3Constants {
    fn build(problem: &Problem, lambda: &[u64]) -> QuheResult<Self> {
        let mec = problem.scenario().mec();
        let weights = problem.config().weights;
        let n = problem.num_clients();
        let mut client_energy_coeff = Vec::with_capacity(n);
        let mut server_energy_coeff = Vec::with_capacity(n);
        let mut server_cycles = Vec::with_capacity(n);
        let mut encryption_cycles = Vec::with_capacity(n);
        let mut upload_bits = Vec::with_capacity(n);
        let mut gains = Vec::with_capacity(n);
        for (i, client) in mec.clients().iter().enumerate() {
            let cycles_per_sample =
                quhe_crypto::cost_model::total_server_cycles_per_sample(lambda[i] as f64);
            let total_cycles = cycles_per_sample * client.tokens / client.tokens_per_sample;
            client_energy_coeff.push(client.client_capacitance * client.encryption_cycles);
            server_energy_coeff.push(mec.server_capacitance() * total_cycles);
            server_cycles.push(total_cycles);
            encryption_cycles.push(client.encryption_cycles);
            upload_bits.push(client.upload_bits);
            gains.push(client.channel_gain);
        }
        let mut scales = Vec::with_capacity(4 * n);
        scales.extend(mec.clients().iter().map(|c| c.max_power_w));
        scales.extend(std::iter::repeat_n(mec.total_bandwidth_hz(), n));
        scales.extend(mec.clients().iter().map(|c| c.max_client_frequency_hz));
        scales.extend(std::iter::repeat_n(mec.total_server_frequency_hz(), n));
        Ok(Self {
            client_energy_coeff,
            server_energy_coeff,
            server_cycles,
            encryption_cycles,
            upload_bits,
            gains,
            noise_psd: mec.noise_psd(),
            alpha_e: weights.energy,
            alpha_t: weights.delay,
            scales,
        })
    }

    fn num_clients(&self) -> usize {
        self.gains.len()
    }

    /// Uplink rate of client `n` at the packed decision vector `x`.
    // quhe-analyze: hot-path
    fn rate(&self, x: &[f64], n: usize) -> f64 {
        let num = self.num_clients();
        let p = x[n];
        let b = x[num + n];
        b * (1.0 + p * self.gains[n] / (self.noise_psd * b)).log2()
    }

    /// End-to-end delay of client `n` at `x`.
    fn delay(&self, x: &[f64], n: usize) -> f64 {
        let num = self.num_clients();
        let f_c = x[2 * num + n];
        let f_s = x[3 * num + n];
        self.encryption_cycles[n] / f_c
            + self.upload_bits[n] / self.rate(x, n)
            + self.server_cycles[n] / f_s
    }

    /// Largest per-client delay at `x` (the optimal `T`).
    fn max_delay(&self, x: &[f64]) -> f64 {
        (0..self.num_clients())
            .map(|n| self.delay(x, n))
            .fold(0.0_f64, f64::max)
    }

    /// The lambda-independent, ratio-free part of the Stage-3 cost:
    /// computation energies plus the weighted delay bound.
    // quhe-analyze: hot-path
    fn smooth_cost(&self, x: &[f64]) -> f64 {
        let num = self.num_clients();
        let mut total = 0.0;
        for n in 0..num {
            let f_c = x[2 * num + n];
            let f_s = x[3 * num + n];
            total += self.alpha_e * self.client_energy_coeff[n] * f_c * f_c;
            total += self.alpha_e * self.server_energy_coeff[n] * f_s * f_s;
        }
        total + self.alpha_t * self.max_delay(x)
    }

    /// The full Stage-3 cost including the true transmission-energy ratios.
    fn total_cost(&self, x: &[f64]) -> f64 {
        let num = self.num_clients();
        let mut total = self.smooth_cost(x);
        for n in 0..num {
            total += self.alpha_e * x[n] * self.upload_bits[n] / self.rate(x, n);
        }
        total
    }

    // --- Normalized-coordinate evaluation ------------------------------
    //
    // The methods below mirror their physical-coordinate counterparts but
    // take the *normalized* point `y = x / scales` and rescale one
    // coordinate at a time on the fly. This is the hot path: the inner
    // projected-gradient solver evaluates the surrogate objective via
    // finite differences, so per-evaluation heap allocations (the old
    // `y.iter().zip(scales).collect::<Vec<_>>()` chains) dominated the
    // Stage-3 profile.

    /// The physical value of packed coordinate `i` at the normalized `y`.
    // quhe-analyze: hot-path
    fn phys(&self, y: &[f64], i: usize) -> f64 {
        y[i] * self.scales[i]
    }

    /// Uplink rate of client `n` at the normalized point `y`.
    // quhe-analyze: hot-path
    fn rate_scaled(&self, y: &[f64], n: usize) -> f64 {
        let num = self.num_clients();
        let p = self.phys(y, n);
        let b = self.phys(y, num + n);
        b * (1.0 + p * self.gains[n] / (self.noise_psd * b)).log2()
    }

    /// End-to-end delay of client `n` at the normalized point `y`.
    // quhe-analyze: hot-path
    fn delay_scaled(&self, y: &[f64], n: usize) -> f64 {
        let num = self.num_clients();
        let f_c = self.phys(y, 2 * num + n);
        let f_s = self.phys(y, 3 * num + n);
        self.encryption_cycles[n] / f_c
            + self.upload_bits[n] / self.rate_scaled(y, n)
            + self.server_cycles[n] / f_s
    }

    /// Largest per-client delay at the normalized point `y`.
    // quhe-analyze: hot-path
    fn max_delay_scaled(&self, y: &[f64]) -> f64 {
        (0..self.num_clients())
            .map(|n| self.delay_scaled(y, n))
            .fold(0.0_f64, f64::max)
    }

    /// The ratio-free part of the Stage-3 cost at the normalized point `y`.
    // quhe-analyze: hot-path
    fn smooth_cost_scaled(&self, y: &[f64]) -> f64 {
        let num = self.num_clients();
        let mut total = 0.0;
        for n in 0..num {
            let f_c = self.phys(y, 2 * num + n);
            let f_s = self.phys(y, 3 * num + n);
            total += self.alpha_e * self.client_energy_coeff[n] * f_c * f_c;
            total += self.alpha_e * self.server_energy_coeff[n] * f_s * f_s;
        }
        total + self.alpha_t * self.max_delay_scaled(y)
    }

    /// The full Stage-3 cost at the normalized point `y`.
    // quhe-analyze: hot-path
    fn total_cost_scaled(&self, y: &[f64]) -> f64 {
        let num = self.num_clients();
        let mut total = self.smooth_cost_scaled(y);
        for n in 0..num {
            total += self.alpha_e * self.phys(y, n) * self.upload_bits[n] / self.rate_scaled(y, n);
        }
        total
    }

    /// Unscales a normalized point into physical coordinates.
    fn unscale(&self, y: &[f64]) -> Vec<f64> {
        y.iter().zip(&self.scales).map(|(v, s)| v * s).collect()
    }

    /// [`Stage3Constants::delay_scaled`] with the client's uplink rate
    /// supplied by the caller instead of recomputed — same expression, so the
    /// result is bit-identical whenever `rate` carries the bits of
    /// `rate_scaled(y, n)`.
    // quhe-analyze: hot-path
    fn delay_with_rate(&self, y: &[f64], n: usize, rate: f64) -> f64 {
        let num = self.num_clients();
        let f_c = self.phys(y, 2 * num + n);
        let f_s = self.phys(y, 3 * num + n);
        self.encryption_cycles[n] / f_c + self.upload_bits[n] / rate + self.server_cycles[n] / f_s
    }

    /// The quadratic-transform surrogate objective at the normalized point
    /// `y` for fixed auxiliaries `z` — the inner-solver hot path.
    ///
    /// Bit-identical to `smooth_cost_scaled(y)` followed by the per-client
    /// surrogate additions (the shape the inner closure used to spell out):
    /// every sum is accumulated in the same order; the only change is that
    /// each client's rate is computed once into `rates` and reused by the
    /// delay and the surrogate term instead of being recomputed — same
    /// inputs, same expression, same bits, half the `log2` calls.
    // quhe-analyze: hot-path
    fn surrogate_scaled(&self, y: &[f64], z: &[f64], rates: &mut Vec<f64>) -> f64 {
        let num = self.num_clients();
        rates.clear();
        rates.extend((0..num).map(|n| self.rate_scaled(y, n)));
        let mut total = 0.0;
        for n in 0..num {
            let f_c = self.phys(y, 2 * num + n);
            let f_s = self.phys(y, 3 * num + n);
            total += self.alpha_e * self.client_energy_coeff[n] * f_c * f_c;
            total += self.alpha_e * self.server_energy_coeff[n] * f_s * f_s;
        }
        let max_delay = (0..num)
            .map(|n| self.delay_with_rate(y, n, rates[n]))
            .fold(0.0_f64, f64::max);
        let mut value = total + self.alpha_t * max_delay;
        for (n, &z_c) in z.iter().enumerate() {
            let num_v = self.phys(y, n) * self.upload_bits[n];
            let den = rates[n];
            value += self.alpha_e * (num_v * num_v * z_c + 1.0 / (4.0 * den * den * z_c));
        }
        value
    }

    /// Full surrogate value at `w`, where `w` differs from the base point of
    /// the current gradient call in exactly one coordinate `i`.
    ///
    /// Perturbing coordinate `i` touches only client `i % n` (packed layout
    /// `[p, b, f^(c), f^(s)]`), and within that client only the quantities
    /// its block feeds: power/bandwidth (blocks 0–1) move the rate and the
    /// surrogate term, frequencies (blocks 2–3) the energies — the delay
    /// moves either way. Every untouched per-client quantity is taken from
    /// the base caches (bitwise equal to recomputing it, since its inputs
    /// did not change) and all sums are re-accumulated in the evaluation
    /// order of [`Stage3Constants::surrogate_scaled`], so the result is
    /// bit-identical to a full evaluation at `w` at a fraction of the
    /// transcendental cost.
    // quhe-analyze: hot-path
    fn surrogate_perturbed(&self, w: &[f64], z: &[f64], i: usize, cache: &Stage3EvalCache) -> f64 {
        let num = self.num_clients();
        let client = i % num;
        let block = i / num;
        let rate_c = if block < 2 {
            self.rate_scaled(w, client)
        } else {
            cache.base_rate[client]
        };
        let mut total = 0.0;
        for n in 0..num {
            if n == client && block >= 2 {
                let f_c = self.phys(w, 2 * num + n);
                let f_s = self.phys(w, 3 * num + n);
                total += self.alpha_e * self.client_energy_coeff[n] * f_c * f_c;
                total += self.alpha_e * self.server_energy_coeff[n] * f_s * f_s;
            } else {
                total += cache.base_energy_client[n];
                total += cache.base_energy_server[n];
            }
        }
        let max_delay = (0..num)
            .map(|n| {
                if n == client {
                    self.delay_with_rate(w, n, rate_c)
                } else {
                    cache.base_delay[n]
                }
            })
            .fold(0.0_f64, f64::max);
        let mut value = total + self.alpha_t * max_delay;
        for (n, &z_c) in z.iter().enumerate() {
            if n == client && block < 2 {
                let num_v = self.phys(w, n) * self.upload_bits[n];
                let den = rate_c;
                value += self.alpha_e * (num_v * num_v * z_c + 1.0 / (4.0 * den * den * z_c));
            } else {
                value += cache.base_term[n];
            }
        }
        value
    }

    /// Central finite-difference gradient of the surrogate at `y`,
    /// bit-identical to `central_gradient_into` applied to the full
    /// surrogate: same per-coordinate step `step * max(1, |y_i|)`, same
    /// `(f(y+h) - f(y-h)) / (2h)` formula, with each perturbed evaluation
    /// done incrementally through [`Stage3Constants::surrogate_perturbed`].
    /// One full evaluation refreshes the base caches; after that, the `8n`
    /// perturbed evaluations of the black-box gradient collapse from `n`
    /// rate computations each to at most one.
    // quhe-analyze: hot-path
    fn surrogate_gradient(
        &self,
        y: &[f64],
        z: &[f64],
        step: f64,
        grad: &mut Vec<f64>,
        cache: &mut Stage3EvalCache,
    ) {
        let num = self.num_clients();
        cache.base_rate.clear();
        cache
            .base_rate
            .extend((0..num).map(|n| self.rate_scaled(y, n)));
        cache.base_energy_client.clear();
        cache.base_energy_server.clear();
        for n in 0..num {
            let f_c = self.phys(y, 2 * num + n);
            let f_s = self.phys(y, 3 * num + n);
            cache
                .base_energy_client
                .push(self.alpha_e * self.client_energy_coeff[n] * f_c * f_c);
            cache
                .base_energy_server
                .push(self.alpha_e * self.server_energy_coeff[n] * f_s * f_s);
        }
        cache.base_delay.clear();
        cache
            .base_delay
            .extend((0..num).map(|n| self.delay_with_rate(y, n, cache.base_rate[n])));
        cache.base_term.clear();
        for (n, &z_c) in z.iter().enumerate() {
            let num_v = self.phys(y, n) * self.upload_bits[n];
            let den = cache.base_rate[n];
            cache
                .base_term
                .push(self.alpha_e * (num_v * num_v * z_c + 1.0 / (4.0 * den * den * z_c)));
        }

        grad.clear();
        grad.resize(y.len(), 0.0);
        let mut work = std::mem::take(&mut cache.work);
        work.clear();
        work.extend_from_slice(y);
        for i in 0..y.len() {
            let h = step * y[i].abs().max(1.0);
            let orig = work[i];
            work[i] = orig + h;
            let fp = self.surrogate_perturbed(&work, z, i, cache);
            work[i] = orig - h;
            let fm = self.surrogate_perturbed(&work, z, i, cache);
            work[i] = orig;
            grad[i] = (fp - fm) / (2.0 * h);
        }
        cache.work = work;
    }
}

/// Scratch and base-point caches behind the fused Stage-3 surrogate
/// evaluation and its incremental finite-difference gradient. Carries no
/// numeric state between calls — only capacity — so reuse across starts,
/// outer iterations, and solver calls is always safe.
#[derive(Debug, Clone, Default)]
struct Stage3EvalCache {
    /// Per-client uplink rates at the point being evaluated (scratch of
    /// [`Stage3Constants::surrogate_scaled`]).
    rates: Vec<f64>,
    /// Perturbed-point buffer of the gradient loop.
    work: Vec<f64>,
    /// Base-point caches refreshed at the start of every gradient call.
    base_rate: Vec<f64>,
    base_energy_client: Vec<f64>,
    base_energy_server: Vec<f64>,
    base_delay: Vec<f64>,
    base_term: Vec<f64>,
}

/// Per-thread reusable storage for one Stage-3 start solve: the
/// projected-gradient workspace plus the fused-evaluation caches. Owned by
/// the solver's workspace pool, checked out for the duration of one
/// quadratic-transform run, and returned afterwards — so the pool holds one
/// workspace per thread that has ever run a start, reused across starts,
/// outer alternation iterations, and solver calls.
#[derive(Debug, Clone, Default)]
struct Stage3Workspace {
    eval: Stage3EvalCache,
    pg: GradientWorkspace,
}

/// Projection onto the Stage-3 feasible set: boxes for powers and client
/// frequencies, capped simplices for bandwidth and server frequency.
#[derive(Debug, Clone)]
struct Stage3Projection {
    power: BoxProjection,
    bandwidth: SimplexCapProjection,
    client_frequency: BoxProjection,
    server_frequency: SimplexCapProjection,
    num_clients: usize,
}

impl Projection for Stage3Projection {
    fn project(&self, x: &mut [f64]) {
        let n = self.num_clients;
        self.power.project(&mut x[..n]);
        self.bandwidth.project(&mut x[n..2 * n]);
        self.client_frequency.project(&mut x[2 * n..3 * n]);
        self.server_frequency.project(&mut x[3 * n..4 * n]);
    }
}

/// Default number of canonical extra starts explored by the multi-start
/// basin search (the budget of [`Stage3Solver::with_start_budget`]).
pub const DEFAULT_START_BUDGET: usize = 3;

/// The relative resource levels of the first three canonical starts.
const CANONICAL_START_LEVELS: [f64; 3] = [1.0, 0.5, 0.1];

/// The deterministic canonical start levels for a given multi-start budget:
/// the three canonical levels first, then a halving tail below the smallest
/// so larger budgets probe ever-leaner allocations.
fn start_levels(budget: usize) -> Vec<f64> {
    (0..budget)
        .map(|k| {
            CANONICAL_START_LEVELS
                .get(k)
                .copied()
                .unwrap_or_else(|| 0.1 * 0.5f64.powi(k as i32 - 2))
        })
        .collect()
}

/// The Stage-3 solver.
///
/// Cloning is cheap and shares the solver's workspace pool, so a cloned
/// solver benefits from (and contributes to) the same warmed-up buffers.
#[derive(Debug, Clone)]
pub struct Stage3Solver {
    /// Maximum outer (quadratic transform) iterations.
    max_iterations: usize,
    /// Convergence tolerance on the cost between outer iterations.
    tolerance: f64,
    /// Worker threads for the multi-start exploration (`0` = available
    /// parallelism, `1` = serial).
    threads: usize,
    /// Number of canonical extra starts explored in multi-start mode.
    start_budget: usize,
    /// Whether dominated canonical starts may be abandoned early once they
    /// provably cannot beat the warm start's objective.
    prune_starts: bool,
    /// Pool of per-thread solve workspaces, reused across starts, outer
    /// alternation iterations, and solver calls.
    workspaces: Arc<Mutex<Vec<Stage3Workspace>>>,
}

impl Default for Stage3Solver {
    fn default() -> Self {
        Self::new(40, 1e-6)
    }
}

impl Stage3Solver {
    /// Creates a Stage-3 solver with an explicit iteration budget and
    /// tolerance. Multi-starts run on the machine's available parallelism;
    /// see [`Stage3Solver::with_threads`].
    pub fn new(max_iterations: usize, tolerance: f64) -> Self {
        Self {
            max_iterations,
            tolerance,
            threads: 0,
            start_budget: DEFAULT_START_BUDGET,
            prune_starts: true,
            workspaces: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Overrides the worker-thread count for the multi-start exploration
    /// (`0` = available parallelism, `1` = serial). The returned solution is
    /// identical for any thread count: the starts are independent and the
    /// best result is selected deterministically in start order.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the multi-start budget: how many canonical extra starts the
    /// basin exploration probes alongside the carried warm start (default
    /// [`DEFAULT_START_BUDGET`]). A budget of `0` degenerates multi-start
    /// mode into the warm-start-only solve.
    #[must_use]
    pub fn with_start_budget(mut self, start_budget: usize) -> Self {
        self.start_budget = start_budget;
        self
    }

    /// Enables or disables dominated-start pruning (default: enabled). When
    /// enabled, the carried warm start is solved first and its objective
    /// becomes the incumbent every canonical extra start must beat; a
    /// canonical run whose optimistic remaining-improvement forecast still
    /// trails the incumbent is abandoned early. A pruned run's objective is
    /// strictly worse than the incumbent by construction, so the strict
    /// best-cost selection never picks it and the multi-start winner is
    /// unchanged; the pruning decision reads only the run's own
    /// already-computed values and the fixed incumbent, so it is identical
    /// for any thread count.
    #[must_use]
    pub fn with_start_pruning(mut self, prune_starts: bool) -> Self {
        self.prune_starts = prune_starts;
        self
    }

    /// Projection onto the feasible set expressed in normalized coordinates
    /// (`p / p_max`, `b / B_total`, `f^(c) / f^(max)`, `f^(s) / f_total`).
    ///
    /// # Errors
    /// Propagates constructor errors from the box/simplex projections (only
    /// reachable with a degenerate client count).
    fn scaled_projection(problem: &Problem) -> QuheResult<Stage3Projection> {
        let n = problem.num_clients();
        Ok(Stage3Projection {
            power: BoxProjection::uniform(n, RELATIVE_FLOOR, 1.0)?,
            bandwidth: SimplexCapProjection::uniform(n, RELATIVE_FLOOR / n as f64, 1.0)?,
            client_frequency: BoxProjection::uniform(n, RELATIVE_FLOOR, 1.0)?,
            server_frequency: SimplexCapProjection::uniform(n, RELATIVE_FLOOR / n as f64, 1.0)?,
            num_clients: n,
        })
    }

    fn pack(vars: &DecisionVariables) -> Vec<f64> {
        let mut x = Vec::with_capacity(4 * vars.num_clients());
        x.extend_from_slice(&vars.power);
        x.extend_from_slice(&vars.bandwidth);
        x.extend_from_slice(&vars.client_frequency);
        x.extend_from_slice(&vars.server_frequency);
        x
    }

    /// Solves Stage 3 starting from the resource allocation stored in `vars`
    /// (whose `phi`, `w` and `lambda` blocks are held fixed).
    ///
    /// # Errors
    /// Propagates optimization errors from the fractional-programming loop.
    pub fn solve(&self, problem: &Problem, vars: &DecisionVariables) -> QuheResult<Stage3Result> {
        self.run(problem, vars, true)
    }

    pub(crate) fn run(
        &self,
        problem: &Problem,
        vars: &DecisionVariables,
        multi_start: bool,
    ) -> QuheResult<Stage3Result> {
        let start = Instant::now();
        let constants = Stage3Constants::build(problem, &vars.lambda)?;
        let projection = Self::scaled_projection(problem)?;
        let n = constants.num_clients();
        // The quadratic-transform surrogate is non-convex in the joint
        // variables, so a single warm start can land in a budget-dependent
        // local optimum (observed as the objective *dropping* when a resource
        // budget grows). Run the fractional-programming loop from a small set
        // of deterministic starts — the warm start plus canonical
        // budget-proportional points — and keep the best by true cost.
        let mut warm: Vec<f64> = Self::pack(vars)
            .iter()
            .zip(&constants.scales)
            .map(|(v, s)| v / s)
            .collect();
        projection.project(&mut warm);
        let n_f = n as f64;
        let mut starts: Vec<Vec<f64>> = vec![warm];
        if multi_start {
            for level in start_levels(self.start_budget) {
                let mut y: Vec<f64> = Vec::with_capacity(4 * n);
                y.extend(std::iter::repeat_n(level, n)); // p / p_max
                y.extend(std::iter::repeat_n(1.0 / n_f, n)); // b: even split
                y.extend(std::iter::repeat_n(level, n)); // f_c / f_max
                y.extend(std::iter::repeat_n(1.0 / n_f, n)); // f_s: even split
                projection.project(&mut y);
                starts.push(y);
            }
        }

        // Ratio terms p_n d_n / r_n handled by the quadratic transform,
        // expressed on the normalized coordinates (no per-evaluation
        // allocation: the constants rescale coordinate-wise on the fly).
        let constants_ref = &constants;
        let ratio_terms: Vec<RatioTerm<'_>> = (0..n)
            .map(|client| {
                RatioTerm::new(
                    move |y: &[f64]| {
                        constants_ref.phys(y, client) * constants_ref.upload_bits[client]
                    },
                    move |y: &[f64]| constants_ref.rate_scaled(y, client),
                )
            })
            .collect();
        let weights = vec![constants.alpha_e; n];

        let inner_config = ProjectedGradientConfig {
            max_iterations: 200,
            tolerance: 1e-8,
            ..ProjectedGradientConfig::default()
        };
        let fd_step = inner_config.fd_step;
        let inner_solver = ProjectedGradient::new(inner_config);
        let qt = QuadraticTransform::new(QuadraticTransformConfig {
            max_iterations: self.max_iterations,
            tolerance: self.tolerance,
        });

        // One full quadratic-transform run from one start. Each run checks a
        // workspace out of the solver's pool (growing the pool on first use),
        // threads it through the whole run — the fused surrogate evaluation,
        // the incremental gradient, and the projected-gradient inner solves
        // all write into its preallocated buffers — and returns it afterwards.
        let projection_ref = &projection;
        let workspaces = &self.workspaces;
        let solve_start = |y0: &[f64],
                           incumbent: Option<f64>|
         -> Result<QuadraticTransformResult, quhe_opt::OptError> {
            let mut sw = workspaces
                .lock()
                .map(|mut pool| pool.pop())
                .unwrap_or_default()
                .unwrap_or_default();
            let eval = RefCell::new(std::mem::take(&mut sw.eval));
            let pg = &mut sw.pg;
            let result = qt.solve_with_incumbent(
                |y: &[f64]| constants_ref.smooth_cost_scaled(y),
                &ratio_terms,
                &weights,
                y0,
                incumbent,
                |y, z| {
                    let surrogate = |yy: &[f64]| {
                        constants_ref.surrogate_scaled(yy, z, &mut eval.borrow_mut().rates)
                    };
                    let gradient = |yy: &[f64], grad: &mut Vec<f64>| {
                        constants_ref.surrogate_gradient(
                            yy,
                            z,
                            fd_step,
                            grad,
                            &mut eval.borrow_mut(),
                        );
                    };
                    Ok(inner_solver
                        .minimize_with_gradient(&surrogate, gradient, projection_ref, y, pg)?
                        .solution)
                },
            );
            sw.eval = eval.into_inner();
            if let Ok(mut pool) = workspaces.lock() {
                pool.push(sw);
            }
            result
        };

        // The carried warm start is solved first: when pruning is active its
        // objective becomes the incumbent the canonical extra starts must
        // beat. The incumbent is fixed before any canonical start runs, so
        // every canonical run prunes identically for any thread count, and a
        // pruned run's objective is strictly worse than the incumbent — the
        // strict best-cost selection below can never pick it, leaving the
        // multi-start winner exactly what it would be without pruning.
        let warm_attempt = solve_start(&starts[0], None);
        let incumbent = if multi_start && self.prune_starts {
            warm_attempt.as_ref().ok().map(|outcome| outcome.objective)
        } else {
            None
        };
        // The remaining starts are independent solves of the same surrogate
        // problem, so they map cleanly onto a scoped worker pool. Results
        // come back in start order and the best is chosen by strict
        // comparison below, so the outcome is bit-identical to the serial
        // loop.
        let pool = threadpool::ThreadPool::new(self.threads);
        let rest = pool.par_map(&starts[1..], |y0| solve_start(y0, incumbent));
        // A diverging extra start must not abort the solve: the starts exist
        // to improve robustness, so keep the best that converged and only
        // fail if every start failed.
        let mut best: Option<(f64, QuadraticTransformResult)> = None;
        let mut last_error = None;
        for attempt in std::iter::once(warm_attempt).chain(rest) {
            let outcome = match attempt {
                Ok(outcome) => outcome,
                Err(error) => {
                    last_error = Some(error);
                    continue;
                }
            };
            let cost = constants.total_cost_scaled(&outcome.solution);
            if best.as_ref().is_none_or(|(best_cost, _)| cost < *best_cost) {
                best = Some((cost, outcome));
            }
        }
        let (_, outcome) = match (best, last_error) {
            (Some(best), _) => best,
            (None, Some(error)) => return Err(error.into()),
            // The warm start always yields an outcome or records an error,
            // but a structured failure beats asserting that here.
            (None, None) => return Err(quhe_opt::OptError::DidNotConverge { iterations: 0 }.into()),
        };

        let solution = constants.unscale(&outcome.solution);

        let power = solution[..n].to_vec();
        let bandwidth = solution[n..2 * n].to_vec();
        let client_frequency = solution[2 * n..3 * n].to_vec();
        let server_frequency = solution[3 * n..4 * n].to_vec();
        let delay_bound = constants.max_delay(&solution);
        Ok(Stage3Result {
            power,
            bandwidth,
            client_frequency,
            server_frequency,
            delay_bound,
            cost: constants.total_cost(&solution),
            trace: outcome.trace,
            gap_trace: Vec::new(),
            iterations: outcome.iterations,
            converged: outcome.converged,
            runtime_s: start.elapsed().as_secs_f64(),
        })
    }

    /// The duality-gap trace of the paper's Fig. 4(d) at the allocation in
    /// `vars`: re-solves the convex subproblem at `vars.lambda` with the
    /// log-barrier interior-point method, starting from the resources of
    /// `vars`, and returns the barrier's gap trace. The explicit `T`
    /// variable and the (17i) constraints are reintroduced, exactly as
    /// problem P6 states them.
    ///
    /// # Errors
    /// Propagates cost-model errors and interior-point solver errors.
    pub fn gap_trace(problem: &Problem, vars: &DecisionVariables) -> QuheResult<Vec<f64>> {
        let constants = Stage3Constants::build(problem, &vars.lambda)?;
        let n = constants.num_clients();
        let mec = problem.scenario().mec();
        // Decision vector: [p, b, f_c, f_s, T].
        let dim = 4 * n + 1;

        let p_max: Vec<f64> = mec.clients().iter().map(|c| c.max_power_w).collect();
        let f_max: Vec<f64> = mec
            .clients()
            .iter()
            .map(|c| c.max_client_frequency_hz)
            .collect();
        let b_total = mec.total_bandwidth_hz();
        let f_total = mec.total_server_frequency_hz();

        // Pull the allocation strictly inside every constraint so the
        // barrier method has a strictly feasible start: box variables are
        // moved a fraction below their caps and budget blocks are rescaled to
        // consume at most 99.9 % of their budgets.
        let mut start_point = Self::pack(vars);
        for client in 0..n {
            start_point[client] = start_point[client].min(0.999 * p_max[client]);
            start_point[2 * n + client] = start_point[2 * n + client].min(0.999 * f_max[client]);
        }
        let b_sum: f64 = start_point[n..2 * n].iter().sum();
        if b_sum > 0.999 * b_total {
            let scale = 0.999 * b_total / b_sum;
            for value in &mut start_point[n..2 * n] {
                *value *= scale;
            }
        }
        let f_sum: f64 = start_point[3 * n..4 * n].iter().sum();
        if f_sum > 0.999 * f_total {
            let scale = 0.999 * f_total / f_sum;
            for value in &mut start_point[3 * n..4 * n] {
                *value *= scale;
            }
        }
        start_point.push(constants.max_delay(&start_point) * 1.05);

        // Both closures borrow `constants` — the barrier problem lives only
        // for the duration of this call, so no clone of the constant tables
        // is needed.
        let objective = |x: &[f64]| -> f64 {
            let t = x[4 * n];
            let mut value = constants.alpha_t * t;
            for client in 0..n {
                let f_c = x[2 * n + client];
                let f_s = x[3 * n + client];
                value += constants.alpha_e * constants.client_energy_coeff[client] * f_c * f_c;
                value += constants.alpha_e * constants.server_energy_coeff[client] * f_s * f_s;
                value += constants.alpha_e * x[client] * constants.upload_bits[client]
                    / constants.rate(x, client);
            }
            value
        };
        let constraints = |x: &[f64]| -> Vec<f64> {
            let t = x[4 * n];
            let mut g = Vec::with_capacity(6 * n + 3);
            for client in 0..n {
                g.push(1e-6 * p_max[client] - x[client]); // p > 0
                g.push(x[client] - p_max[client]); // 17e
                g.push(1e-6 * b_total - x[n + client]); // b > 0
                g.push(1e-6 * f_max[client] - x[2 * n + client]); // f_c > 0
                g.push(x[2 * n + client] - f_max[client]); // 17g
                g.push(1e-6 * f_total - x[3 * n + client]); // f_s > 0
                g.push(constants.delay(x, client) - t); // 17i
            }
            g.push(x[n..2 * n].iter().sum::<f64>() - b_total); // 17f
            g.push(x[3 * n..4 * n].iter().sum::<f64>() - f_total); // 17h
            g
        };
        let barrier_problem = FnProblem::new(dim, objective, constraints).with_start(start_point);
        let config = BarrierConfig {
            gap_tolerance: 1e-5,
            newton: NewtonConfig {
                max_iterations: 30,
                ..NewtonConfig::default()
            },
            ..BarrierConfig::default()
        };
        let result = BarrierSolver::new(config).solve(&barrier_problem, None)?;
        Ok(result.gap_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuheConfig;
    use crate::scenario::SystemScenario;

    #[test]
    fn start_levels_extend_the_canonical_sequence() {
        assert_eq!(start_levels(3), vec![1.0, 0.5, 0.1]);
        assert_eq!(start_levels(1), vec![1.0]);
        assert!(start_levels(0).is_empty());
        let five = start_levels(5);
        assert_eq!(&five[..3], &[1.0, 0.5, 0.1]);
        assert!(five[3] < 0.1 && five[4] < five[3]);
    }

    fn setup() -> (Problem, DecisionVariables) {
        let problem =
            Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap();
        let vars = problem.initial_point().unwrap();
        (problem, vars)
    }

    #[test]
    fn stage3_result_is_feasible_and_improves_the_cost() {
        let (problem, vars) = setup();
        let result = Stage3Solver::default().solve(&problem, &vars).unwrap();

        // Feasibility of the produced allocation.
        let mut updated = vars.clone();
        updated.power = result.power.clone();
        updated.bandwidth = result.bandwidth.clone();
        updated.client_frequency = result.client_frequency.clone();
        updated.server_frequency = result.server_frequency.clone();
        updated.delay_bound = result.delay_bound;
        problem.check_feasible(&updated).unwrap();

        // The Stage-3 cost must not exceed the cost of the starting point.
        let constants = Stage3Constants::build(&problem, &vars.lambda).unwrap();
        let start_cost = constants.total_cost(&Stage3Solver::pack(&vars));
        assert!(
            result.cost <= start_cost + 1e-9,
            "stage-3 cost {} worse than start {}",
            result.cost,
            start_cost
        );
    }

    #[test]
    fn stage3_improves_the_overall_objective() {
        let (problem, vars) = setup();
        let before = problem.objective_with_max_delay(&vars).unwrap();
        let result = Stage3Solver::default().solve(&problem, &vars).unwrap();
        let mut updated = vars.clone();
        updated.power = result.power;
        updated.bandwidth = result.bandwidth;
        updated.client_frequency = result.client_frequency;
        updated.server_frequency = result.server_frequency;
        updated.delay_bound = result.delay_bound;
        let after = problem.objective_with_max_delay(&updated).unwrap();
        assert!(
            after >= before - 1e-9,
            "objective got worse: {before} -> {after}"
        );
    }

    #[test]
    fn stage3_trace_is_nonincreasing() {
        let (problem, vars) = setup();
        let result = Stage3Solver::default().solve(&problem, &vars).unwrap();
        for pair in result.trace.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9);
        }
        assert!(result.iterations >= 1);
        assert!(result.gap_trace.is_empty());
    }

    #[test]
    fn gap_trace_decreases_below_tolerance() {
        let (problem, mut vars) = setup();
        let result = Stage3Solver::new(10, 1e-5).solve(&problem, &vars).unwrap();
        vars.power = result.power;
        vars.bandwidth = result.bandwidth;
        vars.client_frequency = result.client_frequency;
        vars.server_frequency = result.server_frequency;
        let gap_trace = Stage3Solver::gap_trace(&problem, &vars).unwrap();
        assert!(!gap_trace.is_empty());
        for pair in gap_trace.windows(2) {
            assert!(pair[1] < pair[0]);
        }
        assert!(*gap_trace.last().unwrap() < 1e-4);
    }

    #[test]
    fn budgets_are_respected_exactly() {
        let (problem, vars) = setup();
        let result = Stage3Solver::default().solve(&problem, &vars).unwrap();
        let mec = problem.scenario().mec();
        let b_sum: f64 = result.bandwidth.iter().sum();
        let f_sum: f64 = result.server_frequency.iter().sum();
        assert!(b_sum <= mec.total_bandwidth_hz() * (1.0 + 1e-9));
        assert!(f_sum <= mec.total_server_frequency_hz() * (1.0 + 1e-9));
        for (p, client) in result.power.iter().zip(mec.clients()) {
            assert!(*p > 0.0 && *p <= client.max_power_w * (1.0 + 1e-9));
        }
    }
}
