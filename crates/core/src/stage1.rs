//! Stage 1 of the QuHE algorithm: entanglement rates and Werner parameters.
//!
//! With the other blocks fixed, the objective of problem P1 depends on
//! `(phi, w)` only through the QKD network utility, which is monotone in
//! every `w_l`; therefore each link operates at the largest Werner parameter
//! its capacity allows (Eq. 18), and the remaining problem in `phi` is made
//! convex by the substitution `varphi_n = ln(phi_n)` (problem P3, Eq. 20).
//! This module solves P3 with the log-barrier interior-point method of
//! `quhe-opt` — the role CVX plays in the paper — from the closed-form
//! gradient, constraint Jacobian and Lagrangian Hessian of P3 (see
//! `P3Problem`), and exposes the P3 objective so the Stage-1 baselines
//! (gradient descent, simulated annealing, random selection) can optimize
//! exactly the same function.

use std::cell::{RefCell, RefMut};
use std::time::Instant;

use quhe_opt::barrier::{BarrierSolver, InequalityProblem};
use quhe_opt::linalg::DenseMatrix;
use quhe_qkd::allocation::optimal_werner;
use quhe_qkd::routes::IncidenceMatrix;
use quhe_qkd::secret_key::{
    secret_key_fraction_derivative, secret_key_fraction_raw, secret_key_fraction_second_derivative,
    SKF_THRESHOLD,
};

use crate::error::{QuheError, QuheResult};
use crate::problem::Problem;

/// Small margin keeping iterates strictly inside open constraints.
const STRICT_MARGIN: f64 = 1e-6;

/// The P3 quantities of the last point evaluated.
///
/// The barrier solver evaluates the feasibility predicate, the objective,
/// the constraint vector and the derivatives of the same point back to
/// back, so [`P3Problem::evaluate`] recomputes the point only when its bits
/// change.
#[derive(Debug)]
struct P3Point {
    /// Bits of the point the values belong to; empty before the first
    /// evaluation.
    varphi: Vec<u64>,
    /// `p_n = phi_n = exp(varphi_n)`.
    phi: Vec<f64>,
    /// Per-link load `L_l = sum_{n on l} p_n`, routes in ascending order.
    load: Vec<f64>,
    /// Per-link Werner factor `a_l = 1 - L_l / beta_l`.
    factor: Vec<f64>,
    /// Per-route `varpi_n = prod_{l on n} a_l`, links in ascending order.
    varpi: Vec<f64>,
    /// Per-route `ln F_skf(varpi_n) + ln p_n`, the term the objective
    /// subtracts.
    term: Vec<f64>,
    /// Per-route `psi'(varpi_n)` of `psi = ln F_skf`.
    slope: Vec<f64>,
    /// Per-route `psi''(varpi_n)`.
    curvature: Vec<f64>,
    /// Per-link `1 / (beta_l a_l)`.
    inv_slack: Vec<f64>,
    /// Per-route scratch for the Hessian's `v_n`.
    spread: Vec<f64>,
}

/// Problem P3 (Eq. 20) in `varphi = ln(phi)` as an [`InequalityProblem`]
/// with exact derivatives.
///
/// Write `p_n = exp(varphi_n)`, `a_l = 1 - L_l / beta_l`,
/// `varpi_n = prod_{l on n} a_l`, `psi = ln F_skf`, and let `u_l` hold
/// `p_m / (beta_l a_l)` at each route `m` on link `l` and zero elsewhere.
/// The objective is `f = -sum_n psi(varpi_n) - sum_n varphi_n`, and with
/// `v_n = sum_{l on n} u_l`
///
/// ```text
/// grad ln varpi_n = -v_n
/// hess ln varpi_n = -sum_{l on n} (diag(u_l) + u_l u_l^T)
/// grad varpi_n    = varpi_n grad ln varpi_n
/// hess varpi_n    = varpi_n (hess ln varpi_n + v_n v_n^T)
/// ```
///
/// from which the hooks build the gradient of `f`, the Jacobian of the
/// constraints (20a)–(20c) and the Hessian of their Lagrangian over the
/// route/link incidence lists. The lists are built once (ascending,
/// matching the incidence-matrix iteration order bit-for-bit) and every
/// buffer is sized here, so no evaluation allocates.
#[derive(Debug)]
struct P3Problem {
    n_routes: usize,
    phi_min: f64,
    betas: Vec<f64>,
    /// Links on each route, ascending.
    route_links: Vec<Vec<usize>>,
    /// Routes crossing each link, ascending.
    link_routes: Vec<Vec<usize>>,
    start: Vec<f64>,
    point: RefCell<P3Point>,
}

impl P3Problem {
    fn new(incidence: &IncidenceMatrix, betas: Vec<f64>, phi_min: f64) -> Self {
        let n_routes = incidence.num_routes();
        let n_links = incidence.num_links();
        let route_links = (0..n_routes).map(|n| incidence.links_on_route(n)).collect();
        let link_routes = (0..n_links)
            .map(|l| incidence.routes_using_link(l))
            .collect();
        // Strictly feasible start: slightly above the minimum rate.
        let start = vec![(phi_min * 1.05).ln(); n_routes];
        let point = P3Point {
            varphi: Vec::with_capacity(n_routes),
            phi: vec![0.0; n_routes],
            load: vec![0.0; n_links],
            factor: vec![0.0; n_links],
            varpi: vec![0.0; n_routes],
            term: vec![0.0; n_routes],
            slope: vec![0.0; n_routes],
            curvature: vec![0.0; n_routes],
            inv_slack: vec![0.0; n_links],
            spread: vec![0.0; n_routes],
        };
        Self {
            n_routes,
            phi_min,
            betas,
            route_links,
            link_routes,
            start,
            point: RefCell::new(point),
        }
    }

    /// The P3 quantities at `varphi`, recomputed only when its bits differ
    /// from the last point's: the values the objective and constraints
    /// read, and the derivative terms `psi' = F'/F` and
    /// `psi'' = F''/F - psi'^2` per route and `1 / (beta_l a_l)` per link.
    // quhe-analyze: hot-path
    fn evaluate(&self, varphi: &[f64]) -> RefMut<'_, P3Point> {
        let mut point = self.point.borrow_mut();
        if point.varphi.len() == varphi.len()
            && point
                .varphi
                .iter()
                .zip(varphi)
                .all(|(&b, v)| b == v.to_bits())
        {
            return point;
        }
        let P3Point {
            varphi: bits,
            phi,
            load,
            factor,
            varpi,
            term,
            slope,
            curvature,
            inv_slack,
            ..
        } = &mut *point;
        bits.clear();
        bits.extend(varphi.iter().map(|v| v.to_bits()));
        for (p, &v) in phi.iter_mut().zip(varphi) {
            *p = v.exp();
        }
        for (l, routes) in self.link_routes.iter().enumerate() {
            load[l] = routes.iter().map(|&n| phi[n]).sum::<f64>();
            factor[l] = 1.0 - load[l] / self.betas[l];
            inv_slack[l] = 1.0 / (self.betas[l] * factor[l]);
        }
        for (n, links) in self.route_links.iter().enumerate() {
            let mut product = 1.0;
            for &l in links {
                product *= factor[l];
            }
            varpi[n] = product;
            let skf = secret_key_fraction_raw(product);
            term[n] = skf.ln() + phi[n].ln();
            slope[n] = secret_key_fraction_derivative(product) / skf;
            curvature[n] =
                secret_key_fraction_second_derivative(product) / skf - slope[n] * slope[n];
        }
        point
    }
}

impl InequalityProblem for P3Problem {
    fn dimension(&self) -> usize {
        self.n_routes
    }

    // quhe-analyze: hot-path
    fn objective(&self, varphi: &[f64]) -> f64 {
        let point = self.evaluate(varphi);
        let mut total = 0.0;
        for (&varpi, &term) in point.varpi.iter().zip(&point.term) {
            if varpi <= SKF_THRESHOLD {
                return f64::INFINITY;
            }
            total -= term;
        }
        total
    }

    fn constraints(&self, varphi: &[f64]) -> Vec<f64> {
        let mut g = Vec::new();
        self.constraints_into(varphi, &mut g);
        g
    }

    // quhe-analyze: hot-path
    fn constraints_into(&self, varphi: &[f64], out: &mut Vec<f64>) {
        let point = self.evaluate(varphi);
        out.clear();
        out.reserve(2 * self.n_routes + self.betas.len());
        // (20a) phi_min - phi_n <= 0.
        for &p in &point.phi {
            out.push(self.phi_min - p);
        }
        // (20b) load_l / beta_l - (1 - margin) <= 0.
        for (&load, &beta) in point.load.iter().zip(&self.betas) {
            out.push(load / beta - (1.0 - STRICT_MARGIN));
        }
        // (20c) threshold - varpi_n <= 0.
        for &varpi in &point.varpi {
            out.push(SKF_THRESHOLD + STRICT_MARGIN - varpi);
        }
    }

    fn strictly_feasible_point(&self) -> Option<Vec<f64>> {
        Some(self.start.clone())
    }

    /// `d f / d varphi_m = sum_{l on m} p_m / (beta_l a_l) sum_{n on l}
    /// psi'_n varpi_n - 1`.
    // quhe-analyze: hot-path
    fn objective_gradient_into(&self, varphi: &[f64], grad: &mut Vec<f64>) -> bool {
        let point = self.evaluate(varphi);
        grad.clear();
        grad.resize(self.n_routes, -1.0);
        for (l, routes) in self.link_routes.iter().enumerate() {
            let pull = routes
                .iter()
                .map(|&n| point.slope[n] * point.varpi[n])
                .sum::<f64>();
            let weight = point.inv_slack[l] * pull;
            for &m in routes {
                grad[m] += weight * point.phi[m];
            }
        }
        true
    }

    /// Rows: (20a) `-p_n e_n`, (20b) `p_m / beta_l` at each route `m` on
    /// `l`, (20c) `varpi_n v_n`.
    // quhe-analyze: hot-path
    fn constraint_jacobian_into(&self, varphi: &[f64], jac: &mut DenseMatrix) -> bool {
        let point = self.evaluate(varphi);
        let (n_routes, n_links) = (self.n_routes, self.betas.len());
        jac.reshape_zeroed(2 * n_routes + n_links, n_routes);
        for (n, links) in self.route_links.iter().enumerate() {
            jac.set(n, n, -point.phi[n]);
            let row = jac.row_mut(n_routes + n_links + n);
            for &l in links {
                let scale = point.varpi[n] * point.inv_slack[l];
                for &m in &self.link_routes[l] {
                    row[m] += scale * point.phi[m];
                }
            }
        }
        for (l, routes) in self.link_routes.iter().enumerate() {
            let row = jac.row_mut(n_routes + l);
            for &m in routes {
                row[m] = point.phi[m] / self.betas[l];
            }
        }
        true
    }

    /// With `c_n = sigma psi'_n + lambda_(20c),n`, each route contributes
    /// `c_n varpi_n sum_{l on n} (diag(u_l) + u_l u_l^T)` (summed per link
    /// below) and `-(c_n varpi_n + sigma psi''_n varpi_n^2) v_n v_n^T`;
    /// (20a) adds `-lambda p_n` and (20b) `lambda p_m / beta_l` on the
    /// diagonal.
    // quhe-analyze: hot-path
    fn lagrangian_hessian_into(
        &self,
        varphi: &[f64],
        sigma: f64,
        lambda: &[f64],
        hess: &mut DenseMatrix,
    ) -> bool {
        let (n_routes, n_links) = (self.n_routes, self.betas.len());
        if lambda.len() != 2 * n_routes + n_links {
            return false;
        }
        let (rate, rest) = lambda.split_at(n_routes);
        let (capacity, secrecy) = rest.split_at(n_links);
        let mut point = self.evaluate(varphi);
        let P3Point {
            phi,
            varpi,
            slope,
            curvature,
            inv_slack,
            spread,
            ..
        } = &mut *point;
        hess.reshape_zeroed(n_routes, n_routes);
        for (l, routes) in self.link_routes.iter().enumerate() {
            let weight = routes
                .iter()
                .map(|&n| (sigma * slope[n] + secrecy[n]) * varpi[n])
                .sum::<f64>();
            let inv = inv_slack[l];
            let diagonal = capacity[l] / self.betas[l];
            for &m in routes {
                let scaled = weight * phi[m] * inv;
                let row = hess.row_mut(m);
                row[m] += scaled + diagonal * phi[m];
                for &k in routes {
                    row[k] += scaled * phi[k] * inv;
                }
            }
        }
        for (n, links) in self.route_links.iter().enumerate() {
            let coefficient =
                -(sigma * slope[n] + secrecy[n] + sigma * curvature[n] * varpi[n]) * varpi[n];
            hess.row_mut(n)[n] -= rate[n] * phi[n];
            spread.fill(0.0);
            for &l in links {
                for &m in &self.link_routes[l] {
                    spread[m] += phi[m] * inv_slack[l];
                }
            }
            for (j, &vj) in spread.iter().enumerate() {
                if vj == 0.0 {
                    continue;
                }
                let scaled = coefficient * vj;
                for (h, &vk) in hess.row_mut(j).iter_mut().zip(spread.iter()) {
                    *h += scaled * vk;
                }
            }
        }
        true
    }
}

/// Result of Stage 1.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stage1Result {
    /// Optimal entanglement rates `phi*`.
    pub phi: Vec<f64>,
    /// Optimal Werner parameters `w*` from Eq. (18).
    pub w: Vec<f64>,
    /// The P3 (minimization) objective value at the solution.
    pub objective: f64,
    /// P3 objective after each outer iteration of the interior-point solve
    /// (reproduces the paper's Fig. 4(a)).
    pub trace: Vec<f64>,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Number of solver iterations.
    pub iterations: usize,
}

/// The Stage-1 solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage1Solver;

impl Stage1Solver {
    /// Creates a Stage-1 solver.
    pub fn new() -> Self {
        Self
    }

    /// The P3 minimization objective
    /// `-sum_n ln F_skf(varpi_n(phi)) - sum_n ln phi_n`
    /// evaluated at a rate vector `phi`, returning `+inf` when `phi` is
    /// infeasible (violates the minimum rate, a link capacity, or the
    /// secret-key-fraction threshold). The constant `-ln(alpha_qkd)` of
    /// Eq. (19) is omitted exactly as the paper does.
    pub fn p3_objective(problem: &Problem, phi: &[f64]) -> f64 {
        let scenario = problem.scenario();
        let incidence = scenario.qkd().incidence();
        let betas = scenario.qkd().betas();
        let phi_min = problem.config().min_entanglement_rate;
        if phi.len() != incidence.num_routes() {
            return f64::INFINITY;
        }
        if phi.iter().any(|&p| !(p.is_finite() && p >= phi_min)) {
            return f64::INFINITY;
        }
        // Werner parameters implied by Eq. (18); infeasible if a link is
        // saturated.
        let w = match optimal_werner(incidence, phi, &betas) {
            Ok(w) => w,
            Err(_) => return f64::INFINITY,
        };
        let mut total = 0.0;
        for (n, &p) in phi.iter().enumerate() {
            let varpi: f64 = incidence
                .links_on_route(n)
                .into_iter()
                .map(|l| w[l])
                .product();
            if varpi <= SKF_THRESHOLD {
                return f64::INFINITY;
            }
            let skf = secret_key_fraction_raw(varpi);
            total -= skf.ln() + p.ln();
        }
        total
    }

    /// Per-route upper bounds on `phi` used by the sampling-based baselines:
    /// route `n` can never exceed `min_l beta_l / |routes sharing l|` over its
    /// links without saturating a link.
    pub fn phi_upper_bounds(problem: &Problem) -> Vec<f64> {
        let scenario = problem.scenario();
        let incidence = scenario.qkd().incidence();
        let betas = scenario.qkd().betas();
        (0..incidence.num_routes())
            .map(|n| {
                incidence
                    .links_on_route(n)
                    .into_iter()
                    .map(|l| betas[l] / incidence.routes_using_link(l).len().max(1) as f64)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Solves Stage 1: problem P3 in `varphi = ln(phi)` via the interior-point
    /// solver, then recovers `phi* = exp(varphi*)` and `w*` from Eq. (18)
    /// (Algorithm 1 of the paper).
    ///
    /// # Errors
    /// * [`QuheError::Opt`] if the convex solver fails.
    /// * [`QuheError::Qkd`] if the scenario is inconsistent (minimum rates
    ///   saturating a link).
    pub fn solve(&self, problem: &Problem) -> QuheResult<Stage1Result> {
        let start = Instant::now();
        let scenario = problem.scenario();
        let incidence = scenario.qkd().incidence();
        let phi_min = problem.config().min_entanglement_rate;

        let barrier_problem = P3Problem::new(incidence, scenario.qkd().betas(), phi_min);
        let solver = BarrierSolver::default();
        let solution = solver.solve(&barrier_problem, None)?;

        let phi: Vec<f64> = solution.inner.solution.iter().map(|v| v.exp()).collect();
        let w = optimal_werner(incidence, &phi, &barrier_problem.betas)?;
        let objective_value = Self::p3_objective(problem, &phi);
        if !objective_value.is_finite() {
            return Err(QuheError::ConstraintViolation {
                reason: "stage 1 produced an infeasible rate vector".to_string(),
            });
        }

        Ok(Stage1Result {
            phi,
            w,
            objective: objective_value,
            trace: solution.inner.trace,
            runtime_s: start.elapsed().as_secs_f64(),
            iterations: solution.inner.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use quhe_opt::barrier::BarrierDerivatives;
    use quhe_opt::diff::{central_gradient, central_hessian};
    use quhe_opt::newton::NewtonConfig;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::online::{OnlineTraceConfig, SystemTrace};
    use crate::params::QuheConfig;
    use crate::registry::ScenarioCatalog;
    use crate::scenario::SystemScenario;

    fn problem() -> Problem {
        Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap()
    }

    #[test]
    fn stage1_produces_feasible_rates_and_werners() {
        let p = problem();
        let result = Stage1Solver::new().solve(&p).unwrap();
        assert_eq!(result.phi.len(), 6);
        assert_eq!(result.w.len(), 18);
        // Rates respect the minimum.
        assert!(result.phi.iter().all(|&phi| phi >= 0.5 - 1e-6));
        // Werner parameters in (0, 1].
        assert!(result.w.iter().all(|&w| w > 0.0 && w <= 1.0));
        // Every route stays above the secret-key threshold.
        let incidence = p.scenario().qkd().incidence();
        for n in 0..6 {
            let varpi: f64 = incidence
                .links_on_route(n)
                .into_iter()
                .map(|l| result.w[l])
                .product();
            assert!(varpi > SKF_THRESHOLD, "route {n} below threshold: {varpi}");
        }
        assert!(result.objective.is_finite());
        assert!(result.runtime_s >= 0.0);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn stage1_improves_over_the_minimum_rate_point() {
        let p = problem();
        let result = Stage1Solver::new().solve(&p).unwrap();
        let at_minimum = Stage1Solver::p3_objective(&p, &[0.5; 6]);
        assert!(
            result.objective < at_minimum,
            "stage 1 ({}) should beat the trivial point ({})",
            result.objective,
            at_minimum
        );
    }

    #[test]
    fn stage1_trace_is_nonincreasing() {
        let result = Stage1Solver::new().solve(&problem()).unwrap();
        for pair in result.trace.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-6);
        }
    }

    #[test]
    fn p3_objective_flags_infeasible_points() {
        let p = problem();
        assert!(Stage1Solver::p3_objective(&p, &[0.1; 6]).is_infinite());
        assert!(Stage1Solver::p3_objective(&p, &[100.0; 6]).is_infinite());
        assert!(Stage1Solver::p3_objective(&p, &[1.0; 5]).is_infinite());
        assert!(Stage1Solver::p3_objective(&p, &[1.0; 6]).is_finite());
    }

    /// P3 with only its objective and constraints, so the barrier solver
    /// differentiates it by central differences: the reference the exact
    /// derivatives are held to.
    struct FiniteDifferenced<'a>(&'a P3Problem);

    impl InequalityProblem for FiniteDifferenced<'_> {
        fn dimension(&self) -> usize {
            self.0.dimension()
        }

        fn objective(&self, varphi: &[f64]) -> f64 {
            self.0.objective(varphi)
        }

        fn constraints(&self, varphi: &[f64]) -> Vec<f64> {
            self.0.constraints(varphi)
        }

        fn constraints_into(&self, varphi: &[f64], out: &mut Vec<f64>) {
            self.0.constraints_into(varphi, out);
        }

        fn strictly_feasible_point(&self) -> Option<Vec<f64>> {
            self.0.strictly_feasible_point()
        }
    }

    fn p3(scenario: &SystemScenario) -> P3Problem {
        let qkd = scenario.qkd();
        let phi_min = QuheConfig::default().min_entanglement_rate;
        P3Problem::new(qkd.incidence(), qkd.betas(), phi_min)
    }

    /// Each catalogue world at `seed` and its first drift step, as the
    /// service resolves a drifted request.
    fn worlds(seed: u64) -> Vec<(String, usize, SystemScenario)> {
        let catalog = ScenarioCatalog::builtin();
        let drift = OnlineTraceConfig {
            drift_amplitude: 0.01,
            key_rate_drift: 0.01,
            ..OnlineTraceConfig::drift_only(1)
        };
        let mut worlds = Vec::new();
        for name in catalog.names() {
            worlds.push((name.to_string(), 0, catalog.generate(name, seed).unwrap()));
            let trace = SystemTrace::generate(&catalog, name, seed, &drift).unwrap();
            let step = trace.steps().last().unwrap().scenario.clone();
            worlds.push((name.to_string(), 1, step));
        }
        worlds
    }

    #[test]
    fn analytic_barrier_derivatives_match_finite_differences() {
        let newton = NewtonConfig::default();
        let mut exact = BarrierDerivatives::new();
        let (mut grad, mut hess) = (Vec::new(), DenseMatrix::default());
        let catalog = ScenarioCatalog::builtin();
        for seed in [1, 7, 42] {
            for name in catalog.names() {
                let problem = p3(&catalog.generate(name, seed).unwrap());
                let start = problem.start.clone();
                let optimum = BarrierSolver::default()
                    .solve(&problem, None)
                    .unwrap()
                    .inner
                    .solution;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut points = 0;
                while points < 4 {
                    // Between the start and the optimum, jittered, with room
                    // for the finite-difference stencil inside the domain.
                    let x: Vec<f64> = start
                        .iter()
                        .zip(&optimum)
                        .map(|(&a, &b)| {
                            a + rng.gen_range(0.05..0.95) * (b - a) + rng.gen_range(-0.02..0.02)
                        })
                        .collect();
                    if problem.constraints(&x).iter().any(|&g| g > -1e-3) {
                        continue;
                    }
                    points += 1;
                    for t in [1.0, 1e2, 1e4] {
                        let barrier = |y: &[f64]| {
                            let mut value = t * problem.objective(y);
                            for g in problem.constraints(y) {
                                if g >= 0.0 {
                                    return f64::INFINITY;
                                }
                                value -= (-g).ln();
                            }
                            value
                        };
                        assert!(exact.evaluate(&problem, t, &x, &mut grad, &mut hess));
                        let fd_grad = central_gradient(&barrier, &x, newton.fd_step);
                        let fd_hess = central_hessian(&barrier, &x, newton.fd_step.sqrt() * 1e-2);
                        let scale = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
                        for (j, (&a, &f)) in grad.iter().zip(&fd_grad).enumerate() {
                            assert!(
                                (a - f).abs() <= 1e-6 * scale,
                                "{name}/{seed} t={t}: gradient {j}: exact {a}, fd {f}"
                            );
                        }
                        let n = x.len();
                        let largest = (0..n * n)
                            .map(|i| hess.get(i / n, i % n).abs())
                            .fold(0.0f64, f64::max);
                        for i in 0..n * n {
                            let (a, f) = (hess.get(i / n, i % n), fd_hess.get(i / n, i % n));
                            assert!(
                                (a - f).abs() <= 1e-4 * largest,
                                "{name}/{seed} t={t}: hessian {i}: exact {a}, fd {f}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn p3_solves_match_the_finite_difference_solve() {
        let solver = BarrierSolver::default();
        for seed in [42, 7] {
            for (name, step, scenario) in worlds(seed) {
                let problem = p3(&scenario);
                let exact = solver.solve(&problem, None).unwrap().inner;
                let fd = solver
                    .solve(&FiniteDifferenced(&problem), None)
                    .unwrap()
                    .inner;
                let at = format!("{name}/{seed} step {step}");
                assert_eq!(exact.iterations, fd.iterations, "{at}: outer iterations");
                for (a, f) in exact.solution.iter().zip(&fd.solution) {
                    let (a, f) = (a.exp(), f.exp());
                    assert!((a - f).abs() <= 1e-8 * f, "{at}: rate {a} vs {f}");
                }
                assert!(
                    (exact.objective - fd.objective).abs() <= 1e-12 * fd.objective.abs(),
                    "{at}: objective {} vs {}",
                    exact.objective,
                    fd.objective
                );
            }
        }
    }

    #[test]
    fn phi_upper_bounds_reflect_shared_links() {
        let p = problem();
        let bounds = Stage1Solver::phi_upper_bounds(&p);
        assert_eq!(bounds.len(), 6);
        // Routes 4-6 share link 15 (beta 80.54 over three routes).
        assert!(bounds[3] <= 80.54 / 3.0 + 1e-9);
        assert!(bounds.iter().all(|&b| b > 0.5));
    }
}
