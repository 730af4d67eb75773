//! Stage 1 of the QuHE algorithm: entanglement rates and Werner parameters.
//!
//! With the other blocks fixed, the objective of problem P1 depends on
//! `(phi, w)` only through the QKD network utility, which is monotone in
//! every `w_l`; therefore each link operates at the largest Werner parameter
//! its capacity allows (Eq. 18), and the remaining problem in `phi` is made
//! convex by the substitution `varphi_n = ln(phi_n)` (problem P3, Eq. 20).
//! This module solves P3 with the log-barrier interior-point method of
//! `quhe-opt` — the role CVX plays in the paper — and exposes the P3
//! objective so the Stage-1 baselines (gradient descent, simulated annealing,
//! random selection) can optimize exactly the same function.

use std::cell::{RefCell, RefMut};
use std::time::Instant;

use quhe_opt::barrier::{BarrierSolver, InequalityProblem};
use quhe_qkd::allocation::optimal_werner;
use quhe_qkd::routes::IncidenceMatrix;
use quhe_qkd::secret_key::{secret_key_fraction_raw, SKF_THRESHOLD};

use crate::error::{QuheError, QuheResult};
use crate::problem::Problem;

/// Small margin keeping iterates strictly inside open constraints.
const STRICT_MARGIN: f64 = 1e-6;

/// The P3 quantities of the last point evaluated, kept up to date one
/// coordinate at a time.
///
/// The barrier solver evaluates the feasibility predicate, the objective and
/// the constraint vector of the *same* trial point back to back, and its
/// finite-difference derivatives evaluate points that each differ from the
/// one before in one to three coordinates. [`P3Problem::refresh`] therefore
/// recomputes only what a changed coordinate feeds: the coordinate's `exp`,
/// the load and Werner factor of each link on its route, and `varpi` and the
/// objective term of each route that crosses such a link (and of the route
/// itself). Every cached value is the same expression of the same input
/// bits as a full recompute, in the same accumulation order, so the values
/// are bit-identical to evaluating the point from scratch.
#[derive(Debug)]
struct P3Cache {
    /// Bits of the point the cached values belong to.
    varphi: Vec<u64>,
    /// `phi_n = exp(varphi_n)`.
    phi: Vec<f64>,
    /// Per-link load `sum_{n on l} phi_n`, routes in ascending order.
    load: Vec<f64>,
    /// Per-link Werner factor `1 - load_l / beta_l`.
    factor: Vec<f64>,
    /// Per-route `varpi_n = prod_{l on n} factor_l`, links in ascending
    /// order.
    varpi: Vec<f64>,
    /// Per-route `ln F_skf(varpi_n) + ln phi_n`, the term the objective
    /// subtracts.
    term: Vec<f64>,
    /// Links whose load and factor are stale.
    link_dirty: Vec<bool>,
    /// Routes whose `varpi` and term are stale.
    route_dirty: Vec<bool>,
    /// No point evaluated yet: every coordinate counts as changed. A new
    /// cache also has every link and route marked, so the first evaluation
    /// computes every value, those of links no route crosses included.
    empty: bool,
}

/// Problem P3 (Eq. 20) in `varphi = ln(phi)` as an [`InequalityProblem`].
///
/// The route/link incidence lists are built once (ascending, matching the
/// incidence-matrix iteration order bit-for-bit), every cache buffer is
/// sized here, and the objective and constraints read the per-point values
/// of [`P3Cache`], so an evaluation allocates nothing and recomputes only
/// what changed since the previous point.
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
    cache: RefCell<P3Cache>,
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
        let cache = P3Cache {
            varphi: vec![0; n_routes],
            phi: vec![0.0; n_routes],
            load: vec![0.0; n_links],
            factor: vec![0.0; n_links],
            varpi: vec![0.0; n_routes],
            term: vec![0.0; n_routes],
            link_dirty: vec![true; n_links],
            route_dirty: vec![true; n_routes],
            empty: true,
        };
        Self {
            n_routes,
            phi_min,
            betas,
            route_links,
            link_routes,
            start,
            cache: RefCell::new(cache),
        }
    }

    /// Brings the cache to `varphi`: each coordinate whose bits changed gets
    /// a fresh `exp` and marks its route and the links on it, each marked
    /// link recomputes its load and factor and marks the routes crossing it,
    /// and each marked route recomputes `varpi` and its term.
    // quhe-analyze: hot-path
    fn refresh(&self, varphi: &[f64]) -> RefMut<'_, P3Cache> {
        let mut cache = self.cache.borrow_mut();
        let P3Cache {
            varphi: bits,
            phi,
            load,
            factor,
            varpi,
            term,
            link_dirty,
            route_dirty,
            empty,
        } = &mut *cache;
        for (n, (&v, b)) in varphi.iter().zip(bits.iter_mut()).enumerate() {
            if *b == v.to_bits() && !*empty {
                continue;
            }
            *b = v.to_bits();
            phi[n] = v.exp();
            route_dirty[n] = true;
            for &l in &self.route_links[n] {
                link_dirty[l] = true;
            }
        }
        *empty = false;
        for (l, routes) in self.link_routes.iter().enumerate() {
            if !link_dirty[l] {
                continue;
            }
            link_dirty[l] = false;
            load[l] = routes.iter().map(|&n| phi[n]).sum::<f64>();
            factor[l] = 1.0 - load[l] / self.betas[l];
            for &n in routes {
                route_dirty[n] = true;
            }
        }
        for (n, links) in self.route_links.iter().enumerate() {
            if !route_dirty[n] {
                continue;
            }
            route_dirty[n] = false;
            let mut product = 1.0;
            for &l in links {
                product *= factor[l];
            }
            varpi[n] = product;
            term[n] = secret_key_fraction_raw(product).ln() + phi[n].ln();
        }
        cache
    }
}

impl InequalityProblem for P3Problem {
    fn dimension(&self) -> usize {
        self.n_routes
    }

    // quhe-analyze: hot-path
    fn objective(&self, varphi: &[f64]) -> f64 {
        let cache = self.refresh(varphi);
        let mut total = 0.0;
        for (&varpi, &term) in cache.varpi.iter().zip(&cache.term) {
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
        let cache = self.refresh(varphi);
        out.clear();
        out.reserve(2 * self.n_routes + self.betas.len());
        // (20a) phi_min - phi_n <= 0.
        for &p in &cache.phi {
            out.push(self.phi_min - p);
        }
        // (20b) load_l / beta_l - (1 - margin) <= 0.
        for (&load, &beta) in cache.load.iter().zip(&self.betas) {
            out.push(load / beta - (1.0 - STRICT_MARGIN));
        }
        // (20c) threshold - varpi_n <= 0.
        for &varpi in &cache.varpi {
            out.push(SKF_THRESHOLD + STRICT_MARGIN - varpi);
        }
    }

    fn strictly_feasible_point(&self) -> Option<Vec<f64>> {
        Some(self.start.clone())
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
    use rand::{Rng, SeedableRng};

    use super::*;
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

    #[test]
    fn incremental_evaluations_match_a_fresh_problem_bit_for_bit() {
        let phi_min = QuheConfig::default().min_entanglement_rate;
        let catalog = ScenarioCatalog::builtin();
        for name in catalog.names() {
            let scenario = catalog.generate(name, 3).unwrap();
            let qkd = scenario.qkd();
            let fresh = || P3Problem::new(qkd.incidence(), qkd.betas(), phi_min);
            let walked = fresh();
            let n = walked.dimension();
            // Evaluates `x` on the walked problem, in either order, and on a
            // fresh one, and returns the objective once their bits agree.
            let check = |x: &[f64], constraints_first: bool| {
                let (objective, constraints) = if constraints_first {
                    let g = walked.constraints(x);
                    (walked.objective(x), g)
                } else {
                    (walked.objective(x), walked.constraints(x))
                };
                let reference = fresh();
                assert_eq!(
                    objective.to_bits(),
                    reference.objective(x).to_bits(),
                    "{name}: objective at {x:?}"
                );
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&constraints),
                    bits(&reference.constraints(x)),
                    "{name}: constraints at {x:?}"
                );
                objective
            };

            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let mut x = walked.start.clone();
            let mut visited = vec![x.clone()];
            check(&x, false);
            for step in 0..300 {
                if step % 7 == 3 {
                    x.clone_from(&visited[rng.gen_range(0..visited.len())]);
                } else {
                    // One to three coordinates, by a finite-difference step
                    // or a larger one.
                    for _ in 0..rng.gen_range(1..=3) {
                        let i = rng.gen_range(0..n);
                        let h = [1e-6, 1e-3, 0.05][rng.gen_range(0..3)];
                        x[i] += if rng.gen_bool(0.5) { h } else { -h };
                    }
                }
                check(&x, step % 2 == 1);
                visited.push(x.clone());
            }
            for v in x.iter_mut() {
                *v += rng.gen_range(-0.01..0.01);
            }
            check(&x, false);

            // From the feasible start, raise one rate until a route falls
            // below the secret-key threshold, then step back.
            let mut x = walked.start.clone();
            assert!(check(&x, false).is_finite(), "{name}: start infeasible");
            let i = rng.gen_range(0..n);
            let mut pushes = 0;
            let mut feasible = x[i];
            while check(&x, pushes % 2 == 1).is_finite() {
                assert!(
                    pushes < 200,
                    "{name}: route {i} never left the feasible set"
                );
                feasible = x[i];
                x[i] += 0.1;
                pushes += 1;
            }
            assert!(
                walked
                    .cache
                    .borrow()
                    .varpi
                    .iter()
                    .any(|&varpi| varpi <= SKF_THRESHOLD),
                "{name}: +inf without a route below the threshold"
            );
            x[i] = feasible;
            assert!(check(&x, false).is_finite(), "{name}: no way back");
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
