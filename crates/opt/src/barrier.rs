//! Log-barrier interior-point method for smooth convex problems with
//! inequality constraints.
//!
//! This plays the role CVX plays in the paper's Matlab evaluation: Stage 1
//! (problem P3, Eq. 20) and Stage 3 (problem P6, Eq. 28) are both smooth
//! convex programs with inequality constraints, solved here by the classical
//! barrier method — minimize `t f(x) - sum_i ln(-g_i(x))` for an increasing
//! sequence of `t`, each centering step solved with damped Newton. The
//! `L / t` quantity (number of constraints over the barrier parameter) is the
//! standard duality-gap bound and is what this reproduction reports as the
//! "duality gap" trace of the paper's Fig. 4(d).
//!
//! A problem that implements the three exact-derivative hooks of
//! [`InequalityProblem`] (objective gradient, constraint Jacobian and
//! Lagrangian Hessian) has each Newton step's barrier derivatives assembled
//! from them (Boyd & Vandenberghe, *Convex Optimization*, §11.2), with
//! `lambda_i = 1 / (-g_i)`:
//!
//! ```text
//! grad = t grad f + sum_i lambda_i grad g_i
//! hess = hess(t f + sum_i lambda_i g_i) + sum_i lambda_i^2 grad g_i grad g_i^T
//! ```
//!
//! A problem without them (every [`FnProblem`]) is differentiated by central
//! differences of the barrier objective.

use std::cell::RefCell;

use crate::error::{OptError, OptResult};
use crate::linalg::DenseMatrix;
use crate::newton::{DampedNewton, NewtonConfig, NewtonWorkspace};
use crate::OptimizeResult;

/// A smooth convex problem `minimize f(x) subject to g_i(x) <= 0`.
pub trait InequalityProblem {
    /// Dimension of the decision vector.
    fn dimension(&self) -> usize;
    /// Objective value at `x`.
    fn objective(&self, x: &[f64]) -> f64;
    /// Values of all inequality constraints `g_i(x)` (feasible iff all `<= 0`).
    fn constraints(&self, x: &[f64]) -> Vec<f64>;
    /// Writes the constraint values into `out` (cleared first), producing the
    /// same values in the same order as [`InequalityProblem::constraints`].
    ///
    /// The barrier solver calls this in its evaluation hot loop; problems
    /// that can fill a reused buffer without allocating should override the
    /// default, which simply delegates to the allocating variant.
    fn constraints_into(&self, x: &[f64], out: &mut Vec<f64>) {
        *out = self.constraints(x);
    }
    /// A strictly feasible starting point, if the caller knows one.
    fn strictly_feasible_point(&self) -> Option<Vec<f64>> {
        None
    }
    /// Writes `grad f(x)` into `grad` and returns `true`, or returns `false`
    /// (the default) when the problem has no analytic gradient.
    ///
    /// The three derivative hooks are an all-or-nothing set: the barrier
    /// solver differentiates the problem exactly only when all three return
    /// `true`, and calls them only at strictly feasible points.
    fn objective_gradient_into(&self, _x: &[f64], _grad: &mut Vec<f64>) -> bool {
        false
    }
    /// Writes the `m x n` constraint Jacobian (`jac[i][j] = d g_i / d x_j`,
    /// rows in the order of [`InequalityProblem::constraints`]) into `jac`
    /// and returns `true`, or returns `false` (the default).
    fn constraint_jacobian_into(&self, _x: &[f64], _jac: &mut DenseMatrix) -> bool {
        false
    }
    /// Writes the `n x n` Hessian of the Lagrangian
    /// `sigma f(x) + sum_i lambda_i g_i(x)` into `hess` and returns `true`,
    /// or returns `false` (the default).
    fn lagrangian_hessian_into(
        &self,
        _x: &[f64],
        _sigma: f64,
        _lambda: &[f64],
        _hess: &mut DenseMatrix,
    ) -> bool {
        false
    }
}

/// Storage for [`BarrierDerivatives::evaluate`], reused across Newton steps
/// so that assembling the barrier's derivatives allocates nothing once its
/// buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct BarrierDerivatives {
    constraints: Vec<f64>,
    lambda: Vec<f64>,
    objective_gradient: Vec<f64>,
    jacobian: DenseMatrix,
    support: Vec<usize>,
}

impl BarrierDerivatives {
    /// Empty storage; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the gradient and Hessian of the barrier objective
    /// `t f(x) - sum_i ln(-g_i(x))` at a strictly feasible `x` into `grad`
    /// and `hess`, assembled from the problem's exact-derivative hooks (see
    /// the module docs). Returns `false`, with the outputs unspecified, when
    /// the problem lacks one of the hooks.
    // quhe-analyze: hot-path
    pub fn evaluate<P>(
        &mut self,
        problem: &P,
        t: f64,
        x: &[f64],
        grad: &mut Vec<f64>,
        hess: &mut DenseMatrix,
    ) -> bool
    where
        P: InequalityProblem,
    {
        if !problem.objective_gradient_into(x, &mut self.objective_gradient)
            || !problem.constraint_jacobian_into(x, &mut self.jacobian)
        {
            return false;
        }
        problem.constraints_into(x, &mut self.constraints);
        self.lambda.clear();
        self.lambda
            .extend(self.constraints.iter().map(|&g| 1.0 / -g));
        if !problem.lagrangian_hessian_into(x, t, &self.lambda, hess) {
            return false;
        }
        grad.clear();
        grad.extend(self.objective_gradient.iter().map(|&d| t * d));
        for (i, &lambda) in self.lambda.iter().enumerate() {
            let row = self.jacobian.row(i);
            self.support.clear();
            self.support
                .extend((0..row.len()).filter(|&j| row[j] != 0.0));
            let weight = lambda * lambda;
            for &j in &self.support {
                grad[j] += lambda * row[j];
                let scaled = weight * row[j];
                let hess_row = hess.row_mut(j);
                for &k in &self.support {
                    hess_row[k] += scaled * row[k];
                }
            }
        }
        true
    }
}

/// A closure-backed [`InequalityProblem`], convenient for tests and for the
/// QuHE stages where objective and constraints are already captured in
/// closures.
pub struct FnProblem<F, G> {
    dimension: usize,
    objective: F,
    constraints: G,
    start: Option<Vec<f64>>,
}

impl<F, G> std::fmt::Debug for FnProblem<F, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnProblem")
            .field("dimension", &self.dimension)
            .field("start", &self.start)
            .finish_non_exhaustive()
    }
}

impl<F, G> FnProblem<F, G>
where
    F: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> Vec<f64>,
{
    /// Creates a problem from an objective and a constraint-vector closure.
    pub fn new(dimension: usize, objective: F, constraints: G) -> Self {
        Self {
            dimension,
            objective,
            constraints,
            start: None,
        }
    }

    /// Registers a strictly feasible starting point.
    #[must_use]
    pub fn with_start(mut self, start: Vec<f64>) -> Self {
        self.start = Some(start);
        self
    }
}

impl<F, G> InequalityProblem for FnProblem<F, G>
where
    F: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> Vec<f64>,
{
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn objective(&self, x: &[f64]) -> f64 {
        (self.objective)(x)
    }

    fn constraints(&self, x: &[f64]) -> Vec<f64> {
        (self.constraints)(x)
    }

    fn strictly_feasible_point(&self) -> Option<Vec<f64>> {
        self.start.clone()
    }
}

/// Configuration of the barrier method.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BarrierConfig {
    /// Initial barrier parameter `t`.
    pub initial_t: f64,
    /// Multiplicative increase of `t` between outer iterations (`mu`).
    pub mu: f64,
    /// Target duality gap `m / t` at which to stop (`m` = number of
    /// constraints). The paper's accuracy tolerance is `1e-4`; its Fig. 4(d)
    /// shows the gap reaching `1e-5`.
    pub gap_tolerance: f64,
    /// Maximum number of outer (centering) iterations.
    pub max_outer_iterations: usize,
    /// Newton configuration used for each centering step.
    pub newton: NewtonConfig,
}

impl Default for BarrierConfig {
    fn default() -> Self {
        Self {
            initial_t: 1.0,
            mu: 8.0,
            gap_tolerance: 1e-5,
            max_outer_iterations: 60,
            newton: NewtonConfig::default(),
        }
    }
}

impl BarrierConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`OptError::InvalidConfig`] for out-of-range parameters.
    pub fn validate(&self) -> OptResult<()> {
        if !(self.initial_t > 0.0) {
            return Err(OptError::InvalidConfig {
                reason: "initial_t must be positive".to_string(),
            });
        }
        if !(self.mu > 1.0) {
            return Err(OptError::InvalidConfig {
                reason: "mu must exceed 1".to_string(),
            });
        }
        if !(self.gap_tolerance > 0.0) {
            return Err(OptError::InvalidConfig {
                reason: "gap_tolerance must be positive".to_string(),
            });
        }
        if self.max_outer_iterations == 0 {
            return Err(OptError::InvalidConfig {
                reason: "max_outer_iterations must be at least 1".to_string(),
            });
        }
        self.newton.validate()
    }
}

/// Result of a barrier solve, including the duality-gap trace used to
/// reproduce Fig. 4(d) of the paper.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BarrierResult {
    /// The continuous optimization result (solution, objective, trace of the
    /// true objective after each centering step).
    pub inner: OptimizeResult,
    /// Duality-gap bound `m / t` after each outer iteration.
    pub gap_trace: Vec<f64>,
}

/// Log-barrier interior-point solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierSolver {
    config: BarrierConfig,
}

impl BarrierSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: BarrierConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BarrierConfig {
        &self.config
    }

    /// Solves the inequality-constrained problem starting from `start`
    /// (which must be strictly feasible) or, when `start` is `None`, from the
    /// problem's own strictly feasible point.
    ///
    /// Each Newton step takes the barrier's gradient and Hessian from the
    /// problem's exact-derivative hooks ([`BarrierDerivatives::evaluate`])
    /// when it implements them, and from central differences of the barrier
    /// objective otherwise. The barrier objective takes `ln(-g_i)` only of
    /// constraints whose value changed since its previous evaluation and
    /// reuses the log of the rest, which gives the same bits as taking every
    /// log afresh.
    ///
    /// # Errors
    /// * [`OptError::InvalidConfig`] for an invalid configuration.
    /// * [`OptError::InfeasibleStart`] when no strictly feasible starting
    ///   point is available.
    pub fn solve<P>(&self, problem: &P, start: Option<&[f64]>) -> OptResult<BarrierResult>
    where
        P: InequalityProblem,
    {
        self.config.validate()?;
        let start: Vec<f64> = match start {
            Some(s) => s.to_vec(),
            None => problem
                .strictly_feasible_point()
                .ok_or_else(|| OptError::InfeasibleStart {
                    reason: "no strictly feasible starting point provided".to_string(),
                })?,
        };
        if start.len() != problem.dimension() {
            return Err(OptError::DimensionMismatch {
                expected: problem.dimension(),
                actual: start.len(),
            });
        }
        // Each closure owns one constraint buffer (distinct cells, so the
        // feasibility check inside the Newton line search never aliases the
        // barrier objective's buffer); all constraint evaluations of the
        // whole solve reuse these two allocations.
        let feas_buf = RefCell::new(Vec::new());
        let strictly_feasible = |x: &[f64]| {
            let mut g = feas_buf.borrow_mut();
            problem.constraints_into(x, &mut g);
            g.iter().all(|&g| g < 0.0 && g.is_finite())
        };
        if !strictly_feasible(&start) {
            return Err(OptError::InfeasibleStart {
                reason: "starting point violates strict feasibility".to_string(),
            });
        }

        let m = problem.constraints(&start).len().max(1) as f64;
        let mut t = self.config.initial_t;
        let mut x = start;
        let mut objective_trace = vec![problem.objective(&x)];
        let mut gap_trace = Vec::new();
        let newton = DampedNewton::new(self.config.newton);
        let mut newton_ws = NewtonWorkspace::new();
        let mut exact = BarrierDerivatives::new();
        let obj_buf = RefCell::new(Vec::new());
        // Per constraint index, the bits of its last value and that value's
        // `ln(-g)`. Successive finite-difference points differ in one to
        // three coordinates, so most constraint values repeat, and a value
        // whose bits repeat reuses its log. Keyed on `g` alone, the memo
        // stays valid as `t` grows. Entries start at `(-1, ln 1 = 0)`, which
        // is consistent.
        let log_memo = RefCell::new(Vec::new());
        let mut outer = 0;
        let mut converged = false;

        while outer < self.config.max_outer_iterations {
            outer += 1;
            let t_now = t;
            let barrier_objective = |y: &[f64]| {
                let mut value = t_now * problem.objective(y);
                let mut constraints = obj_buf.borrow_mut();
                problem.constraints_into(y, &mut constraints);
                let mut memo = log_memo.borrow_mut();
                memo.resize(constraints.len(), ((-1.0f64).to_bits(), 0.0));
                for (&g, (bits, log)) in constraints.iter().zip(memo.iter_mut()) {
                    if g >= 0.0 {
                        return f64::INFINITY;
                    }
                    if *bits != g.to_bits() {
                        *bits = g.to_bits();
                        *log = (-g).ln();
                    }
                    value -= *log;
                }
                value
            };
            let centered = newton.minimize_with_derivatives(
                &barrier_objective,
                |y: &[f64], grad: &mut Vec<f64>, hess: &mut DenseMatrix| {
                    exact.evaluate(problem, t_now, y, grad, hess)
                },
                &strictly_feasible,
                &x,
                &mut newton_ws,
            )?;
            x = centered.solution;
            objective_trace.push(problem.objective(&x));
            let gap = m / t_now;
            gap_trace.push(gap);
            if gap < self.config.gap_tolerance {
                converged = true;
                break;
            }
            t *= self.config.mu;
        }

        let objective = problem.objective(&x);
        Ok(BarrierResult {
            inner: OptimizeResult {
                solution: x,
                objective,
                iterations: outer,
                converged,
                trace: objective_trace,
            },
            gap_trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_linear_program_over_box() {
        // minimize -x0 - 2 x1 s.t. 0 <= x <= 1 -> optimum at (1, 1).
        let problem = FnProblem::new(
            2,
            |x: &[f64]| -x[0] - 2.0 * x[1],
            |x: &[f64]| vec![-x[0], -x[1], x[0] - 1.0, x[1] - 1.0],
        )
        .with_start(vec![0.5, 0.5]);
        let solver = BarrierSolver::default();
        let res = solver.solve(&problem, None).unwrap();
        assert!((res.inner.solution[0] - 1.0).abs() < 1e-3);
        assert!((res.inner.solution[1] - 1.0).abs() < 1e-3);
        assert!(res.inner.converged);
    }

    #[test]
    fn gap_trace_is_monotone_decreasing() {
        let problem = FnProblem::new(
            1,
            |x: &[f64]| (x[0] - 0.3).powi(2),
            |x: &[f64]| vec![-x[0], x[0] - 1.0],
        )
        .with_start(vec![0.5]);
        let res = BarrierSolver::default().solve(&problem, None).unwrap();
        for w in res.gap_trace.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert!(*res.gap_trace.last().unwrap() < 1e-4);
    }

    #[test]
    fn quadratic_with_budget_constraint() {
        // minimize (x0-3)^2 + (x1-3)^2 s.t. x >= 0, x0 + x1 <= 2 -> (1,1).
        let problem = FnProblem::new(
            2,
            |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] - 3.0).powi(2),
            |x: &[f64]| vec![-x[0], -x[1], x[0] + x[1] - 2.0],
        )
        .with_start(vec![0.5, 0.5]);
        let res = BarrierSolver::default().solve(&problem, None).unwrap();
        assert!((res.inner.solution[0] - 1.0).abs() < 2e-3);
        assert!((res.inner.solution[1] - 1.0).abs() < 2e-3);
    }

    #[test]
    fn rejects_infeasible_start() {
        let problem = FnProblem::new(1, |x: &[f64]| x[0], |x: &[f64]| vec![-x[0]]);
        let solver = BarrierSolver::default();
        assert!(matches!(
            solver.solve(&problem, Some(&[-1.0])),
            Err(OptError::InfeasibleStart { .. })
        ));
        // And with no start at all:
        assert!(matches!(
            solver.solve(&problem, None),
            Err(OptError::InfeasibleStart { .. })
        ));
    }

    /// [`BarrierSolver::solve`] written out without the log memo: each
    /// centering step minimizes a barrier objective that takes `ln(-g)` of
    /// every constraint on every evaluation.
    fn unmemoized_solve<P: InequalityProblem>(problem: &P, start: &[f64]) -> BarrierResult {
        let config = BarrierConfig::default();
        let in_domain = |x: &[f64]| {
            problem
                .constraints(x)
                .iter()
                .all(|&g| g < 0.0 && g.is_finite())
        };
        let m = problem.constraints(start).len().max(1) as f64;
        let newton = DampedNewton::new(config.newton);
        let mut ws = NewtonWorkspace::new();
        let mut t = config.initial_t;
        let mut x = start.to_vec();
        let mut trace = vec![problem.objective(&x)];
        let mut gap_trace = Vec::new();
        let mut outer = 0;
        let mut converged = false;
        while outer < config.max_outer_iterations {
            outer += 1;
            let t_now = t;
            let barrier_objective = |y: &[f64]| {
                let mut value = t_now * problem.objective(y);
                for g in problem.constraints(y) {
                    if g >= 0.0 {
                        return f64::INFINITY;
                    }
                    value -= (-g).ln();
                }
                value
            };
            x = newton
                .minimize_with(&barrier_objective, &in_domain, &x, &mut ws)
                .unwrap()
                .solution;
            trace.push(problem.objective(&x));
            gap_trace.push(m / t_now);
            if m / t_now < config.gap_tolerance {
                converged = true;
                break;
            }
            t *= config.mu;
        }
        BarrierResult {
            inner: OptimizeResult {
                objective: problem.objective(&x),
                solution: x,
                iterations: outer,
                converged,
                trace,
            },
            gap_trace,
        }
    }

    fn assert_same_bits(got: &BarrierResult, want: &BarrierResult) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.inner.solution), bits(&want.inner.solution));
        assert_eq!(bits(&got.inner.trace), bits(&want.inner.trace));
        assert_eq!(bits(&got.gap_trace), bits(&want.gap_trace));
        assert_eq!(
            got.inner.objective.to_bits(),
            want.inner.objective.to_bits()
        );
        assert_eq!(got.inner.iterations, want.inner.iterations);
        assert_eq!(got.inner.converged, want.inner.converged);
    }

    #[test]
    fn the_log_memo_matches_an_unmemoized_barrier_bit_for_bit() {
        // Box constraints and a budget: a finite-difference step in one
        // coordinate leaves every other coordinate's box constraints as they
        // were.
        let boxed = FnProblem::new(
            4,
            |x: &[f64]| {
                x.iter()
                    .enumerate()
                    .map(|(i, &v)| (v - 0.9 + 0.1 * i as f64).powi(2))
                    .sum::<f64>()
            },
            |x: &[f64]| {
                let mut g: Vec<f64> = x.iter().map(|&v| -v).collect();
                g.extend(x.iter().map(|&v| v - 1.0));
                g.push(x.iter().sum::<f64>() - 2.0);
                g
            },
        )
        .with_start(vec![0.25; 4]);
        // A chain: each constraint couples two neighbours, so a step moves
        // two of them and the rest repeat.
        let chain = FnProblem::new(
            5,
            |x: &[f64]| -x.iter().map(|&v| (1.0 + v).ln()).sum::<f64>() + 0.3 * x[0] * x[4],
            |x: &[f64]| {
                let mut g: Vec<f64> = x.windows(2).map(|w| w[0] + 2.0 * w[1] - 1.5).collect();
                g.extend(x.iter().map(|&v| -v));
                g
            },
        )
        .with_start(vec![0.1; 5]);
        let solver = BarrierSolver::default();
        let got = solver.solve(&boxed, None).unwrap();
        assert!(got.inner.converged);
        assert_same_bits(&got, &unmemoized_solve(&boxed, &[0.25; 4]));
        let got = solver.solve(&chain, None).unwrap();
        assert!(got.inner.converged);
        assert_same_bits(&got, &unmemoized_solve(&chain, &[0.1; 5]));
    }

    /// `minimize sum_i (exp(x_i) - c_i x_i)` over the unit ball and
    /// `x_i > -1/2`, with hand-written derivative hooks. Every `c_i` lies in
    /// `(e^-1/2, e^1)` and `|ln c| < 1`, so the optimum `ln c` is interior,
    /// where the finite-difference solve is accurate to far below 1e-8.
    struct ExpOverBall {
        c: Vec<f64>,
    }

    impl InequalityProblem for ExpOverBall {
        fn dimension(&self) -> usize {
            self.c.len()
        }

        fn objective(&self, x: &[f64]) -> f64 {
            x.iter().zip(&self.c).map(|(&v, &c)| v.exp() - c * v).sum()
        }

        fn constraints(&self, x: &[f64]) -> Vec<f64> {
            let mut g = vec![x.iter().map(|v| v * v).sum::<f64>() - 1.0];
            g.extend(x.iter().map(|&v| -v - 0.5));
            g
        }

        fn strictly_feasible_point(&self) -> Option<Vec<f64>> {
            Some(vec![0.0; self.c.len()])
        }

        fn objective_gradient_into(&self, x: &[f64], grad: &mut Vec<f64>) -> bool {
            grad.clear();
            grad.extend(x.iter().zip(&self.c).map(|(&v, &c)| v.exp() - c));
            true
        }

        fn constraint_jacobian_into(&self, x: &[f64], jac: &mut DenseMatrix) -> bool {
            let n = x.len();
            jac.reshape_zeroed(n + 1, n);
            for (i, &v) in x.iter().enumerate() {
                jac.set(0, i, 2.0 * v);
                jac.set(i + 1, i, -1.0);
            }
            true
        }

        fn lagrangian_hessian_into(
            &self,
            x: &[f64],
            sigma: f64,
            lambda: &[f64],
            hess: &mut DenseMatrix,
        ) -> bool {
            let n = x.len();
            hess.reshape_zeroed(n, n);
            for (i, &v) in x.iter().enumerate() {
                hess.set(i, i, sigma * v.exp() + 2.0 * lambda[0]);
            }
            true
        }
    }

    #[test]
    fn exact_derivative_hooks_reach_the_finite_difference_solution() {
        let exact = ExpOverBall {
            c: vec![1.2, 0.9, 1.1],
        };
        let twin = FnProblem::new(
            3,
            |x: &[f64]| exact.objective(x),
            |x: &[f64]| exact.constraints(x),
        )
        .with_start(vec![0.0; 3]);
        let solver = BarrierSolver::default();
        let got = solver.solve(&exact, None).unwrap();
        let want = solver.solve(&twin, None).unwrap();
        assert!(got.inner.converged && want.inner.converged);
        assert_eq!(got.inner.iterations, want.inner.iterations);
        for (a, b) in got.inner.solution.iter().zip(&want.inner.solution) {
            assert!((a - b).abs() <= 1e-8, "{a} vs {b}");
        }
        for (x, c) in got.inner.solution.iter().zip(&exact.c) {
            assert!((x - c.ln()).abs() < 1e-4, "{x} vs ln {c}");
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = BarrierConfig {
            mu: 1.0,
            ..BarrierConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
