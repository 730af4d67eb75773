//! Damped Newton method for smooth convex minimization.
//!
//! Used by the log-barrier solver ([`crate::barrier`]) as the inner "centering"
//! step, mirroring how CVX's interior-point solver handles the convex
//! subproblems of the QuHE paper's Stage 1 and Stage 3. Each step takes its
//! gradient and Hessian from a caller's exact-derivative oracle when one is
//! given ([`DampedNewton::minimize_with_derivatives`]) and from central
//! finite differences otherwise.

use crate::diff::{central_gradient_into, central_hessian_into};
use crate::error::{OptError, OptResult};
use crate::linalg::{CholeskyFactor, DenseMatrix, VectorExt};
use crate::line_search::{ArmijoLineSearch, LineSearchConfig};
use crate::OptimizeResult;

/// Configuration for [`DampedNewton`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NewtonConfig {
    /// Maximum number of Newton iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the Newton decrement (squared).
    pub tolerance: f64,
    /// Relative finite-difference step.
    pub fd_step: f64,
    /// Tikhonov damping added to the Hessian diagonal when the factorization
    /// fails (the Hessian of the QuHE subproblems can be near-singular far
    /// from the optimum).
    pub damping: f64,
    /// Line-search configuration.
    pub line_search: LineSearchConfig,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-10,
            fd_step: 1e-5,
            damping: 1e-8,
            line_search: LineSearchConfig::default(),
        }
    }
}

impl NewtonConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`OptError::InvalidConfig`] for non-positive parameters.
    pub fn validate(&self) -> OptResult<()> {
        if self.max_iterations == 0 {
            return Err(OptError::InvalidConfig {
                reason: "max_iterations must be at least 1".to_string(),
            });
        }
        if !(self.tolerance > 0.0 && self.fd_step > 0.0 && self.damping >= 0.0) {
            return Err(OptError::InvalidConfig {
                reason: "tolerance/fd_step must be positive, damping non-negative".to_string(),
            });
        }
        self.line_search.validate()
    }
}

/// Reusable storage for [`DampedNewton::minimize_with`].
///
/// Holds the iterate, gradient, Hessian, Cholesky factor, and
/// direction/trial buffers so that a full Newton solve performs no
/// per-iteration allocation, and consecutive solves (e.g. the centering
/// steps of a barrier sweep) reuse the same storage. A workspace carries no
/// numeric state between calls — only capacity — so reusing one across
/// unrelated problems is always safe.
#[derive(Debug, Clone, Default)]
pub struct NewtonWorkspace {
    x: Vec<f64>,
    grad: Vec<f64>,
    rhs: Vec<f64>,
    direction: Vec<f64>,
    trial: Vec<f64>,
    fd_work: Vec<f64>,
    fd_steps: Vec<f64>,
    hess: DenseMatrix,
    chol: CholeskyFactor,
}

impl NewtonWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Damped Newton minimizer.
///
/// Derivatives come from central finite differences of `f`, or from an
/// exact-derivative oracle passed to
/// [`DampedNewton::minimize_with_derivatives`]. The domain predicate passed
/// to [`DampedNewton::minimize`]
/// restricts iterates to an open set (used for barrier objectives that are
/// only finite strictly inside the feasible region); `f` must be finite on
/// that set.
#[derive(Debug, Clone, Copy, Default)]
pub struct DampedNewton {
    config: NewtonConfig,
}

impl DampedNewton {
    /// Creates a solver with the given configuration.
    pub fn new(config: NewtonConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NewtonConfig {
        &self.config
    }

    /// Minimizes `f` starting from `start`, keeping all iterates inside the
    /// open set described by `in_domain`.
    ///
    /// # Errors
    /// * [`OptError::InvalidConfig`] for an invalid configuration.
    /// * [`OptError::InfeasibleStart`] if `start` is outside the domain.
    /// * [`OptError::NonFiniteValue`] if the objective is non-finite at the
    ///   starting point.
    pub fn minimize<F, D>(&self, f: &F, in_domain: &D, start: &[f64]) -> OptResult<OptimizeResult>
    where
        F: Fn(&[f64]) -> f64,
        D: Fn(&[f64]) -> bool,
    {
        self.minimize_with(f, in_domain, start, &mut NewtonWorkspace::new())
    }

    /// [`DampedNewton::minimize`] with caller-provided storage: all
    /// gradients, Hessians, Cholesky factors, and direction/trial points are
    /// written into `ws`, so a solve allocates only its returned
    /// solution/trace. Bit-identical to [`DampedNewton::minimize`].
    ///
    /// # Errors
    /// Same contract as [`DampedNewton::minimize`].
    pub fn minimize_with<F, D>(
        &self,
        f: &F,
        in_domain: &D,
        start: &[f64],
        ws: &mut NewtonWorkspace,
    ) -> OptResult<OptimizeResult>
    where
        F: Fn(&[f64]) -> f64,
        D: Fn(&[f64]) -> bool,
    {
        self.minimize_with_derivatives(
            f,
            |_: &[f64], _: &mut Vec<f64>, _: &mut DenseMatrix| false,
            in_domain,
            start,
            ws,
        )
    }

    /// [`DampedNewton::minimize_with`] with an exact-derivative oracle:
    /// `derivatives(x, grad, hess)` either writes `∇f(x)` into `grad` and
    /// `∇²f(x)` into `hess` (reshaping it to `n x n`) and returns `true`, or
    /// returns `false` and leaves the step to central finite differences of
    /// `f`. The oracle is called once per Newton step, at the start point
    /// or an accepted line-search point, so always inside the domain. An
    /// oracle that always returns `false` gives the bits of
    /// [`DampedNewton::minimize_with`].
    ///
    /// # Errors
    /// Same contract as [`DampedNewton::minimize`].
    pub fn minimize_with_derivatives<F, G, D>(
        &self,
        f: &F,
        mut derivatives: G,
        in_domain: &D,
        start: &[f64],
        ws: &mut NewtonWorkspace,
    ) -> OptResult<OptimizeResult>
    where
        F: Fn(&[f64]) -> f64,
        G: FnMut(&[f64], &mut Vec<f64>, &mut DenseMatrix) -> bool,
        D: Fn(&[f64]) -> bool,
    {
        self.config.validate()?;
        if !in_domain(start) {
            return Err(OptError::InfeasibleStart {
                reason: "newton starting point outside the domain".to_string(),
            });
        }
        ws.x.clear();
        ws.x.extend_from_slice(start);
        let mut fx = f(&ws.x);
        if !fx.is_finite() {
            return Err(OptError::NonFiniteValue {
                context: "newton starting objective".to_string(),
            });
        }
        let ls = ArmijoLineSearch::new(self.config.line_search);
        let mut trace = vec![fx];
        let mut converged = false;
        let mut iterations = 0;

        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;
            if !derivatives(&ws.x, &mut ws.grad, &mut ws.hess) {
                central_gradient_into(f, &ws.x, self.config.fd_step, &mut ws.grad, &mut ws.fd_work);
                central_hessian_into(
                    f,
                    &ws.x,
                    self.config.fd_step.sqrt() * 1e-2,
                    &mut ws.hess,
                    &mut ws.fd_work,
                    &mut ws.fd_steps,
                );
            }
            // Try the pure Newton system first, escalate damping on failure.
            let mut damping = self.config.damping;
            ws.rhs.clear();
            ws.rhs.extend(ws.grad.iter().map(|g| -g));
            loop {
                let factored = ws
                    .chol
                    .refresh(&ws.hess)
                    .and_then(|()| ws.chol.solve_into(&ws.rhs, &mut ws.direction));
                match factored {
                    Ok(()) => break,
                    Err(OptError::SingularSystem) if damping < 1e6 => {
                        ws.hess.add_diagonal(damping.max(1e-10));
                        damping = (damping.max(1e-10)) * 10.0;
                    }
                    Err(_) => {
                        // Fall back to steepest descent when the Hessian is
                        // hopeless (still globally convergent with line search).
                        ws.direction.clear();
                        ws.direction.extend_from_slice(&ws.rhs);
                        break;
                    }
                }
            }
            // Newton decrement: lambda^2 = -grad^T d.
            let decrement = -ws.grad.dot(&ws.direction);
            if decrement.abs() < self.config.tolerance {
                converged = true;
                break;
            }
            match ls.search_into(
                f,
                &ws.x,
                fx,
                &ws.grad,
                &ws.direction,
                |p| in_domain(p),
                &mut ws.trial,
            ) {
                Ok(outcome) => {
                    let decrease = fx - outcome.value;
                    std::mem::swap(&mut ws.x, &mut ws.trial);
                    fx = outcome.value;
                    trace.push(fx);
                    if decrease.abs() < self.config.tolerance {
                        converged = true;
                        break;
                    }
                }
                Err(OptError::DidNotConverge { .. }) => {
                    converged = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }

        Ok(OptimizeResult {
            solution: ws.x.clone(),
            objective: fx,
            iterations,
            converged,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newton_converges_on_quadratic_in_few_iterations() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 4.0 * (x[1] + 2.0).powi(2) + x[0] * x[1] * 0.1;
        let solver = DampedNewton::default();
        let res = solver
            .minimize(&f, &|_: &[f64]| true, &[10.0, 10.0])
            .unwrap();
        assert!(res.converged);
        assert!(res.iterations <= 10, "took {} iterations", res.iterations);
        // Analytic minimum of the slightly coupled quadratic.
        assert!(res.objective < f(&[1.0, -2.0]) + 1e-6);
    }

    #[test]
    fn newton_handles_log_barrier_style_objectives() {
        // minimize x - ln(x) on x > 0, minimum at x = 1.
        let f = |x: &[f64]| x[0] - x[0].ln();
        let solver = DampedNewton::default();
        let res = solver
            .minimize(&f, &|p: &[f64]| p[0] > 0.0, &[5.0])
            .unwrap();
        assert!((res.solution[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn an_exact_oracle_replaces_the_finite_differences() {
        // f = (x0 - 1)^2 + 4 (x1 + 2)^2 + x0 x1 / 10: one exact Newton step
        // lands on the minimum.
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 4.0 * (x[1] + 2.0).powi(2) + x[0] * x[1] * 0.1;
        let oracle = |x: &[f64], grad: &mut Vec<f64>, hess: &mut DenseMatrix| {
            grad.clear();
            grad.extend([
                2.0 * (x[0] - 1.0) + 0.1 * x[1],
                8.0 * (x[1] + 2.0) + 0.1 * x[0],
            ]);
            hess.reshape_zeroed(2, 2);
            hess.set(0, 0, 2.0);
            hess.set(0, 1, 0.1);
            hess.set(1, 0, 0.1);
            hess.set(1, 1, 8.0);
            true
        };
        let solver = DampedNewton::default();
        let mut ws = NewtonWorkspace::new();
        let inside = |_: &[f64]| true;
        let exact = solver
            .minimize_with_derivatives(&f, oracle, &inside, &[10.0, 10.0], &mut ws)
            .unwrap();
        assert!(exact.converged);
        assert_eq!(exact.trace.len(), 2, "one step, then a zero decrement");
        // An oracle that declines leaves every step to finite differences.
        let declined = solver
            .minimize_with_derivatives(
                &f,
                |_: &[f64], _: &mut Vec<f64>, _: &mut DenseMatrix| false,
                &inside,
                &[10.0, 10.0],
                &mut ws,
            )
            .unwrap();
        let fd = solver.minimize(&f, &inside, &[10.0, 10.0]).unwrap();
        assert_eq!(declined, fd);
        assert!((exact.objective - fd.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_start_is_rejected() {
        let f = |x: &[f64]| x[0];
        let solver = DampedNewton::default();
        assert!(matches!(
            solver.minimize(&f, &|p: &[f64]| p[0] > 0.0, &[-1.0]),
            Err(OptError::InfeasibleStart { .. })
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = NewtonConfig {
            max_iterations: 0,
            ..NewtonConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
