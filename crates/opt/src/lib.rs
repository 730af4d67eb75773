//! # quhe-opt — optimization toolkit for the QuHE resource-allocation algorithm
//!
//! The QuHE paper (ICDCS 2025) solves its non-convex, NP-hard resource
//! allocation problem with a three-stage alternating optimization:
//!
//! 1. a convex subproblem in the (log-transformed) entanglement rates,
//! 2. a branch-and-bound search over the discrete CKKS polynomial degrees,
//! 3. a fractional-programming / alternating convex subproblem over the
//!    communication and computation resources.
//!
//! The original evaluation delegates the convex pieces to Matlab + CVX. The
//! Rust solver ecosystem is comparatively thin, and the problem instances the
//! paper studies are tiny (six routes, eighteen links), so this crate provides
//! a compact, dependency-free toolkit of exactly the numerical machinery those
//! stages need:
//!
//! * dense vector/matrix helpers and a Cholesky solver ([`linalg`]),
//! * backtracking line search ([`line_search`]) and feasible-set projections
//!   ([`projection`]),
//! * numerical differentiation ([`diff`]),
//! * projected gradient descent ([`gradient`]), damped Newton ([`newton`]) and
//!   a log-barrier interior-point method ([`barrier`]) for smooth convex
//!   problems,
//! * a generic best-first branch-and-bound engine ([`bnb`]),
//! * the quadratic-transform fractional-programming driver of Shen & Yu
//!   ([`fractional`]), and
//! * simulated annealing ([`annealing`]) and random search ([`random_search`])
//!   baselines.
//!
//! # Example
//!
//! Minimize the convex quadratic `f(x) = (x0 - 1)^2 + (x1 + 2)^2` over the box
//! `[-5, 5]^2` with projected gradient descent:
//!
//! ```
//! use quhe_opt::gradient::{ProjectedGradient, ProjectedGradientConfig};
//! use quhe_opt::projection::BoxProjection;
//!
//! let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2);
//! let proj = BoxProjection::uniform(2, -5.0, 5.0).unwrap();
//! let solver = ProjectedGradient::new(ProjectedGradientConfig::default());
//! let result = solver.minimize(&f, &proj, &[0.0, 0.0]).unwrap();
//! assert!((result.solution[0] - 1.0).abs() < 1e-4);
//! assert!((result.solution[1] + 2.0).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod barrier;
pub mod bnb;
pub mod diff;
pub mod error;
pub mod fractional;
pub mod gradient;
pub mod linalg;
pub mod line_search;
pub mod newton;
pub mod projection;
pub mod random_search;

pub use error::{OptError, OptResult};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::annealing::{SimulatedAnnealing, SimulatedAnnealingConfig};
    pub use crate::barrier::{BarrierConfig, BarrierSolver, InequalityProblem};
    pub use crate::bnb::{BranchAndBound, BranchAndBoundConfig, DiscreteProblem};
    pub use crate::diff::{central_gradient, central_hessian};
    pub use crate::error::{OptError, OptResult};
    pub use crate::fractional::{QuadraticTransform, QuadraticTransformConfig, RatioTerm};
    pub use crate::gradient::{
        GradientDescent, GradientDescentConfig, ProjectedGradient, ProjectedGradientConfig,
    };
    pub use crate::linalg::{DenseMatrix, VectorExt};
    pub use crate::line_search::{ArmijoLineSearch, LineSearchConfig};
    pub use crate::newton::{DampedNewton, NewtonConfig};
    pub use crate::projection::{BoxProjection, Projection, SimplexCapProjection};
    pub use crate::random_search::{RandomSearch, RandomSearchConfig};
    pub use crate::OptimizeResult;
}

/// Outcome of a continuous optimization run.
///
/// Returned by every iterative solver in this crate so that callers can record
/// convergence traces (used to regenerate the paper's Fig. 4) without knowing
/// which solver produced them.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OptimizeResult {
    /// The best point found.
    pub solution: Vec<f64>,
    /// Objective value at [`OptimizeResult::solution`].
    pub objective: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Whether the solver's convergence criterion was met (as opposed to
    /// stopping on the iteration cap).
    pub converged: bool,
    /// Objective value after each iteration, in order. The last entry equals
    /// [`OptimizeResult::objective`] up to floating-point noise.
    pub trace: Vec<f64>,
}

impl OptimizeResult {
    /// Creates a result for a solver that terminated immediately at `solution`.
    pub fn at_point(solution: Vec<f64>, objective: f64) -> Self {
        Self {
            solution,
            objective,
            iterations: 0,
            converged: true,
            trace: vec![objective],
        }
    }

    /// The improvement of the final objective over the first traced value.
    ///
    /// Returns zero when the trace is empty or has a single element.
    pub fn total_improvement(&self) -> f64 {
        match (self.trace.first(), self.trace.last()) {
            (Some(first), Some(last)) if self.trace.len() > 1 => first - last,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_point_builds_singleton_trace() {
        let r = OptimizeResult::at_point(vec![1.0, 2.0], 3.5);
        assert_eq!(r.trace, vec![3.5]);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.total_improvement(), 0.0);
    }

    #[test]
    fn total_improvement_is_first_minus_last() {
        let r = OptimizeResult {
            solution: vec![0.0],
            objective: 1.0,
            iterations: 3,
            converged: true,
            trace: vec![5.0, 3.0, 1.0],
        };
        assert!((r.total_improvement() - 4.0).abs() < 1e-12);
    }
}
