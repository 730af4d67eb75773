//! # quhe-core — the QuHE utility-cost resource allocation algorithm
//!
//! This crate implements the primary contribution of the paper: the joint
//! optimization of QKD network utility, homomorphic-encryption security level
//! and system cost in a QKD + HE enabled mobile edge computing network, and
//! the three-stage **QuHE** algorithm that solves it.
//!
//! * [`params`] / [`scenario`] — the weighted objective configuration and the
//!   combined QKD + MEC evaluation scenario of Section VI-A.
//! * [`variables`] — the decision variables
//!   `(phi, w, lambda, p, b, f^(c), f^(s), T)`.
//! * [`problem`] — problem P1 (Eq. 17): objective evaluation, constraint
//!   checking and feasible-point construction.
//! * [`stage1`] — entanglement rates and Werner parameters via the convex
//!   log-transformed problem P3 (Eq. 20) plus the closed-form Eq. (18).
//! * [`stage2`] — CKKS polynomial degrees via an exact threshold sweep over
//!   the per-client delay tables (in place of Algorithm 2's branch-and-bound).
//! * [`stage3`] — transmit powers, bandwidths and CPU frequencies via
//!   quadratic-transform fractional programming (Eqs. 25–28, Algorithm 3).
//! * [`quhe`] — the complete alternating procedure (Algorithm 4), run by
//!   [`solver::QuheSolver`].
//! * [`solver`] — the one solve surface: the [`solver::Solver`] trait, the
//!   [`solver::SolveSpec`] request builder, the [`solver::SolveReport`]
//!   result type and the named [`solver::SolverRegistry`] of built-in
//!   solvers (`quhe`, `aa`, `olaa`, `occr`). Every harness routes through
//!   it.
//! * [`baselines`] — the Stage-1 start shared by the AA, OLAA and OCCR
//!   solvers, plus the Stage-1 baselines (gradient descent, simulated
//!   annealing, random selection) of Section VI-B.
//! * [`json`] — the minimal JSON tree, writer and parser that
//!   [`solver::SolveReport`] and the `quhe-bench` artifacts serialize
//!   through (the offline build's working substitute for serde).
//! * [`fingerprint`] — content-addressed scenario fingerprints (full and
//!   shape digests of the canonical byte encoding), the cache keys of the
//!   `quhe-serve` solve service.
//! * [`metrics`] — energy / delay / security / utility decomposition used by
//!   the figures.
//! * [`sampling`] — random initial configurations for the Fig. 3 optimality
//!   study.
//! * [`registry`] — the named catalogue of complete system scenarios
//!   (paper default plus dense-cell, heterogeneous, far-edge and bursty
//!   worlds), the unit of the parallel batch-evaluation pipeline.
//! * [`online`] — the online dynamic-world engine: seed-deterministic
//!   system-level event traces ([`online::SystemTrace`]) and
//!   [`online::solve_online_with`], which tracks a drifting world with any
//!   solver via warm-started incremental re-solves under
//!   [`online::solve_warm_guarded`], the warm → floor guard → cold fallback
//!   policy it shares with the `quhe-serve` near-miss path.
//!
//! # Example
//!
//! ```
//! use quhe_core::prelude::*;
//!
//! let scenario = SystemScenario::paper_default(7);
//! let registry = SolverRegistry::builtin();
//! let report = registry
//!     .solve("quhe", &scenario, &SolveSpec::cold())
//!     .unwrap();
//! assert!(report.objective.is_finite());
//! let problem = Problem::new(scenario, QuheConfig::default()).unwrap();
//! assert!(problem.check_feasible(&report.variables).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod error;
pub mod fingerprint;
pub mod json;
pub mod metrics;
pub mod online;
pub mod params;
pub mod problem;
pub mod quhe;
pub mod registry;
pub mod sampling;
pub mod scenario;
pub mod solver;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod variables;

pub use error::{QuheError, QuheResult};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::baselines::{
        stage1_gradient_descent, stage1_random_selection, stage1_simulated_annealing,
    };
    pub use crate::error::{QuheError, QuheResult};
    pub use crate::fingerprint::Fingerprint;
    pub use crate::json::{JsonError, JsonValue};
    pub use crate::metrics::MethodMetrics;
    pub use crate::online::{
        prepare_warm_tracking, solve_online_with, solve_warm_guarded, OnlineOutcome,
        OnlineStepRecord, OnlineTraceConfig, SolveKind, SystemStep, SystemTrace, WarmSolve,
    };
    pub use crate::params::{ObjectiveWeights, QuheConfig};
    pub use crate::problem::Problem;
    pub use crate::registry::ScenarioCatalog;
    pub use crate::sampling::{sample_initial_points, OptimalityStudy};
    pub use crate::scenario::SystemScenario;
    pub use crate::solver::{
        AaSolver, InstrumentationLevel, OccrSolver, OlaaSolver, QuheSolver, SolveReport, SolveSpec,
        Solver, SolverRegistry, StartMode,
    };
    pub use crate::stage1::{Stage1Result, Stage1Solver};
    pub use crate::stage2::{Stage2Result, Stage2Solver};
    pub use crate::stage3::{Stage3Result, Stage3Solver};
    pub use crate::variables::DecisionVariables;
}
