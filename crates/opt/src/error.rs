//! Error type shared by all solvers in this crate.

use std::fmt;

/// Convenient alias for `Result<T, OptError>`.
pub type OptResult<T> = Result<T, OptError>;

/// Errors produced by the optimization toolkit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptError {
    /// A configuration value is outside its admissible range.
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The provided starting point (or some other input vector) has the wrong
    /// dimension.
    DimensionMismatch {
        /// Dimension the solver expected.
        expected: usize,
        /// Dimension it received.
        actual: usize,
    },
    /// The starting point violates the feasible set and could not be repaired.
    InfeasibleStart {
        /// Description of the violated constraint.
        reason: String,
    },
    /// The objective or a constraint returned a non-finite value.
    NonFiniteValue {
        /// Where the non-finite value was observed.
        context: String,
    },
    /// A linear system arising inside a solver (e.g. the Newton step) is
    /// singular or not positive definite.
    SingularSystem,
    /// The solver exhausted its iteration budget without satisfying its
    /// convergence criterion and the caller requested strict convergence.
    DidNotConverge {
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            OptError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            OptError::InfeasibleStart { reason } => {
                write!(f, "infeasible starting point: {reason}")
            }
            OptError::NonFiniteValue { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            OptError::SingularSystem => {
                write!(f, "linear system is singular or not positive definite")
            }
            OptError::DidNotConverge { iterations } => {
                write!(f, "solver did not converge within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for OptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = OptError::DimensionMismatch {
            expected: 3,
            actual: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('2'));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OptError>();
    }
}
