//! Error type for LP solving.

use std::error::Error;
use std::fmt;

/// Errors returned by the simplex solver. A malformed model panics
/// while it is built instead; [`LpError::NonFiniteInput`] is for callers
/// that check their own inputs before building one.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The pivot-count safety limit was reached before optimality.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite where
    /// a finite value is required.
    NonFiniteInput {
        /// Where the bad value appeared.
        context: &'static str,
    },
    /// The basis factorization broke down numerically:
    /// a basis whose pivots were all accepted refactorized as singular,
    /// which means rounding error has degraded it beyond use. Extremely
    /// rare; re-solving without a warm basis is the caller's best
    /// recourse.
    SingularBasis,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => f.write_str("problem is infeasible"),
            LpError::Unbounded => f.write_str("objective is unbounded"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex did not converge within {limit} pivots")
            }
            LpError::NonFiniteInput { context } => {
                write!(f, "non-finite value supplied in {context}")
            }
            LpError::SingularBasis => f.write_str("basis factorization broke down numerically"),
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(LpError::Infeasible.to_string(), "problem is infeasible");
        assert!(LpError::IterationLimit { limit: 10 }.to_string().contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<LpError>();
    }
}
