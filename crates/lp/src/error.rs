//! Error type for LP modeling and solving.

use std::error::Error;
use std::fmt;

/// Errors returned by LP construction and the simplex solver.
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
    /// A variable's lower bound exceeds its upper bound.
    EmptyDomain {
        /// The variable's name.
        name: String,
    },
    /// A variable id from a different problem (or out of range) was used.
    UnknownVariable {
        /// The raw index supplied.
        index: usize,
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
            LpError::EmptyDomain { name } => {
                write!(f, "variable {name:?} has lower bound above upper bound")
            }
            LpError::UnknownVariable { index } => {
                write!(f, "variable index {index} does not belong to this problem")
            }
            LpError::SingularBasis => {
                f.write_str("basis factorization broke down numerically")
            }
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
        assert!(LpError::EmptyDomain { name: "x".into() }.to_string().contains("x"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<LpError>();
    }
}
