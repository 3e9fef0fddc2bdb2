//! Error type for clustering operations.

use std::error::Error;
use std::fmt;

/// Errors returned by dataset construction and clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KMeansError {
    /// The dataset has no rows or no columns.
    EmptyDataset,
    /// A row's length disagrees with the dataset dimension.
    RaggedRows {
        /// Index of the offending row.
        row: usize,
        /// Expected number of columns.
        expected: usize,
        /// Observed number of columns.
        got: usize,
    },
    /// A feature value is NaN or infinite.
    NonFiniteValue {
        /// Index of the offending row.
        row: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// `k` exceeds the number of observations.
    TooFewPoints {
        /// Requested number of clusters.
        k: usize,
        /// Number of observations available.
        points: usize,
    },
}

impl fmt::Display for KMeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KMeansError::EmptyDataset => {
                f.write_str("dataset must have at least one row and one column")
            }
            KMeansError::RaggedRows { row, expected, got } => {
                write!(f, "row {row} has {got} columns, expected {expected}")
            }
            KMeansError::NonFiniteValue { row } => {
                write!(f, "row {row} contains a NaN or infinite value")
            }
            KMeansError::ZeroK => f.write_str("number of clusters k must be positive"),
            KMeansError::TooFewPoints { k, points } => {
                write!(f, "cannot form {k} clusters from {points} points")
            }
        }
    }
}

impl Error for KMeansError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(KMeansError::ZeroK.to_string().contains("positive"));
        assert!(KMeansError::TooFewPoints { k: 5, points: 2 }.to_string().contains("5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<KMeansError>();
    }
}
