//! Dense row-major feature matrices.

use crate::KMeansError;

/// A dense row-major matrix of `f64` features: one row per observation,
/// one column per feature.
///
/// # Examples
///
/// ```
/// use harmony_kmeans::Dataset;
///
/// let data = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.dim(), 2);
/// assert_eq!(data.row(1), &[3.0, 4.0]);
/// # Ok::<(), harmony_kmeans::KMeansError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    values: Vec<f64>,
    dim: usize,
}

impl Dataset {
    /// Builds a dataset from observation rows.
    ///
    /// # Errors
    ///
    /// * [`KMeansError::EmptyDataset`] if `rows` is empty or the rows have
    ///   zero columns.
    /// * [`KMeansError::RaggedRows`] if the rows disagree on length.
    /// * [`KMeansError::NonFiniteValue`] if any value is NaN or infinite.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, KMeansError> {
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        if rows.is_empty() || dim == 0 {
            return Err(KMeansError::EmptyDataset);
        }
        let mut values = Vec::with_capacity(rows.len() * dim);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(KMeansError::RaggedRows { row: i, expected: dim, got: row.len() });
            }
            for &v in row {
                if !v.is_finite() {
                    return Err(KMeansError::NonFiniteValue { row: i });
                }
            }
            values.extend_from_slice(row);
        }
        Ok(Dataset { values, dim })
    }

    /// Number of observations (rows).
    pub fn len(&self) -> usize {
        self.values.len() / self.dim
    }

    /// `true` if there are no observations (unreachable for constructed
    /// datasets; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of features (columns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th observation.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over observation rows.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.values.chunks_exact(self.dim)
    }

    /// Squared Euclidean distance between row `i` and an external point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn distance_sq(&self, i: usize, point: &[f64]) -> f64 {
        distance_sq(self.row(i), point)
    }
}

/// Squared Euclidean distance between two points of equal dimension.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    // The classifier's size features are 2-D. Unrolled, the sum is the
    // general loop's bit for bit: that loop starts from a signed zero,
    // and adding either zero to the first square leaves it exact.
    if let ([a0, a1], [b0, b1]) = (a, b) {
        let (d0, d1) = (a0 - b0, a1 - b1);
        return d0 * d0 + d1 * d1;
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let d = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.row(2), &[5.0, 6.0]);
        assert_eq!(d.iter().count(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(Dataset::from_rows(vec![]), Err(KMeansError::EmptyDataset)));
        assert!(matches!(Dataset::from_rows(vec![vec![]]), Err(KMeansError::EmptyDataset)));
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(KMeansError::RaggedRows { row: 1, .. })
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![f64::NAN]]),
            Err(KMeansError::NonFiniteValue { row: 0 })
        ));
    }

    #[test]
    fn distances() {
        let d = Dataset::from_rows(vec![vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(d.distance_sq(1, &[0.0, 0.0]), 25.0);
        assert_eq!(distance_sq(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn two_dimensional_distance_is_the_general_sum() {
        let general =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let tiny = f64::from_bits(1); // the smallest subnormal
        let edges = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            1.0,
            -2.5,
            // Squares that round: a fused multiply-add would differ here.
            0.1,
            1.0 / 3.0,
            -0.7,
            1.0 + f64::EPSILON,
            1e-160,
            1e160,
            f64::MAX,
            -f64::MAX,
        ];
        for &a0 in &edges {
            for &a1 in &edges {
                for &b0 in &edges {
                    for &b1 in &[a1, -a1, 0.0, tiny, f64::MAX] {
                        let (a, b) = ([a0, a1], [b0, b1]);
                        assert_eq!(
                            distance_sq(&a, &b).to_bits(),
                            general(&a, &b).to_bits(),
                            "{a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_dimension_mismatch_panics() {
        let _ = distance_sq(&[1.0], &[1.0, 2.0]);
    }
}
