//! Feature scaling: z-score standardization and log-space transforms.
//!
//! Section III-D observes task sizes spanning **three orders of
//! magnitude**; raw Euclidean K-means would be dominated by the largest
//! tasks, so the classifier clusters in log space and/or standardized
//! space.


use crate::{Dataset, KMeansError};

/// Per-column z-score standardizer: `x' = (x - mean) / std`.
///
/// Columns with zero variance pass through centered but unscaled.
///
/// # Examples
///
/// ```
/// use harmony_kmeans::{Dataset, Standardizer};
///
/// let data = Dataset::from_rows(vec![vec![0.0], vec![10.0]])?;
/// let scaler = Standardizer::fit(&data);
/// let scaled = scaler.transform(&data)?;
/// assert!((scaled.row(0)[0] + 1.0).abs() < 1e-12);
/// assert!((scaled.row(1)[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), harmony_kmeans::KMeansError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Learns per-column means and population standard deviations.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.len() as f64;
        let dim = data.dim();
        let mut means = vec![0.0; dim];
        for row in data.iter() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for row in data.iter() {
            for (j, &v) in row.iter().enumerate() {
                vars[j] += (v - means[j]) * (v - means[j]);
            }
        }
        let stds = vars.into_iter().map(|v| (v / n).sqrt()).collect();
        Standardizer { means, stds }
    }

    /// Learned per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Learned per-column standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Standardizes a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`KMeansError::DimensionMismatch`] if the dataset dimension
    /// differs from the fitted dimension.
    pub fn transform(&self, data: &Dataset) -> Result<Dataset, KMeansError> {
        if data.dim() != self.means.len() {
            return Err(KMeansError::DimensionMismatch {
                expected: self.means.len(),
                got: data.dim(),
            });
        }
        let rows: Vec<Vec<f64>> = data.iter().map(|r| self.transform_point(r)).collect();
        Dataset::from_rows(rows)
    }

    /// Standardizes a single point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the fitted dimension.
    pub fn transform_point(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.means.len(), "dimension mismatch");
        point
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let s = self.stds[j];
                if s > 0.0 {
                    (v - self.means[j]) / s
                } else {
                    v - self.means[j]
                }
            })
            .collect()
    }

    /// Maps a standardized point back to the original feature space.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the fitted dimension.
    pub fn inverse_point(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.means.len(), "dimension mismatch");
        point
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let s = self.stds[j];
                if s > 0.0 {
                    v * s + self.means[j]
                } else {
                    v + self.means[j]
                }
            })
            .collect()
    }
}

/// Log-space transform `x' = log10(x + offset)` for heavy-tailed features.
///
/// The offset guards against zeros; the default (`1e-6`) sits well below
/// the smallest normalized task demand in the trace (~1e-4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Log10Transform {
    offset: f64,
}

impl Log10Transform {
    /// Creates a transform with the given zero-guard offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset <= 0`.
    pub fn new(offset: f64) -> Self {
        assert!(offset > 0.0, "offset must be positive, got {offset}");
        Log10Transform { offset }
    }

    /// Forward transform of one value.
    pub fn apply(&self, x: f64) -> f64 {
        (x + self.offset).log10()
    }

    /// Inverse transform of one value (clamped at zero).
    pub fn invert(&self, y: f64) -> f64 {
        (10f64.powf(y) - self.offset).max(0.0)
    }

    /// Forward transform of every value in a dataset.
    ///
    /// # Errors
    ///
    /// Propagates [`KMeansError::NonFiniteValue`] if the transform of any
    /// input overflows (e.g. `x <= -offset`).
    pub fn transform(&self, data: &Dataset) -> Result<Dataset, KMeansError> {
        let rows: Vec<Vec<f64>> =
            data.iter().map(|r| r.iter().map(|&v| self.apply(v)).collect()).collect();
        Dataset::from_rows(rows)
    }
}

impl Default for Log10Transform {
    fn default() -> Self {
        Log10Transform::new(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_centers_and_scales() {
        let data =
            Dataset::from_rows(vec![vec![1.0, 100.0], vec![3.0, 100.0], vec![5.0, 100.0]]).unwrap();
        let s = Standardizer::fit(&data);
        assert_eq!(s.means(), &[3.0, 100.0]);
        let t = s.transform(&data).unwrap();
        // Column 0: mean 0, unit variance. Column 1: constant → centered.
        let col0 = t.column(0);
        assert!((col0.iter().sum::<f64>()).abs() < 1e-12);
        let var: f64 = col0.iter().map(|v| v * v).sum::<f64>() / 3.0;
        assert!((var - 1.0).abs() < 1e-12);
        assert!(t.column(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn standardizer_roundtrips_points() {
        let data = Dataset::from_rows(vec![vec![2.0, 4.0], vec![6.0, 8.0]]).unwrap();
        let s = Standardizer::fit(&data);
        let p = [3.5, 7.0];
        let back = s.inverse_point(&s.transform_point(&p));
        assert!((back[0] - p[0]).abs() < 1e-12);
        assert!((back[1] - p[1]).abs() < 1e-12);
    }

    #[test]
    fn standardizer_rejects_wrong_dim() {
        let data = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        let s = Standardizer::fit(&data);
        let other = Dataset::from_rows(vec![vec![1.0]]).unwrap();
        assert!(matches!(s.transform(&other), Err(KMeansError::DimensionMismatch { .. })));
    }

    #[test]
    fn log_transform_roundtrips() {
        let t = Log10Transform::default();
        for &x in &[0.0, 1e-4, 0.5, 1.0, 1000.0] {
            let back = t.invert(t.apply(x));
            assert!((back - x).abs() < 1e-9 * (1.0 + x), "x={x} back={back}");
        }
    }

    #[test]
    fn log_transform_compresses_orders_of_magnitude() {
        let t = Log10Transform::new(1e-6);
        let small = t.apply(0.001);
        let large = t.apply(1.0);
        assert!(large - small < 3.01 && large - small > 2.9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_offset_panics() {
        let _ = Log10Transform::new(0.0);
    }

    #[test]
    fn log_transform_dataset() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![9.0]]).unwrap();
        let t = Log10Transform::new(1.0).transform(&data).unwrap();
        assert!((t.row(0)[0] - 0.0).abs() < 1e-12);
        assert!((t.row(1)[0] - 1.0).abs() < 1e-12);
    }
}
