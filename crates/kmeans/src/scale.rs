//! Feature scaling: the log-space transform.
//!
//! Section III-D observes task sizes spanning **three orders of
//! magnitude**; raw Euclidean K-means would be dominated by the largest
//! tasks, so the classifier clusters in log space.

use crate::{Dataset, KMeansError};

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
    fn log_transform_roundtrips() {
        let t = Log10Transform::default();
        for &x in &[0.0, 1e-4, 0.5, 1.0, 1000.0] {
            let back = 10f64.powf(t.apply(x)) - 1e-6;
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
