//! Baseline predictors used in the predictor-choice ablation.

use crate::error::check_finite;
use crate::{ForecastError, Forecaster};

/// Naive forecast: repeat the last observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Naive;

impl Forecaster for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        check_finite(history)?;
        let last = *history.last().ok_or(ForecastError::SeriesTooShort { needed: 1, got: 0 })?;
        Ok(vec![last; horizon])
    }
}

/// Simple moving average of the last `window` observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovingAverage {
    window: usize,
}

impl MovingAverage {
    /// Creates a moving-average forecaster.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] when `window == 0`.
    pub fn new(window: usize) -> Result<Self, ForecastError> {
        if window == 0 {
            return Err(ForecastError::InvalidParameter { name: "window", value: "0".into() });
        }
        Ok(MovingAverage { window })
    }
}

impl Forecaster for MovingAverage {
    fn name(&self) -> &'static str {
        "moving-average"
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        check_finite(history)?;
        if history.is_empty() {
            return Err(ForecastError::SeriesTooShort { needed: 1, got: 0 });
        }
        let start = history.len().saturating_sub(self.window);
        let tail = &history[start..];
        let avg = tail.iter().sum::<f64>() / tail.len() as f64;
        Ok(vec![avg; horizon])
    }
}

/// Exponentially-weighted moving average with smoothing factor `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
}

impl Ewma {
    /// Creates an EWMA forecaster.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless
    /// `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Result<Self, ForecastError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ForecastError::InvalidParameter {
                name: "alpha",
                value: alpha.to_string(),
            });
        }
        Ok(Ewma { alpha })
    }
}

impl Forecaster for Ewma {
    fn name(&self) -> &'static str {
        "ewma"
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        check_finite(history)?;
        let mut iter = history.iter();
        let mut level = *iter.next().ok_or(ForecastError::SeriesTooShort { needed: 1, got: 0 })?;
        for &v in iter {
            level = self.alpha * v + (1.0 - self.alpha) * level;
        }
        Ok(vec![level; horizon])
    }
}

/// Holt's double exponential smoothing: level + trend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Holt {
    alpha: f64,
    beta: f64,
}

impl Holt {
    /// Creates a Holt forecaster with level smoothing `alpha` and trend
    /// smoothing `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless both factors
    /// are in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, ForecastError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ForecastError::InvalidParameter {
                name: "alpha",
                value: alpha.to_string(),
            });
        }
        if !(beta > 0.0 && beta <= 1.0) {
            return Err(ForecastError::InvalidParameter { name: "beta", value: beta.to_string() });
        }
        Ok(Holt { alpha, beta })
    }
}

impl Forecaster for Holt {
    fn name(&self) -> &'static str {
        "holt"
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        check_finite(history)?;
        if history.len() < 2 {
            return Err(ForecastError::SeriesTooShort { needed: 2, got: history.len() });
        }
        let mut level = history[0];
        let mut trend = history[1] - history[0];
        for &v in &history[1..] {
            let prev_level = level;
            level = self.alpha * v + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
        }
        Ok((1..=horizon).map(|h| level + trend * h as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_repeats_last() {
        let fc = Naive.forecast(&[1.0, 2.0, 3.0], 3).unwrap();
        assert_eq!(fc, vec![3.0, 3.0, 3.0]);
        assert!(Naive.forecast(&[], 1).is_err());
        assert_eq!(Naive.name(), "naive");
    }

    #[test]
    fn moving_average_windows() {
        let ma = MovingAverage::new(2).unwrap();
        let fc = ma.forecast(&[1.0, 2.0, 4.0], 2).unwrap();
        assert_eq!(fc, vec![3.0, 3.0]);
        // Window larger than history falls back to the full mean.
        let ma10 = MovingAverage::new(10).unwrap();
        assert_eq!(ma10.forecast(&[2.0, 4.0], 1).unwrap(), vec![3.0]);
        assert!(MovingAverage::new(0).is_err());
    }

    #[test]
    fn ewma_converges_to_constant() {
        let e = Ewma::new(0.5).unwrap();
        let s = vec![10.0; 50];
        assert_eq!(e.forecast(&s, 1).unwrap(), vec![10.0]);
        assert!(Ewma::new(0.0).is_err());
        assert!(Ewma::new(1.5).is_err());
        // alpha = 1 reduces to naive.
        let e1 = Ewma::new(1.0).unwrap();
        assert_eq!(e1.forecast(&[1.0, 7.0], 1).unwrap(), vec![7.0]);
    }

    #[test]
    fn holt_tracks_linear_trend() {
        let h = Holt::new(0.8, 0.8).unwrap();
        let s: Vec<f64> = (0..30).map(|t| 2.0 * t as f64 + 1.0).collect();
        let fc = h.forecast(&s, 3).unwrap();
        for (i, v) in fc.iter().enumerate() {
            let expected = 2.0 * (30 + i) as f64 + 1.0;
            assert!((v - expected).abs() < 0.5, "h={i}: {v} vs {expected}");
        }
        assert!(Holt::new(0.5, 0.0).is_err());
        assert!(h.forecast(&[1.0], 1).is_err());
    }

    #[test]
    fn all_reject_non_finite_history() {
        let bad = [1.0, f64::NAN];
        assert!(Naive.forecast(&bad, 1).is_err());
        assert!(MovingAverage::new(2).unwrap().forecast(&bad, 1).is_err());
        assert!(Ewma::new(0.3).unwrap().forecast(&bad, 1).is_err());
        assert!(Holt::new(0.3, 0.3).unwrap().forecast(&bad, 1).is_err());
    }
}
