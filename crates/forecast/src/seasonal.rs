//! Holt–Winters additive seasonal smoothing.
//!
//! The per-class arrival-rate series HARMONY predicts are strongly
//! diurnal (Fig. 19); a seasonal forecaster is the natural upgrade over
//! plain ARIMA once more than a day of history is available. This is
//! the classic additive triple-exponential smoothing: level `ℓ`, trend
//! `b`, and a seasonal index `s_i` per phase of the period.

use crate::error::check_finite;
use crate::{ForecastError, Forecaster};

/// Additive Holt–Winters forecaster.
///
/// # Examples
///
/// ```
/// use harmony_forecast::{Forecaster, HoltWinters};
///
/// // Two days of a clean 24-sample diurnal pattern.
/// let series: Vec<f64> = (0..48)
///     .map(|t| 10.0 + 5.0 * (t as f64 / 24.0 * std::f64::consts::TAU).sin())
///     .collect();
/// let hw = HoltWinters::new(0.3, 0.05, 0.3, 24)?;
/// let fc = hw.forecast(&series, 24)?;
/// // The next day's peak and trough land near the historical ones.
/// let peak = fc.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
/// assert!((peak - 15.0).abs() < 1.5, "peak = {peak}");
/// # Ok::<(), harmony_forecast::ForecastError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
}

impl HoltWinters {
    /// Creates a seasonal forecaster with level smoothing `alpha`, trend
    /// smoothing `beta`, seasonal smoothing `gamma`, and seasonal
    /// `period` in samples (e.g. 144 for a day of 10-minute control
    /// periods).
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless all smoothing
    /// factors are in `(0, 1]` and `period >= 2`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Result<Self, ForecastError> {
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(ForecastError::InvalidParameter { name, value: v.to_string() });
            }
        }
        if period < 2 {
            return Err(ForecastError::InvalidParameter {
                name: "period",
                value: period.to_string(),
            });
        }
        Ok(HoltWinters { alpha, beta, gamma, period })
    }

    /// The seasonal period in samples.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Minimum history: two full seasons.
    pub fn min_history(&self) -> usize {
        2 * self.period
    }
}

impl Forecaster for HoltWinters {
    fn name(&self) -> &'static str {
        "holt-winters"
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        check_finite(history)?;
        let p = self.period;
        if history.len() < self.min_history() {
            return Err(ForecastError::SeriesTooShort {
                needed: self.min_history(),
                got: history.len(),
            });
        }
        // Initialization from the first two seasons: the level is the
        // first-season mean, the trend the mean season-over-season
        // change, seasonal indices the first-season deviations.
        let season1_mean: f64 = history[..p].iter().sum::<f64>() / p as f64;
        let season2_mean: f64 = history[p..2 * p].iter().sum::<f64>() / p as f64;
        let mut level = season1_mean;
        let mut trend = (season2_mean - season1_mean) / p as f64;
        let mut seasonal: Vec<f64> = history[..p].iter().map(|v| v - season1_mean).collect();

        for (t, &y) in history.iter().enumerate().skip(p) {
            let s = seasonal[t % p];
            let prev_level = level;
            level = self.alpha * (y - s) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
            seasonal[t % p] = self.gamma * (y - level) + (1.0 - self.gamma) * s;
        }

        let n = history.len();
        Ok((1..=horizon).map(|h| level + trend * h as f64 + seasonal[(n + h - 1) % p]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal(days: usize, period: usize, noise: f64) -> Vec<f64> {
        let mut x = 99u64;
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        (0..days * period)
            .map(|t| {
                20.0 + 8.0 * (t as f64 / period as f64 * std::f64::consts::TAU).sin()
                    + noise * rnd()
            })
            .collect()
    }

    #[test]
    fn parameter_validation() {
        assert!(HoltWinters::new(0.0, 0.1, 0.1, 24).is_err());
        assert!(HoltWinters::new(0.1, 1.5, 0.1, 24).is_err());
        assert!(HoltWinters::new(0.1, 0.1, 0.1, 1).is_err());
        assert!(HoltWinters::new(0.1, 0.1, 0.1, 24).is_ok());
    }

    #[test]
    fn requires_two_seasons() {
        let hw = HoltWinters::new(0.3, 0.1, 0.2, 24).unwrap();
        assert!(matches!(
            hw.forecast(&vec![1.0; 47], 1),
            Err(ForecastError::SeriesTooShort { needed: 48, got: 47 })
        ));
        assert_eq!(hw.min_history(), 48);
        assert_eq!(hw.period(), 24);
        assert_eq!(hw.name(), "holt-winters");
    }

    #[test]
    fn tracks_clean_seasonality() {
        let hw = HoltWinters::new(0.3, 0.05, 0.3, 24).unwrap();
        let s = diurnal(4, 24, 0.0);
        let fc = hw.forecast(&s, 24).unwrap();
        // Compare against the true next season.
        for (h, v) in fc.iter().enumerate() {
            let t = s.len() + h;
            let truth = 20.0 + 8.0 * (t as f64 / 24.0 * std::f64::consts::TAU).sin();
            assert!((v - truth).abs() < 1.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn beats_nonseasonal_predictors_on_diurnal_series() {
        use crate::{rolling_evaluate, Ewma, Naive};
        let s = diurnal(5, 24, 1.0);
        let hw = HoltWinters::new(0.3, 0.05, 0.3, 24).unwrap();
        let hw_mae = rolling_evaluate(&hw, &s, 60).unwrap().0;
        let naive_mae = rolling_evaluate(&Naive, &s, 60).unwrap().0;
        let ewma_mae = rolling_evaluate(&Ewma::new(0.3).unwrap(), &s, 60).unwrap().0;
        assert!(hw_mae < naive_mae, "hw {hw_mae} vs naive {naive_mae}");
        assert!(hw_mae < ewma_mae, "hw {hw_mae} vs ewma {ewma_mae}");
    }

    #[test]
    fn constant_series_is_a_fixed_point() {
        let hw = HoltWinters::new(0.5, 0.1, 0.5, 12).unwrap();
        let fc = hw.forecast(&vec![7.0; 60], 6).unwrap();
        for v in fc {
            assert!((v - 7.0).abs() < 1e-9);
        }
    }
}
