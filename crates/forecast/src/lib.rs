//! Time-series forecasting for the HARMONY prediction module.
//!
//! Section VI of the paper: *"we have implemented a time series-based
//! predictor using the well-known ARIMA model"*. This crate implements
//! the Box–Jenkins ARIMA(p, d, q) family from scratch, plus the simple
//! baselines the ablation benchmarks compare against:
//!
//! * [`series`] — differencing/integration, ACF, Yule–Walker AR
//!   (Durbin–Levinson), summary statistics.
//! * [`Arima`] — conditional-sum-of-squares fitting (Nelder–Mead over the
//!   AR/MA coefficients, seeded by a Yule–Walker AR fit) and multi-step
//!   forecasting through the integration chain.
//! * [`Forecaster`] — object-safe interface shared by ARIMA, the
//!   seasonal [`HoltWinters`] model, and the baselines ([`Naive`],
//!   [`MovingAverage`], [`Ewma`], [`Holt`]).
//!
//! # Examples
//!
//! ```
//! use harmony_forecast::{Arima, Forecaster};
//!
//! // A noiseless linear trend is an ARIMA(0,1,0)-with-drift special case:
//! let history: Vec<f64> = (0..60).map(|t| 3.0 + 2.0 * t as f64).collect();
//! let model = Arima::new(0, 1, 0)?.with_mean();
//! let fc = model.forecast(&history, 4)?;
//! for (h, v) in fc.iter().enumerate() {
//!     let expected = 3.0 + 2.0 * (60 + h) as f64;
//!     assert!((v - expected).abs() < 1e-6, "h={h}: {v} vs {expected}");
//! }
//! # Ok::<(), harmony_forecast::ForecastError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod arima;
mod baselines;
mod error;
mod neldermead;
mod seasonal;
pub mod series;

pub use arima::{Arima, ArimaFit, MAX_D, MAX_ORDER};
pub use baselines::{Ewma, Holt, MovingAverage, Naive};
pub use error::ForecastError;
pub use neldermead::{nelder_mead, NelderMeadOptions};
pub use seasonal::HoltWinters;

/// An object-safe forecaster: given a history, predict the next
/// `horizon` values.
///
/// Implementations refit on every call; HARMONY's control loop calls this
/// once per control period with the monitored arrival-rate series.
pub trait Forecaster: std::fmt::Debug {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Forecasts `horizon` values following `history`.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError`] when the history is too short or
    /// contains non-finite values.
    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError>;
}

/// One-step-ahead rolling evaluation of a forecaster over a series.
///
/// Starting from `warmup` observations, repeatedly forecasts the next
/// value and records the absolute error. Returns `(mae, rmse)`.
///
/// # Errors
///
/// Propagates forecaster errors; returns
/// [`ForecastError::SeriesTooShort`] when fewer than 2 evaluation points
/// remain after warm-up.
///
/// # Examples
///
/// ```
/// use harmony_forecast::{rolling_evaluate, Naive};
///
/// let series: Vec<f64> = (0..50).map(|t| (t as f64 * 0.3).sin()).collect();
/// let (mae, rmse) = rolling_evaluate(&Naive, &series, 10)?;
/// assert!(mae > 0.0 && rmse >= mae);
/// # Ok::<(), harmony_forecast::ForecastError>(())
/// ```
pub fn rolling_evaluate(
    forecaster: &dyn Forecaster,
    series: &[f64],
    warmup: usize,
) -> Result<(f64, f64), ForecastError> {
    if series.len() < warmup + 2 {
        return Err(ForecastError::SeriesTooShort { needed: warmup + 2, got: series.len() });
    }
    let mut abs_sum = 0.0;
    let mut sq_sum = 0.0;
    let mut n = 0usize;
    for t in warmup..series.len() - 1 {
        let pred = forecaster.forecast(&series[..=t], 1)?[0];
        let err = pred - series[t + 1];
        abs_sum += err.abs();
        sq_sum += err * err;
        n += 1;
    }
    Ok((abs_sum / n as f64, (sq_sum / n as f64).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_evaluate_requires_points() {
        let s = [1.0, 2.0, 3.0];
        assert!(matches!(
            rolling_evaluate(&Naive, &s, 5),
            Err(ForecastError::SeriesTooShort { .. })
        ));
    }

    #[test]
    fn naive_perfect_on_constant_series() {
        let s = vec![4.0; 30];
        let (mae, rmse) = rolling_evaluate(&Naive, &s, 5).unwrap();
        assert_eq!(mae, 0.0);
        assert_eq!(rmse, 0.0);
    }

    #[test]
    fn arima_beats_naive_on_trend() {
        let s: Vec<f64> = (0..80).map(|t| 10.0 + 1.5 * t as f64).collect();
        let naive = rolling_evaluate(&Naive, &s, 20).unwrap().0;
        let arima = rolling_evaluate(&Arima::new(0, 1, 0).unwrap().with_mean(), &s, 20).unwrap().0;
        assert!(arima < naive, "arima {arima} should beat naive {naive} on a trend");
    }
}
