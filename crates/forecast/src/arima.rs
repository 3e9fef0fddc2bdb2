//! ARIMA(p, d, q) via conditional sum of squares.
//!
//! The fitting pipeline follows the classic Box–Jenkins recipe:
//!
//! 1. difference the series `d` times;
//! 2. center the differenced series (when a mean term is included);
//! 3. minimize the conditional sum of squared innovations over the AR
//!    and MA coefficients — seeded with a Yule–Walker AR fit and refined
//!    by Nelder–Mead;
//! 4. forecast recursively and re-integrate through the differencing
//!    chain.

use serde::{Deserialize, Serialize};

use crate::error::check_finite;
use crate::series::{difference, difference_tails, mean, variance, yule_walker};
use crate::{nelder_mead, ForecastError, Forecaster, NelderMeadOptions};

/// Maximum supported AR/MA order; higher orders add little for the
/// arrival-rate series HARMONY predicts and slow the CSS search.
pub const MAX_ORDER: usize = 8;
/// Maximum supported differencing order.
pub const MAX_D: usize = 2;

/// An ARIMA(p, d, q) model specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arima {
    p: usize,
    d: usize,
    q: usize,
    include_mean: bool,
    optimizer: NelderMeadOptions,
}

impl Arima {
    /// Creates an ARIMA(p, d, q) specification. The mean term defaults to
    /// *off* (standard for differenced models); enable it with
    /// [`Arima::with_mean`].
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] when `p` or `q` exceed
    /// [`MAX_ORDER`] or `d` exceeds [`MAX_D`].
    pub fn new(p: usize, d: usize, q: usize) -> Result<Self, ForecastError> {
        if p > MAX_ORDER {
            return Err(ForecastError::InvalidParameter { name: "p", value: p.to_string() });
        }
        if q > MAX_ORDER {
            return Err(ForecastError::InvalidParameter { name: "q", value: q.to_string() });
        }
        if d > MAX_D {
            return Err(ForecastError::InvalidParameter { name: "d", value: d.to_string() });
        }
        Ok(Arima { p, d, q, include_mean: false, optimizer: NelderMeadOptions::default() })
    }

    /// Includes a mean (drift, once differenced) term.
    pub fn with_mean(mut self) -> Self {
        self.include_mean = true;
        self
    }

    /// Overrides the Nelder–Mead options used for CSS minimization.
    pub fn optimizer(mut self, options: NelderMeadOptions) -> Self {
        self.optimizer = options;
        self
    }

    /// The `(p, d, q)` order.
    pub fn order(&self) -> (usize, usize, usize) {
        (self.p, self.d, self.q)
    }

    /// Minimum history length this specification can be fitted on.
    pub fn min_history(&self) -> usize {
        self.d + self.p.max(self.q) + 4
    }

    /// Fits the model on `history`.
    ///
    /// # Errors
    ///
    /// * [`ForecastError::SeriesTooShort`] below [`Arima::min_history`].
    /// * [`ForecastError::NonFiniteValue`] for NaN/infinite observations.
    /// * [`ForecastError::FitFailed`] when optimization diverges.
    pub fn fit(&self, history: &[f64]) -> Result<ArimaFit, ForecastError> {
        check_finite(history)?;
        if history.len() < self.min_history() {
            return Err(ForecastError::SeriesTooShort {
                needed: self.min_history(),
                got: history.len(),
            });
        }
        let w = difference(history, self.d)?;
        let mu = if self.include_mean { mean(&w) } else { 0.0 };
        let centered: Vec<f64> = w.iter().map(|v| v - mu).collect();

        // Seed: Yule-Walker for the AR part, zeros for MA.
        let phi0 = if self.p > 0 && variance(&centered) > 0.0 {
            yule_walker(&centered, self.p).unwrap_or_else(|_| vec![0.0; self.p])
        } else {
            vec![0.0; self.p]
        };
        let mut x0 = phi0;
        x0.extend(std::iter::repeat_n(0.0, self.q));

        let (params, sse) = if self.p + self.q > 0 {
            let p = self.p;
            let q = self.q;
            let series = centered.clone();
            let obj = move |x: &[f64]| css(&series, &x[..p], &x[p..p + q]);
            let seeded_sse = obj(&x0);
            let (best, best_sse) = nelder_mead(obj, &x0, &self.optimizer);
            if best_sse.is_finite() && best_sse <= seeded_sse {
                (best, best_sse)
            } else if seeded_sse.is_finite() {
                (x0, seeded_sse)
            } else {
                return Err(ForecastError::FitFailed {
                    reason: "conditional sum of squares diverged".to_owned(),
                });
            }
        } else {
            (Vec::new(), css(&centered, &[], &[]))
        };
        if !sse.is_finite() {
            return Err(ForecastError::FitFailed {
                reason: "conditional sum of squares is not finite".to_owned(),
            });
        }
        let phi = params[..self.p].to_vec();
        let theta = params[self.p..].to_vec();
        let residuals = residuals(&centered, &phi, &theta);
        let n = centered.len() as f64;
        let k = (self.p + self.q + usize::from(self.include_mean)) as f64;
        let sigma2 = (sse / n).max(f64::MIN_POSITIVE);
        let aic = n * sigma2.ln() + 2.0 * (k + 1.0);
        Ok(ArimaFit {
            p: self.p,
            d: self.d,
            q: self.q,
            phi,
            theta,
            mu,
            sigma2,
            aic,
            centered,
            residuals,
            tails: difference_tails(history, self.d)?,
        })
    }
}

impl Forecaster for Arima {
    fn name(&self) -> &'static str {
        "arima"
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        Ok(self.fit(history)?.forecast(horizon))
    }
}

/// Conditional sum of squares for an ARMA(p, q) on a centered series.
/// Returns `+∞` for parameter vectors that blow up.
fn css(w: &[f64], phi: &[f64], theta: &[f64]) -> f64 {
    // Soft feasibility guard: wildly non-stationary coefficients explode
    // the recursion anyway, but reject early for speed.
    if phi.iter().chain(theta).any(|c| !c.is_finite() || c.abs() > 3.0) {
        return f64::INFINITY;
    }
    let e = residuals(w, phi, theta);
    let sse: f64 = e.iter().map(|v| v * v).sum();
    if sse.is_finite() {
        sse
    } else {
        f64::INFINITY
    }
}

/// Innovation sequence of an ARMA(p, q) on a centered series, with
/// pre-sample values set to zero (the "conditional" in CSS).
fn residuals(w: &[f64], phi: &[f64], theta: &[f64]) -> Vec<f64> {
    let mut e = vec![0.0f64; w.len()];
    for t in 0..w.len() {
        let mut pred = 0.0;
        for (i, &p) in phi.iter().enumerate() {
            if t > i {
                pred += p * w[t - 1 - i];
            }
        }
        for (j, &th) in theta.iter().enumerate() {
            if t > j {
                pred += th * e[t - 1 - j];
            }
        }
        e[t] = w[t] - pred;
        if !e[t].is_finite() || e[t].abs() > 1e12 {
            e[t] = f64::INFINITY;
            break;
        }
    }
    e
}

/// A fitted ARIMA model, ready to forecast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaFit {
    p: usize,
    d: usize,
    q: usize,
    phi: Vec<f64>,
    theta: Vec<f64>,
    mu: f64,
    sigma2: f64,
    aic: f64,
    centered: Vec<f64>,
    residuals: Vec<f64>,
    tails: Vec<f64>,
}

impl ArimaFit {
    /// AR coefficients `φ_1..φ_p`.
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// MA coefficients `θ_1..θ_q`.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// The mean of the differenced series (0 unless fitted with
    /// [`Arima::with_mean`]).
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Innovation variance estimate.
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// Akaike information criterion of the fit (lower is better).
    pub fn aic(&self) -> f64 {
        self.aic
    }

    /// In-sample innovations on the differenced scale.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Forecasts `horizon` steps ahead on the original scale.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        // Recursive ARMA forecasts on the centered differenced scale.
        let n = self.centered.len();
        let mut w_ext = self.centered.clone();
        let mut e_ext = self.residuals.clone();
        for h in 0..horizon {
            let t = n + h;
            let mut pred = 0.0;
            for (i, &p) in self.phi.iter().enumerate() {
                if t > i {
                    pred += p * w_ext[t - 1 - i];
                }
            }
            for (j, &th) in self.theta.iter().enumerate() {
                if t > j {
                    pred += th * e_ext[t - 1 - j];
                }
            }
            w_ext.push(pred);
            e_ext.push(0.0); // future innovations have zero expectation
        }
        let diffed_fc: Vec<f64> = w_ext[n..].iter().map(|v| v + self.mu).collect();
        crate::series::integrate(&diffed_fc, &self.tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_noise(seed: u64) -> impl FnMut() -> f64 {
        let mut x = seed;
        move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        }
    }

    #[test]
    fn order_validation() {
        assert!(Arima::new(9, 0, 0).is_err());
        assert!(Arima::new(0, 3, 0).is_err());
        assert!(Arima::new(0, 0, 9).is_err());
        let a = Arima::new(2, 1, 1).unwrap();
        assert_eq!(a.order(), (2, 1, 1));
    }

    #[test]
    fn rejects_short_or_bad_series() {
        let a = Arima::new(1, 1, 0).unwrap();
        assert!(matches!(a.fit(&[1.0, 2.0]), Err(ForecastError::SeriesTooShort { .. })));
        let bad = vec![1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert!(matches!(a.fit(&bad), Err(ForecastError::NonFiniteValue { index: 1 })));
    }

    #[test]
    fn ar1_coefficient_recovered() {
        let mut noise = lcg_noise(1);
        let mut s = vec![0.0f64];
        for _ in 0..4000 {
            let prev = *s.last().unwrap();
            s.push(0.65 * prev + noise());
        }
        let fit = Arima::new(1, 0, 0).unwrap().fit(&s).unwrap();
        assert!((fit.phi()[0] - 0.65).abs() < 0.05, "phi = {:?}", fit.phi());
        assert!(fit.sigma2() > 0.0);
    }

    #[test]
    fn ma1_coefficient_recovered() {
        let mut noise = lcg_noise(2);
        let mut prev_e = 0.0;
        let mut s = Vec::with_capacity(4000);
        for _ in 0..4000 {
            let e = noise();
            s.push(e + 0.55 * prev_e);
            prev_e = e;
        }
        let fit = Arima::new(0, 0, 1).unwrap().fit(&s).unwrap();
        assert!((fit.theta()[0] - 0.55).abs() < 0.07, "theta = {:?}", fit.theta());
    }

    #[test]
    fn random_walk_forecast_is_flat() {
        let mut noise = lcg_noise(3);
        let mut s = vec![100.0f64];
        for _ in 0..300 {
            let prev = *s.last().unwrap();
            s.push(prev + noise());
        }
        let fit = Arima::new(0, 1, 0).unwrap().fit(&s).unwrap();
        let fc = fit.forecast(5);
        let last = *s.last().unwrap();
        for v in fc {
            assert!((v - last).abs() < 1e-9, "random-walk forecast should hold the level");
        }
    }

    #[test]
    fn drift_model_extends_trend() {
        let s: Vec<f64> = (0..50).map(|t| 5.0 * t as f64).collect();
        let fit = Arima::new(0, 1, 0).unwrap().with_mean().fit(&s).unwrap();
        let fc = fit.forecast(3);
        for (h, v) in fc.iter().enumerate() {
            let expected = 5.0 * (50 + h) as f64;
            assert!((v - expected).abs() < 1e-6, "h={h}: {v}");
        }
    }

    #[test]
    fn forecast_length_matches_horizon() {
        let s: Vec<f64> = (0..40).map(|t| (t as f64).sin()).collect();
        let fit = Arima::new(2, 0, 1).unwrap().with_mean().fit(&s).unwrap();
        assert_eq!(fit.forecast(0).len(), 0);
        assert_eq!(fit.forecast(7).len(), 7);
    }

    #[test]
    fn aic_penalizes_overfitting_noise() {
        let mut noise = lcg_noise(4);
        let s: Vec<f64> = (0..600).map(|_| noise()).collect();
        let small = Arima::new(0, 0, 0).unwrap().with_mean().fit(&s).unwrap();
        let big = Arima::new(4, 0, 4).unwrap().with_mean().fit(&s).unwrap();
        assert!(
            small.aic() < big.aic() + 2.0,
            "white noise should not favor a large model decisively: {} vs {}",
            small.aic(),
            big.aic()
        );
    }

    #[test]
    fn forecaster_trait_roundtrip() {
        let a = Arima::new(1, 0, 0).unwrap().with_mean();
        assert_eq!(a.name(), "arima");
        let s: Vec<f64> = (0..50).map(|t| 10.0 + (t % 5) as f64).collect();
        let fc = a.forecast(&s, 4).unwrap();
        assert_eq!(fc.len(), 4);
        for v in fc {
            assert!(v.is_finite() && v > 5.0 && v < 20.0);
        }
    }
}
