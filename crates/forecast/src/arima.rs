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


use crate::error::check_finite;
use crate::series::{difference, difference_tails, mean, variance, yule_walker};
use crate::neldermead::NelderMead;
use crate::{ForecastError, Forecaster, NelderMeadOptions};

/// Maximum supported AR/MA order; higher orders add little for the
/// arrival-rate series HARMONY predicts and slow the CSS search.
pub const MAX_ORDER: usize = 8;
/// Maximum supported differencing order.
pub const MAX_D: usize = 2;

/// An ARIMA(p, d, q) model specification.
#[derive(Debug, Clone, PartialEq)]
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

    /// Fits the model on `history`: [`Arima::fit_many`] of one.
    ///
    /// # Errors
    ///
    /// * [`ForecastError::SeriesTooShort`] below [`Arima::min_history`].
    /// * [`ForecastError::NonFiniteValue`] for NaN/infinite observations.
    /// * [`ForecastError::FitFailed`] when optimization diverges.
    pub fn fit(&self, history: &[f64]) -> Result<ArimaFit, ForecastError> {
        let fits = self.fit_many(&[history]);
        // Invariant: fit_many returns one result per history.
        #[allow(clippy::expect_used)]
        fits.into_iter().next().expect("fit_many returns one result per history")
    }

    /// Fits the model on each history, returning the results in input
    /// order; each equals what [`Arima::fit`] returns for that history
    /// alone, bit for bit.
    ///
    /// The CSS searches run side by side, four at a time: one kernel
    /// pass evaluates every running search's next point, which hides the
    /// latency of each series' recursion behind the others'. A lane whose
    /// search converges takes the next history of the same length.
    ///
    /// # Errors
    ///
    /// Per history, as [`Arima::fit`].
    pub fn fit_many(&self, histories: &[&[f64]]) -> Vec<Result<ArimaFit, ForecastError>> {
        let mut prepared: Vec<Result<Prepared, ForecastError>> =
            histories.iter().map(|h| self.prepare(h)).collect();
        // Lanes share one series length: group the searches by length,
        // each group in input order.
        let mut pending: Vec<&mut Prepared> = prepared
            .iter_mut()
            .filter_map(|prep| prep.as_mut().ok())
            .filter(|prep| prep.searched.is_none())
            .collect();
        pending.sort_by_key(|prep| prep.centered.len());
        for group in pending.chunk_by_mut(|a, b| a.centered.len() == b.centered.len()) {
            self.search_lanes(group);
        }
        prepared
            .into_iter()
            .zip(histories)
            .map(|(prep, history)| self.finish(prep?, history))
            .collect()
    }

    /// Validates one history and sets up its CSS search: the centered
    /// differenced series and the Yule–Walker starting point. An all-zero
    /// centered series needs no search.
    fn prepare(&self, history: &[f64]) -> Result<Prepared, ForecastError> {
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
        // An all-zero series has CSS 0 at every guarded point, so the
        // search would stop on its initial simplex and return x0.
        let searched = centered
            .iter()
            .all(|&v| v == 0.0)
            .then(|| Searched { best: x0.clone(), best_sse: 0.0, seeded_sse: 0.0 });
        Ok(Prepared { centered, mu, x0, searched })
    }

    /// Runs the CSS searches of `jobs` (all of one series length) through
    /// the lane kernel, recording each job's outcome in it.
    fn search_lanes(&self, jobs: &mut [&mut Prepared]) {
        let len = jobs.first().map_or(0, |job| job.centered.len());
        let (p, q) = (self.p, self.q);
        let mut w = vec![[0.0; LANES]; len];
        let mut e = vec![[0.0; LANES]; len];
        let mut phi = [[0.0; LANES]; MAX_ORDER];
        let mut theta = [[0.0; LANES]; MAX_ORDER];
        let mut lanes: [Option<Lane>; LANES] = std::array::from_fn(|_| None);
        let mut queue = 0..jobs.len();
        loop {
            let mut running = false;
            for (l, slot) in lanes.iter_mut().enumerate() {
                if let Some(lane) = slot.take_if(|lane| lane.search.ask().is_none()) {
                    let (best, best_sse) = lane.search.best();
                    jobs[lane.job].searched = Some(Searched {
                        best: best.to_vec(),
                        best_sse,
                        seeded_sse: lane.seeded_sse,
                    });
                }
                if slot.is_none() {
                    if let Some(job) = queue.next() {
                        for (row, &v) in w.iter_mut().zip(&jobs[job].centered) {
                            row[l] = v;
                        }
                        let search = NelderMead::new(&jobs[job].x0, &self.optimizer);
                        *slot = Some(Lane { job, search, seeded_sse: f64::INFINITY });
                    }
                }
                // An idle lane evaluates all-zero coefficients, unread.
                let x = slot.as_ref().and_then(|lane| lane.search.ask());
                running |= x.is_some();
                let x = x.unwrap_or(&[0.0; 2 * MAX_ORDER][..p + q]);
                for (c, &v) in phi.iter_mut().zip(&x[..p]) {
                    c[l] = v;
                }
                for (c, &v) in theta.iter_mut().zip(&x[p..]) {
                    c[l] = v;
                }
            }
            if !running {
                return;
            }
            let sse = css_lanes(&w, &mut e, &phi[..p], &theta[..q]);
            for (lane, &value) in lanes.iter_mut().zip(&sse) {
                if let Some(lane) = lane {
                    // The first point is x0: its CSS is the seeded value.
                    if lane.search.evals() == 0 {
                        lane.seeded_sse = value;
                    }
                    lane.search.tell(value);
                }
            }
        }
    }

    /// Picks the coefficients from the search outcome and builds the
    /// fitted model.
    fn finish(&self, prep: Prepared, history: &[f64]) -> Result<ArimaFit, ForecastError> {
        let Prepared { centered, mu, x0, searched } = prep;
        // fit_many searches every history it prepares.
        let Some(Searched { best, best_sse, seeded_sse }) = searched else {
            return Err(ForecastError::FitFailed { reason: "CSS search did not run".to_owned() });
        };
        // With no coefficients the one point is both; a non-finite CSS
        // fails below.
        let nothing_to_search = self.p + self.q == 0;
        let (params, sse) =
            if nothing_to_search || (best_sse.is_finite() && best_sse <= seeded_sse) {
                (best, best_sse)
            } else if seeded_sse.is_finite() {
                (x0, seeded_sse)
            } else {
                return Err(ForecastError::FitFailed {
                    reason: "conditional sum of squares diverged".to_owned(),
                });
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

/// Searches the CSS kernel runs side by side. Four beat eight on the
/// closed loop: a worker's batch is about nine searches, so eight lanes
/// mostly run empty once the work list drains.
const LANES: usize = 4;

/// A validated history and, once run, its CSS search.
#[derive(Debug)]
struct Prepared {
    centered: Vec<f64>,
    mu: f64,
    x0: Vec<f64>,
    searched: Option<Searched>,
}

/// The outcome of one CSS search.
#[derive(Debug)]
struct Searched {
    best: Vec<f64>,
    best_sse: f64,
    /// The CSS at the starting point.
    seeded_sse: f64,
}

/// One kernel lane's search.
#[derive(Debug)]
struct Lane {
    job: usize,
    search: NelderMead,
    seeded_sse: f64,
}

/// Conditional sum of squares of an ARMA(p, q) for [`LANES`] centered
/// series at once, each with its own coefficients: `w[t][l]` is lane
/// `l`'s series, `phi[i][l]` and `theta[j][l]` its coefficients, and `e`
/// scratch of the same length as `w`. A lane returns `+∞` for
/// coefficients that blow up.
///
/// Every lane runs exactly the scalar recursion of [`residuals`] and
/// sums its squares in `t` order, so its value is bit-identical to a
/// one-series evaluation; the lanes only interleave independent chains.
fn css_lanes(
    w: &[[f64; LANES]],
    e: &mut [[f64; LANES]],
    phi: &[[f64; LANES]],
    theta: &[[f64; LANES]],
) -> [f64; LANES] {
    // Soft feasibility guard: wildly non-stationary coefficients explode
    // the recursion anyway, but reject early for speed. Like the residual
    // guard below, `!(|c| <= bound)` also rejects NaN and ±∞.
    let mut alive = [true; LANES];
    for c in phi.iter().chain(theta) {
        for (ok, c) in alive.iter_mut().zip(c) {
            *ok &= c.abs() <= 3.0;
        }
    }
    let mut sse = [0.0; LANES];
    let mut step = |t: usize, pred: [f64; LANES], e: &mut [[f64; LANES]]| {
        for l in 0..LANES {
            let et = w[t][l] - pred[l];
            e[t][l] = et;
            alive[l] &= et.abs() <= 1e12;
            sse[l] += et * et;
        }
    };
    // Warm-up: the first max(p, q) steps see fewer than p (q) past
    // values.
    let warm = phi.len().max(theta.len()).min(w.len());
    for t in 0..warm {
        let mut pred = [0.0; LANES];
        for (i, c) in phi.iter().enumerate().take(t) {
            for l in 0..LANES {
                pred[l] += c[l] * w[t - 1 - i][l];
            }
        }
        for (j, c) in theta.iter().enumerate().take(t) {
            for l in 0..LANES {
                pred[l] += c[l] * e[t - 1 - j][l];
            }
        }
        step(t, pred, e);
    }
    for t in warm..w.len() {
        let mut pred = [0.0; LANES];
        for (c, past) in phi.iter().zip(w[..t].iter().rev()) {
            for l in 0..LANES {
                pred[l] += c[l] * past[l];
            }
        }
        for (c, past) in theta.iter().zip(e[..t].iter().rev()) {
            for l in 0..LANES {
                pred[l] += c[l] * past[l];
            }
        }
        step(t, pred, e);
    }
    std::array::from_fn(|l| if alive[l] && sse[l].is_finite() { sse[l] } else { f64::INFINITY })
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

/// The scalar conditional sum of squares that [`css_lanes`] replaced,
/// kept as the oracle each lane must match bit for bit.
#[cfg(test)]
fn css(w: &[f64], phi: &[f64], theta: &[f64]) -> f64 {
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

#[cfg(test)]
impl Arima {
    /// The one-series fit that [`Arima::fit_many`] replaced (scalar
    /// [`css`] driven by the closure Nelder–Mead, with its duplicate
    /// evaluation of `x0`), kept as the oracle both fit paths must match
    /// bit for bit.
    fn fit_oracle(&self, history: &[f64]) -> Result<ArimaFit, ForecastError> {
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
        let phi0 = if self.p > 0 && variance(&centered) > 0.0 {
            yule_walker(&centered, self.p).unwrap_or_else(|_| vec![0.0; self.p])
        } else {
            vec![0.0; self.p]
        };
        let mut x0 = phi0;
        x0.extend(std::iter::repeat_n(0.0, self.q));
        let (params, sse) = if self.p + self.q > 0 {
            let (p, q) = (self.p, self.q);
            let series = centered.clone();
            let obj = move |x: &[f64]| css(&series, &x[..p], &x[p..p + q]);
            let seeded_sse = obj(&x0);
            let (best, best_sse) =
                crate::neldermead::nelder_mead_oracle(obj, &x0, &self.optimizer);
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

/// A fitted ARIMA model, ready to forecast.
#[derive(Debug, Clone, PartialEq)]
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

    /// Every float of a fit, as bits, so `-0.0`/`0.0` and NaN payloads
    /// count as differences.
    fn fit_bits(fit: &ArimaFit) -> Vec<u64> {
        let mut bits = vec![fit.p as u64, fit.d as u64, fit.q as u64];
        bits.extend(
            [&fit.phi, &fit.theta, &fit.centered, &fit.residuals, &fit.tails]
                .into_iter()
                .flatten()
                .chain([&fit.mu, &fit.sigma2, &fit.aic])
                .map(|v| v.to_bits()),
        );
        bits
    }

    fn assert_same_fit(
        got: &Result<ArimaFit, ForecastError>,
        want: &Result<ArimaFit, ForecastError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(fit_bits(got), fit_bits(want), "{what}"),
            (Err(got), Err(want)) => assert_eq!(got, want, "{what}"),
            _ => panic!("{what}: {got:?} vs {want:?}"),
        }
    }

    /// Loads `series` into lanes (lane `l` gets `series[l]`, missing
    /// lanes stay zero) and runs the kernel.
    fn kernel(series: &[&[f64]], coefs: &[Vec<f64>], p: usize, q: usize) -> [f64; LANES] {
        let len = series[0].len();
        let mut w = vec![[0.0; LANES]; len];
        let mut phi = vec![[0.0; LANES]; p];
        let mut theta = vec![[0.0; LANES]; q];
        for (l, (s, c)) in series.iter().zip(coefs).enumerate() {
            for (row, &v) in w.iter_mut().zip(*s) {
                row[l] = v;
            }
            for (i, &v) in c[..p].iter().enumerate() {
                phi[i][l] = v;
            }
            for (j, &v) in c[p..].iter().enumerate() {
                theta[j][l] = v;
            }
        }
        let mut e = vec![[0.0; LANES]; len];
        css_lanes(&w, &mut e, &phi, &theta)
    }

    #[test]
    fn lane_kernel_matches_scalar_css() {
        let mut noise = lcg_noise(11);
        let base: Vec<f64> = (0..300).map(|_| noise()).collect();
        let mut spiky = base.clone();
        spiky[17] = 3e11;
        spiky[250] = -7e11;
        let mut with_nan = base.clone();
        with_nan[40] = f64::NAN;
        let sources: [&[f64]; 4] = [&base, &spiky, &with_nan, &base];
        for p in 0..=MAX_ORDER {
            for q in 0..=MAX_ORDER {
                if p + q == 0 {
                    continue;
                }
                let min = Arima::new(p, 0, q).unwrap().min_history();
                let n = p + q;
                // Inside the guard, on the guard, outside it, non-finite,
                // and explosive-but-guarded coefficients.
                let coefs: Vec<Vec<f64>> = vec![
                    (0..n).map(|k| 0.3 / (k + 1) as f64 * if k % 2 == 0 { 1.0 } else { -1.0 }).collect(),
                    (0..n).map(|k| if k == 0 { 3.0 } else { -0.1 }).collect(),
                    (0..n).map(|k| if k == n - 1 { -3.000_000_1 } else { 0.2 }).collect(),
                    (0..n).map(|k| if k == n / 2 { f64::NAN } else { 0.1 }).collect(),
                    (0..n).map(|_| 2.9).collect(),
                    (0..n).map(|k| if k == 0 { f64::INFINITY } else { 0.0 }).collect(),
                ];
                // Every length, each with one rotation of the coefficient
                // sets and lane counts, keeps the debug build fast.
                for len in min..=300 {
                    let round = len % coefs.len();
                    // Partly empty lane sets: 1..=LANES lanes used.
                    let used = 1 + round % LANES;
                    let series: Vec<&[f64]> =
                        (0..used).map(|l| &sources[(round + l) % sources.len()][..len]).collect();
                    let lane_coefs: Vec<Vec<f64>> =
                        (0..used).map(|l| coefs[(round + l) % coefs.len()].clone()).collect();
                    let got = kernel(&series, &lane_coefs, p, q);
                    for l in 0..used {
                        let want = css(series[l], &lane_coefs[l][..p], &lane_coefs[l][p..]);
                        assert_eq!(
                            got[l].to_bits(),
                            want.to_bits(),
                            "p={p} q={q} len={len} lane {l}: {} vs {want}",
                            got[l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fit_matches_the_scalar_oracle() {
        let mut noise = lcg_noise(5);
        let mut ar = vec![0.0f64];
        for _ in 0..299 {
            let prev = *ar.last().unwrap();
            ar.push(0.6 * prev + noise());
        }
        let wave: Vec<f64> = (0..288).map(|t| 3.0 + (t as f64 * 0.4).sin() + 0.1 * noise()).collect();
        for (p, d, q) in [(2, 0, 1), (1, 0, 0), (0, 0, 1), (0, 1, 0), (3, 1, 2), (0, 0, 0), (8, 0, 8)] {
            for with_mean in [false, true] {
                let mut model = Arima::new(p, d, q).unwrap();
                if with_mean {
                    model = model.with_mean();
                }
                for (name, series) in [("ar", &ar[..]), ("wave", &wave[..]), ("short", &wave[..40])] {
                    if p + q > 8 && name != "short" {
                        continue; // the full-order search is slow in a debug build
                    }
                    let what = format!("({p},{d},{q}) mean={with_mean} {name}");
                    assert_same_fit(&model.fit(series), &model.fit_oracle(series), &what);
                }
            }
        }
    }

    #[test]
    fn constant_histories_skip_the_search_bit_for_bit() {
        // The monitor's model on every history length it produces.
        let model = Arima::new(2, 0, 1).unwrap().with_mean();
        for len in 24..=288 {
            for level in [0.0, 1.0 / 600.0, 7.0 / 3.0, 0.5] {
                let series = vec![level; len];
                let what = format!("len={len} level={level}");
                assert_same_fit(&model.fit(&series), &model.fit_oracle(&series), &what);
            }
        }
        // Without a mean term, only an all-zero series centres to zero.
        for model in [Arima::new(1, 0, 1).unwrap(), Arima::new(0, 1, 2).unwrap()] {
            for level in [0.0, 2.0] {
                let series = vec![level; 60];
                let what = format!("{:?} level={level}", model.order());
                assert_same_fit(&model.fit(&series), &model.fit_oracle(&series), &what);
            }
        }
    }

    #[test]
    fn fit_many_matches_one_fit_per_history() {
        let model = Arima::new(2, 0, 1).unwrap().with_mean();
        let mut noise = lcg_noise(8);
        let mut histories: Vec<Vec<f64>> = Vec::new();
        for k in 0..23 {
            let len = [288, 288, 40, 100, 288][k % 5];
            let level = 1.0 + k as f64;
            histories.push((0..len).map(|t| level + (t as f64 * 0.3 * level).sin() + noise()).collect());
        }
        histories.insert(3, vec![0.0; 288]);
        histories.insert(7, vec![7.0 / 3.0; 288]);
        histories.insert(9, vec![1.0, 2.0, 3.0]);
        histories.insert(12, vec![]);
        let mut with_nan = histories[0].clone();
        with_nan[10] = f64::NAN;
        histories.insert(15, with_nan);
        histories.insert(16, vec![1e200; 288].iter().enumerate().map(|(t, v)| v * (t % 2) as f64).collect());
        let refs: Vec<&[f64]> = histories.iter().map(Vec::as_slice).collect();
        let batch = model.fit_many(&refs);
        assert_eq!(batch.len(), refs.len());
        for (i, (got, history)) in batch.iter().zip(&refs).enumerate() {
            let what = format!("history {i} (len {})", history.len());
            assert_same_fit(got, &model.fit(history), &what);
            assert_same_fit(got, &model.fit_oracle(history), &what);
        }
        assert!(batch.iter().any(Result::is_err) && batch.iter().filter(|r| r.is_ok()).count() > LANES);
        assert!(model.fit_many(&[]).is_empty());
    }
}
