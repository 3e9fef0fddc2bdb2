//! Time-series utilities: differencing, autocorrelation, summary stats.

use crate::error::check_finite;
use crate::ForecastError;

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().sum::<f64>() / series.len() as f64
}

/// Population variance around the mean. Returns 0 for slices shorter
/// than 2.
pub fn variance(series: &[f64]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let m = mean(series);
    series.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / series.len() as f64
}

/// First-order differencing applied `d` times: the `d`-fold Δ operator of
/// ARIMA's "I" component.
///
/// # Errors
///
/// Returns [`ForecastError::SeriesTooShort`] when fewer than `d + 1`
/// observations are supplied.
///
/// # Examples
///
/// ```
/// use harmony_forecast::series::difference;
///
/// let squares: Vec<f64> = (0..6).map(|t| (t * t) as f64).collect();
/// // Second difference of t^2 is the constant 2.
/// let dd = difference(&squares, 2)?;
/// assert!(dd.iter().all(|&v| (v - 2.0).abs() < 1e-12));
/// # Ok::<(), harmony_forecast::ForecastError>(())
/// ```
pub fn difference(series: &[f64], d: usize) -> Result<Vec<f64>, ForecastError> {
    if series.len() < d + 1 {
        return Err(ForecastError::SeriesTooShort { needed: d + 1, got: series.len() });
    }
    let mut out = series.to_vec();
    for _ in 0..d {
        out = out.windows(2).map(|w| w[1] - w[0]).collect();
    }
    Ok(out)
}

/// Undoes [`difference`]: given forecasts of the `d`-times differenced
/// series and the tail of the original series, reconstructs forecasts on
/// the original scale.
///
/// `tails[k]` must hold the last value of the series differenced `k`
/// times (`k = 0..d`), as produced by [`difference_tails`].
pub fn integrate(forecasts: &[f64], tails: &[f64]) -> Vec<f64> {
    let mut out = forecasts.to_vec();
    // Walk the integration chain from most-differenced to original.
    for &tail in tails.iter().rev() {
        let mut level = tail;
        for v in &mut out {
            level += *v;
            *v = level;
        }
    }
    out
}

/// The last value of the series at each differencing level `0..d`,
/// needed by [`integrate`].
///
/// # Errors
///
/// Same as [`difference`].
pub fn difference_tails(series: &[f64], d: usize) -> Result<Vec<f64>, ForecastError> {
    let mut tails = Vec::with_capacity(d);
    let mut current = series.to_vec();
    for _ in 0..d {
        // The tail is read before difference() runs, so an empty input
        // must be rejected here rather than unwrapped away.
        let &tail = current
            .last()
            .ok_or(ForecastError::SeriesTooShort { needed: d + 1, got: series.len() })?;
        tails.push(tail);
        current = difference(&current, 1)?;
    }
    Ok(tails)
}

/// Sample autocorrelation function up to `max_lag` (inclusive);
/// `acf[0] == 1`.
///
/// # Errors
///
/// Returns [`ForecastError::SeriesTooShort`] when the series is shorter
/// than `max_lag + 1` or has zero variance, and propagates non-finite
/// input errors.
pub fn acf(series: &[f64], max_lag: usize) -> Result<Vec<f64>, ForecastError> {
    check_finite(series)?;
    if series.len() < max_lag + 1 || series.len() < 2 {
        return Err(ForecastError::SeriesTooShort { needed: max_lag + 1, got: series.len() });
    }
    let m = mean(series);
    let denom: f64 = series.iter().map(|v| (v - m) * (v - m)).sum();
    if denom <= 0.0 {
        return Err(ForecastError::FitFailed { reason: "series has zero variance".to_owned() });
    }
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let num: f64 = series[lag..]
            .iter()
            .zip(&series[..series.len() - lag])
            .map(|(a, b)| (a - m) * (b - m))
            .sum();
        out.push(num / denom);
    }
    Ok(out)
}

/// Yule–Walker AR(p) coefficients via Durbin–Levinson. Returns the `p`
/// AR coefficients `φ_1..φ_p` of the centered series.
///
/// # Errors
///
/// Same as [`acf`].
pub fn yule_walker(series: &[f64], p: usize) -> Result<Vec<f64>, ForecastError> {
    if p == 0 {
        return Ok(Vec::new());
    }
    let r = acf(series, p)?;
    let mut phi: Vec<f64> = Vec::new();
    let mut v = 1.0_f64;
    for k in 1..=p {
        let mut num = r[k];
        for (j, &c) in phi.iter().enumerate() {
            num -= c * r[k - 1 - j];
        }
        let phi_kk = if v.abs() > 1e-15 { num / v } else { 0.0 };
        let mut next = Vec::with_capacity(k);
        for j in 0..k - 1 {
            next.push(phi[j] - phi_kk * phi[k - 2 - j]);
        }
        next.push(phi_kk);
        v *= 1.0 - phi_kk * phi_kk;
        phi = next;
    }
    Ok(phi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn difference_and_integrate_roundtrip() {
        let s: Vec<f64> = (0..20).map(|t| (t as f64).powi(2) + 3.0).collect();
        for d in 0..=3usize {
            let diffed = difference(&s, d).unwrap();
            let tails = difference_tails(&s, d).unwrap();
            // Treat the "rest" of the differenced series as forecasts:
            // split at some point and reconstruct.
            let split = 10 - d;
            let history = &s[..s.len() - (diffed.len() - split)];
            let tails_h = difference_tails(history, d).unwrap();
            let reconstructed = integrate(&diffed[split..], &tails_h);
            for (a, b) in reconstructed.iter().zip(&s[history.len()..]) {
                assert!((a - b).abs() < 1e-9, "d={d}: {a} vs {b}");
            }
            assert_eq!(tails.len(), d);
        }
    }

    #[test]
    fn difference_too_short() {
        assert!(matches!(
            difference(&[1.0], 1),
            Err(ForecastError::SeriesTooShort { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn difference_tails_rejects_empty_series() {
        // Used to panic: the tail is read before difference() gets a
        // chance to reject the empty input.
        assert!(matches!(
            difference_tails(&[], 1),
            Err(ForecastError::SeriesTooShort { needed: 2, got: 0 })
        ));
        assert_eq!(difference_tails(&[], 0).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn acf_lag0_is_one_and_detects_alternation() {
        let s: Vec<f64> = (0..40).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = acf(&s, 2).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!(r[1] < -0.9, "alternating series has strong negative lag-1 ACF");
        assert!(r[2] > 0.9);
    }

    #[test]
    fn acf_white_noise_is_small() {
        // Deterministic pseudo-noise via a simple LCG.
        let mut x = 123456789u64;
        let s: Vec<f64> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as f64 / (1u64 << 30) as f64) - 1.0
            })
            .collect();
        let r = acf(&s, 5).unwrap();
        for (lag, v) in r.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.1, "lag {lag}: {v}");
        }
    }

    #[test]
    fn acf_zero_variance_errors() {
        let s = vec![3.0; 10];
        assert!(matches!(acf(&s, 2), Err(ForecastError::FitFailed { .. })));
    }

    #[test]
    fn yule_walker_recovers_ar2() {
        // AR(2): x_t = 0.5 x_{t-1} + 0.3 x_{t-2} + e_t.
        let mut x = 7u64;
        let mut noise = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        let mut s = vec![0.0f64, 0.0];
        for _ in 0..6000 {
            let n = s.len();
            s.push(0.5 * s[n - 1] + 0.3 * s[n - 2] + noise());
        }
        let phi = yule_walker(&s, 2).unwrap();
        assert!((phi[0] - 0.5).abs() < 0.06, "phi1 = {}", phi[0]);
        assert!((phi[1] - 0.3).abs() < 0.06, "phi2 = {}", phi[1]);
        assert!(yule_walker(&s, 0).unwrap().is_empty());
    }
}
