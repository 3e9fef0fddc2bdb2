//! Small, dependency-free samplers on top of a [`rand::Rng`].
//!
//! The pre-approved `rand` crate provides uniform bits only; the
//! distribution shapes the generator needs (normal, lognormal, Poisson)
//! are implemented here.

use rand::Rng;

/// A standard normal draw via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A lognormal draw: `exp(mu + sigma·Z)`.
///
/// `mu`/`sigma` parameterize the underlying normal, so the median of the
/// result is `exp(mu)`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// A Poisson draw with the given mean.
///
/// Uses Knuth's product method for small means and a clamped normal
/// approximation above 64, which is indistinguishable at the bin sizes
/// the generator uses.
///
/// # Panics
///
/// Panics if `mean` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(mean.is_finite() && mean >= 0.0, "poisson mean must be non-negative, got {mean}");
    if mean == 0.0 {
        return 0;
    }
    if mean > 64.0 {
        let draw = mean + mean.sqrt() * standard_normal(rng);
        return draw.round().max(0.0) as u64;
    }
    let limit = (-mean).exp();
    let mut product: f64 = rng.gen();
    let mut count = 0u64;
    while product > limit {
        product *= rng.gen::<f64>();
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut samples: Vec<f64> = (0..50_001).map(|_| lognormal(&mut rng, 2.0, 0.8)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[25_000];
        assert!((median - 2.0f64.exp()).abs() < 0.3, "median = {median}");
        assert!(samples.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn poisson_small_mean_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean_target = 3.5;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, mean_target)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - mean_target).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let mean_target = 500.0;
        let samples: Vec<u64> = (0..n).map(|_| poisson(&mut rng, mean_target)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - mean_target).abs() < 2.0, "mean = {mean}");
        assert!((var - mean_target).abs() < 30.0, "var = {var}");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn poisson_negative_mean_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = poisson(&mut rng, -1.0);
    }
}
