//! Gaussian statistical-multiplexing container sizing (Section VII-A).
//!
//! K-means models each task class as a Gaussian, so the aggregate demand
//! of `G` co-located tasks of a class is normal with mean `Σμ` and
//! variance `Σσ²`. Section VII-A picks the per-task container reservation
//! `c_r = μ_r + Z_r·σ_r`, where `Z_r` is the `(1-ε_r)`-quantile of the
//! unit normal, which guarantees (Eq. 3) that whenever the *reservations*
//! fit in a machine, the *actual* usage overflows with probability at
//! most ε.

use harmony_model::{ClassStats, Resources, NUM_RESOURCES};

use crate::QueueingError;

/// Standard normal cumulative distribution function Φ(x).
///
/// Implemented via the Abramowitz–Stegun 7.1.26 rational approximation of
/// `erf`, accurate to about `1.5e-7` — far below the ε values container
/// sizing works with.
///
/// # Examples
///
/// ```
/// use harmony_queueing::normal_cdf;
///
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal quantile function Φ⁻¹(p) (the `Z_r` of Eq. 3).
///
/// Implemented with Acklam's rational approximation (relative error
/// below `1.15e-9` over the open unit interval).
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
///
/// # Examples
///
/// ```
/// use harmony_queueing::normal_quantile;
///
/// assert!((normal_quantile(0.5)).abs() < 1e-9);
/// assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1), got {p}");
    // Coefficients for Acklam's inverse normal CDF approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Computes container reservations `c_n = μ_n + Z·σ_n` for task classes,
/// given a machine-level capacity-violation budget ε (Section VII-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerSizer {
    epsilon: f64,
    z: f64,
}

impl ContainerSizer {
    /// Creates a sizer for a machine-capacity violation budget `epsilon`.
    ///
    /// The joint bound over the `|R|` resource dimensions is split evenly:
    /// `ε_r = 1 - (1-ε)^(1/|R|)`, so that violating *any* dimension stays
    /// below ε under independence.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::InvalidParameter`] unless
    /// `0 < epsilon < 1`.
    pub fn new(epsilon: f64) -> Result<Self, QueueingError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(QueueingError::InvalidParameter { name: "epsilon", value: epsilon });
        }
        let per_resource = 1.0 - (1.0 - epsilon).powf(1.0 / NUM_RESOURCES as f64);
        let z = normal_quantile(1.0 - per_resource);
        Ok(ContainerSizer { epsilon, z })
    }

    /// The machine-level violation budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The normal quantile `Z_r` applied to every resource dimension.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// The container reservation for a task class: `μ + Z·σ` per
    /// dimension, clamped to the normalized machine size.
    pub fn container_size(&self, stats: &ClassStats) -> Resources {
        stats.container_size(self.z)
    }

    /// Upper bound on the probability that the *actual* usage of `counts`
    /// tasks per class exceeds `capacity` in some dimension, assuming
    /// independent Gaussian demands (union bound over dimensions).
    ///
    /// This is the quantity Eq. (3) drives below ε whenever the
    /// reservations fit. Only this module's tests call it today; it stays
    /// public for the check of Eq. 3 against simulated usage (ROADMAP
    /// item 4(d)).
    pub fn violation_probability(
        &self,
        classes: &[(&ClassStats, usize)],
        capacity: Resources,
    ) -> f64 {
        let mut p_any = 0.0;
        for r in 0..NUM_RESOURCES {
            let mut mean = 0.0;
            let mut var = 0.0;
            for (stats, count) in classes {
                let k = *count as f64;
                mean += k * stats.mean_demand[r];
                var += k * stats.std_demand[r] * stats.std_demand[r];
            }
            let p_r = if var > 0.0 {
                1.0 - normal_cdf((capacity[r] - mean) / var.sqrt())
            } else if mean > capacity[r] {
                1.0
            } else {
                0.0
            };
            p_any += p_r;
        }
        p_any.min(1.0)
    }

    /// Checks Eq. (3) directly: given per-class task counts, returns
    /// `true` if `(C_r - Σμ_r) / sqrt(Σσ_r²) ≥ Z_r` holds for every
    /// resource dimension. Kept public for the same ROADMAP 4(d) check as
    /// [`ContainerSizer::violation_probability`].
    pub fn satisfies_eq3(&self, classes: &[(&ClassStats, usize)], capacity: Resources) -> bool {
        for r in 0..NUM_RESOURCES {
            let mut mean = 0.0;
            let mut var = 0.0;
            for (stats, count) in classes {
                let k = *count as f64;
                mean += k * stats.mean_demand[r];
                var += k * stats.std_demand[r] * stats.std_demand[r];
            }
            if var > 0.0 {
                if (capacity[r] - mean) / var.sqrt() < self.z {
                    return false;
                }
            } else if mean > capacity[r] {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::{PriorityGroup, SimDuration, TaskClassId};

    fn stats(mean: (f64, f64), std: (f64, f64)) -> ClassStats {
        ClassStats {
            id: TaskClassId(0),
            group: PriorityGroup::Other,
            mean_demand: Resources::new(mean.0, mean.1),
            std_demand: Resources::new(std.0, std.1),
            mean_duration: SimDuration::from_secs(100.0),
            cv2_duration: 1.0,
            count: 100,
        }
    }

    #[test]
    fn cdf_reference_values() {
        let cases =
            [(0.0, 0.5), (1.0, 0.8413447), (-1.0, 0.1586553), (2.0, 0.9772499), (3.0, 0.9986501)];
        for (x, phi) in cases {
            assert!((normal_cdf(x) - phi).abs() < 2e-6, "Phi({x})");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-5, "p = {p}, x = {x}");
        }
    }

    #[test]
    fn quantile_reference_values() {
        assert!((normal_quantile(0.975) - 1.95996).abs() < 1e-4);
        assert!((normal_quantile(0.995) - 2.57583).abs() < 1e-4);
        assert!((normal_quantile(0.05) + 1.64485).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn quantile_domain_panics() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    fn sizer_rejects_bad_epsilon() {
        assert!(ContainerSizer::new(0.0).is_err());
        assert!(ContainerSizer::new(1.0).is_err());
        assert!(ContainerSizer::new(-0.1).is_err());
        assert!(ContainerSizer::new(0.05).is_ok());
    }

    #[test]
    fn smaller_epsilon_means_bigger_containers() {
        let s = stats((0.1, 0.1), (0.02, 0.02));
        let loose = ContainerSizer::new(0.2).unwrap().container_size(&s);
        let tight = ContainerSizer::new(0.001).unwrap().container_size(&s);
        assert!(tight.cpu > loose.cpu);
        assert!(tight.mem > loose.mem);
        assert!(loose.cpu > s.mean_demand.cpu, "reservation exceeds the mean");
    }

    #[test]
    fn eq3_guarantee_holds_when_reservations_fit() {
        // If k containers of size mu + Z*sigma fit in C, the violation
        // probability of actual usage must be <= epsilon.
        let eps = 0.05;
        let sizer = ContainerSizer::new(eps).unwrap();
        let s = stats((0.05, 0.04), (0.01, 0.008));
        let c = sizer.container_size(&s);
        let capacity = Resources::new(1.0, 1.0);
        // Max k with k*c <= capacity:
        let k = (1.0 / c.cpu).floor().min((1.0 / c.mem).floor()) as usize;
        assert!(k >= 2, "test needs multiplexing, k = {k}");
        let p = sizer.violation_probability(&[(&s, k)], capacity);
        assert!(p <= eps + 1e-9, "violation probability {p} exceeds epsilon {eps}");
    }

    #[test]
    fn eq3_check_matches_probability_bound() {
        let sizer = ContainerSizer::new(0.05).unwrap();
        let s = stats((0.05, 0.05), (0.01, 0.01));
        let cap = Resources::new(1.0, 1.0);
        // Find the largest k satisfying Eq. 3, verify probability there,
        // and verify k+lots violates.
        let mut k = 1;
        while sizer.satisfies_eq3(&[(&s, k + 1)], cap) {
            k += 1;
        }
        assert!(sizer.violation_probability(&[(&s, k)], cap) <= 0.05 + 1e-9);
        assert!(!sizer.satisfies_eq3(&[(&s, k + 5)], cap));
    }

    #[test]
    fn violation_probability_is_monotone_in_load() {
        let sizer = ContainerSizer::new(0.05).unwrap();
        let s = stats((0.05, 0.05), (0.02, 0.02));
        let cap = Resources::ONE;
        let mut prev = 0.0;
        for k in [1usize, 5, 10, 15, 20, 30] {
            let p = sizer.violation_probability(&[(&s, k)], cap);
            assert!(p >= prev - 1e-12, "monotone in k");
            prev = p;
        }
        assert!(prev > 0.5, "overload should almost surely violate, p = {prev}");
    }

    #[test]
    fn zero_variance_class_is_deterministic() {
        let sizer = ContainerSizer::new(0.05).unwrap();
        let s = stats((0.1, 0.1), (0.0, 0.0));
        let cap = Resources::ONE;
        assert_eq!(sizer.violation_probability(&[(&s, 10)], cap), 0.0);
        assert_eq!(sizer.violation_probability(&[(&s, 11)], cap), 1.0);
        assert!(sizer.satisfies_eq3(&[(&s, 10)], cap));
        assert!(!sizer.satisfies_eq3(&[(&s, 11)], cap));
    }

    #[test]
    fn monte_carlo_validates_gaussian_bound() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Draw task demands from the class Gaussian and measure the
        // empirical violation rate of packing k reservations per machine.
        let eps = 0.1;
        let sizer = ContainerSizer::new(eps).unwrap();
        let s = stats((0.05, 0.05), (0.012, 0.012));
        let c = sizer.container_size(&s);
        let cap = Resources::ONE;
        let k = (1.0 / c.cpu).floor() as usize;
        let mut rng = StdRng::seed_from_u64(42);
        let mut violations = 0;
        let trials = 4000;
        for _ in 0..trials {
            let mut used = Resources::ZERO;
            for _ in 0..k {
                // Box-Muller.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen();
                let z1 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let z2 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).sin();
                used += Resources::new(
                    (s.mean_demand.cpu + s.std_demand.cpu * z1).max(0.0),
                    (s.mean_demand.mem + s.std_demand.mem * z2).max(0.0),
                );
            }
            if !used.fits_within(cap) {
                violations += 1;
            }
        }
        let rate = violations as f64 / trials as f64;
        assert!(rate <= eps * 1.5, "empirical violation rate {rate} should be near/below {eps}");
    }
}
