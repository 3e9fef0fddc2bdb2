//! The M/G/N mean scheduling-delay approximation of Eq. (1).

use crate::{erlang_c, QueueingError};

/// An M/G/N queue describing one task class served by `N` containers.
///
/// `λ` is the class arrival rate, `μ` the per-container service rate
/// (reciprocal mean task duration), and `CV²` the squared coefficient of
/// variation of the service time. Eq. (1) approximates the mean wait:
///
/// ```text
/// d ≈ π_N / (1 - ρ) · (1 + CV²) / 2 · 1 / (N·μ)
/// ```
///
/// which is exact for M/M/N (`CV² = 1`) and is the standard
/// Allen–Cunneen-style correction for general service times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgnQueue {
    lambda: f64,
    mu: f64,
    cv2: f64,
}

impl MgnQueue {
    /// Creates a queue model from arrival rate `lambda` (tasks/s),
    /// service rate `mu` (tasks/s per container), and squared coefficient
    /// of variation `cv2` of service time.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::InvalidParameter`] when `lambda < 0`,
    /// `mu <= 0`, `cv2 < 0`, or any parameter is non-finite.
    pub fn new(lambda: f64, mu: f64, cv2: f64) -> Result<Self, QueueingError> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(QueueingError::InvalidParameter { name: "lambda", value: lambda });
        }
        if !mu.is_finite() || mu <= 0.0 {
            return Err(QueueingError::InvalidParameter { name: "mu", value: mu });
        }
        if !cv2.is_finite() || cv2 < 0.0 {
            return Err(QueueingError::InvalidParameter { name: "cv2", value: cv2 });
        }
        Ok(MgnQueue { lambda, mu, cv2 })
    }

    /// Arrival rate λ in tasks per second.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Per-container service rate μ in tasks per second.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Squared coefficient of variation of service time.
    pub fn cv2(&self) -> f64 {
        self.cv2
    }

    /// Offered load `a = λ/μ` in Erlangs — the minimum fractional number
    /// of containers for stability.
    pub fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Traffic intensity `ρ = λ/(Nμ)` with `n` containers.
    pub fn rho(&self, n: usize) -> f64 {
        self.offered_load() / n as f64
    }

    /// Mean scheduling delay (seconds) with `n` containers, per Eq. (1).
    ///
    /// # Errors
    ///
    /// * [`QueueingError::InvalidParameter`] when `n == 0`.
    /// * [`QueueingError::Unstable`] when `ρ >= 1`.
    pub fn mean_wait(&self, n: usize) -> Result<f64, QueueingError> {
        if n == 0 {
            return Err(QueueingError::InvalidParameter { name: "servers", value: 0.0 });
        }
        let rho = self.rho(n);
        if rho >= 1.0 {
            return Err(QueueingError::Unstable { rho });
        }
        let pi_n = erlang_c(n, self.offered_load())?;
        Ok(pi_n / (1.0 - rho) * (1.0 + self.cv2) / 2.0 / (n as f64 * self.mu))
    }

    /// The number of containers `c_i` the container manager provisions:
    /// the smallest `N` with `ρ < 1` and mean wait `≤ target` seconds
    /// (Section VI: "it is easy to estimate c_i to ensure d_i ≤ d̄_i and
    /// ρ_i < 1").
    ///
    /// Uses exponential probing followed by binary search, so it stays
    /// cheap even when tens of thousands of containers are required.
    ///
    /// # Errors
    ///
    /// * [`QueueingError::InvalidParameter`] when `target` is negative or
    ///   non-finite.
    /// * [`QueueingError::TargetUnreachable`] if the internal cap
    ///   (16,777,216 containers) cannot achieve the target.
    pub fn min_servers(&self, target: f64) -> Result<usize, QueueingError> {
        const CAP: usize = 1 << 24;
        if !target.is_finite() || target < 0.0 {
            return Err(QueueingError::InvalidParameter { name: "target", value: target });
        }
        if self.lambda == 0.0 {
            return Ok(0);
        }
        // Stability floor: smallest n with rho < 1.
        let floor = (self.offered_load().floor() as usize) + 1;
        let ok = |n: usize| matches!(self.mean_wait(n), Ok(d) if d <= target);
        // Exponential probe for an upper bound.
        let mut hi = floor;
        while !ok(hi) {
            if hi >= CAP {
                return Err(QueueingError::TargetUnreachable { target, cap: CAP });
            }
            hi = (hi * 2).min(CAP);
        }
        // Binary search in (floor-1, hi]: mean_wait is decreasing in n.
        let mut lo = floor.saturating_sub(1); // invariant: lo fails or is floor-1
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if mid >= floor && ok(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_closed_form() {
        // M/M/1 mean wait: Wq = rho / (mu - lambda).
        let q = MgnQueue::new(0.5, 1.0, 1.0).unwrap();
        let expected = 0.5 / (1.0 - 0.5);
        assert!((q.mean_wait(1).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn mmn_closed_form() {
        // M/M/N mean wait: Wq = C(N, a) / (N*mu - lambda).
        let q = MgnQueue::new(3.0, 1.0, 1.0).unwrap();
        for n in [4usize, 6, 10] {
            let c = erlang_c(n, 3.0).unwrap();
            let expected = c / (n as f64 - 3.0);
            assert!((q.mean_wait(n).unwrap() - expected).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn deterministic_service_halves_the_wait() {
        let exp = MgnQueue::new(5.0, 1.0, 1.0).unwrap();
        let det = MgnQueue::new(5.0, 1.0, 0.0).unwrap();
        let w_exp = exp.mean_wait(7).unwrap();
        let w_det = det.mean_wait(7).unwrap();
        assert!((w_det - w_exp / 2.0).abs() < 1e-12);
    }

    #[test]
    fn wait_decreases_with_servers() {
        let q = MgnQueue::new(20.0, 0.5, 1.5).unwrap();
        let mut prev = f64::INFINITY;
        for n in 41..80 {
            let w = q.mean_wait(n).unwrap();
            assert!(w <= prev, "wait must fall as servers grow");
            prev = w;
        }
    }

    #[test]
    fn min_servers_is_tight() {
        let q = MgnQueue::new(50.0, 0.5, 1.0).unwrap();
        let n = q.min_servers(0.1).unwrap();
        assert!(q.mean_wait(n).unwrap() <= 0.1);
        // One fewer server either violates the target or is unstable.
        match q.mean_wait(n - 1) {
            Ok(w) => assert!(w > 0.1, "n is not minimal: wait({}) = {w}", n - 1),
            Err(QueueingError::Unstable { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn min_servers_zero_arrivals() {
        let q = MgnQueue::new(0.0, 1.0, 1.0).unwrap();
        assert_eq!(q.min_servers(0.5).unwrap(), 0);
    }

    #[test]
    fn min_servers_zero_target_needs_many() {
        // Target 0 is unattainable exactly, but with enough servers the
        // wait underflows toward 0; allow either result shape: Ok with a
        // huge n or TargetUnreachable.
        let q = MgnQueue::new(10.0, 1.0, 1.0).unwrap();
        match q.min_servers(1e-300) {
            Ok(n) => assert!(n > 10),
            Err(QueueingError::TargetUnreachable { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn min_servers_loose_target_hits_stability_floor() {
        let q = MgnQueue::new(10.0, 1.0, 1.0).unwrap();
        // With a huge target the binding constraint is rho < 1 → n = 11.
        assert_eq!(q.min_servers(1e9).unwrap(), 11);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(MgnQueue::new(-1.0, 1.0, 1.0).is_err());
        assert!(MgnQueue::new(1.0, 0.0, 1.0).is_err());
        assert!(MgnQueue::new(1.0, 1.0, -0.5).is_err());
        assert!(MgnQueue::new(f64::NAN, 1.0, 1.0).is_err());
        let q = MgnQueue::new(1.0, 1.0, 1.0).unwrap();
        assert!(matches!(q.mean_wait(0), Err(QueueingError::InvalidParameter { .. })));
        assert!(matches!(q.mean_wait(1), Err(QueueingError::Unstable { .. })));
        assert!(matches!(q.min_servers(f64::NAN), Err(QueueingError::InvalidParameter { .. })));
    }

    #[test]
    fn accessors() {
        let q = MgnQueue::new(4.0, 2.0, 1.5).unwrap();
        assert_eq!(q.lambda(), 4.0);
        assert_eq!(q.mu(), 2.0);
        assert_eq!(q.cv2(), 1.5);
        assert_eq!(q.offered_load(), 2.0);
        assert_eq!(q.rho(4), 0.5);
    }
}
