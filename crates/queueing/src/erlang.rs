//! Erlang blocking and waiting probabilities.
//!
//! Eq. (2) of the paper is the classic Erlang-C expression for the
//! probability `π_N` that an arriving task finds all `N` containers busy.
//! Evaluating it literally overflows for the container counts HARMONY
//! works with (thousands), so we compute it through the Erlang-B
//! recursion, which is numerically stable for arbitrary `N`:
//!
//! ```text
//! B(0, a) = 1
//! B(k, a) = a·B(k-1, a) / (k + a·B(k-1, a))
//! C(N, a) = N·B(N, a) / (N - a·(1 - B(N, a)))
//! ```
//!
//! where `a = λ/μ` is the offered load and `C` equals Eq. (2).

use crate::QueueingError;

/// Erlang-B blocking probability `B(n, a)` for `n` servers at offered
/// load `a = λ/μ` Erlangs.
///
/// # Errors
///
/// Returns [`QueueingError::InvalidParameter`] when `a` is negative or
/// non-finite.
///
/// # Examples
///
/// ```
/// use harmony_queueing::erlang_b;
///
/// // Classic tabulated value: B(10, 5) ≈ 0.018.
/// let b = erlang_b(10, 5.0)?;
/// assert!((b - 0.018).abs() < 1e-3);
/// # Ok::<(), harmony_queueing::QueueingError>(())
/// ```
pub fn erlang_b(n: usize, a: f64) -> Result<f64, QueueingError> {
    if !a.is_finite() || a < 0.0 {
        return Err(QueueingError::InvalidParameter { name: "offered_load", value: a });
    }
    let mut b = 1.0_f64;
    for k in 1..=n {
        b = a * b / (k as f64 + a * b);
    }
    Ok(b)
}

/// Erlang-C waiting probability `π_N` (Eq. 2): the probability that an
/// arriving task must queue because all `N` containers are busy.
///
/// # Errors
///
/// * [`QueueingError::InvalidParameter`] when `a` is negative/non-finite
///   or `n == 0`.
/// * [`QueueingError::Unstable`] when `a >= n` (traffic intensity ≥ 1).
///
/// # Examples
///
/// ```
/// use harmony_queueing::erlang_c;
///
/// // M/M/1: pi_1 = rho.
/// let c = erlang_c(1, 0.3)?;
/// assert!((c - 0.3).abs() < 1e-12);
/// # Ok::<(), harmony_queueing::QueueingError>(())
/// ```
pub fn erlang_c(n: usize, a: f64) -> Result<f64, QueueingError> {
    if n == 0 {
        return Err(QueueingError::InvalidParameter { name: "servers", value: 0.0 });
    }
    if !a.is_finite() || a < 0.0 {
        return Err(QueueingError::InvalidParameter { name: "offered_load", value: a });
    }
    let nf = n as f64;
    if a >= nf {
        return Err(QueueingError::Unstable { rho: a / nf });
    }
    let b = erlang_b(n, a)?;
    Ok(nf * b / (nf - a * (1.0 - b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct evaluation of Eq. (2) for small N, as written in the paper.
    fn erlang_c_literal(n: usize, a: f64) -> f64 {
        let rho = a / n as f64;
        let fact = |k: usize| (1..=k).map(|i| i as f64).product::<f64>();
        let top = a.powi(n as i32) / (fact(n) * (1.0 - rho));
        let mut sum = 0.0;
        for k in 0..n {
            sum += a.powi(k as i32) / fact(k);
        }
        top / (sum + top)
    }

    #[test]
    fn matches_literal_formula_for_small_n() {
        for &(n, a) in &[(1usize, 0.5f64), (2, 1.2), (5, 3.0), (10, 7.5), (20, 15.0)] {
            let stable = erlang_c(n, a).unwrap();
            let literal = erlang_c_literal(n, a);
            assert!((stable - literal).abs() < 1e-10, "n={n} a={a}: {stable} vs {literal}");
        }
    }

    #[test]
    fn survives_huge_server_counts() {
        // Literal Eq. (2) overflows factorials beyond n ~ 170.
        let c = erlang_c(5000, 4900.0).unwrap();
        assert!((0.0..=1.0).contains(&c), "c = {c}");
        assert!(c > 0.0);
    }

    #[test]
    fn erlang_b_decreases_with_servers() {
        let a = 8.0;
        let mut prev = 1.0;
        for n in 1..=32 {
            let b = erlang_b(n, a).unwrap();
            assert!(b <= prev + 1e-15, "B should be non-increasing in n");
            prev = b;
        }
    }

    #[test]
    fn erlang_c_increases_with_load() {
        let mut prev = 0.0;
        for i in 1..10 {
            let a = i as f64;
            let c = erlang_c(10, a).unwrap();
            assert!(c >= prev, "C should be non-decreasing in load");
            prev = c;
        }
    }

    #[test]
    fn zero_load_never_waits() {
        assert_eq!(erlang_c(4, 0.0).unwrap(), 0.0);
        assert_eq!(erlang_b(4, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(matches!(erlang_c(0, 1.0), Err(QueueingError::InvalidParameter { .. })));
        assert!(matches!(erlang_c(2, -1.0), Err(QueueingError::InvalidParameter { .. })));
        assert!(matches!(erlang_c(2, f64::NAN), Err(QueueingError::InvalidParameter { .. })));
        assert!(matches!(erlang_c(2, 2.0), Err(QueueingError::Unstable { .. })));
        assert!(matches!(erlang_c(2, 3.0), Err(QueueingError::Unstable { .. })));
        assert!(matches!(erlang_b(2, f64::INFINITY), Err(QueueingError::InvalidParameter { .. })));
    }

    #[test]
    fn mm1_special_case() {
        // For M/M/1, waiting probability equals utilization.
        for rho in [0.1, 0.5, 0.9, 0.99] {
            let c = erlang_c(1, rho).unwrap();
            assert!((c - rho).abs() < 1e-12);
        }
    }
}
