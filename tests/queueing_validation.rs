//! Validates the M/G/N scheduling-delay model (Eq. 1–2) against an
//! independent discrete-event queue simulation.

use harmony_queueing::{erlang_c, MgnQueue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Event-driven M/M/N queue simulation measuring the mean wait, written
/// independently of the analytic code under test.
fn simulate_mmn(lambda: f64, mu: f64, servers: usize, n_customers: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let exp = |rate: f64, rng: &mut StdRng| -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate
    };
    // Server free times.
    let mut free_at = vec![0.0f64; servers];
    let mut t = 0.0;
    let mut total_wait = 0.0;
    let warmup = n_customers / 5;
    let mut counted = 0usize;
    for i in 0..n_customers {
        t += exp(lambda, &mut rng);
        // Earliest-available server.
        let (idx, &earliest) =
            free_at.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap();
        let start = earliest.max(t);
        let service = exp(mu, &mut rng);
        free_at[idx] = start + service;
        if i >= warmup {
            total_wait += start - t;
            counted += 1;
        }
    }
    total_wait / counted as f64
}

#[test]
fn analytic_wait_matches_simulation_mm3() {
    let lambda = 2.0;
    let mu = 1.0;
    let n = 3;
    let queue = MgnQueue::new(lambda, mu, 1.0).unwrap();
    let analytic = queue.mean_wait(n).unwrap();
    let simulated = simulate_mmn(lambda, mu, n, 300_000, 1);
    let rel = (analytic - simulated).abs() / analytic;
    assert!(rel < 0.05, "M/M/3: analytic {analytic:.4} vs simulated {simulated:.4} (rel {rel:.3})");
}

#[test]
fn analytic_wait_matches_simulation_heavier_load() {
    let lambda = 8.5;
    let mu = 1.0;
    let n = 10;
    let queue = MgnQueue::new(lambda, mu, 1.0).unwrap();
    let analytic = queue.mean_wait(n).unwrap();
    // Heavy-traffic mean-wait estimates converge slowly (highly
    // autocorrelated waits near saturation), so this case needs a much
    // longer run than the rho=0.67 one above to stay inside tolerance.
    let simulated = simulate_mmn(lambda, mu, n, 4_000_000, 2);
    let rel = (analytic - simulated).abs() / analytic;
    assert!(
        rel < 0.08,
        "M/M/10 @ rho=0.85: analytic {analytic:.4} vs simulated {simulated:.4} (rel {rel:.3})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Erlang-C recursion stays a probability and is monotone in
    /// load for arbitrary parameters.
    #[test]
    fn erlang_c_is_probability(n in 1usize..500, load_frac in 0.01f64..0.99) {
        let a = n as f64 * load_frac;
        let c = erlang_c(n, a).unwrap();
        prop_assert!((0.0..=1.0).contains(&c), "C = {c}");
        // Slightly more load: never less waiting.
        let c2 = erlang_c(n, (a * 1.01).min(n as f64 * 0.995)).unwrap();
        prop_assert!(c2 >= c - 1e-12);
    }

    /// min_servers always returns a count that satisfies the target and
    /// whose predecessor does not.
    #[test]
    fn min_servers_is_minimal(
        lambda in 0.1f64..50.0,
        mean_duration in 1.0f64..1000.0,
        cv2 in 0.0f64..4.0,
        target in 0.1f64..500.0,
    ) {
        let queue = MgnQueue::new(lambda, 1.0 / mean_duration, cv2).unwrap();
        let n = queue.min_servers(target).unwrap();
        prop_assert!(n >= 1);
        prop_assert!(queue.mean_wait(n).unwrap() <= target);
        if n > 1 {
            // Err means unstable with one fewer server — also fine.
            if let Ok(w) = queue.mean_wait(n - 1) {
                prop_assert!(w > target, "n not minimal: wait({}) = {w}", n - 1);
            }
        }
    }

    /// Eq. 1 scales linearly in (1 + CV²)/2 at fixed N.
    #[test]
    fn wait_scales_with_cv2(lambda in 1.0f64..20.0, cv2 in 0.0f64..4.0) {
        let mu = 1.0;
        let n = (lambda.ceil() as usize) + 2;
        let base = MgnQueue::new(lambda, mu, 1.0).unwrap().mean_wait(n).unwrap();
        let general = MgnQueue::new(lambda, mu, cv2).unwrap().mean_wait(n).unwrap();
        let expected = base * (1.0 + cv2) / 2.0;
        prop_assert!((general - expected).abs() < 1e-9 * (1.0 + expected));
    }
}
