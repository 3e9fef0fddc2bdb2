//! Derivative-free Nelder–Mead simplex optimizer.
//!
//! Used to minimize the conditional sum of squares when fitting ARMA
//! coefficients — the "optimization libs are thinner" substitution: a
//! compact, dependency-free downhill-simplex implementation with the
//! standard reflection/expansion/contraction/shrink moves.


/// Tuning knobs for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tolerance: f64,
    /// Initial simplex step per coordinate.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_evals: 2000, f_tolerance: 1e-10, initial_step: 0.1 }
    }
}

/// Minimizes `f` starting from `x0`, returning `(x_best, f_best)`.
///
/// `f` may return non-finite values to mark infeasible points; they are
/// treated as `+∞`.
///
/// # Examples
///
/// ```
/// use harmony_forecast::{nelder_mead, NelderMeadOptions};
///
/// let rosenbrock = |x: &[f64]| {
///     (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
/// };
/// let opts = NelderMeadOptions { max_evals: 20_000, ..Default::default() };
/// let (x, fx) = nelder_mead(rosenbrock, &[-1.2, 1.0], &opts);
/// assert!(fx < 1e-6, "f = {fx} at {x:?}");
/// assert!((x[0] - 1.0).abs() < 1e-2 && (x[1] - 1.0).abs() < 1e-2);
/// ```
pub fn nelder_mead<F>(mut f: F, x0: &[f64], options: &NelderMeadOptions) -> (Vec<f64>, f64)
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    if n == 0 {
        let v = eval(x0, &mut evals);
        return (x0.to_vec(), v);
    }

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let fx0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), fx0));
    for i in 0..n {
        let mut x = x0.to_vec();
        let step = if x[i].abs() > 1e-12 { options.initial_step * x[i].abs() } else { options.initial_step };
        x[i] += step;
        let fx = eval(&x, &mut evals);
        simplex.push((x, fx));
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    while evals < options.max_evals {
        simplex.sort_by(|a, b| f64::total_cmp(&a.1, &b.1));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() <= options.f_tolerance * (1.0 + best.abs()) {
            break;
        }
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, v) in centroid.iter_mut().zip(x) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= n as f64;
        }
        let worst_x = simplex[n].0.clone();
        let blend = |t: f64| -> Vec<f64> {
            centroid.iter().zip(&worst_x).map(|(c, w)| c + t * (c - w)).collect()
        };
        // Reflect.
        let xr = blend(ALPHA);
        let fr = eval(&xr, &mut evals);
        if fr < simplex[0].1 {
            // Expand.
            let xe = blend(GAMMA);
            let fe = eval(&xe, &mut evals);
            simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (xr, fr);
        } else {
            // Contract (outside if reflection helped over worst, else inside).
            let (xc, fc) = if fr < simplex[n].1 {
                let xc = blend(RHO);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            } else {
                let xc = blend(-RHO);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            };
            if fc < simplex[n].1.min(fr) {
                simplex[n] = (xc, fc);
            } else {
                // Shrink toward the best point.
                let best_x = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let x: Vec<f64> =
                        best_x.iter().zip(&entry.0).map(|(b, v)| b + SIGMA * (v - b)).collect();
                    let fx = eval(&x, &mut evals);
                    *entry = (x, fx);
                }
            }
        }
    }
    simplex.sort_by(|a, b| f64::total_cmp(&a.1, &b.1));
    let (x, fx) = simplex.swap_remove(0);
    (x, fx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let (x, fx) = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 5.0,
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        );
        assert!((x[0] - 3.0).abs() < 1e-4, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-4);
        assert!((fx - 5.0).abs() < 1e-6);
    }

    #[test]
    fn handles_infeasible_regions() {
        // Objective is infinite for x < 0; optimum at boundary 0.
        let (x, _) = nelder_mead(
            |x| if x[0] < 0.0 { f64::NAN } else { x[0] * x[0] + 1.0 },
            &[2.0],
            &NelderMeadOptions::default(),
        );
        assert!(x[0].abs() < 1e-3, "x = {:?}", x);
    }

    #[test]
    fn zero_dimension_returns_input() {
        let (x, fx) = nelder_mead(|_| 7.0, &[], &NelderMeadOptions::default());
        assert!(x.is_empty());
        assert_eq!(fx, 7.0);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let opts = NelderMeadOptions { max_evals: 50, ..Default::default() };
        let _ = nelder_mead(
            |x| {
                count += 1;
                x.iter().map(|v| v * v).sum()
            },
            &[5.0, 5.0, 5.0],
            &opts,
        );
        assert!(count <= 60, "evaluations {count} should respect the budget");
    }

    #[test]
    fn four_dimensional_sphere() {
        let opts = NelderMeadOptions { max_evals: 10_000, ..Default::default() };
        let (x, fx) =
            nelder_mead(|x| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum(), &[4.0, -3.0, 2.0, 0.0], &opts);
        assert!(fx < 1e-8, "fx = {fx}, x = {x:?}");
    }
}
