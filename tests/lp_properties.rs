//! Property-based tests for the simplex solver on random instances.

use harmony_lp::{Problem, Sense};
use proptest::prelude::*;

/// A random bounded-feasible maximization instance: box-bounded
/// variables plus random `≤` rows with non-negative coefficients and
/// non-negative right-hand sides, so the origin is always feasible and
/// the box keeps the optimum finite.
#[derive(Debug, Clone)]
struct Instance {
    n_vars: usize,
    objective: Vec<f64>,
    upper: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..6, 1usize..5).prop_flat_map(|(n_vars, n_rows)| {
        let obj = proptest::collection::vec(-5.0f64..5.0, n_vars);
        let upper = proptest::collection::vec(0.5f64..10.0, n_vars);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(0.0f64..3.0, n_vars), 0.5f64..20.0),
            n_rows,
        );
        (obj, upper, rows).prop_map(move |(objective, upper, rows)| Instance {
            n_vars,
            objective,
            upper,
            rows,
        })
    })
}

fn solve(inst: &Instance) -> (harmony_lp::Solution, Problem) {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> =
        (0..inst.n_vars).map(|i| p.add_var(0.0, inst.upper[i], inst.objective[i])).collect();
    for (coeffs, rhs) in &inst.rows {
        let terms: Vec<_> = vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)).collect();
        p.add_le(terms, *rhs);
    }
    let sol = p.solve().expect("box-bounded feasible instance must solve");
    (sol, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The returned point is primal-feasible and its objective matches
    /// the recomputed inner product.
    #[test]
    fn solutions_are_feasible(inst in instance_strategy()) {
        let (sol, _) = solve(&inst);
        let x = sol.values();
        for (i, &v) in x.iter().enumerate() {
            prop_assert!(v >= -1e-7, "x{i} = {v} negative");
            prop_assert!(v <= inst.upper[i] + 1e-7, "x{i} = {v} above bound");
        }
        for (coeffs, rhs) in &inst.rows {
            let lhs: f64 = coeffs.iter().zip(x).map(|(c, v)| c * v).sum();
            prop_assert!(lhs <= rhs + 1e-6, "row violated: {lhs} > {rhs}");
        }
        let obj: f64 = inst.objective.iter().zip(x).map(|(c, v)| c * v).sum();
        prop_assert!((obj - sol.objective()).abs() < 1e-6);
    }

    /// No random feasible point ever beats the simplex optimum.
    #[test]
    fn no_feasible_point_beats_optimum(inst in instance_strategy(), seed in 0u64..1000) {
        let (sol, _) = solve(&inst);
        // Deterministic pseudo-random candidate points, projected into
        // the feasible region by scaling.
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..50 {
            let mut x: Vec<f64> = (0..inst.n_vars).map(|i| next() * inst.upper[i]).collect();
            // Scale down until all rows hold.
            for (coeffs, rhs) in &inst.rows {
                let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
                if lhs > *rhs {
                    let scale = rhs / lhs;
                    for v in &mut x {
                        *v *= scale;
                    }
                }
            }
            let obj: f64 = inst.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
            prop_assert!(
                obj <= sol.objective() + 1e-6,
                "feasible point {obj} beats 'optimum' {}",
                sol.objective()
            );
        }
    }

    /// Scaling the objective scales the optimum; translating a bound
    /// never increases it beyond the relaxation.
    #[test]
    fn objective_scaling(inst in instance_strategy(), factor in 0.5f64..4.0) {
        let (sol, _) = solve(&inst);
        let mut scaled = inst.clone();
        for c in &mut scaled.objective {
            *c *= factor;
        }
        let (sol2, _) = solve(&scaled);
        prop_assert!((sol2.objective() - factor * sol.objective()).abs() < 1e-5 * (1.0 + sol.objective().abs()));
    }

    /// Adding a redundant row (looser than an existing one) never
    /// changes the optimum.
    #[test]
    fn redundant_rows_are_harmless(inst in instance_strategy()) {
        let (sol, _) = solve(&inst);
        let mut with_redundant = inst.clone();
        if let Some((coeffs, rhs)) = inst.rows.first() {
            with_redundant.rows.push((coeffs.clone(), rhs * 2.0));
        }
        let (sol2, _) = solve(&with_redundant);
        prop_assert!((sol.objective() - sol2.objective()).abs() < 1e-6 * (1.0 + sol.objective().abs()));
    }
}
