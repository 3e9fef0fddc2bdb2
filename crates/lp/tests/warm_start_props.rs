//! Property tests for warm-started simplex re-solves.
//!
//! The contract under test is the one the MPC control loop relies on:
//! re-solving a structurally identical problem from the previous optimal
//! basis must reach the same objective as a cold solve (warm starts are
//! a performance device, never a correctness trade), and a basis that no
//! longer fits the problem must fall back to the cold path instead of
//! corrupting the answer.

use harmony_lp::{Problem, Sense, SimplexOptions, WarmOutcome};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// A randomly sized covering-style LP that is always feasible and
/// bounded: minimize a positive-cost point under `≥` rows whose
/// coefficients are non-negative with at least one strictly positive
/// entry per row.
///
/// Feasible because every variable is unbounded above and each row has a
/// positive coefficient; bounded below because all costs are positive
/// and variables are non-negative. The `≥` rows force artificials, so
/// cold solves pay a real phase 1 — exactly the cost warm starts avoid.
#[derive(Debug, Clone)]
struct CoverLp {
    costs: Vec<f64>,
    rows: Vec<Vec<f64>>,
    rhs: Vec<f64>,
}

impl CoverLp {
    fn build(&self) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = self.costs.iter().map(|&c| p.add_var(0.0, f64::INFINITY, c)).collect();
        for (row, &rhs) in self.rows.iter().zip(&self.rhs) {
            let terms: Vec<_> =
                vars.iter().zip(row).filter(|(_, &a)| a != 0.0).map(|(&v, &a)| (v, a)).collect();
            p.add_ge(terms, rhs);
        }
        p
    }
}

fn cover_lp(n_vars: usize, n_rows: usize) -> impl Strategy<Value = CoverLp> {
    let costs = proptest::collection::vec(0.5..10.0f64, n_vars);
    // Each coefficient is 0 with probability ~1/2, else in [0.2, 5];
    // one column per row is forced positive below so rows never go empty.
    let coeff = (any::<bool>(), 0.2..5.0f64).prop_map(|(zero, v)| if zero { 0.0 } else { v });
    let rows =
        proptest::collection::vec((proptest::collection::vec(coeff, n_vars), 0..n_vars), n_rows)
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(mut row, forced)| {
                        if row.iter().all(|&a| a == 0.0) {
                            row[forced] = 1.0;
                        }
                        row
                    })
                    .collect::<Vec<_>>()
            });
    let rhs = proptest::collection::vec(1.0..50.0f64, n_rows);
    (costs, rows, rhs).prop_map(|(costs, rows, rhs)| CoverLp { costs, rows, rhs })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm restart on a perturbed RHS reaches the cold objective.
    #[test]
    fn warm_restart_matches_cold_after_rhs_perturbation(
        lp in cover_lp(6, 4),
        scales in proptest::collection::vec(0.5..2.0f64, 4),
    ) {
        let p0 = lp.build();
        let cold0 = p0.solve().unwrap();

        let mut lp1 = lp.clone();
        for (r, s) in lp1.rhs.iter_mut().zip(&scales) {
            *r *= s;
        }
        let p1 = lp1.build();
        let cold1 = p1.solve().unwrap();
        let warm1 = p1
            .solve_warm_with(&SimplexOptions::default(), Some(cold0.basis()))
            .unwrap();

        prop_assert!(
            (warm1.objective() - cold1.objective()).abs()
                <= TOL * (1.0 + cold1.objective().abs()),
            "warm objective {} != cold objective {}",
            warm1.objective(),
            cold1.objective()
        );
        // Same structure and coefficients: the basis re-installs cleanly,
        // and any primal infeasibility from the moved RHS is repaired in
        // place (CoverLp is always feasible, so repair phase 1 must reach
        // zero) — the warm path is always taken, never the cold fallback.
        prop_assert_eq!(warm1.warm_outcome(), WarmOutcome::Hit);
        prop_assert!(warm1.phase1_pivots() <= warm1.pivots());
    }

    /// Warm restart on perturbed costs reaches the cold objective.
    #[test]
    fn warm_restart_matches_cold_after_cost_perturbation(
        lp in cover_lp(6, 4),
        scales in proptest::collection::vec(0.5..2.0f64, 6),
    ) {
        let p0 = lp.build();
        let cold0 = p0.solve().unwrap();

        let mut lp1 = lp.clone();
        for (c, s) in lp1.costs.iter_mut().zip(&scales) {
            *c *= s;
        }
        let p1 = lp1.build();
        let cold1 = p1.solve().unwrap();
        let warm1 = p1
            .solve_warm_with(&SimplexOptions::default(), Some(cold0.basis()))
            .unwrap();

        prop_assert!(
            (warm1.objective() - cold1.objective()).abs()
                <= TOL * (1.0 + cold1.objective().abs()),
            "warm objective {} != cold objective {}",
            warm1.objective(),
            cold1.objective()
        );
        // Same structure + same RHS: the old basis stays primal-feasible,
        // so the warm path must actually be taken.
        prop_assert_eq!(warm1.warm_outcome(), WarmOutcome::Hit);
    }

    /// A basis from a differently-shaped problem falls back to the cold
    /// path and still returns the correct optimum.
    #[test]
    fn stale_basis_falls_back_cleanly(
        lp_small in cover_lp(4, 3),
        lp_big in cover_lp(7, 5),
    ) {
        let stale = lp_small.build().solve().unwrap();
        let p = lp_big.build();
        let cold = p.solve().unwrap();
        let warm = p
            .solve_warm_with(&SimplexOptions::default(), Some(stale.basis()))
            .unwrap();
        prop_assert_eq!(
            warm.warm_outcome(),
            WarmOutcome::StructuralFallback,
            "mismatched dimensions must force cold"
        );
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= TOL * (1.0 + cold.objective().abs())
        );
        prop_assert_eq!(warm.pivots(), cold.pivots());
        prop_assert_eq!(warm.phase1_pivots(), cold.phase1_pivots());
    }

    /// Re-solving the *identical* problem warm takes zero pivots: the
    /// previous optimum is still optimal.
    #[test]
    fn identical_resolve_is_free(lp in cover_lp(5, 4)) {
        let p = lp.build();
        let cold = p.solve().unwrap();
        let warm = p
            .solve_warm_with(&SimplexOptions::default(), Some(cold.basis()))
            .unwrap();
        prop_assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);
        prop_assert_eq!(warm.pivots(), 0);
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= TOL * (1.0 + cold.objective().abs())
        );
    }
}
