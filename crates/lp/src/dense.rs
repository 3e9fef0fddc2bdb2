//! The dense two-phase tableau: the reference oracle the sparse revised
//! simplex is property-tested against. Compiled only under `cfg(test)`.
//!
//! It follows the textbook tableau method over the shared
//! [`standardize`] form:
//!
//! 1. **Phase 1.** Rows without a ready-made basic slack receive an
//!    artificial column; minimizing the artificial sum finds a basic
//!    feasible point or proves infeasibility.
//! 2. **Phase 2.** The user objective (negated for maximization) is
//!    minimized from that starting basis. Artificial columns are barred
//!    from re-entering.
//!
//! The whole `B⁻¹A` tableau is kept explicit, so a pivot costs
//! O(rows × cols): slow, but with no factorization to get wrong. Pricing
//! (Dantzig, Bland after a 64-pivot degeneracy streak), ratio-test
//! tie-breaks and the `feas_tol()` phase-1 test are the sparse engine's,
//! so the two reach the same objective. The oracle has no warm path: a
//! sparse warm solve is checked against the oracle's *cold* objective.

use crate::problem::Problem;
use crate::simplex::{
    extract, phase2_cost, standardize, SimplexOptions, Solution, Standardized, WarmOutcome,
};
use crate::LpError;

/// Scatters the standardized sparse rows into dense tableau rows.
fn dense_rows(std_form: &Standardized) -> Vec<Vec<f64>> {
    std_form
        .rows
        .iter()
        .map(|row| {
            let mut dense = vec![0.0; std_form.struct_and_slack];
            for &(j, a) in row {
                dense[j] = a;
            }
            dense
        })
        .collect()
}

/// Solves `p` cold with the dense two-phase tableau.
pub(crate) fn solve_dense(p: &Problem, options: &SimplexOptions) -> Result<Solution, LpError> {
    let tol = options.tolerance;
    let std_form = standardize(p);
    let m = std_form.rows.len();
    let struct_and_slack = std_form.struct_and_slack;
    let max_pivots = options
        .max_pivots
        .unwrap_or_else(|| SimplexOptions::auto_pivot_budget(m, struct_and_slack));

    // Artificials for the rows without a ready slack basis.
    let mut n_art = 0usize;
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    for ready in &std_form.ready_basis {
        match ready {
            Some(col) => basis.push(*col),
            None => {
                basis.push(struct_and_slack + n_art);
                n_art += 1;
            }
        }
    }
    let total = struct_and_slack + n_art;
    let mut a_mat = dense_rows(&std_form);
    let mut art_seen = 0usize;
    for (i, ready) in std_form.ready_basis.iter().enumerate() {
        a_mat[i].resize(total, 0.0);
        if ready.is_none() {
            a_mat[i][struct_and_slack + art_seen] = 1.0;
            art_seen += 1;
        }
    }
    let art_start = struct_and_slack;
    let mut tableau =
        Tableau { a: a_mat, b: std_form.b.clone(), basis, tol, pivots: 0, max_pivots };

    // Phase 1: minimize the sum of artificials.
    if n_art > 0 {
        let mut cost = vec![0.0; total];
        for c in cost.iter_mut().skip(art_start) {
            *c = 1.0;
        }
        let obj = tableau.run(&cost, total)?;
        if obj > options.feas_tol() {
            return Err(LpError::Infeasible);
        }
        // Drive remaining basic artificials out where possible. A row
        // with no structural column left is redundant: its artificial
        // stays basic at value 0 and is barred from entering in phase 2.
        for i in 0..m {
            if tableau.basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| tableau.a[i][j].abs() > tol) {
                    tableau.pivot(i, j);
                }
            }
        }
    }
    let phase1_pivots = tableau.pivots;

    // Phase 2: the (sign-adjusted) user objective over structural and
    // slack columns only.
    let cost = phase2_cost(p, &std_form.maps, total);
    tableau.run(&cost, art_start)?;

    let col_values = tableau.column_values(total);
    Ok(extract(
        p,
        &std_form,
        &col_values,
        &tableau.basis,
        tableau.pivots,
        phase1_pivots,
        WarmOutcome::Cold,
    ))
}

struct Tableau {
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    basis: Vec<usize>,
    tol: f64,
    pivots: usize,
    max_pivots: usize,
}

impl Tableau {
    /// Runs primal simplex minimizing `cost`, allowing only columns
    /// `< allowed_cols` to enter the basis. Returns the objective value.
    ///
    /// Reduced costs `r = c - c_Bᵀ B⁻¹A` are accumulated row by row,
    /// skipping rows whose basic column has zero cost.
    fn run(&mut self, cost: &[f64], allowed_cols: usize) -> Result<f64, LpError> {
        let m = self.a.len();
        let width = self.a.first().map_or(0, Vec::len);
        let mut is_basic = vec![false; width];
        for &j in &self.basis {
            is_basic[j] = true;
        }
        let mut reduced = vec![0.0; allowed_cols];
        let mut degenerate_streak = 0usize;
        loop {
            let use_bland = degenerate_streak > 64;
            reduced.copy_from_slice(&cost[..allowed_cols]);
            for i in 0..m {
                let cb = cost[self.basis[i]];
                if cb == 0.0 {
                    continue;
                }
                let row = &self.a[i][..allowed_cols];
                for (r, &aij) in reduced.iter_mut().zip(row) {
                    *r -= cb * aij;
                }
            }
            let mut entering: Option<(usize, f64)> = None;
            for (j, &r) in reduced.iter().enumerate() {
                if is_basic[j] || r >= -self.tol {
                    continue;
                }
                if use_bland {
                    entering = Some((j, r)); // first (smallest) index
                    break;
                }
                if entering.is_none_or(|(_, best)| r < best) {
                    entering = Some((j, r));
                }
            }
            let Some((j, _)) = entering else {
                let obj: f64 = (0..m).map(|i| cost[self.basis[i]] * self.b[i]).sum();
                return Ok(obj);
            };
            // Ratio test with Bland tie-breaking on the leaving basis index.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..m {
                let aij = self.a[i][j];
                if aij > self.tol {
                    let ratio = self.b[i] / aij;
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - self.tol
                                || (ratio < lr + self.tol && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((i, ratio)) = leave else {
                return Err(LpError::Unbounded);
            };
            if ratio <= self.tol {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            is_basic[self.basis[i]] = false;
            is_basic[j] = true;
            self.pivot(i, j);
            self.pivots += 1;
            if self.pivots > self.max_pivots {
                return Err(LpError::IterationLimit { limit: self.max_pivots });
            }
        }
    }

    /// Gauss-Jordan pivot making column `j` basic in row `i`.
    fn pivot(&mut self, i: usize, j: usize) {
        let m = self.a.len();
        let inv = 1.0 / self.a[i][j];
        for x in &mut self.a[i] {
            *x *= inv;
        }
        self.b[i] *= inv;
        for r in 0..m {
            if r == i {
                continue;
            }
            let factor = self.a[r][j];
            if factor == 0.0 {
                continue;
            }
            let (src, dst) = if r < i {
                let (lo, hi) = self.a.split_at_mut(i);
                (&hi[0], &mut lo[r])
            } else {
                let (lo, hi) = self.a.split_at_mut(r);
                (&lo[i], &mut hi[0])
            };
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= factor * *s;
            }
            self.b[r] -= factor * self.b[i];
        }
        self.basis[i] = j;
    }

    fn column_values(&self, total: usize) -> Vec<f64> {
        let mut vals = vec![0.0; total];
        for (i, &col) in self.basis.iter().enumerate() {
            vals[col] = self.b[i].max(0.0);
        }
        vals
    }
}

/// Property tests holding the sparse engine to the oracle: on random
/// feasible, bounded LPs the two must reach the same objective (≤ 1e-6
/// relative), cold and warm-started (a sparse warm solve against the
/// oracle's cold solve).
///
/// Two generators. `random_lp` covers every standardization shape:
/// doubly-bounded variables (bound rows), non-negative and upper-only
/// ranges (shifted/mirrored columns), free variables (split columns),
/// all three relations (slack, surplus, artificial-carrying equality
/// rows), and duplicated equality rows (redundant rows whose artificial
/// stays basic). Feasibility is guaranteed by construction — every
/// right-hand side is derived from a random anchor point inside the
/// variable domains — and boundedness by giving each variable a cost
/// sign that bounds its own objective term over its domain.
/// `cbs_lp` has the shape of the provisioning LP instead.
///
/// The first three properties keep the names they had when the tableau
/// was a selectable engine: proptest seeds its cases from the function
/// name, so the names keep the sampled cases.
mod tests {
    use super::solve_dense;
    use crate::{Problem, Sense, SimplexOptions, Solution, WarmOutcome};
    use proptest::prelude::*;
    use proptest::TestCaseError;

    const REL_TOL: f64 = 1e-6;

    fn oracle(p: &Problem) -> Solution {
        solve_dense(p, &SimplexOptions::default()).unwrap()
    }

    fn assert_objectives_agree(a: f64, b: f64) -> Result<(), TestCaseError> {
        prop_assert!(
            (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs())),
            "objectives disagree: {a} vs {b}"
        );
        Ok(())
    }

    /// One random variable: `kind` picks the domain/cost shape so the
    /// objective term is bounded below over the domain.
    #[derive(Debug, Clone, Copy)]
    struct RandVar {
        kind: u8,
        x: f64,
        w: f64,
        c: f64,
    }

    impl RandVar {
        /// `(lb, ub, cost)` for the problem.
        fn def(self) -> (f64, f64, f64) {
            match self.kind {
                // Doubly bounded: any cost sign is bounded over a box.
                0 => (self.x, self.x + self.w, self.c),
                1 => (self.x, self.x + self.w, -self.c),
                // Non-negative, open above: positive cost bounds it.
                2 => (0.0, f64::INFINITY, self.c),
                // Upper bound only (mirrored column): negative cost bounds it.
                3 => (f64::NEG_INFINITY, self.x, -self.c),
                // Free (split column): zero cost keeps it bounded.
                _ => (f64::NEG_INFINITY, f64::INFINITY, 0.0),
            }
        }

        /// A point inside the domain, at fraction `t ∈ [0, 1]`.
        fn anchor(self, t: f64) -> f64 {
            match self.kind {
                0 | 1 => self.x + t * self.w,
                2 => t * 5.0,
                3 => self.x - t * 4.0,
                _ => 6.0 * t - 3.0,
            }
        }
    }

    #[derive(Debug, Clone)]
    struct RandomLp {
        vars: Vec<RandVar>,
        /// Dense coefficient rows (zeros allowed).
        rows: Vec<Vec<f64>>,
        /// 0 = ≤, 1 = ≥, 2 = =.
        relations: Vec<u8>,
    }

    impl RandomLp {
        /// Builds the LP with right-hand sides anchored at the feasible
        /// point `anchor_t` (one domain fraction per variable), per-row
        /// non-negative `slacks` widening the inequalities, and
        /// per-variable positive `cost_scales`.
        fn build(&self, anchor_t: &[f64], slacks: &[f64], cost_scales: &[f64]) -> Problem {
            let mut p = Problem::new(Sense::Minimize);
            let ids: Vec<_> = self
                .vars
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let (lb, ub, cost) = v.def();
                    p.add_var(format!("x{i}"), lb, ub, cost * cost_scales[i])
                })
                .collect();
            let point: Vec<f64> =
                self.vars.iter().zip(anchor_t).map(|(v, &t)| v.anchor(t)).collect();
            for ((row, &rel), &slack) in self.rows.iter().zip(&self.relations).zip(slacks) {
                let terms: Vec<_> = ids
                    .iter()
                    .zip(row)
                    .filter(|(_, &a)| a != 0.0)
                    .map(|(&v, &a)| (v, a))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                let at_anchor: f64 = row.iter().zip(&point).map(|(a, x)| a * x).sum();
                match rel {
                    0 => p.add_le(terms, at_anchor + slack),
                    1 => p.add_ge(terms, at_anchor - slack),
                    _ => p.add_eq(terms, at_anchor),
                }
            }
            p
        }
    }

    fn random_lp(n_vars: usize, n_rows: usize) -> impl Strategy<Value = RandomLp> {
        let vars = proptest::collection::vec(
            (0u8..5, -5.0..5.0f64, 0.5..8.0f64, 0.2..5.0f64)
                .prop_map(|(kind, x, w, c)| RandVar { kind, x, w, c }),
            n_vars,
        );
        let coeff = (any::<bool>(), -3.0..3.0f64).prop_map(|(z, v)| if z { 0.0 } else { v });
        let rows = proptest::collection::vec(proptest::collection::vec(coeff, n_vars), n_rows);
        let relations = proptest::collection::vec(0u8..3, n_rows);
        (vars, rows, relations)
            .prop_map(|(vars, rows, relations)| RandomLp { vars, rows, relations })
    }

    /// The provisioning LP's shape (`core::cbs`, the `table2-660`
    /// instance in miniature), maximized over `horizon` steps:
    ///
    /// * per step and machine type `m`: active machines `z ∈ [0, N_m]`
    ///   (a bound row after standardization) and switch columns
    ///   `δ⁺, δ⁻ ≥ 0`, linked by the equality state row
    ///   `z_t − z_{t−1} − δ⁺ + δ⁻ = 0` (`z_{−1}` = the initial state);
    /// * per step, type and class `n`: containers `x ≥ 0`, each in
    ///   exactly one `≤` demand-cap row `Σ_m x_mnt ≤ D_nt` (a
    ///   generalized upper bound);
    /// * per step, type and resource: a coupling `≤` capacity row
    ///   `Σ_n s_nr x_mnt − C_mr z_mt ≤ 0` spanning every class's column.
    ///
    /// `x = 0` with `z` held at the initial state is always feasible and
    /// every column is bounded by a cap or `N_m`, or carries a cost that
    /// bounds it, so every instance solves.
    #[derive(Debug, Clone)]
    struct CbsLp {
        horizon: usize,
        /// Per type: `(N_m, idle cost, switching cost, [C_m0, C_m1])`.
        types: Vec<(f64, f64, f64, [f64; 2])>,
        /// Per class: `(utility, [s_n0, s_n1])`.
        classes: Vec<(f64, [f64; 2])>,
        /// Per type and class: the energy cost of one container.
        energy: Vec<Vec<f64>>,
    }

    /// The right-hand sides and the cost scale of one control period.
    #[derive(Debug, Clone)]
    struct Period {
        /// `D_nt` per step, per class.
        demand: Vec<Vec<f64>>,
        /// The initial state per type, as a fraction of `N_m`.
        initial: Vec<f64>,
        /// Multiplies every energy term (the electricity price).
        price: f64,
    }

    impl CbsLp {
        fn build(&self, period: &Period) -> Problem {
            let mut p = Problem::new(Sense::Maximize);
            let mut prev_z: Vec<Option<crate::VarId>> = vec![None; self.types.len()];
            for t in 0..self.horizon {
                let mut caps = vec![Vec::new(); self.classes.len()];
                for (m, &(count, idle, switching, capacity)) in self.types.iter().enumerate() {
                    let z = p.add_var(format!("z_{m}_{t}"), 0.0, count, -period.price * idle);
                    let dp = p.add_var(format!("dp_{m}_{t}"), 0.0, f64::INFINITY, -switching);
                    let dm = p.add_var(format!("dm_{m}_{t}"), 0.0, f64::INFINITY, -switching);
                    let mut state = vec![(z, 1.0), (dp, -1.0), (dm, 1.0)];
                    let rhs = match prev_z[m] {
                        Some(prev) => {
                            state.push((prev, -1.0));
                            0.0
                        }
                        None => period.initial[m] * count,
                    };
                    p.add_eq(state, rhs);
                    prev_z[m] = Some(z);
                    let mut usage = [Vec::new(), Vec::new()];
                    for (n, &(utility, size)) in self.classes.iter().enumerate() {
                        let obj = utility - period.price * self.energy[m][n];
                        let x = p.add_var(format!("x_{m}_{n}_{t}"), 0.0, f64::INFINITY, obj);
                        caps[n].push((x, 1.0));
                        for (r, row) in usage.iter_mut().enumerate() {
                            row.push((x, size[r]));
                        }
                    }
                    for (r, mut row) in usage.into_iter().enumerate() {
                        row.push((z, -capacity[r]));
                        p.add_le(row, 0.0);
                    }
                }
                for (n, cap) in caps.into_iter().enumerate() {
                    p.add_le(cap, period.demand[t][n]);
                }
            }
            p
        }
    }

    fn cbs_lp() -> impl Strategy<Value = (CbsLp, Period, Period)> {
        (1usize..4, 1usize..5, 1usize..4).prop_flat_map(|(n_types, n_classes, horizon)| {
            let types = proptest::collection::vec(
                (1.0..20.0f64, 0.01..0.5f64, 0.0..0.3f64, 0.5..2.0f64, 0.5..2.0f64)
                    .prop_map(|(count, idle, switching, cpu, mem)| {
                        (count.round(), idle, switching, [cpu, mem])
                    }),
                n_types,
            );
            let classes = proptest::collection::vec(
                (0.05..1.0f64, 0.01..0.4f64, 0.01..0.4f64)
                    .prop_map(|(utility, cpu, mem)| (utility, [cpu, mem])),
                n_classes,
            );
            let energy = proptest::collection::vec(
                proptest::collection::vec(0.0..0.3f64, n_classes),
                n_types,
            );
            let period = move || {
                (
                    proptest::collection::vec(
                        proptest::collection::vec(0.0..40.0f64, n_classes),
                        horizon,
                    ),
                    proptest::collection::vec(0.0..1.0f64, n_types),
                    0.5..2.0f64,
                )
                    .prop_map(|(demand, initial, price)| Period { demand, initial, price })
            };
            (types, classes, energy, period(), period()).prop_map(
                move |(types, classes, energy, first, second)| {
                    (CbsLp { horizon, types, classes, energy }, first, second)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cold solves agree with the oracle.
        #[test]
        fn cold_backends_agree(
            lp in random_lp(8, 6),
            anchor_t in proptest::collection::vec(0.0..1.0f64, 8),
            slacks in proptest::collection::vec(0.0..4.0f64, 6),
        ) {
            let p = lp.build(&anchor_t, &slacks, &[1.0; 8]);
            let sparse = p.solve().unwrap();
            assert_objectives_agree(sparse.objective(), oracle(&p).objective())?;
            prop_assert_eq!(sparse.warm_outcome(), WarmOutcome::Cold);
        }

        /// A warm restart after the RHS and costs both moved reaches the
        /// oracle's cold objective, as a warm-start hit.
        #[test]
        fn warm_backends_agree(
            lp in random_lp(7, 5),
            t1 in proptest::collection::vec(0.0..1.0f64, 7),
            s1 in proptest::collection::vec(0.0..4.0f64, 5),
            t2 in proptest::collection::vec(0.0..1.0f64, 7),
            s2 in proptest::collection::vec(0.0..4.0f64, 5),
            cost_scales in proptest::collection::vec(0.5..2.0f64, 7),
        ) {
            let first = lp.build(&t1, &s1, &[1.0; 7]).solve().unwrap();
            let p2 = lp.build(&t2, &s2, &cost_scales);
            let warm = p2.solve_warm_with(&SimplexOptions::default(), Some(first.basis())).unwrap();
            assert_objectives_agree(warm.objective(), oracle(&p2).objective())?;
            // Identical structure and coefficients: the basis installs,
            // and the generator guarantees feasibility, so the in-place
            // repair (if the moved RHS requires one) must succeed.
            prop_assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);
        }

        /// Duplicated equality rows leave an artificial basic (redundant
        /// row): the engine must agree with the oracle on the objective,
        /// carry the artificial in its basis exactly when the oracle
        /// does, and reject that basis for warm-starting.
        #[test]
        fn redundant_rows_agree(
            lp in random_lp(6, 4),
            anchor_t in proptest::collection::vec(0.0..1.0f64, 6),
            slacks in proptest::collection::vec(0.0..4.0f64, 4),
        ) {
            let mut lp = lp;
            // Duplicate every row and force the first pair to equality so
            // at least one redundant row exists.
            lp.rows = lp.rows.iter().cloned().flat_map(|r| [r.clone(), r]).collect();
            lp.relations = lp.relations.iter().flat_map(|&r| [r, r]).collect();
            lp.relations[0] = 2;
            lp.relations[1] = 2;
            let slacks: Vec<f64> = slacks.iter().flat_map(|&s| [s, s]).collect();
            let p = lp.build(&anchor_t, &slacks, &[1.0; 6]);
            let sparse = p.solve().unwrap();
            let dense = oracle(&p);
            assert_objectives_agree(sparse.objective(), dense.objective())?;

            let n_cols = sparse.basis().num_cols();
            prop_assert_eq!(n_cols, dense.basis().num_cols());
            let sparse_kept = sparse.basis().columns().iter().any(|&j| j >= n_cols);
            let dense_kept = dense.basis().columns().iter().any(|&j| j >= n_cols);
            prop_assert_eq!(sparse_kept, dense_kept, "redundancy must classify identically");

            if sparse_kept {
                // A basis that kept an artificial is rejected on
                // re-install, with the structural-fallback outcome.
                let warm =
                    p.solve_warm_with(&SimplexOptions::default(), Some(sparse.basis())).unwrap();
                prop_assert_eq!(warm.warm_outcome(), WarmOutcome::StructuralFallback);
                assert_objectives_agree(warm.objective(), dense.objective())?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On provisioning-shaped LPs a cold solve agrees with the
        /// oracle, and the next period's solve warm-started from its
        /// basis is a hit that reaches the oracle's cold objective.
        #[test]
        fn cbs_shaped_solves_agree((lp, first, second) in cbs_lp()) {
            let p1 = lp.build(&first);
            let cold = p1.solve().unwrap();
            assert_objectives_agree(cold.objective(), oracle(&p1).objective())?;
            prop_assert_eq!(cold.warm_outcome(), WarmOutcome::Cold);

            let p2 = lp.build(&second);
            let warm = p2.solve_warm_with(&SimplexOptions::default(), Some(cold.basis())).unwrap();
            assert_objectives_agree(warm.objective(), oracle(&p2).objective())?;
            prop_assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);
        }
    }
}
