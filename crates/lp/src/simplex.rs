//! Shared simplex machinery: standardization to equality form, the
//! phase-2 cost vector, solution extraction, and the
//! [`Basis`]/[`Solution`]/[`SimplexOptions`] types. The engine that
//! runs every solve is the sparse revised simplex in `crate::sparse`.
//!
//! A solve is the textbook two-phase method:
//!
//! 1. **Standardize.** Every user variable is mapped onto one or two
//!    non-negative columns (shift by a finite lower bound, mirror a
//!    `(-∞, ub]` variable, split a free variable); finite upper bounds
//!    become extra `≤` rows. Every constraint gains a slack/surplus
//!    column; rows are negated so all right-hand sides are non-negative.
//! 2. **Phase 1.** Rows without a ready-made basic column receive an
//!    artificial variable; minimizing the artificial sum finds a basic
//!    feasible point or proves infeasibility.
//! 3. **Phase 2.** The user objective (negated for maximization) is
//!    minimized from that starting basis. Artificial columns are barred
//!    from re-entering.
//!
//! Pivot columns are priced with Dantzig's most-negative-reduced-cost
//! rule; after a streak of degenerate pivots the solver falls back to
//! Bland's smallest-index rule, which cannot cycle, so termination is
//! preserved. A pivot budget guards against pathological instances
//! anyway.
//!
//! **Warm starts.** Every [`Solution`] carries the optimal [`Basis`] out
//! in standardized column space. [`crate::Problem::solve_warm_with`]
//! re-installs that basis on the freshly standardized problem when only
//! costs and right-hand sides changed since the previous solve, and
//! runs the same two phases from it: each row the new RHS pushed outside
//! the polytope takes an artificial in place of its basic column, so
//! phase 1 is a *repair* costing pivots proportional to the damage, and
//! a still-feasible restart has none and skips it. A basis whose
//! dimensions no longer match, that has gone singular, or whose repair
//! fails falls back to the cold start transparently.

use serde::{Deserialize, Serialize};

use crate::problem::{Problem, Relation, Sense, VarId};

/// Tuning knobs for the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Numerical tolerance for pivot selection and feasibility tests.
    pub tolerance: f64,
    /// Hard cap on pivots across both phases; `None` picks
    /// [`SimplexOptions::auto_pivot_budget`] automatically.
    pub max_pivots: Option<usize>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions { tolerance: 1e-9, max_pivots: None }
    }
}

impl SimplexOptions {
    /// The automatic pivot budget, `200·(rows + cols) + 10_000`, where
    /// `rows`/`cols` are the *standardized* tableau dimensions (bound
    /// rows and slack columns included, artificials excluded).
    ///
    /// This is the single place the budget formula lives: cold and warm
    /// solves both derive their cap from the standardized shape of the
    /// user problem, so the same problem always gets the same budget
    /// regardless of how it is solved.
    pub fn auto_pivot_budget(rows: usize, cols: usize) -> usize {
        200 * (rows + cols) + 10_000
    }

    /// The primal feasibility tolerance, `tolerance.max(1e-7)`.
    ///
    /// Pivot *selection* uses the sharper `tolerance`; feasibility
    /// *classification* — is a restart point inside the polytope, did
    /// phase 1 reach zero — uses this floored value so accumulated
    /// elimination error cannot misclassify a vertex. Every feasibility
    /// test (warm-restart repair and cold phase 1 alike) goes through
    /// this one definition, so a borderline restart is classified
    /// identically on every path.
    pub fn feas_tol(&self) -> f64 {
        self.tolerance.max(1e-7)
    }
}

/// The optimal basis of a solved LP, in standardized column space.
///
/// Carried out of every solve by [`Solution::basis`] and fed back into
/// [`crate::Problem::solve_warm_with`] to re-solve a problem whose
/// costs or right-hand sides changed (the MPC control loop's situation:
/// successive periods differ only in forecast data). The basis pins the
/// standardized tableau shape it belongs to, so a structural change is
/// detected as a dimension mismatch and triggers a cold solve instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Basis {
    /// Basic column per tableau row.
    pub(crate) cols: Vec<usize>,
    /// Structural + slack column count of the standardized tableau.
    pub(crate) n_cols: usize,
}

impl Basis {
    /// Basic column index per standardized tableau row.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Rows of the standardized tableau this basis belongs to.
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }

    /// Structural + slack columns of the standardized tableau.
    pub fn num_cols(&self) -> usize {
        self.n_cols
    }
}

/// An optimal solution to a [`Problem`].
///
/// A `Solution` always represents an optimal basic point: every failure
/// outcome (infeasible, unbounded, pivot budget exhausted, numerical
/// breakdown) surfaces as an [`crate::LpError`] from the solve call
/// instead. There is deliberately no `status` field — an enum with a
/// single reachable variant would be a misleading always-true API.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    objective: f64,
    values: Vec<f64>,
    pivots: usize,
    phase1_pivots: usize,
    basis: Basis,
    warm: WarmOutcome,
}

/// How a solve used (or failed to use) a supplied warm-start basis.
///
/// Exactly one outcome applies to every solve, so counting solves by
/// outcome partitions them — there is no half-warm path that belongs to
/// two buckets or to none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOutcome {
    /// No warm basis was supplied: an ordinary cold two-phase solve.
    Cold,
    /// The supplied basis installed and the solve restarted from it —
    /// either directly (the restart point was still feasible) or after
    /// an in-place repair phase 1 on the violated rows; see
    /// [`Solution::phase1_pivots`] to tell the two apart.
    Hit,
    /// The basis installed but the restart point could not be repaired
    /// (the repair phase 1 bottomed out above the feasibility
    /// tolerance), so the solver fell back to the cold two-phase path.
    RepairFallback,
    /// The basis never installed — its dimensions no longer match the
    /// standardized problem, it kept an artificial column (a redundant
    /// row in the previous solve), or it has gone singular for the new
    /// coefficients — so the solver fell back to the cold path.
    StructuralFallback,
}

impl Solution {
    /// The objective value in the problem's own sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total simplex pivots across both phases, so never fewer than
    /// [`Solution::phase1_pivots`]; a warm-started solve counts its
    /// repair pivots too. Re-installing a warm basis is a
    /// factorization, not simplex pivoting, and counts nothing.
    pub fn pivots(&self) -> usize {
        self.pivots
    }

    /// Pivots spent in phase 1 (finding a basic feasible point); zero
    /// when every row had a ready slack basis. For a warm-started solve
    /// this counts the *repair* pivots spent restoring primal
    /// feasibility — zero when the restart point was still inside the
    /// polytope.
    pub fn phase1_pivots(&self) -> usize {
        self.phase1_pivots
    }

    /// The optimal basis, for warm-starting a subsequent solve of a
    /// structurally identical problem.
    pub fn basis(&self) -> &Basis {
        &self.basis
    }

    /// How the supplied warm basis fared — see [`WarmOutcome`]. The two
    /// fallback variants distinguish a basis that never installed from
    /// one that installed but could not be repaired.
    pub fn warm_outcome(&self) -> WarmOutcome {
        self.warm
    }
}

/// How a user variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColMap {
    /// `x = col + lb`, `col ≥ 0`.
    Shifted { col: usize, lb: f64 },
    /// `x = ub - col`, `col ≥ 0` (variable with only an upper bound).
    Mirrored { col: usize, ub: f64 },
    /// `x = pos - neg`, both `≥ 0` (free variable).
    Free { pos: usize, neg: usize },
}

/// A [`Problem`] brought to standard equality form: non-negative
/// columns, slack/surplus columns appended, right-hand sides
/// non-negative. Artificial columns are *not* included — phase 1 and
/// the warm-start repair append their own.
///
/// Rows are stored sparsely — `(column, coefficient)` pairs — so the
/// standardization cost is proportional to the nonzero count, not to
/// `rows × cols`. The engine transposes them into CSC; the test-only
/// dense oracle scatters them into tableau rows.
pub(crate) struct Standardized {
    pub(crate) maps: Vec<ColMap>,
    /// Sparse coefficient rows over the standardized columns: nonzero
    /// `(col, coeff)` pairs sorted by column, slack/surplus included.
    pub(crate) rows: Vec<Vec<(usize, f64)>>,
    pub(crate) b: Vec<f64>,
    /// Per row, the slack column usable as the initial basis, if any.
    pub(crate) ready_basis: Vec<Option<usize>>,
    /// Structural + slack column count.
    pub(crate) struct_and_slack: usize,
}

pub(crate) fn standardize(p: &Problem) -> Standardized {
    // --- 1. Map user variables to non-negative columns. -----------------
    let mut maps: Vec<ColMap> = Vec::with_capacity(p.vars.len());
    let mut n_cols = 0usize;
    // Extra `≤` rows for doubly-bounded variables: (col, ub - lb).
    let mut bound_rows: Vec<(usize, f64)> = Vec::new();
    for v in &p.vars {
        if v.lb.is_finite() {
            let col = n_cols;
            n_cols += 1;
            maps.push(ColMap::Shifted { col, lb: v.lb });
            if v.ub.is_finite() {
                bound_rows.push((col, v.ub - v.lb));
            }
        } else if v.ub.is_finite() {
            let col = n_cols;
            n_cols += 1;
            maps.push(ColMap::Mirrored { col, ub: v.ub });
        } else {
            let pos = n_cols;
            let neg = n_cols + 1;
            n_cols += 2;
            maps.push(ColMap::Free { pos, neg });
        }
    }

    // --- 2. Build sparse rows in standard column space. ------------------
    struct Row {
        coeffs: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    }
    let m = p.constraints.len() + bound_rows.len();
    let mut rows: Vec<Row> = Vec::with_capacity(m);
    for c in &p.constraints {
        // Accumulate per-column (duplicate terms sum); BTreeMap keeps the
        // column order sorted and the iteration deterministic.
        let mut acc: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        let mut rhs = c.rhs;
        for &(v, a) in &c.terms {
            match maps[v.index()] {
                ColMap::Shifted { col, lb } => {
                    *acc.entry(col).or_insert(0.0) += a;
                    rhs -= a * lb;
                }
                ColMap::Mirrored { col, ub } => {
                    *acc.entry(col).or_insert(0.0) -= a;
                    rhs -= a * ub;
                }
                ColMap::Free { pos, neg } => {
                    *acc.entry(pos).or_insert(0.0) += a;
                    *acc.entry(neg).or_insert(0.0) -= a;
                }
            }
        }
        let coeffs: Vec<(usize, f64)> = acc.into_iter().filter(|&(_, a)| a != 0.0).collect();
        rows.push(Row { coeffs, relation: c.relation, rhs });
    }
    for &(col, width) in &bound_rows {
        rows.push(Row { coeffs: vec![(col, 1.0)], relation: Relation::Le, rhs: width });
    }

    // --- 3. Equality form with slacks, non-negative rhs. -----------------
    let n_slack = rows.iter().filter(|r| r.relation != Relation::Eq).count();
    let struct_and_slack = n_cols + n_slack;
    let mut a_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
    let mut b: Vec<f64> = Vec::with_capacity(m);
    let mut ready_basis: Vec<Option<usize>> = Vec::with_capacity(m);
    let mut slack_idx = 0usize;
    for row in rows {
        let mut coeffs = row.coeffs;
        let mut rhs = row.rhs;
        // The slack column index exceeds every structural index, so
        // pushing it last keeps the row sorted by column.
        let slack_col = match row.relation {
            Relation::Le => {
                let col = n_cols + slack_idx;
                slack_idx += 1;
                coeffs.push((col, 1.0));
                Some(col)
            }
            Relation::Ge => {
                let col = n_cols + slack_idx;
                slack_idx += 1;
                coeffs.push((col, -1.0));
                Some(col)
            }
            Relation::Eq => None,
        };
        // Normalize rhs >= 0.
        if rhs < 0.0 {
            for (_, c) in &mut coeffs {
                *c = -*c;
            }
            rhs = -rhs;
        }
        // Slack usable as initial basis only if its coefficient is +1 now
        // (it is the last entry, having the largest column index).
        let ready = slack_col.filter(|_| matches!(coeffs.last(), Some(&(_, c)) if c > 0.5));
        a_rows.push(coeffs);
        b.push(rhs);
        ready_basis.push(ready);
    }

    Standardized { maps, rows: a_rows, b, ready_basis, struct_and_slack }
}

/// The phase-2 cost vector (sign-adjusted user objective) over `width`
/// columns.
pub(crate) fn phase2_cost(p: &Problem, maps: &[ColMap], width: usize) -> Vec<f64> {
    let sign = match p.sense {
        Sense::Maximize => -1.0,
        Sense::Minimize => 1.0,
    };
    let mut cost = vec![0.0; width];
    for (v, def) in p.vars.iter().enumerate() {
        match maps[v] {
            ColMap::Shifted { col, .. } => cost[col] += sign * def.obj,
            ColMap::Mirrored { col, .. } => cost[col] -= sign * def.obj,
            ColMap::Free { pos, neg } => {
                cost[pos] += sign * def.obj;
                cost[neg] -= sign * def.obj;
            }
        }
    }
    cost
}

/// Maps an optimal basic point (values per standardized column, basic
/// column per row) back to user variable space.
pub(crate) fn extract(
    p: &Problem,
    std_form: &Standardized,
    col_values: &[f64],
    basis_cols: &[usize],
    pivots: usize,
    phase1_pivots: usize,
    warm: WarmOutcome,
) -> Solution {
    let mut values = vec![0.0; p.vars.len()];
    for (v, map) in std_form.maps.iter().enumerate() {
        values[v] = match *map {
            ColMap::Shifted { col, lb } => col_values[col] + lb,
            ColMap::Mirrored { col, ub } => ub - col_values[col],
            ColMap::Free { pos, neg } => col_values[pos] - col_values[neg],
        };
    }
    let objective: f64 = p.vars.iter().enumerate().map(|(v, d)| d.obj * values[v]).sum();
    Solution {
        objective,
        values,
        pivots,
        phase1_pivots,
        basis: Basis { cols: basis_cols.to_vec(), n_cols: std_form.struct_and_slack },
        warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpError, Problem, Sense};

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  → 36 at (2, 6).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(0.0, f64::INFINITY, 5.0);
        p.add_le(vec![(x, 1.0)], 4.0);
        p.add_le(vec![(y, 2.0)], 12.0);
        p.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
        let s = p.solve().unwrap();
        assert_near(s.objective(), 36.0);
        assert_near(s.value(x), 2.0);
        assert_near(s.value(y), 6.0);
        assert!(s.pivots() > 0, "optimum is off the origin, so pivots happened");
        assert_eq!(s.phase1_pivots(), 0, "all-slack basis needs no phase 1");
        assert_eq!(s.warm_outcome(), WarmOutcome::Cold);
    }

    #[test]
    fn minimization_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → 23 at (7, 3)?
        // Gradient favors x (cost 2 < 3) so push y to its bound: (7, 3) → 23.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 2.0);
        let y = p.add_var(0.0, f64::INFINITY, 3.0);
        p.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
        p.add_ge(vec![(x, 1.0)], 2.0);
        p.add_ge(vec![(y, 1.0)], 3.0);
        let s = p.solve().unwrap();
        assert_near(s.objective(), 23.0);
        assert_near(s.value(x), 7.0);
        assert_near(s.value(y), 3.0);
        assert!(s.phase1_pivots() > 0, "≥ rows force artificials into phase 1");
        assert!(s.pivots() >= s.phase1_pivots());
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x = 2, y = 1.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_eq(vec![(x, 1.0), (y, 2.0)], 4.0);
        p.add_eq(vec![(x, 1.0), (y, -1.0)], 1.0);
        let s = p.solve().unwrap();
        assert_near(s.value(x), 2.0);
        assert_near(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(vec![(x, 1.0)], 1.0);
        p.add_ge(vec![(x, 1.0)], 2.0);
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 0.0);
        p.add_ge(vec![(x, 1.0), (y, -1.0)], 0.0);
        assert!(matches!(p.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn variable_upper_bounds_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, 3.0, 1.0);
        let y = p.add_var(1.0, 2.0, 1.0);
        p.add_le(vec![(x, 1.0), (y, 1.0)], 100.0);
        let s = p.solve().unwrap();
        assert_near(s.value(x), 3.0);
        assert_near(s.value(y), 2.0);
        assert_near(s.objective(), 5.0);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y with x >= 5, y >= 7, x + y >= 15 → 15 (e.g. x = 8, y = 7).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(5.0, f64::INFINITY, 1.0);
        let y = p.add_var(7.0, f64::INFINITY, 1.0);
        p.add_ge(vec![(x, 1.0), (y, 1.0)], 15.0);
        let s = p.solve().unwrap();
        assert_near(s.objective(), 15.0);
        assert!(s.value(x) >= 5.0 - 1e-9);
        assert!(s.value(y) >= 7.0 - 1e-9);
    }

    #[test]
    fn free_variables_split() {
        // min |shape|: free variable pushed negative.
        // min x s.t. x >= -8 expressed via free var + constraint.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_ge(vec![(x, 1.0)], -8.0);
        let s = p.solve().unwrap();
        assert_near(s.value(x), -8.0);
    }

    #[test]
    fn mirrored_variable_with_only_upper_bound() {
        // max x s.t. x <= 4 declared as a bound, plus x <= 10 row.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(f64::NEG_INFINITY, 4.0, 1.0);
        p.add_le(vec![(x, 1.0)], 10.0);
        let s = p.solve().unwrap();
        assert_near(s.value(x), 4.0);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x - y <= -2 with x, y >= 0: max x + y <= bounded by y >= x + 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 0.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(vec![(x, 1.0), (y, -1.0)], -2.0);
        let s = p.solve().unwrap();
        assert_near(s.value(y), 2.0);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // max 2*(x) where constraint lists x twice: x + x <= 6 → x = 3.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(vec![(x, 1.0), (x, 1.0)], 6.0);
        let s = p.solve().unwrap();
        assert_near(s.value(x), 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate example; Bland's rule must not cycle.
        let mut p = Problem::new(Sense::Maximize);
        let x1 = p.add_var(0.0, f64::INFINITY, 0.75);
        let x2 = p.add_var(0.0, f64::INFINITY, -150.0);
        let x3 = p.add_var(0.0, f64::INFINITY, 0.02);
        let x4 = p.add_var(0.0, f64::INFINITY, -6.0);
        p.add_le(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        p.add_le(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        p.add_le(vec![(x3, 1.0)], 1.0);
        let s = p.solve().unwrap();
        assert_near(s.objective(), 0.05);
    }

    #[test]
    fn redundant_equalities_handled() {
        // Two copies of the same equality: phase 1 leaves a redundant row.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_eq(vec![(x, 1.0), (y, 1.0)], 5.0);
        p.add_eq(vec![(x, 2.0), (y, 2.0)], 10.0);
        let s = p.solve().unwrap();
        assert_near(s.objective(), 5.0);
    }

    #[test]
    fn empty_objective_is_fine() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 5.0, 0.0);
        p.add_le(vec![(x, 1.0)], 4.0);
        let s = p.solve().unwrap();
        assert_near(s.objective(), 0.0);
    }

    #[test]
    fn iteration_limit_reported() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
        let opts = SimplexOptions { max_pivots: Some(0), ..SimplexOptions::default() };
        assert!(matches!(p.solve_with(&opts), Err(LpError::IterationLimit { limit: 0 })));
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(2.5, 2.5, 1.0);
        let y = p.add_var(0.0, f64::INFINITY, 1.0);
        p.add_le(vec![(x, 1.0), (y, 1.0)], 10.0);
        let s = p.solve().unwrap();
        assert_near(s.value(x), 2.5);
        assert_near(s.value(y), 7.5);
    }

    #[test]
    fn larger_random_instance_agrees_with_greedy_structure() {
        // A transportation-like LP with known optimum: supply 3 sources,
        // demand 3 sinks, min cost. Optimal cost computed by hand: the
        // classic balanced problem below has optimum 78.
        // costs: [[4,6,8],[5,4,7],[6,5,4]] supplies [10,12,8] demands [9,11,10]
        let costs = [[4.0, 6.0, 8.0], [5.0, 4.0, 7.0], [6.0, 5.0, 4.0]];
        let supply = [10.0, 12.0, 8.0];
        let demand = [9.0, 11.0, 10.0];
        let mut p = Problem::new(Sense::Minimize);
        let mut vars = Vec::new();
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                vars.push((i, j, p.add_var(0.0, f64::INFINITY, c)));
            }
        }
        for (i, &s) in supply.iter().enumerate() {
            let terms: Vec<_> =
                vars.iter().filter(|(a, _, _)| *a == i).map(|(_, _, v)| (*v, 1.0)).collect();
            p.add_eq(terms, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            let terms: Vec<_> =
                vars.iter().filter(|(_, b, _)| *b == j).map(|(_, _, v)| (*v, 1.0)).collect();
            p.add_eq(terms, d);
        }
        let s = p.solve().unwrap();
        // Verify feasibility and optimality bound: cost must be >= LP bound
        // computed by a known-good reference (hand-computed optimum 125).
        let mut ship = [[0.0f64; 3]; 3];
        for (i, j, v) in &vars {
            ship[*i][*j] = s.value(*v);
            assert!(s.value(*v) >= -1e-9);
        }
        for i in 0..3 {
            let row: f64 = ship[i].iter().sum();
            assert!((row - supply[i]).abs() < 1e-7);
        }
        for j in 0..3 {
            let col: f64 = (0..3).map(|i| ship[i][j]).sum();
            assert!((col - demand[j]).abs() < 1e-7);
        }
        // Optimum for this instance: x00=9, x01=1, x11=10, x12=2? Let's
        // simply assert the solver is at least as good as one feasible
        // hand-built plan and exactly matches its own recomputed cost.
        let cost: f64 = (0..3).map(|i| (0..3).map(|j| ship[i][j] * costs[i][j]).sum::<f64>()).sum();
        assert_near(cost, s.objective());
        // Hand plan: x00=9,x01=1 (cost 36+6=42); x11=10,x12=2 (40+14=54);
        // x22=8 (32) → total 128. Solver must do no worse.
        assert!(s.objective() <= 128.0 + 1e-7);
    }

    // --- Warm-start behavior --------------------------------------------

    /// A small transportation-style LP whose ≥/= rows force a real
    /// phase 1, parameterized by its right-hand sides.
    fn phase1_heavy(rhs: [f64; 3]) -> (Problem, VarId, VarId) {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, 2.0);
        let y = p.add_var(0.0, f64::INFINITY, 3.0);
        p.add_ge(vec![(x, 1.0), (y, 1.0)], rhs[0]);
        p.add_ge(vec![(x, 1.0)], rhs[1]);
        p.add_ge(vec![(y, 1.0)], rhs[2]);
        (p, x, y)
    }

    #[test]
    fn warm_restart_of_identical_problem_needs_zero_pivots() {
        let (p, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let cold = p.solve().unwrap();
        assert!(cold.pivots() > 0);
        let warm = p.solve_warm_with(&SimplexOptions::default(), Some(cold.basis())).unwrap();
        assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);
        assert_eq!(warm.pivots(), 0, "the old optimum is still optimal");
        assert_eq!(warm.phase1_pivots(), 0);
        assert_near(warm.objective(), cold.objective());
        // Re-installation may assign basis columns to rows in a different
        // order (partial pivoting picks rows by magnitude), but the basis
        // as a set of columns is unchanged.
        let mut warm_cols = warm.basis().columns().to_vec();
        let mut cold_cols = cold.basis().columns().to_vec();
        warm_cols.sort_unstable();
        cold_cols.sort_unstable();
        assert_eq!(warm_cols, cold_cols);
        assert_eq!(warm.basis().num_cols(), cold.basis().num_cols());
    }

    #[test]
    fn warm_restart_with_perturbed_rhs_matches_cold() {
        let (p0, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let cold0 = p0.solve().unwrap();
        // Same structure, shifted right-hand sides.
        let (p1, x, y) = phase1_heavy([12.0, 3.0, 4.0]);
        let cold1 = p1.solve().unwrap();
        let warm1 = p1.solve_warm_with(&SimplexOptions::default(), Some(cold0.basis())).unwrap();
        assert_eq!(warm1.warm_outcome(), WarmOutcome::Hit);
        assert_near(warm1.objective(), cold1.objective());
        assert_near(warm1.value(x), cold1.value(x));
        assert_near(warm1.value(y), cold1.value(y));
        assert!(
            warm1.pivots() < cold1.pivots(),
            "warm restart must beat the cold solve: {} vs {}",
            warm1.pivots(),
            cold1.pivots()
        );
    }

    #[test]
    fn warm_restart_with_perturbed_costs_matches_cold() {
        let (p0, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let cold0 = p0.solve().unwrap();
        // Flip the cost gradient: now y is the cheap variable.
        let (mut p1, x, y) = phase1_heavy([10.0, 2.0, 3.0]);
        p1.set_objective(x, 5.0);
        p1.set_objective(y, 1.0);
        let cold1 = p1.solve().unwrap();
        let warm1 = p1.solve_warm_with(&SimplexOptions::default(), Some(cold0.basis())).unwrap();
        assert_eq!(warm1.warm_outcome(), WarmOutcome::Hit);
        assert_near(warm1.objective(), cold1.objective());
    }

    #[test]
    fn stale_basis_dimension_mismatch_falls_back_to_cold() {
        let (p0, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let cold0 = p0.solve().unwrap();
        // A structurally different problem (extra variable and row).
        let mut p1 = Problem::new(Sense::Minimize);
        let x = p1.add_var(0.0, f64::INFINITY, 2.0);
        let y = p1.add_var(0.0, f64::INFINITY, 3.0);
        let w = p1.add_var(0.0, f64::INFINITY, 1.0);
        p1.add_ge(vec![(x, 1.0), (y, 1.0), (w, 1.0)], 10.0);
        p1.add_ge(vec![(x, 1.0)], 2.0);
        p1.add_ge(vec![(y, 1.0)], 3.0);
        p1.add_le(vec![(w, 1.0)], 4.0);
        let cold1 = p1.solve().unwrap();
        let warm1 = p1.solve_warm_with(&SimplexOptions::default(), Some(cold0.basis())).unwrap();
        assert_eq!(
            warm1.warm_outcome(),
            WarmOutcome::StructuralFallback,
            "mismatched basis must fall back cleanly"
        );
        assert_near(warm1.objective(), cold1.objective());
        assert_eq!(warm1.pivots(), cold1.pivots());
    }

    #[test]
    fn infeasible_restart_is_repaired_in_place() {
        // The optimal basis at a loose bound becomes primal-infeasible
        // when the bound row's RHS moves past the ≥ row. The warm path
        // must repair the violated rows with a local phase 1 instead of
        // rejecting the basis.
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(0.0, f64::INFINITY, 1.0);
            let y = p.add_var(0.0, f64::INFINITY, 4.0);
            p.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
            p.add_le(vec![(x, 1.0)], cap);
            p
        };
        let p0 = build(20.0); // cap slack: optimum x=10, y=0
        let cold0 = p0.solve().unwrap();
        let p1 = build(4.0); // cap binds: optimum x=4, y=6
        let cold1 = p1.solve().unwrap();
        let warm1 = p1.solve_warm_with(&SimplexOptions::default(), Some(cold0.basis())).unwrap();
        assert_eq!(
            warm1.warm_outcome(),
            WarmOutcome::Hit,
            "same-structure basis must be repaired, not rejected"
        );
        assert!(warm1.phase1_pivots() >= 1, "the moved RHS requires repair pivots");
        assert_near(warm1.objective(), cold1.objective());
        let warm_vals = warm1.values().to_vec();
        assert_near(warm_vals[0], cold1.values()[0]);
        assert_near(warm_vals[1], cold1.values()[1]);
    }

    #[test]
    fn solution_carries_a_basis_of_the_standardized_shape() {
        let (p, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let s = p.solve().unwrap();
        // 3 constraints, no bound rows → 3 rows; 2 structural + 3 surplus
        // columns → 5 standardized columns.
        assert_eq!(s.basis().num_rows(), 3);
        assert_eq!(s.basis().num_cols(), 5);
        assert_eq!(s.basis().columns().len(), 3);
    }

    #[test]
    fn basis_encoding_is_pinned() {
        let basis = Basis { cols: vec![4, 0, 2], n_cols: 5 };
        let text = serde_json::to_string(&basis).unwrap();
        assert_eq!(text, r#"{"cols":[4,0,2],"n_cols":5}"#);
        assert_eq!(serde_json::from_str::<Basis>(&text).unwrap(), basis);
    }

    #[test]
    fn basis_serde_roundtrip() {
        let (p, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let basis = p.solve().unwrap().basis().clone();
        let back = Basis::from_value(&basis.to_value()).unwrap();
        assert_eq!(back, basis);
    }

    // --- Feasibility tolerance (one definition for every path) -----------

    #[test]
    fn feas_tol_formula_is_pinned() {
        // The floor keeps feasibility classification stable when the
        // pivot tolerance is sharper than accumulated elimination error.
        assert_eq!(SimplexOptions::default().feas_tol(), 1e-7);
        let loose = SimplexOptions { tolerance: 1e-4, ..SimplexOptions::default() };
        assert_eq!(loose.feas_tol(), 1e-4);
    }

    /// Regression (satellite of the sparse-engine PR): a warm restart
    /// whose RHS moved by less than `feas_tol()` must be classified
    /// still-feasible (no repair), and one violated by more must be
    /// repaired, because every path shares `SimplexOptions::feas_tol`
    /// instead of re-deriving `tol.max(1e-7)` ad hoc. (The name predates
    /// the single engine.)
    #[test]
    fn borderline_restart_classifies_consistently_across_backends() {
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(0.0, f64::INFINITY, 1.0);
            let y = p.add_var(0.0, f64::INFINITY, 4.0);
            p.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
            p.add_le(vec![(x, 1.0)], cap);
            p
        };
        // Optimum of build(20): x = 10, y = 0; the cap row's slack is
        // basic at cap − 10, so re-solving with cap = 10 − δ leaves the
        // restart point violated by exactly δ.
        let cold = build(20.0).solve().unwrap();
        let options = SimplexOptions::default();
        // δ below the 1e-7 feasibility floor: zeroed, not repaired.
        let near = build(10.0 - 5e-8).solve_warm_with(&options, Some(cold.basis())).unwrap();
        assert_eq!(near.warm_outcome(), WarmOutcome::Hit, "sub-tolerance restart is a hit");
        assert_eq!(near.phase1_pivots(), 0, "sub-tolerance violation must not trigger repair");
        // δ above the floor: repaired in place, still a hit.
        let repaired = build(10.0 - 1e-3).solve_warm_with(&options, Some(cold.basis())).unwrap();
        assert_eq!(repaired.warm_outcome(), WarmOutcome::Hit, "violated restart is repaired");
        assert!(repaired.phase1_pivots() >= 1, "real violation must cost repair pivots");
    }

    // --- Warm outcome accounting -----------------------------------------

    #[test]
    fn warm_outcome_partitions_the_paths() {
        let (p, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let options = SimplexOptions::default();
        let cold = p.solve_with(&options).unwrap();
        assert_eq!(cold.warm_outcome(), WarmOutcome::Cold);

        let warm = p.solve_warm_with(&options, Some(cold.basis())).unwrap();
        assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);

        // A basis from a different standardized shape: structural fallback.
        let (other, _, _) = phase1_heavy([1.0, 0.5, 0.2]);
        let mut bigger = other.clone();
        let z = bigger.add_var(0.0, f64::INFINITY, 1.0);
        bigger.add_ge(vec![(z, 1.0)], 1.0);
        let stale = bigger.solve_with(&options).unwrap();
        let fell_back = p.solve_warm_with(&options, Some(stale.basis())).unwrap();
        assert_eq!(fell_back.warm_outcome(), WarmOutcome::StructuralFallback);
        assert_near(fell_back.objective(), cold.objective());
    }

    // --- Pivot budget ----------------------------------------------------

    /// Regression (satellite of the sparse-engine PR): re-installing a
    /// warm basis performs one factorization pivot per row, and those
    /// pivots must not be charged against `max_pivots` — a basis with
    /// more rows than the whole pivot budget still installs and solves.
    /// (The factorization appends etas without touching the pivot
    /// counter; this pins that.)
    #[test]
    fn basis_install_is_not_charged_against_pivot_budget() {
        let (p, _, _) = phase1_heavy([10.0, 2.0, 3.0]);
        let cold = p.solve().unwrap();
        assert_eq!(cold.basis().num_rows(), 3, "basis has more rows than the budget below");
        let options = SimplexOptions { max_pivots: Some(0), ..SimplexOptions::default() };
        let warm = p
            .solve_warm_with(&options, Some(cold.basis()))
            .expect("identical restart needs zero simplex pivots, so a zero budget passes");
        assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);
        assert_eq!(warm.pivots(), 0);
    }

    #[test]
    fn auto_pivot_budget_formula_is_pinned() {
        assert_eq!(SimplexOptions::auto_pivot_budget(0, 0), 10_000);
        assert_eq!(SimplexOptions::auto_pivot_budget(7, 13), 200 * 20 + 10_000);
    }

    #[test]
    fn auto_budget_derives_from_standardized_dims_only() {
        // Regression: the budget must come from the standardized tableau
        // (bound rows + slack columns, no artificials), computed in one
        // place for cold and warm solves alike. This problem standardizes
        // differently from its user-facing shape: 2 vars / 2 constraints
        // become 3 rows (one bound row for the doubly-bounded x) and
        // 3 + 3 columns (x, y⁺, y⁻ structural? no: x shifted, y free →
        // 3 structural) + 3 slacks.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 5.0, 1.0); // shifted + bound row
        let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0); // free: 2 cols
        p.add_le(vec![(x, 1.0), (y, 1.0)], 10.0);
        p.add_ge(vec![(y, 1.0)], -3.0);
        let std_form = standardize(&p);
        let rows = std_form.rows.len();
        let cols = std_form.struct_and_slack;
        assert_eq!(rows, 3, "2 constraints + 1 bound row");
        assert_eq!(cols, 3 + 3, "x + y⁺ + y⁻ structural, 3 slack/surplus");
        assert_eq!(SimplexOptions::auto_pivot_budget(rows, cols), 200 * (rows + cols) + 10_000);
        // The budget is generous: the default options solve this within it.
        assert!(p.solve().unwrap().pivots() <= SimplexOptions::auto_pivot_budget(rows, cols));
    }
}
