//! The sparse revised simplex: the engine behind every
//! [`crate::Problem`] solve.
//!
//! A dense tableau keeps the whole `B⁻¹A` matrix explicit and pays
//! O(rows × cols) per pivot to maintain it. This engine instead stores
//! the standardized constraint matrix once — immutably, in compressed
//! sparse column ([`Csc`]) form — and reconstructs only what a pivot
//! actually needs from an eta-file factorization of the basis
//! (`crate::factor`):
//!
//! 1. **Pricing.** One BTRAN gives the simplex multipliers
//!    `y = B⁻ᵀc_B`; the entering column is Dantzig's most negative
//!    reduced cost `c_j − y·A_j`, with Bland's anti-cycling rule after a
//!    degeneracy streak. Until a solve phase first refactorizes, every
//!    column is priced with one sparse dot. From then on the engine
//!    tracks approximate reduced costs ([`Tracked`]): each pivot moves
//!    them by `−Δy·A_j` along a row-wise copy of the matrix, visiting
//!    only the rows whose multiplier changed, and re-prices exactly just
//!    the few columns within a proven error bound of the minimum. The
//!    choice is the full pass's, bit for bit.
//! 2. **Ratio test.** One FTRAN gives the pivot direction
//!    `d = B⁻¹A_j`; ties on the ratio go to the smaller basis column.
//! 3. **Update.** The basic values update in place
//!    (`x_B ← x_B − θd`), and the pivot appends one eta — no tableau
//!    elimination at all.
//!
//! The eta file is rebuilt from the current basis columns every
//! [`REFACTOR_EVERY`] pivots, which bounds both the per-iteration solve
//! cost and the accumulated rounding error; each rebuild also re-prices
//! every column exactly, which bounds the tracked values' drift.
//!
//! Warm starts refactorize the supplied basis from scratch (a structural
//! mismatch, a retained artificial or a singular basis is rejected), and
//! a restart the new RHS pushed outside the polytope is repaired by
//! swapping each violated row's basic column for an artificial equal to
//! its *negation* — which keeps the basis factorization valid at the
//! cost of one sign-flip eta per violated row — then minimizing the
//! artificial sum from that start.
//!
//! The pricing and ratio-test rules are the test-only dense oracle's
//! (`crate::dense`), whose property tests hold this engine's objectives
//! to the tableau's.

use crate::factor::{factorize, EtaFile};
use crate::problem::Problem;
use crate::simplex::{
    extract, phase2_cost, standardize, Basis, SimplexOptions, Solution, Standardized, WarmOutcome,
};
use crate::LpError;

/// Rebuild the eta file after this many pivots since the last rebuild.
/// Beyond this point the growing file costs more per FTRAN/BTRAN than a
/// fresh sparsity-ordered factorization does.
const REFACTOR_EVERY: usize = 64;

/// Off-pivot eta magnitudes at or below this are dropped (fill-in
/// control); comfortably below the solver's pivot tolerance so no real
/// elimination work is lost.
const ETA_DROP_TOL: f64 = 1e-12;

/// A compressed-sparse-column matrix. Columns can be appended (the
/// phase-1 artificials), never modified.
#[derive(Debug, Clone)]
pub(crate) struct Csc {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csc {
    /// Transposes sparse rows (`(col, value)` pairs, duplicate-free)
    /// into column-major storage via a counting sort.
    pub(crate) fn from_rows(rows: &[Vec<(usize, f64)>], ncols: usize) -> Csc {
        let nrows = rows.len();
        let mut col_ptr = vec![0usize; ncols + 1];
        for row in rows {
            for &(j, _) in row {
                col_ptr[j + 1] += 1;
            }
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[ncols];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut cursor = col_ptr.clone();
        for (i, row) in rows.iter().enumerate() {
            for &(j, a) in row {
                let k = cursor[j];
                cursor[j] += 1;
                row_idx[k] = i;
                values[k] = a;
            }
        }
        Csc { nrows, col_ptr, row_idx, values }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.nrows
    }

    pub(crate) fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    pub(crate) fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Iterates the `(row, value)` entries of column `j`.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// The transpose of the first `cols` columns: its column `i` lists
    /// row `i`'s `(column, value)` entries in column order.
    fn transpose(&self, cols: usize) -> Csc {
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for &i in &self.row_idx[..self.col_ptr[cols]] {
            col_ptr[i + 1] += 1;
        }
        for i in 0..self.nrows {
            col_ptr[i + 1] += col_ptr[i];
        }
        let nnz = col_ptr[self.nrows];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut cursor = col_ptr.clone();
        for j in 0..cols {
            for (i, a) in self.col(j) {
                let k = cursor[i];
                cursor[i] += 1;
                row_idx[k] = j;
                values[k] = a;
            }
        }
        Csc { nrows: cols, col_ptr, row_idx, values }
    }

    /// Appends a column holding `entries` and returns its index.
    pub(crate) fn push_col(&mut self, entries: &[(usize, f64)]) -> usize {
        for &(i, a) in entries {
            debug_assert!(i < self.nrows);
            self.row_idx.push(i);
            self.values.push(a);
        }
        self.col_ptr.push(self.row_idx.len());
        self.col_ptr.len() - 2
    }
}

/// Tracked reduced costs: `d̃_j ≈ r_j = c_j − y·A_j` for every priced
/// nonbasic column `j`, kept consistent with the multipliers of the
/// latest pivot. Basic columns hold `+∞`, so the scan for the minimum
/// needs no basis test.
///
/// A refresh (each refactorization, and each Bland pivot) sets `d̃`
/// exactly, and a column leaving the basis is priced exactly at its
/// pivot. In between, each pivot scatters `Δy = y − y_prev` along the
/// row-wise copy `rows`, from the rows whose multiplier changed. So `d̃`
/// drifts from `r` by rounding alone. Write `S = 1 + max|c| +
/// max|y|·max‖A_j‖₁`, with `max|y|` over the pivots since the refresh.
/// Each of at most [`REFACTOR_EVERY`] pivots adds to `d̃_j` an error
/// below `(nnz(A_j) + 2)·3S·2⁻⁵³`, and the two exact dots it is compared
/// through carry less still, so the drift stays below
/// `3e-14·(nnz(A_j) + 2)·S`. [`Tracked::delta`] is over 300
/// times that. With every `|d̃_j − r_j| ≤ δ`, the exact argmin of `r` —
/// and so the optimality test — lies among the columns whose `d̃_j` is
/// within `2δ` of `min d̃`.
struct Tracked {
    /// Row-wise copy of the priced columns.
    rows: Csc,
    /// `d̃_j` per priced column, `+∞` for a basic one.
    d: Vec<f64>,
    /// The multipliers `d` is consistent with.
    y: Vec<f64>,
    /// `max|y_i|` over every `y` since the last refresh.
    y_max: f64,
    /// `1e-11·(max nnz(A_j) + 2)`: δ per unit of scale.
    unit: f64,
    /// `1 + max|c_j|` over the priced columns.
    cost_scale: f64,
    /// `max‖A_j‖₁` over the priced columns.
    col_norm: f64,
    /// The columns within `2δ` of `min d̃`, in index order.
    candidates: Vec<usize>,
}

impl Tracked {
    /// Starts tracking the first `cols` columns at `y = 0`, where each
    /// reduced cost is exactly `c_j`.
    #[inline(never)]
    fn new(matrix: &Csc, cost: &[f64], cols: usize) -> Tracked {
        let mut max_nnz = 0usize;
        let mut col_norm = 0.0f64;
        for j in 0..cols {
            max_nnz = max_nnz.max(matrix.col_nnz(j));
            col_norm = col_norm.max(matrix.col(j).map(|(_, a)| a.abs()).sum());
        }
        Tracked {
            rows: matrix.transpose(cols),
            d: cost[..cols].to_vec(),
            y: vec![0.0; matrix.num_rows()],
            y_max: 0.0,
            unit: 1e-11 * (max_nnz as f64 + 2.0),
            cost_scale: 1.0 + cost[..cols].iter().fold(0.0f64, |acc, c| acc.max(c.abs())),
            col_norm,
            candidates: Vec::new(),
        }
    }

    /// Moves `d̃` to the multipliers `y` by `−Δy·A_j`, visiting only the
    /// rows whose multiplier changed.
    fn advance(&mut self, y: &[f64]) {
        for (i, (&yi, prev)) in y.iter().zip(self.y.iter_mut()).enumerate() {
            let dy = yi - *prev;
            if dy != 0.0 {
                *prev = yi;
                self.y_max = self.y_max.max(yi.abs());
                for (j, a) in self.rows.col(i) {
                    self.d[j] -= dy * a;
                }
            }
        }
    }

    /// The bound δ on `|d̃_j − r_j|` (see [`Tracked`]).
    fn delta(&self) -> f64 {
        self.unit * (self.cost_scale + self.y_max * self.col_norm)
    }
}

#[cfg(test)]
thread_local! {
    /// Pivots priced from tracked values on this thread.
    static TRACKED_PIVOTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Refreshes of the tracked values by a Bland pivot on this thread.
    static BLAND_REFRESHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Dantzig's rule over `(column, reduced cost)` pairs in increasing
/// column order: the most negative reduced cost below `−tol`, the first
/// on ties; under Bland's rule, the first below `−tol`.
fn choose(
    columns: impl Iterator<Item = (usize, f64)>,
    tol: f64,
    use_bland: bool,
) -> Option<(usize, f64)> {
    let mut entering: Option<(usize, f64)> = None;
    for (j, r) in columns {
        if r >= -tol {
            continue;
        }
        if use_bland {
            return Some((j, r)); // first (smallest) index
        }
        if entering.is_none_or(|(_, best)| r < best) {
            entering = Some((j, r));
        }
    }
    entering
}

/// Revised-simplex working state: the (artificial-extended) matrix, the
/// current basis with its eta-file factorization, and the basic values.
struct Revised {
    matrix: Csc,
    /// Standardized right-hand side (for recomputing `xb` on refactor).
    b: Vec<f64>,
    /// Basic column per pivot row.
    basis: Vec<usize>,
    /// Current basic values, kept ≥ 0 up to the feasibility tolerance.
    xb: Vec<f64>,
    etas: EtaFile,
    /// Eta-file length right after the last (re)factorization.
    fresh_len: usize,
    is_basic: Vec<bool>,
    tol: f64,
    feas: f64,
    pivots: usize,
    max_pivots: usize,
}

impl Revised {
    fn new(
        matrix: Csc,
        b: Vec<f64>,
        basis: Vec<usize>,
        xb: Vec<f64>,
        etas: EtaFile,
        options: &SimplexOptions,
        max_pivots: usize,
    ) -> Revised {
        let mut is_basic = vec![false; matrix.num_cols()];
        for &j in &basis {
            is_basic[j] = true;
        }
        let fresh_len = etas.len();
        Revised {
            matrix,
            b,
            basis,
            xb,
            etas,
            fresh_len,
            is_basic,
            tol: options.tolerance,
            feas: options.feas_tol(),
            pivots: 0,
            max_pivots,
        }
    }

    /// Recomputes `xb = B⁻¹b` through the current eta file, clamping
    /// sub-tolerance negatives to zero.
    fn recompute_xb(&mut self) {
        self.xb.copy_from_slice(&self.b);
        self.etas.ftran(&mut self.xb);
        for v in &mut self.xb {
            if *v < 0.0 && *v >= -self.feas {
                *v = 0.0;
            }
        }
    }

    /// Rebuilds the eta file from the current basis columns and
    /// recomputes the basic values from scratch.
    fn refactorize(&mut self) -> Result<(), LpError> {
        match factorize(&self.matrix, &self.basis, self.tol, ETA_DROP_TOL) {
            Some((etas, basis_by_row)) => {
                self.etas = etas;
                self.basis = basis_by_row;
                self.fresh_len = self.etas.len();
                self.recompute_xb();
                Ok(())
            }
            // The basis was nonsingular when its pivots were accepted, so
            // reaching this means rounding error has degraded it beyond
            // use — surface it rather than loop on a broken factorization.
            None => Err(LpError::SingularBasis),
        }
    }

    /// Runs primal simplex minimizing `cost`, allowing only columns
    /// `< allowed_cols` to enter the basis. Returns the objective value.
    /// Pricing is Dantzig's most-negative reduced cost (lowest index on
    /// ties), with Bland's smallest-index rule after a streak of
    /// degenerate pivots; leaving ties are broken on the smaller basis
    /// column. Up to the run's first refactorization every pivot prices
    /// all columns ([`Revised::price_full`]); from there on
    /// [`Revised::run_tracked`] tracks the reduced costs. Both pick the
    /// same column.
    fn run(&mut self, cost: &[f64], allowed_cols: usize) -> Result<f64, LpError> {
        let m = self.matrix.num_rows();
        let mut y = vec![0.0; m];
        let mut dir = vec![0.0; m];
        let mut degenerate_streak = 0usize;
        loop {
            if self.etas.len() >= self.fresh_len + REFACTOR_EVERY {
                self.refactorize()?;
                let tracked = Tracked::new(&self.matrix, cost, allowed_cols);
                return self.run_tracked(cost, allowed_cols, tracked, degenerate_streak);
            }
            let use_bland = degenerate_streak > 64;
            self.multipliers(cost, &mut y);
            let Some((j, _)) = self.price_full(cost, &y, allowed_cols, use_bland) else {
                return Ok(self.finish(cost));
            };
            let (_, ratio) = self.pivot(j, &mut dir)?;
            degenerate_streak = if ratio <= self.tol { degenerate_streak + 1 } else { 0 };
            if self.pivots > self.max_pivots {
                return Err(LpError::IterationLimit { limit: self.max_pivots });
            }
        }
    }

    /// [`Revised::run`] from its first refactorization on, with the
    /// degenerate streak carried across: prices from the tracked values
    /// `t`, refreshed in full at each refactorization and each Bland
    /// pivot ([`Revised::refresh`]). The tracking code is kept out of
    /// line (here, in `pivot` and in `Tracked::new`): inlined into `run`,
    /// it measured slower on the small solves that never engage it.
    #[inline(never)]
    fn run_tracked(
        &mut self,
        cost: &[f64],
        allowed_cols: usize,
        mut t: Tracked,
        mut degenerate_streak: usize,
    ) -> Result<f64, LpError> {
        let m = self.matrix.num_rows();
        let mut y = vec![0.0; m];
        let mut dir = vec![0.0; m];
        let mut refresh = true; // entered right after a refactorization
        loop {
            if self.etas.len() >= self.fresh_len + REFACTOR_EVERY {
                self.refactorize()?;
                refresh = true;
            }
            let use_bland = degenerate_streak > 64;
            self.multipliers(cost, &mut y);
            let entering = if refresh || use_bland {
                self.refresh(&mut t, cost, &y, allowed_cols, use_bland)
            } else {
                self.price_tracked(&mut t, cost, &y, allowed_cols)
            };
            refresh = false;
            let Some((j, _)) = entering else {
                return Ok(self.finish(cost));
            };
            let (left, ratio) = self.pivot(j, &mut dir)?;
            degenerate_streak = if ratio <= self.tol { degenerate_streak + 1 } else { 0 };
            // The entering column is basic now; the leaving one is priced
            // exactly, at the multipliers `t` holds.
            t.d[j] = f64::INFINITY;
            if left < allowed_cols {
                t.d[left] = self.reduced_cost(cost, &y, left);
            }
            if self.pivots > self.max_pivots {
                return Err(LpError::IterationLimit { limit: self.max_pivots });
            }
        }
    }

    /// The simplex multipliers `y = B⁻ᵀc_B` (one BTRAN).
    fn multipliers(&self, cost: &[f64], y: &mut [f64]) {
        for (i, v) in y.iter_mut().enumerate() {
            *v = cost[self.basis[i]];
        }
        self.etas.btran(y);
    }

    /// At the optimum: recomputes `xb` once through the eta file (the
    /// FTRAN result carries less drift than the incrementally updated
    /// values, and extraction reads `xb` directly) and returns the
    /// objective.
    fn finish(&mut self, cost: &[f64]) -> f64 {
        self.recompute_xb();
        self.basis.iter().zip(&self.xb).map(|(&j, &x)| cost[j] * x).sum()
    }

    /// Brings column `j` into the basis: one FTRAN for the direction
    /// `d = B⁻¹A_j` (left in `dir`), the ratio test, the basic-value
    /// update and one eta. Returns the leaving column and the step θ.
    #[inline(never)]
    fn pivot(&mut self, j: usize, dir: &mut [f64]) -> Result<(usize, f64), LpError> {
        dir.fill(0.0);
        for (i, a) in self.matrix.col(j) {
            dir[i] = a;
        }
        self.etas.ftran(dir);
        // Ratio test with Bland tie-breaking on the leaving basis
        // column index (as in the dense oracle).
        let mut leave: Option<(usize, f64)> = None;
        for (i, &d) in dir.iter().enumerate() {
            if d > self.tol {
                let ratio = self.xb[i].max(0.0) / d;
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
        let Some((r, ratio)) = leave else {
            return Err(LpError::Unbounded);
        };
        // Update basic values: x_B ← x_B − θd, entering takes θ.
        for (v, &d) in self.xb.iter_mut().zip(dir.iter()) {
            if d != 0.0 {
                *v -= ratio * d;
                if *v < 0.0 && *v >= -self.feas {
                    *v = 0.0;
                }
            }
        }
        self.xb[r] = ratio;
        let left = self.basis[r];
        self.is_basic[left] = false;
        self.is_basic[j] = true;
        self.etas.push_pivot(r, dir, ETA_DROP_TOL);
        self.basis[r] = j;
        self.pivots += 1;
        Ok((left, ratio))
    }

    /// `c_j − y·A_j`: one sparse dot in column order. Every pricing path
    /// computes a reduced cost with these operations ([`Revised::price_full`]
    /// spells them out), so they agree bit for bit.
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut dot = 0.0;
        for (i, a) in self.matrix.col(j) {
            dot += y[i] * a;
        }
        cost[j] - dot
    }

    /// Prices every nonbasic column `< allowed_cols` with one sparse dot
    /// each and returns the entering column with its reduced cost, by
    /// [`choose`]'s rule. Written out and inlined: the small LPs of the
    /// closed loop rarely refactorize, and measured slower through an
    /// iterator or a call.
    #[inline(always)]
    fn price_full(
        &self,
        cost: &[f64],
        y: &[f64],
        allowed_cols: usize,
        use_bland: bool,
    ) -> Option<(usize, f64)> {
        let mut entering: Option<(usize, f64)> = None;
        for (j, &basic) in self.is_basic.iter().enumerate().take(allowed_cols) {
            if basic {
                continue;
            }
            // The dot of `reduced_cost`, spelled out.
            let mut dot = 0.0;
            for (i, a) in self.matrix.col(j) {
                dot += y[i] * a;
            }
            let r = cost[j] - dot;
            if r >= -self.tol {
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
        entering
    }

    /// [`Revised::price_full`] that also refreshes the tracked values:
    /// every nonbasic column's exact reduced cost, `+∞` for a basic one.
    /// Under `debug_assertions` it first checks each value's drift
    /// against the exact price at the multipliers it was tracked to.
    #[inline(never)]
    fn refresh(
        &self,
        t: &mut Tracked,
        cost: &[f64],
        y: &[f64],
        allowed_cols: usize,
        use_bland: bool,
    ) -> Option<(usize, f64)> {
        #[cfg(test)]
        if use_bland {
            BLAND_REFRESHES.with(|n| n.set(n.get() + 1));
        }
        let drift_limit = 1e-3 * t.delta();
        for (j, &basic) in self.is_basic.iter().enumerate().take(allowed_cols) {
            if basic {
                t.d[j] = f64::INFINITY;
                continue;
            }
            if cfg!(debug_assertions) {
                let drift = t.d[j] - self.reduced_cost(cost, &t.y, j);
                debug_assert!(drift.abs() <= drift_limit, "column {j} drifted by {drift:e}");
            }
            t.d[j] = self.reduced_cost(cost, y, j);
        }
        t.y.copy_from_slice(y);
        t.y_max = y.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        choose(t.d.iter().copied().enumerate(), self.tol, use_bland)
    }

    /// [`Revised::price_full`]'s Dantzig choice from the tracked values:
    /// moves `d̃` by `−Δy·A_j`, finds `min d̃` and the columns within `2δ`
    /// of it in one scan, and re-prices just those exactly.
    #[inline(never)]
    fn price_tracked(
        &self,
        t: &mut Tracked,
        cost: &[f64],
        y: &[f64],
        allowed_cols: usize,
    ) -> Option<(usize, f64)> {
        #[cfg(test)]
        TRACKED_PIVOTS.with(|n| n.set(n.get() + 1));
        t.advance(y);
        // One scan keeps every column within 2δ of the running minimum;
        // those the final minimum leaves behind are skipped below.
        let window = 2.0 * t.delta();
        let mut min = f64::INFINITY;
        let mut limit = f64::MAX; // basic columns (+∞) never qualify
        t.candidates.clear();
        for (j, &dj) in t.d.iter().enumerate() {
            if dj <= limit {
                if dj < min - window {
                    t.candidates.clear(); // all beyond the new limit
                }
                if dj < min {
                    min = dj;
                    limit = min + window;
                }
                t.candidates.push(j);
            }
        }
        let candidates = t.candidates.iter().filter(|&&j| t.d[j] <= limit);
        let entering =
            choose(candidates.map(|&j| (j, self.reduced_cost(cost, y, j))), self.tol, false);
        debug_assert_eq!(
            entering.map(|(j, _)| j),
            self.price_full(cost, y, allowed_cols, false).map(|(j, _)| j),
            "tracked pricing must choose the full pass's column"
        );
        entering
    }

    /// After a successful phase 1, swaps still-basic artificials for
    /// structural/slack columns where one is available; redundant rows
    /// keep their artificial basic at value 0 (barred from entering
    /// phase 2 by `allowed_cols`). These degenerate swaps are factorization bookkeeping and are not
    /// charged against the pivot budget.
    fn drive_out_artificials(&mut self, art_start: usize) {
        let m = self.matrix.num_rows();
        let mut rho = vec![0.0; m];
        let mut dir = vec![0.0; m];
        for r in 0..m {
            if self.basis[r] < art_start {
                continue;
            }
            // Row r of B⁻¹A is ρᵀA with ρ = B⁻ᵀe_r: one BTRAN, then one
            // sparse dot per candidate column — the sparse equivalent of
            // scanning the dense tableau row.
            rho.fill(0.0);
            rho[r] = 1.0;
            self.etas.btran(&mut rho);
            let mut found = None;
            for j in 0..art_start {
                if self.is_basic[j] {
                    continue;
                }
                let mut dot = 0.0;
                for (i, a) in self.matrix.col(j) {
                    dot += rho[i] * a;
                }
                if dot.abs() > self.tol {
                    found = Some(j);
                    break;
                }
            }
            let Some(j) = found else {
                continue; // redundant row
            };
            dir.fill(0.0);
            for (i, a) in self.matrix.col(j) {
                dir[i] = a;
            }
            self.etas.ftran(&mut dir);
            if dir[r].abs() <= self.tol {
                continue; // numerically vanished; treat as redundant
            }
            // The artificial sits at value 0, so the swap is degenerate:
            // θ = 0 and no basic value moves.
            self.is_basic[self.basis[r]] = false;
            self.is_basic[j] = true;
            self.etas.push_pivot(r, &dir, ETA_DROP_TOL);
            self.basis[r] = j;
            self.xb[r] = 0.0;
        }
    }

    /// Maps the current basic point back to user space.
    fn extract_solution(
        &self,
        p: &Problem,
        std_form: &Standardized,
        phase1_pivots: usize,
        warm: WarmOutcome,
    ) -> Solution {
        let mut col_values = vec![0.0; self.matrix.num_cols()];
        for (i, &j) in self.basis.iter().enumerate() {
            col_values[j] = self.xb[i].max(0.0);
        }
        extract(p, std_form, &col_values, &self.basis, self.pivots, phase1_pivots, warm)
    }
}

/// Solves `p`, warm-starting from `warm` when one is given (see
/// [`crate::Problem::solve_warm_with`]).
pub(crate) fn solve_sparse(
    p: &Problem,
    options: &SimplexOptions,
    warm: Option<&Basis>,
) -> Result<Solution, LpError> {
    let std_form = standardize(p);
    let m = std_form.rows.len();
    let struct_and_slack = std_form.struct_and_slack;
    let max_pivots = options
        .max_pivots
        .unwrap_or_else(|| SimplexOptions::auto_pivot_budget(m, struct_and_slack));

    let mut warm_outcome = WarmOutcome::Cold;
    if let Some(basis) = warm {
        match try_warm(p, &std_form, basis, options, max_pivots)? {
            WarmAttempt::Solved(solution) => return Ok(solution),
            WarmAttempt::RepairFailed => warm_outcome = WarmOutcome::RepairFallback,
            WarmAttempt::NotInstalled => warm_outcome = WarmOutcome::StructuralFallback,
        }
    }
    solve_cold(p, &std_form, options, max_pivots, warm_outcome)
}

enum WarmAttempt {
    Solved(Solution),
    /// Installed but the repair phase 1 bottomed out above tolerance.
    RepairFailed,
    /// Dimension mismatch, retained artificial, or singular basis.
    NotInstalled,
}

fn try_warm(
    p: &Problem,
    std_form: &Standardized,
    basis: &Basis,
    options: &SimplexOptions,
    max_pivots: usize,
) -> Result<WarmAttempt, LpError> {
    let m = std_form.rows.len();
    let struct_and_slack = std_form.struct_and_slack;
    let feas = options.feas_tol();
    if basis.cols.len() != m || basis.n_cols != struct_and_slack {
        return Ok(WarmAttempt::NotInstalled); // structural change
    }
    if basis.cols.iter().any(|&j| j >= struct_and_slack) {
        return Ok(WarmAttempt::NotInstalled); // artificial stayed basic
    }
    let mut matrix = Csc::from_rows(&std_form.rows, struct_and_slack);
    let Some((mut etas, mut basis_by_row)) =
        factorize(&matrix, &basis.cols, options.tolerance, ETA_DROP_TOL)
    else {
        return Ok(WarmAttempt::NotInstalled); // singular for the new A
    };
    let mut xb = std_form.b.clone();
    etas.ftran(&mut xb);
    // Rows where the restart point B⁻¹b went negative: the previous
    // vertex is outside today's polytope (RHS moved against it).
    let violated: Vec<usize> = (0..m).filter(|&i| xb[i] < -feas).collect();
    for v in &mut xb {
        if *v < 0.0 && *v >= -feas {
            *v = 0.0;
        }
    }

    if violated.is_empty() {
        let cost = phase2_cost(p, &std_form.maps, struct_and_slack);
        let mut rev =
            Revised::new(matrix, std_form.b.clone(), basis_by_row, xb, etas, options, max_pivots);
        rev.run(&cost, struct_and_slack)?;
        return Ok(WarmAttempt::Solved(rev.extract_solution(p, std_form, 0, WarmOutcome::Hit)));
    }

    // Repair: swap each violated row's basic column for an artificial
    // equal to its negation. The new basis is the old one with those
    // columns sign-flipped — one sign-flip eta each keeps the
    // factorization valid — and the restart point becomes |x_B| ≥ 0 by
    // construction. Minimizing the artificial sum from that start is an
    // ordinary phase 1 seeded with a basis already optimal everywhere
    // else, so it costs pivots proportional to the damage.
    let mut col_buf: Vec<(usize, f64)> = Vec::new();
    for &i in &violated {
        col_buf.clear();
        for (r, a) in matrix.col(basis_by_row[i]) {
            col_buf.push((r, -a));
        }
        let art = matrix.push_col(&col_buf);
        etas.push_sign_flip(i);
        basis_by_row[i] = art;
        xb[i] = -xb[i];
    }
    let total = matrix.num_cols();
    let mut cost = vec![0.0; total];
    for c in cost.iter_mut().skip(struct_and_slack) {
        *c = 1.0;
    }
    let mut rev =
        Revised::new(matrix, std_form.b.clone(), basis_by_row, xb, etas, options, max_pivots);
    let obj = rev.run(&cost, total)?;
    if obj > feas {
        return Ok(WarmAttempt::RepairFailed); // cold solve decides
    }
    rev.drive_out_artificials(struct_and_slack);
    let phase1_pivots = rev.pivots;
    let cost = phase2_cost(p, &std_form.maps, total);
    rev.run(&cost, struct_and_slack)?;
    Ok(WarmAttempt::Solved(rev.extract_solution(p, std_form, phase1_pivots, WarmOutcome::Hit)))
}

fn solve_cold(
    p: &Problem,
    std_form: &Standardized,
    options: &SimplexOptions,
    max_pivots: usize,
    warm_outcome: WarmOutcome,
) -> Result<Solution, LpError> {
    let struct_and_slack = std_form.struct_and_slack;
    let mut matrix = Csc::from_rows(&std_form.rows, struct_and_slack);
    // Initial basis: ready slacks where available, fresh artificial unit
    // columns elsewhere. Both are unit columns, so B = I and the eta
    // file starts empty with x_B = b.
    let mut n_art = 0usize;
    let mut basis: Vec<usize> = Vec::with_capacity(std_form.rows.len());
    for (i, ready) in std_form.ready_basis.iter().enumerate() {
        match ready {
            Some(col) => basis.push(*col),
            None => {
                basis.push(matrix.push_col(&[(i, 1.0)]));
                n_art += 1;
            }
        }
    }
    let total = matrix.num_cols();
    let xb = std_form.b.clone();
    let mut rev = Revised::new(
        matrix,
        std_form.b.clone(),
        basis,
        xb,
        EtaFile::identity(),
        options,
        max_pivots,
    );

    // Phase 1: minimize sum of artificials.
    if n_art > 0 {
        let mut cost = vec![0.0; total];
        for c in cost.iter_mut().skip(struct_and_slack) {
            *c = 1.0;
        }
        let obj = rev.run(&cost, total)?;
        if obj > options.feas_tol() {
            return Err(LpError::Infeasible);
        }
        rev.drive_out_artificials(struct_and_slack);
    }

    let phase1_pivots = rev.pivots;

    // Phase 2: minimize the (sign-adjusted) user objective over
    // structural+slack columns only.
    let cost = phase2_cost(p, &std_form.maps, total);
    rev.run(&cost, struct_and_slack)?;

    Ok(rev.extract_solution(p, std_form, phase1_pivots, warm_outcome))
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::{BLAND_REFRESHES, TRACKED_PIVOTS};
    use crate::dense::solve_dense;
    use crate::{Problem, Sense, SimplexOptions, Solution, WarmOutcome};

    /// Maximize `c·x` over `Ax ≤ b`, `x ≥ 0`, each column with entries
    /// in three distinct rows. Columns come in threes: a column, an
    /// exact copy (a tie the lowest index must win) and a copy worth one
    /// ulp more (a near tie only the exact reduced cost tells apart).
    fn tied_lp(rows: usize, triples: usize, b: &[f64]) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut p = Problem::new(Sense::Maximize);
        let mut terms = vec![Vec::new(); rows];
        for k in 0..triples {
            let c: f64 = rng.gen_range(1.0..10.0);
            let mut entries: Vec<(usize, f64)> = Vec::new();
            while entries.len() < 3 {
                let i = rng.gen_range(0..rows);
                if entries.iter().all(|&(e, _)| e != i) {
                    entries.push((i, rng.gen_range(0.5..2.0)));
                }
            }
            for (copy, obj) in [c, c, c + c * f64::EPSILON].into_iter().enumerate() {
                let x = p.add_var(format!("x{k}_{copy}"), 0.0, f64::INFINITY, obj);
                for &(i, a) in &entries {
                    terms[i].push((x, a));
                }
            }
        }
        for (row, &rhs) in terms.into_iter().zip(b) {
            p.add_le(row, rhs);
        }
        p
    }

    /// Solves with the engine, counting the pivots priced from tracked
    /// values and the Bland refreshes, and checks the objective against
    /// the dense oracle's.
    fn solve_counted(p: &Problem, warm: Option<&Solution>) -> (Solution, usize, usize) {
        let count = || (TRACKED_PIVOTS.with(|n| n.get()), BLAND_REFRESHES.with(|n| n.get()));
        let before = count();
        let options = SimplexOptions::default();
        let solution = p.solve_warm_with(&options, warm.map(Solution::basis)).unwrap();
        let after = count();
        let oracle = solve_dense(p, &options).unwrap().objective();
        assert!(
            (solution.objective() - oracle).abs() <= 1e-9 * oracle.abs(),
            "{} against the oracle's {oracle}",
            solution.objective()
        );
        (solution, after.0 - before.0, after.1 - before.1)
    }

    /// Under `debug_assertions` every tracked pivot is checked against
    /// the full pass, and each refresh checks the drift. This LP runs
    /// long enough for several refreshes, its ties and near ties decide
    /// pivots, and its zero right-hand sides make the warm solve's
    /// repair phase 1 degenerate for long enough to engage Bland's rule.
    #[test]
    fn tracked_pricing_takes_the_full_pass_pivots() {
        const ROWS: usize = 150;
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let b: Vec<f64> =
            (0..ROWS).map(|i| if i % 3 == 0 { rng.gen_range(10.0..100.0) } else { 0.0 }).collect();
        let (cold, tracked, _) = solve_counted(&tied_lp(ROWS, 600, &b), None);
        assert!(cold.pivots() >= 130, "{} pivots: fewer than two refactorizations", cold.pivots());
        assert!(tracked > 0, "no tracked pivot in {} pivots", cold.pivots());

        // Shrink half the capacities: the old vertex violates rows, and
        // the repair phase 1 prices its artificials too.
        let shrunk: Vec<f64> =
            b.iter().map(|&v| if rng.gen_bool(0.5) { 0.2 * v } else { v }).collect();
        let (warm, tracked, bland) = solve_counted(&tied_lp(ROWS, 600, &shrunk), Some(&cold));
        assert_eq!(warm.warm_outcome(), WarmOutcome::Hit);
        assert!(warm.phase1_pivots() > 70, "repair phase 1 of {}", warm.phase1_pivots());
        assert!(tracked > 0 && bland > 0, "{tracked} tracked pivots, {bland} Bland refreshes");
    }
}
