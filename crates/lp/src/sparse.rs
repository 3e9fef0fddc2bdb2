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
//!    `y = B⁻ᵀc_B`; reduced costs `c_j − y·A_j` then cost one sparse
//!    dot per column, O(nnz(A)) for a full Dantzig pass, with Bland's
//!    anti-cycling rule after a degeneracy streak.
//! 2. **Ratio test.** One FTRAN gives the pivot direction
//!    `d = B⁻¹A_j`; ties on the ratio go to the smaller basis column.
//! 3. **Update.** The basic values update in place
//!    (`x_B ← x_B − θd`), and the pivot appends one eta — no tableau
//!    elimination at all.
//!
//! The eta file is rebuilt from the current basis columns every
//! [`REFACTOR_EVERY`] pivots, which bounds both the per-iteration solve
//! cost and the accumulated rounding error.
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
    /// Pricing is Dantzig's most-negative reduced cost, with Bland's
    /// smallest-index rule after a streak of degenerate pivots; leaving
    /// ties are broken on the smaller basis column.
    fn run(&mut self, cost: &[f64], allowed_cols: usize) -> Result<f64, LpError> {
        let m = self.matrix.num_rows();
        let mut y = vec![0.0; m];
        let mut dir = vec![0.0; m];
        let mut degenerate_streak = 0usize;
        loop {
            if self.etas.len() >= self.fresh_len + REFACTOR_EVERY {
                self.refactorize()?;
            }
            let use_bland = degenerate_streak > 64;
            // Simplex multipliers: y = B⁻ᵀ c_B (one BTRAN).
            for (i, v) in y.iter_mut().enumerate() {
                *v = cost[self.basis[i]];
            }
            self.etas.btran(&mut y);
            // Pricing: r_j = c_j − y·A_j, one sparse dot per column.
            let mut entering: Option<(usize, f64)> = None;
            for (j, &basic) in self.is_basic.iter().enumerate().take(allowed_cols) {
                if basic {
                    continue;
                }
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
            let Some((j, _)) = entering else {
                // Optimal. Recompute xb once through the eta file: the
                // FTRAN result carries less drift than the incrementally
                // updated values, and extraction reads xb directly.
                self.recompute_xb();
                let obj: f64 = (0..m).map(|i| cost[self.basis[i]] * self.xb[i]).sum();
                return Ok(obj);
            };
            // Pivot direction: d = B⁻¹ A_j (one FTRAN).
            dir.fill(0.0);
            for (i, a) in self.matrix.col(j) {
                dir[i] = a;
            }
            self.etas.ftran(&mut dir);
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
            if ratio <= self.tol {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
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
            self.is_basic[self.basis[r]] = false;
            self.is_basic[j] = true;
            self.etas.push_pivot(r, &dir, ETA_DROP_TOL);
            self.basis[r] = j;
            self.pivots += 1;
            if self.pivots > self.max_pivots {
                return Err(LpError::IterationLimit { limit: self.max_pivots });
            }
        }
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
