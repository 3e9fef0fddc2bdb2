//! Product-form basis factorization for the sparse revised simplex.
//!
//! The basis inverse is never formed explicitly. It is carried as an
//! *eta file* — a product `B⁻¹ = Eₖ·…·E₂·E₁` of elementary matrices,
//! each an identity with one column replaced — exactly the quantities a
//! simplex pivot produces for free. Solving with the basis then costs
//! one pass over the file:
//!
//! * **FTRAN** (`B·x = v`, used for pivot directions and basic values)
//!   applies the etas oldest-first: `x ← Eᵢ·x`, each application a
//!   scatter of the eta column scaled by the pivot-row value.
//! * **BTRAN** (`Bᵀ·y = v`, used for pricing) applies them newest-first:
//!   `y ← Eᵢᵀ·y`, each application a single sparse dot product that
//!   overwrites the pivot-row entry.
//!
//! Every simplex pivot appends one eta, so solves slow down and rounding
//! error accumulates as the file grows; [`factorize`] rebuilds the file
//! from the current basis columns — sparsest column first, partial
//! pivoting over the unassigned rows — which both compacts the file and
//! restores numerical accuracy. The engine calls it every
//! `REFACTOR_EVERY` pivots (see `crate::sparse`). Each column's FTRAN
//! runs sparsely, visiting only the etas and rows it actually touches,
//! so a rebuild costs time proportional to that fill rather than to
//! `m²` for `m` rows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sparse::Csc;

/// One product-form elementary matrix: an identity whose column
/// [`Eta::row`] is replaced by the sparse [`Eta::entries`].
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    /// The pivot row (the replaced column of the identity).
    row: usize,
    /// `(row, value)` pairs of the replacement column, the pivot-row
    /// (diagonal) entry always present.
    entries: Vec<(usize, f64)>,
}

/// An eta file representing `B⁻¹` as a product of [`Eta`] matrices.
#[derive(Debug, Clone)]
pub(crate) struct EtaFile {
    etas: Vec<Eta>,
}

impl EtaFile {
    /// The empty file: `B⁻¹ = I`.
    pub(crate) fn identity() -> Self {
        EtaFile { etas: Vec::new() }
    }

    /// Number of eta matrices in the file.
    pub(crate) fn len(&self) -> usize {
        self.etas.len()
    }

    /// Appends the eta that pivots direction `dir` (= `B⁻¹·a` for the
    /// entering column `a`) on `pivot_row`: `η_r = 1/d_r`,
    /// `η_i = −d_i/d_r` elsewhere. Off-pivot magnitudes at or below
    /// `drop_tol` are dropped to bound fill-in; the diagonal entry is
    /// always kept.
    pub(crate) fn push_pivot(&mut self, pivot_row: usize, dir: &[f64], drop_tol: f64) {
        let eta = pivot_eta(pivot_row, dir[pivot_row], dir.iter().copied().enumerate(), drop_tol);
        self.etas.push(eta);
    }

    /// Appends a diagonal sign flip at `row` (`η_r = −1`). The
    /// warm-restart repair uses this: replacing a basic column with its
    /// negation turns `B` into `B·S` for a diagonal sign matrix `S`, so
    /// the new inverse is one sign-flip eta ahead of the old one.
    pub(crate) fn push_sign_flip(&mut self, row: usize) {
        self.etas.push(Eta { row, entries: vec![(row, -1.0)] });
    }

    /// FTRAN: overwrites dense `v` with `B⁻¹v`, applying the etas
    /// oldest-first. Cost: one scatter per eta whose pivot-row value is
    /// nonzero.
    pub(crate) fn ftran(&self, v: &mut [f64]) {
        for eta in &self.etas {
            let f = v[eta.row];
            if f == 0.0 {
                continue;
            }
            for &(i, e) in &eta.entries {
                if i == eta.row {
                    v[i] = e * f;
                } else {
                    v[i] += e * f;
                }
            }
        }
    }

    /// BTRAN: overwrites dense `v` with `B⁻ᵀv`, applying the etas
    /// newest-first. Cost: one sparse dot product per eta.
    pub(crate) fn btran(&self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, e) in &eta.entries {
                dot += v[i] * e;
            }
            v[eta.row] = dot;
        }
    }
}

/// The eta pivoting direction `d` on `pivot_row`, whose value there is
/// `d_r`, from `d`'s `(row, value)` pairs in increasing row order (the
/// pivot row among them): `η_r = 1/d_r`, `η_i = −d_i/d_r` elsewhere.
/// Off-pivot magnitudes at or below `drop_tol` are dropped; the diagonal
/// entry is always kept. Entries stay in row order, which BTRAN's dot
/// product sums in.
fn pivot_eta(
    pivot_row: usize,
    d_r: f64,
    dir: impl Iterator<Item = (usize, f64)>,
    drop_tol: f64,
) -> Eta {
    debug_assert!(d_r != 0.0, "eta pivot on zero element");
    let inv = 1.0 / d_r;
    let mut entries = Vec::new();
    for (i, d) in dir {
        if i == pivot_row {
            entries.push((i, inv));
        } else if d != 0.0 {
            let e = -d * inv;
            if e.abs() > drop_tol {
                entries.push((i, e));
            }
        }
    }
    Eta { row: pivot_row, entries }
}

/// Rebuilds an eta file representing `B⁻¹` for the basis made of
/// `basis_cols` (as a *set* of matrix columns — the assignment of
/// columns to pivot rows is recomputed here). Columns are eliminated
/// sparsest-first, with partial pivoting over the rows no earlier
/// column claimed (the largest magnitude, the lowest row on ties): both
/// choices are deterministic and the first bounds fill-in while the
/// second bounds element growth.
///
/// Each column is FTRANed sparsely: the etas whose pivot row is nonzero
/// are applied in file order off a min-heap, and only the rows they
/// touch are searched for the pivot and cleared afterwards. The
/// arithmetic, and so the file, is bit-for-bit the dense pass's
/// ([`EtaFile::ftran`] on a zero-filled vector), but the cost is
/// proportional to the entries touched rather than to `m` per column.
///
/// Returns the file plus the basic column per pivot row, or `None` when
/// the columns are linearly dependent at `tol` — the sparse analogue of
/// the dense engine rejecting a singular warm basis.
pub(crate) fn factorize(
    matrix: &Csc,
    basis_cols: &[usize],
    tol: f64,
    drop_tol: f64,
) -> Option<(EtaFile, Vec<usize>)> {
    let m = matrix.num_rows();
    debug_assert_eq!(basis_cols.len(), m, "basis must have one column per row");
    let mut file = EtaFile::identity();
    // File index of the eta pivoted on each row; a row is claimed once.
    let mut eta_of_row: Vec<Option<usize>> = vec![None; m];
    let mut basis_by_row = vec![0usize; m];
    let mut order: Vec<usize> = basis_cols.to_vec();
    order.sort_by_key(|&j| (matrix.col_nnz(j), j));
    // `work` is zero outside `pattern`, the rows this column has touched.
    let mut work = vec![0.0; m];
    let mut in_pattern = vec![false; m];
    let mut pattern: Vec<usize> = Vec::new();
    let mut queue: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    for &j in &order {
        for (i, a) in matrix.col(j) {
            work[i] = a;
            if !in_pattern[i] {
                in_pattern[i] = true;
                pattern.push(i);
                if let Some(k) = eta_of_row[i] {
                    queue.push(Reverse(k));
                }
            }
        }
        // FTRAN in file order. A row's eta is queued when the row first
        // enters the pattern, if that eta is later than the one being
        // applied: an earlier one was passed while the row was zero, so
        // the dense pass skips it too. A row that cancelled back to 0.0
        // skips its eta.
        while let Some(Reverse(k)) = queue.pop() {
            let eta = &file.etas[k];
            let f = work[eta.row];
            if f == 0.0 {
                continue;
            }
            for &(i, e) in &eta.entries {
                if i == eta.row {
                    work[i] = e * f;
                } else {
                    work[i] += e * f;
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                        if let Some(later) = eta_of_row[i].filter(|&ki| ki > k) {
                            queue.push(Reverse(later));
                        }
                    }
                }
            }
        }
        pattern.sort_unstable();
        let mut best: Option<(usize, f64)> = None;
        for &i in &pattern {
            if eta_of_row[i].is_some() {
                continue;
            }
            let mag = work[i].abs();
            if best.is_none_or(|(_, bm)| mag > bm) {
                best = Some((i, mag));
            }
        }
        // No unassigned row touched: every candidate is 0.0, dependent.
        let (r, mag) = best?;
        if mag <= tol {
            return None; // dependent (or duplicate) basis column
        }
        let eta = pivot_eta(r, work[r], pattern.iter().map(|&i| (i, work[i])), drop_tol);
        eta_of_row[r] = Some(file.etas.len());
        file.etas.push(eta);
        basis_by_row[r] = j;
        for &i in &pattern {
            work[i] = 0.0;
            in_pattern[i] = false;
        }
        pattern.clear();
    }
    Some((file, basis_by_row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense factorization [`factorize`] must reproduce bit for bit:
    /// each column zero-filled into an `m`-vector, FTRANed through the
    /// whole file, and all `m` rows scanned for the pivot.
    fn factorize_dense(
        matrix: &Csc,
        basis_cols: &[usize],
        tol: f64,
        drop_tol: f64,
    ) -> Option<(EtaFile, Vec<usize>)> {
        let m = matrix.num_rows();
        let mut file = EtaFile::identity();
        let mut assigned = vec![false; m];
        let mut basis_by_row = vec![0usize; m];
        let mut order: Vec<usize> = basis_cols.to_vec();
        order.sort_by_key(|&j| (matrix.col_nnz(j), j));
        let mut work = vec![0.0; m];
        for &j in &order {
            work.fill(0.0);
            for (i, a) in matrix.col(j) {
                work[i] = a;
            }
            file.ftran(&mut work);
            let mut best: Option<(usize, f64)> = None;
            for (i, &w) in work.iter().enumerate() {
                if assigned[i] {
                    continue;
                }
                let mag = w.abs();
                if best.is_none_or(|(_, bm)| mag > bm) {
                    best = Some((i, mag));
                }
            }
            let (r, mag) = best?;
            if mag <= tol {
                return None;
            }
            file.push_pivot(r, &work, drop_tol);
            assigned[r] = true;
            basis_by_row[r] = j;
        }
        Some((file, basis_by_row))
    }

    /// A factorization with every value as its bit pattern, so equality
    /// means bit-identical.
    type FactorBits = Option<(Vec<(usize, Vec<(usize, u64)>)>, Vec<usize>)>;

    fn bits(f: Option<(EtaFile, Vec<usize>)>) -> FactorBits {
        f.map(|(file, by_row)| {
            let etas = file
                .etas
                .iter()
                .map(|eta| (eta.row, eta.entries.iter().map(|&(i, e)| (i, e.to_bits())).collect()))
                .collect();
            (etas, by_row)
        })
    }

    /// An `m`-row matrix holding `cols`, each given as `(row, value)`.
    fn csc_of(m: usize, cols: &[Vec<(usize, f64)>]) -> Csc {
        let mut matrix = Csc::from_rows(&vec![Vec::new(); m], 0);
        for col in cols {
            matrix.push_col(col);
        }
        matrix
    }

    /// A 3×3 matrix in CSC form via sparse rows:
    ///   [ 2 1 0 ]
    ///   [ 0 3 1 ]
    ///   [ 1 0 4 ]
    fn example() -> Csc {
        let rows = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 3.0), (2, 1.0)],
            vec![(0, 1.0), (2, 4.0)],
        ];
        Csc::from_rows(&rows, 3)
    }

    fn assert_vec_near(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn factorized_ftran_solves_the_system() {
        let m = example();
        let (file, by_row) = factorize(&m, &[0, 1, 2], 1e-9, 0.0).unwrap();
        // Solve B x = b for b = (5, 10, 13): by substitution from
        //   2x + y = 5; 3y + z = 10; x + 4z = 13
        // → 25x = 33, so (x, y, z) = (33, 59, 73)/25. Position r of the
        // FTRAN result is the value of the variable whose column is
        // by_row[r].
        let mut v = [5.0, 10.0, 13.0];
        file.ftran(&mut v);
        let mut by_col = [0.0; 3];
        for (r, &j) in by_row.iter().enumerate() {
            by_col[j] = v[r];
        }
        assert_vec_near(&by_col, &[33.0 / 25.0, 59.0 / 25.0, 73.0 / 25.0]);
    }

    #[test]
    fn btran_solves_the_transpose() {
        let m = example();
        let (file, by_row) = factorize(&m, &[0, 1, 2], 1e-9, 0.0).unwrap();
        // Solve Bᵀ y = c where c is in basis-position order: pick the
        // "cost" of the variable on each pivot row as its column index,
        // then check Bᵀy = c by multiplying back.
        let mut y = [0.0; 3];
        for (r, &j) in by_row.iter().enumerate() {
            y[r] = (j + 1) as f64;
        }
        let c = y;
        file.btran(&mut y);
        // Verify: for each basic column j on row r, y·A_j = c[r].
        for (r, &j) in by_row.iter().enumerate() {
            let dot: f64 = m.col(j).map(|(i, a)| y[i] * a).sum();
            assert!((dot - c[r]).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let m = example();
        assert!(factorize(&m, &[0, 0, 2], 1e-9, 0.0).is_none(), "duplicate column");
    }

    #[test]
    fn sign_flip_eta_negates_one_row() {
        let mut file = EtaFile::identity();
        file.push_sign_flip(1);
        let mut v = [3.0, 4.0, 5.0];
        file.ftran(&mut v);
        assert_vec_near(&v, &[3.0, -4.0, 5.0]);
        let mut y = [1.0, 2.0, 3.0];
        file.btran(&mut y);
        assert_vec_near(&y, &[1.0, -2.0, 3.0]);
    }

    #[test]
    fn pivot_eta_matches_gauss_jordan() {
        // Pivoting direction d on row r must make FTRAN(d) = e_r.
        let mut file = EtaFile::identity();
        let d = [0.5, 2.0, -1.5];
        file.push_pivot(1, &d, 0.0);
        let mut v = d;
        file.ftran(&mut v);
        assert_vec_near(&v, &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn eta_passed_before_its_row_fills_is_not_applied() {
        // Column 0 claims row 0 with eta 0 = [(0, ½)], column 1 claims
        // row 1 with an eta reaching row 0. Column 2 is zero on row 0 when
        // the pass reaches eta 0, so eta 0 is skipped, and row 0 only
        // fills once eta 1 is applied: it must read −¼, not ½·(−¼).
        let cols = [vec![(0, 2.0)], vec![(0, 1.0), (1, 2.0)], vec![(1, 1.0), (2, 1.0)]];
        let matrix = csc_of(3, &cols);
        let sparse = bits(factorize(&matrix, &[0, 1, 2], 1e-9, 0.0));
        let expect = vec![
            (0, vec![(0, 0.5)]),
            (1, vec![(0, -0.25), (1, 0.5)]),
            (2, vec![(0, 0.25), (1, -0.5), (2, 1.0)]),
        ];
        let expect = expect
            .into_iter()
            .map(|(r, es)| {
                (r, es.into_iter().map(|(i, e): (usize, f64)| (i, e.to_bits())).collect())
            })
            .collect();
        assert_eq!(sparse, Some((expect, vec![0, 1, 2])));
        assert_eq!(sparse, bits(factorize_dense(&matrix, &[0, 1, 2], 1e-9, 0.0)));
    }

    #[test]
    fn row_cancelled_to_zero_gets_no_eta_entry() {
        // Eta 0 cancels column 2's row-1 entry to exactly 0.0 before the
        // pass reaches eta 1 (row 1), which the dense pass then skips;
        // row 1 gets no entry in eta 2.
        let cols = [
            vec![(0, 1.0), (1, -1.0)],
            vec![(1, 2.0), (2, 1.0)],
            vec![(0, 1.0), (1, -1.0), (2, 1.0)],
        ];
        let matrix = csc_of(3, &cols);
        let (file, by_row) = factorize(&matrix, &[0, 1, 2], 1e-9, 0.0).unwrap();
        assert_eq!(by_row, vec![0, 1, 2]);
        assert_eq!(file.etas[2].entries, vec![(0, -1.0), (2, 1.0)]);
        assert_eq!(
            bits(factorize(&matrix, &[0, 1, 2], 1e-9, 0.0)),
            bits(factorize_dense(&matrix, &[0, 1, 2], 1e-9, 0.0))
        );
    }

    /// Dyadic values, so eliminations often cancel to exactly 0.0; the 3
    /// and 0.75 give non-dyadic pivots too.
    const VALUES: [f64; 8] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 0.75];

    /// One generated basis column: `kind` picks a ±1 slack, a structural
    /// column of the 2–6 `entries`, a duplicate of an earlier column, the
    /// difference of two earlier ones, or an earlier one plus a ±1 entry
    /// (which cancels to 0.0 on most rows during FTRAN).
    type ColSpec = (u8, Vec<(usize, usize)>, usize, usize, bool);

    /// Builds the columns, and whether some column is a linear
    /// combination of the others.
    fn build_cols(m: usize, specs: &[ColSpec]) -> (Vec<Vec<(usize, f64)>>, bool) {
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut dependent = false;
        for (kind, entries, a, b, sign) in specs {
            let s = if *sign { 1.0 } else { -1.0 };
            let c = cols.len();
            let col = match kind {
                0..=4 => vec![(a % m, s)],
                11 if c > 0 => {
                    dependent = true;
                    cols[a % c].clone()
                }
                12 if c > 1 && a % c != b % c => {
                    dependent = true;
                    merge(&cols[a % c], &cols[b % c], -1.0)
                }
                13..=15 if c > 0 => merge(&cols[a % c], &[(b % m, s)], 1.0),
                _ => {
                    let mut col: Vec<(usize, f64)> = Vec::new();
                    for &(i, v) in entries {
                        if col.iter().all(|&(k, _)| k != i % m) {
                            col.push((i % m, VALUES[v]));
                        }
                    }
                    col.sort_by_key(|&(i, _)| i);
                    col
                }
            };
            cols.push(col);
        }
        (cols, dependent)
    }

    /// `x + scale·y` over row-sorted sparse columns, keeping entries
    /// that cancel to 0.0 as explicit zeros.
    fn merge(x: &[(usize, f64)], y: &[(usize, f64)], scale: f64) -> Vec<(usize, f64)> {
        let mut out = x.to_vec();
        for &(i, v) in y {
            match out.iter_mut().find(|(k, _)| *k == i) {
                Some((_, w)) => *w += scale * v,
                None => out.push((i, scale * v)),
            }
        }
        out.sort_by_key(|&(i, _)| i);
        out
    }

    fn basis_case() -> impl Strategy<Value = (usize, Vec<ColSpec>)> {
        (2usize..=10).prop_flat_map(|m| {
            let entries = proptest::collection::vec((0..m, 0..VALUES.len()), 2..=6);
            let spec = (0u8..16, entries, 0..m, 0..m, any::<bool>());
            proptest::collection::vec(spec, m).prop_map(move |specs| (m, specs))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The sparse factorization is the dense one, bit for bit: the
        /// same `None`, pivot rows, entry rows in order and values.
        #[test]
        fn sparse_factorize_matches_dense_oracle(
            (m, specs) in basis_case(),
            drop_tol in prop::sample::select(vec![0.0, 1e-12, 0.3]),
        ) {
            let (cols, dependent) = build_cols(m, &specs);
            let matrix = csc_of(m, &cols);
            let basis: Vec<usize> = (0..m).rev().collect();
            let sparse = factorize(&matrix, &basis, 1e-9, drop_tol);
            if dependent && drop_tol <= 1e-12 {
                prop_assert!(sparse.is_none(), "dependent basis factorized: {cols:?}");
            }
            prop_assert_eq!(bits(sparse), bits(factorize_dense(&matrix, &basis, 1e-9, drop_tol)));
        }
    }
}
