//! LU factorization with partial pivoting (LAPACK `getrf` substitute).
//!
//! Provides the factorization type with its linear solves, permutation
//! bookkeeping, and the verification helpers (residual, growth factor) used
//! to validate every LU in the workspace, plus two reference kernels: the
//! unblocked tolerance oracle and a blocked right-looking variant (panel +
//! TRSM + GEMM) that the production driver,
//! [`lu_parallel`](crate::lu_parallel::lu_parallel), must match bit for
//! bit.

use crate::gemm::gemm_auto;
use crate::matrix::Matrix;
use crate::trsm::{
    trsm_lower_left, trsm_lower_left_parallel, trsm_upper_left, trsm_upper_left_parallel,
};

/// Result of an LU factorization with partial pivoting: `P A = L U`.
///
/// `lu` packs `L` (strictly lower, unit diagonal implicit) and `U` (upper)
/// in one matrix, exactly like LAPACK. `perm[i]` is the *original* row index
/// that ended up in position `i` of the factored matrix.
#[derive(Clone, Debug)]
pub struct LuFactorization {
    /// Packed `L\U` factors.
    pub lu: Matrix,
    /// Row permutation: position `i` of `L\U` holds original row `perm[i]`.
    pub perm: Vec<usize>,
    /// Determinant sign of the permutation (`+1.0` or `-1.0`).
    pub sign: f64,
}

/// Error returned when a zero pivot column makes the factorization break down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which no nonzero pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular: no pivot in column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// Factor a copy of `a` using unblocked partial-pivoting LU.
pub fn lu_unblocked(a: &Matrix) -> Result<LuFactorization, SingularMatrix> {
    let mut lu = a.clone();
    let (m, n) = lu.shape();
    let mut perm: Vec<usize> = (0..m).collect();
    let mut sign = 1.0;
    for k in 0..n.min(m) {
        // pivot search in column k, rows k..m
        let mut p = k;
        let mut best = lu[(k, k)].abs();
        for i in k + 1..m {
            let v = lu[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(SingularMatrix { column: k });
        }
        if p != k {
            swap_rows(&mut lu, p, k);
            perm.swap(p, k);
            sign = -sign;
        }
        let pivot = lu[(k, k)];
        for i in k + 1..m {
            let lik = lu[(i, k)] / pivot;
            lu[(i, k)] = lik;
            if lik != 0.0 {
                let (ri, rk) = row_pair(&mut lu, i, k);
                for j in k + 1..n {
                    ri[j] -= lik * rk[j];
                }
            }
        }
    }
    Ok(LuFactorization { lu, perm, sign })
}

/// Factor a copy of `a` using blocked right-looking partial-pivoting LU
/// with panel width `nb`: the serial bitwise reference for
/// [`lu_parallel`](crate::lu_parallel::lu_parallel), which production code
/// calls instead.
///
/// ```
/// use denselin::{lu::lu_blocked, matrix::Matrix, SplitMix64};
/// let mut rng = SplitMix64::new(1);
/// let a = Matrix::random(&mut rng, 32, 32);
/// let f = lu_blocked(&a, 8).unwrap();
/// assert!(f.residual(&a) < 1e-11); // P·A = L·U
/// ```
pub fn lu_blocked(a: &Matrix, nb: usize) -> Result<LuFactorization, SingularMatrix> {
    assert!(nb > 0, "panel width must be positive");
    let mut lu = a.clone();
    let (m, n) = lu.shape();
    let mut perm: Vec<usize> = (0..m).collect();
    let mut sign = 1.0;
    let kmax = n.min(m);
    let mut k = 0;
    while k < kmax {
        let kb = nb.min(kmax - k);
        // --- panel factorization on columns k..k+kb, rows k..m ---
        let mut panel = lu.block(k, k, m - k, kb);
        let pf = lu_unblocked(&panel).map_err(|e| SingularMatrix {
            column: k + e.column,
        })?;
        panel = pf.lu;
        lu.set_block(k, k, &panel);
        // apply panel pivots to the rest of the matrix and global perm
        // pf.perm maps panel position i -> panel-original row pf.perm[i];
        // convert into a sequence of global row placements.
        apply_permutation_outside_panel(&mut lu, &mut perm, &mut sign, k, kb, &pf.perm);
        if k + kb < n {
            // --- U panel: solve L00 * U01 = A01 ---
            let l00 = lu.block(k, k, kb, kb);
            let mut a01 = lu.block(k, k + kb, kb, n - k - kb);
            trsm_lower_left(&l00, &mut a01, true);
            lu.set_block(k, k + kb, &a01);
            if k + kb < m {
                // --- trailing update: A11 -= L10 * U01 (packed kernel,
                // tile-parallel when the trailing block is big enough) ---
                let l10 = lu.block(k + kb, k, m - k - kb, kb);
                let mut a11 = lu.block(k + kb, k + kb, m - k - kb, n - k - kb);
                gemm_auto(&mut a11, -1.0, &l10, &a01, 1.0);
                lu.set_block(k + kb, k + kb, &a11);
            }
        }
        k += kb;
    }
    Ok(LuFactorization { lu, perm, sign })
}

/// Rearrange full rows of `lu` (outside the already-factored panel columns)
/// according to the panel-local permutation `panel_perm`, and update the
/// global permutation bookkeeping.
fn apply_permutation_outside_panel(
    lu: &mut Matrix,
    perm: &mut [usize],
    sign: &mut f64,
    k: usize,
    kb: usize,
    panel_perm: &[usize],
) {
    let m = lu.rows();
    let n = lu.cols();
    // Panel rows were already permuted inside the panel block; we must apply
    // the same reordering to columns [0, k) and [k+kb, n) and to `perm`.
    // panel_perm[i] = original (panel-relative) row now at panel position i.
    let rows = panel_perm.len();
    // Save affected row fragments, then write them back permuted.
    let mut left: Vec<Vec<f64>> = Vec::with_capacity(rows);
    let mut right: Vec<Vec<f64>> = Vec::with_capacity(rows);
    let mut old_perm: Vec<usize> = Vec::with_capacity(rows);
    for i in 0..rows {
        left.push(lu.row(k + i)[..k].to_vec());
        right.push(lu.row(k + i)[k + kb..].to_vec());
        old_perm.push(perm[k + i]);
    }
    for (i, &src) in panel_perm.iter().enumerate() {
        lu.row_mut(k + i)[..k].copy_from_slice(&left[src]);
        lu.row_mut(k + i)[k + kb..n].copy_from_slice(&right[src]);
        perm[k + i] = old_perm[src];
    }
    // permutation sign: parity of panel_perm
    *sign *= permutation_sign(panel_perm);
    let _ = m;
}

/// Sign (`+1.0`/`-1.0`) of a permutation given in one-line notation.
pub fn permutation_sign(perm: &[usize]) -> f64 {
    let mut seen = vec![false; perm.len()];
    let mut sign = 1.0;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        if len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

impl LuFactorization {
    /// The unit-lower-triangular factor `L`.
    pub fn l(&self) -> Matrix {
        self.lu.unit_lower()
    }

    /// The upper-triangular factor `U`.
    pub fn u(&self) -> Matrix {
        self.lu.upper()
    }

    /// The permutation as an explicit matrix `P` such that `P A = L U`.
    pub fn permutation_matrix(&self) -> Matrix {
        let m = self.perm.len();
        let mut p = Matrix::zeros(m, m);
        for (i, &src) in self.perm.iter().enumerate() {
            p[(i, src)] = 1.0;
        }
        p
    }

    /// `P A` — `a` with its rows permuted into factorization order.
    pub fn permute_rows(&self, a: &Matrix) -> Matrix {
        a.gather_rows(&self.perm)
    }

    /// Relative residual `||P A - L U||_F / ||A||_F`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        let pa = self.permute_rows(a);
        let recon = self.l().matmul(&self.u());
        pa.sub(&recon).frobenius_norm() / a.frobenius_norm().max(f64::MIN_POSITIVE)
    }

    /// Element growth factor `max|U| / max|A|` — the classic stability
    /// diagnostic for pivoting strategies.
    pub fn growth_factor(&self, a: &Matrix) -> f64 {
        self.u().max_norm() / a.max_norm().max(f64::MIN_POSITIVE)
    }

    /// Determinant of the factored (square) matrix.
    pub fn determinant(&self) -> f64 {
        let n = self.lu.rows();
        assert_eq!(n, self.lu.cols(), "determinant needs a square matrix");
        let mut det = self.sign;
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solve `A x = b` for all columns of `b` at once.
    ///
    /// Multi-RHS solves go through the blocked [`trsm_lower_left`] /
    /// [`trsm_upper_left`] kernels, whose trailing updates are single
    /// `gemm_auto` calls over the whole RHS block — `k` right-hand sides
    /// reread the factor once, not `k` times. Allocates the result; use
    /// [`solve_into`](Self::solve_into) to reuse a caller-provided buffer
    /// (the solversrv batching path needs both).
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(b.rows(), b.cols());
        self.solve_into(b, &mut y);
        y
    }

    /// [`solve`](Self::solve) into a caller-provided buffer: `out` is
    /// overwritten with `x` and no intermediate matrix is allocated. The
    /// result is bitwise-identical to `solve` (same permutation gather,
    /// same blocked triangular sweeps).
    ///
    /// Large multi-RHS batches are column-sliced across the worker pool
    /// ([`trsm_lower_left_parallel`] / [`trsm_upper_left_parallel`]), which
    /// is bitwise-neutral — a triangular solve is independent per column —
    /// so the parallel route never changes the answer.
    ///
    /// # Panics
    /// Panics if `out` and `b` shapes differ or `b.rows()` does not match
    /// the factored order.
    pub fn solve_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(out.shape(), b.shape(), "output buffer shape must match b");
        assert_eq!(b.rows(), self.perm.len(), "rhs rows must match the factor");
        for (i, &src) in self.perm.iter().enumerate() {
            out.row_mut(i).copy_from_slice(b.row(src));
        }
        let threads = crate::gemm::auto_threads();
        if threads > 1 && b.cols() > 1 && b.rows() * b.cols() >= 16 * 1024 {
            trsm_lower_left_parallel(&self.lu, out, true, threads);
            trsm_upper_left_parallel(&self.lu, out, false, threads);
        } else {
            trsm_lower_left(&self.lu, out, true);
            trsm_upper_left(&self.lu, out, false);
        }
    }
}

fn swap_rows(m: &mut Matrix, a: usize, b: usize) {
    if a == b {
        return;
    }
    let cols = m.cols();
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = m.as_mut_slice().split_at_mut(hi * cols);
    head[lo * cols..(lo + 1) * cols].swap_with_slice(&mut tail[..cols]);
}

fn row_pair(m: &mut Matrix, target: usize, source: usize) -> (&mut [f64], &[f64]) {
    debug_assert!(source < target);
    let cols = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(target * cols);
    (&mut tail[..cols], &head[source * cols..(source + 1) * cols])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn unblocked_residual_small() {
        let mut rng = SplitMix64::new(30);
        for n in [1, 2, 3, 8, 33, 100] {
            let a = Matrix::random(&mut rng, n, n);
            let f = lu_unblocked(&a).unwrap();
            assert!(f.residual(&a) < 1e-12, "n={n} residual={}", f.residual(&a));
        }
    }

    #[test]
    fn blocked_matches_unblocked_quality() {
        let mut rng = SplitMix64::new(31);
        for (n, nb) in [(10, 3), (64, 16), (100, 7), (130, 32)] {
            let a = Matrix::random(&mut rng, n, n);
            let f = lu_blocked(&a, nb).unwrap();
            assert!(
                f.residual(&a) < 1e-11,
                "n={n} nb={nb} residual={}",
                f.residual(&a)
            );
        }
    }

    #[test]
    fn blocked_and_unblocked_same_factors() {
        // Partial pivoting is deterministic, so the two variants must agree
        // exactly on pivot choices (up to roundoff in values).
        let mut rng = SplitMix64::new(32);
        let a = Matrix::random(&mut rng, 40, 40);
        let f1 = lu_unblocked(&a).unwrap();
        let f2 = lu_blocked(&a, 8).unwrap();
        assert_eq!(f1.perm, f2.perm);
        assert!(f1.lu.allclose(&f2.lu, 1e-10));
    }

    #[test]
    fn rectangular_tall_panel() {
        let mut rng = SplitMix64::new(33);
        let a = Matrix::random(&mut rng, 50, 8);
        let f = lu_unblocked(&a).unwrap();
        let pa = f.permute_rows(&a);
        let recon = f.l().matmul(&f.u());
        assert!(pa.sub(&recon).frobenius_norm() / a.frobenius_norm() < 1e-12);
        assert_eq!(f.l().shape(), (50, 8));
        assert_eq!(f.u().shape(), (8, 8));
    }

    #[test]
    fn solve_roundtrip() {
        let mut rng = SplitMix64::new(34);
        let a = Matrix::random_diagonally_dominant(&mut rng, 30);
        let x = Matrix::random(&mut rng, 30, 2);
        let b = a.matmul(&x);
        let f = lu_blocked(&a, 8).unwrap();
        assert!(f.solve(&b).allclose(&x, 1e-8));
    }

    #[test]
    fn solve_into_matches_solve_bitwise() {
        let mut rng = SplitMix64::new(38);
        for (n, nrhs) in [(1, 1), (17, 3), (60, 8), (130, 1)] {
            let a = Matrix::random(&mut rng, n, n);
            let b = Matrix::random(&mut rng, n, nrhs);
            let f = lu_blocked(&a, 16).unwrap();
            let x1 = f.solve(&b);
            let mut x2 = Matrix::zeros(n, nrhs);
            f.solve_into(&b, &mut x2);
            assert_eq!(x1.as_slice(), x2.as_slice(), "n={n} nrhs={nrhs}");
        }
    }

    #[test]
    #[should_panic(expected = "output buffer shape")]
    fn solve_into_rejects_bad_buffer() {
        let a = Matrix::identity(4);
        let f = lu_unblocked(&a).unwrap();
        let b = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(4, 3);
        f.solve_into(&b, &mut out);
    }

    #[test]
    fn permutation_matrix_consistent() {
        let mut rng = SplitMix64::new(35);
        let a = Matrix::random(&mut rng, 12, 12);
        let f = lu_unblocked(&a).unwrap();
        let pa1 = f.permutation_matrix().matmul(&a);
        let pa2 = f.permute_rows(&a);
        assert!(pa1.allclose(&pa2, 1e-14));
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = lu_unblocked(&a).unwrap();
        assert!((f.determinant() + 1.0).abs() < 1e-14);
        let b = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 3.0]);
        let f = lu_unblocked(&b).unwrap();
        assert!((f.determinant() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::zeros(4, 4);
        assert_eq!(lu_unblocked(&a).unwrap_err().column, 0);
        let mut b = Matrix::identity(3);
        b[(2, 2)] = 0.0;
        assert_eq!(lu_unblocked(&b).unwrap_err().column, 2);
    }

    #[test]
    fn partial_pivoting_bounds_multipliers() {
        let mut rng = SplitMix64::new(36);
        let a = Matrix::random(&mut rng, 60, 60);
        let f = lu_unblocked(&a).unwrap();
        let l = f.l();
        // |L| entries must be <= 1 with partial pivoting.
        assert!(l.max_norm() <= 1.0 + 1e-12);
    }

    #[test]
    fn permutation_sign_parity() {
        assert_eq!(permutation_sign(&[0, 1, 2]), 1.0);
        assert_eq!(permutation_sign(&[1, 0, 2]), -1.0);
        assert_eq!(permutation_sign(&[1, 2, 0]), 1.0);
        assert_eq!(permutation_sign(&[2, 1, 0]), -1.0);
    }

    #[test]
    fn growth_factor_reasonable_for_random() {
        let mut rng = SplitMix64::new(37);
        let a = Matrix::random(&mut rng, 80, 80);
        let f = lu_unblocked(&a).unwrap();
        // Random matrices essentially never exhibit pathological growth.
        assert!(f.growth_factor(&a) < 100.0);
    }
}
