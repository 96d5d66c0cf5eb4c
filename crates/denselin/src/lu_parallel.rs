//! Multithreaded right-looking blocked LU with **lookahead**: the one LU
//! driver production code calls (the service's local factorizations, the
//! benchmarks). It is bitwise identical to the serial reference
//! [`lu_blocked`](crate::lu::lu_blocked), which the tests, the verifier and
//! `perfsmoke` compare it against, and faster than it at every thread
//! count, including one.
//!
//! `lu_blocked` serializes each step: panel factorization (latency-bound,
//! ~O(n·nb²) flops) blocks the trailing update (the GEMM-rich O(n²·nb)
//! part), and every phase round-trips submatrices through `block` /
//! `set_block` copies. This module removes both bottlenecks:
//!
//! * **Lookahead.** After the trailing update of step `k` has refreshed the
//!   next panel's column stripe, the panel for step `k+1` is factored
//!   *concurrently* with the rest of step `k`'s trailing update: worker 0
//!   of the shared [`crate::pool`] factors the stripe in place while the
//!   remaining workers drain the rest of the update as independent column
//!   *bands* from an atomic work queue (each band: U-panel TRSM, then a
//!   packed-kernel GEMM). The panel is therefore off the critical path —
//!   the pipeline streams GEMM work at every step.
//! * **In-place strided updates.** The trailing GEMM writes directly into
//!   the factored buffer through the strided-view machinery of
//!   [`gemm`][mod@crate::gemm] (no `A11` copy-out/copy-back), the panel is factored
//!   in place on its strided rows, and row permutations are applied as
//!   in-place cycle-following gathers, column-sliced across the pool.
//!
//! # Dependency structure (one iteration, current step `k`)
//!
//! ```text
//!  apply P(k) outside panel k          [column-sliced on the pool]
//!          |
//!  stripe S = next panel cols: TRSM + GEMM     [caller thread]
//!          |
//!     +----+---------------------------+
//!     | worker 0: factor panel k+1     | workers 1..t: drain R bands
//!     |   (rows k+kb.., cols S,        |   band = TRSM(L00, U01_band)
//!     |    in place, partial pivoting) |        + GEMM(C_band -= L10·U01)
//!     +----+---------------------------+
//!          |  (join; worker 0 helps drain bands after the panel)
//!  next iteration
//! ```
//!
//! Writes are disjoint: the panel touches rows `k+kb..m` of the stripe
//! columns only; bands touch rows `k..m` of columns right of the stripe;
//! `L10` (columns of panel `k`) is read-shared and never written.
//!
//! # Determinism
//!
//! The result — pivots, permutation, sign, and every factor entry — is
//! **bitwise identical** to `lu_blocked` for any thread count:
//!
//! * the panel replicates `lu_unblocked`'s arithmetic statement for
//!   statement (same strict-`>` first-max pivot search, same division and
//!   AXPY ordering) on the same values, since the stripe is fully updated
//!   before the panel starts;
//! * TRSM and GEMM are *per-column* computations here: each output element
//!   reduces over `k` in the same `kc`-block order no matter how the
//!   columns are sliced into bands (the packed kernels never reassociate
//!   across the split), so banding changes nothing;
//! * row permutations are pure data movement.
//!
//! Threading only changes *which thread* computes a value, never the value.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::gemm::{
    auto_threads, packed_tile_update, selected_kernel, GemmBlocking, MatView, Microkernel,
};
use crate::lu::{permutation_sign, LuFactorization, SingularMatrix};
use crate::matrix::Matrix;
use crate::pool::{self, SyncPtr};
use crate::trsm::trsm_lower_left;

/// Factor a copy of `a` with lookahead-pipelined blocked partial-pivoting
/// LU on [`auto_threads`] workers. Bitwise identical to
/// [`lu_blocked`](crate::lu::lu_blocked) with the same panel width `nb`.
///
/// ```
/// use denselin::{lu_blocked, lu_parallel, Matrix, SplitMix64};
/// let mut rng = SplitMix64::new(7);
/// let a = Matrix::random(&mut rng, 96, 96);
/// let fp = lu_parallel(&a, 32).unwrap();
/// let fs = lu_blocked(&a, 32).unwrap();
/// assert_eq!(fp.lu.as_slice(), fs.lu.as_slice());
/// assert_eq!(fp.perm, fs.perm);
/// ```
pub fn lu_parallel(a: &Matrix, nb: usize) -> Result<LuFactorization, SingularMatrix> {
    lu_parallel_with(a, nb, auto_threads())
}

/// [`lu_parallel`] with an explicit worker count (1 = the in-place serial
/// pipeline, still faster than `lu_blocked` because it skips the block
/// copies). The result does not depend on `threads`.
pub fn lu_parallel_with(
    a: &Matrix,
    nb: usize,
    threads: usize,
) -> Result<LuFactorization, SingularMatrix> {
    assert!(nb > 0, "panel width must be positive");
    let mut lu = a.clone();
    let (m, n) = lu.shape();
    let mut perm: Vec<usize> = (0..m).collect();
    let mut sign = 1.0;
    let kmax = n.min(m);
    if kmax == 0 {
        return Ok(LuFactorization { lu, perm, sign });
    }
    let threads = threads.max(1);
    let blk = GemmBlocking::tuned();
    // Resolve the microkernel once per factorization so every trailing
    // update (and hence the whole bitwise-deterministic result) uses one
    // variant even if the process-wide selection is forced mid-call.
    let krn = selected_kernel();
    let ld = n;
    let (mut abuf, mut bbuf) = (Vec::new(), Vec::new());

    // Factor panel 0 up front; every later panel is factored in lookahead.
    let kb0 = nb.min(kmax);
    // SAFETY: `lu` is exclusively borrowed here; the panel region is
    // in-bounds.
    let mut p_k = unsafe { factor_panel(lu.as_mut_slice().as_mut_ptr(), ld, 0, 0, m, kb0) }
        .map_err(|e| SingularMatrix { column: e.column })?;

    let mut k = 0usize;
    loop {
        let kb = nb.min(kmax - k);
        // --- permutation of step k: bookkeeping + columns outside panel ---
        sign *= permutation_sign(&p_k);
        let old: Vec<usize> = perm[k..].to_vec();
        for (i, &src) in p_k.iter().enumerate() {
            perm[k + i] = old[src];
        }
        apply_panel_perm_cols(&mut lu, k, kb, &p_k, threads);

        let next_k = k + kb;
        let ptr = SyncPtr(lu.as_mut_slice().as_mut_ptr());
        if next_k >= kmax {
            if next_k < n {
                // Wide matrix: the last step's U row-panel extends past the
                // factored order; solve it (no trailing rows remain).
                let l00 = lu.block(k, k, kb, kb);
                let bands = split_bands(next_k, n, threads, blk.nc);
                let counter = AtomicUsize::new(0);
                pool::global().run(threads.min(bands.len().max(1)), &|_| {
                    let (mut ab, mut bb) = (Vec::new(), Vec::new());
                    loop {
                        let bi = counter.fetch_add(1, Ordering::Relaxed);
                        if bi >= bands.len() {
                            break;
                        }
                        let (lo, hi) = bands[bi];
                        // SAFETY: bands are pairwise disjoint column
                        // ranges; `run` joins before `lu` is used again.
                        unsafe {
                            band_update(
                                ptr.get(),
                                ld,
                                m,
                                k,
                                kb,
                                lo,
                                hi,
                                &l00,
                                blk,
                                krn,
                                &mut ab,
                                &mut bb,
                            )
                        };
                    }
                });
            }
            break;
        }

        let kb2 = nb.min(kmax - next_k);
        let l00 = lu.block(k, k, kb, kb);
        // --- stripe S: the next panel's columns get their full step-k
        // update first (serial, on the caller), unblocking the lookahead ---
        // SAFETY: exclusive access between pool joins.
        unsafe {
            band_update(
                ptr.0,
                ld,
                m,
                k,
                kb,
                next_k,
                next_k + kb2,
                &l00,
                blk,
                krn,
                &mut abuf,
                &mut bbuf,
            )
        };

        // --- lookahead: factor panel k+1 while draining the R bands ---
        let bands = split_bands(next_k + kb2, n, threads, blk.nc);
        let panel_result = if bands.is_empty() {
            // SAFETY: exclusive access (no pool job in flight).
            unsafe { factor_panel(ptr.get(), ld, next_k, next_k, m - next_k, kb2) }
        } else {
            let slot: Mutex<Option<Result<Vec<usize>, SingularMatrix>>> = Mutex::new(None);
            let counter = AtomicUsize::new(0);
            pool::global().run(threads.min(bands.len() + 1), &|w| {
                if w == 0 {
                    // SAFETY: the panel writes rows next_k..m of the stripe
                    // columns only; every band is disjoint from it.
                    let r = unsafe { factor_panel(ptr.get(), ld, next_k, next_k, m - next_k, kb2) };
                    *slot.lock().unwrap() = Some(r);
                }
                let (mut ab, mut bb) = (Vec::new(), Vec::new());
                loop {
                    let bi = counter.fetch_add(1, Ordering::Relaxed);
                    if bi >= bands.len() {
                        break;
                    }
                    let (lo, hi) = bands[bi];
                    // SAFETY: disjoint bands; L10/U01 band rows are not
                    // written by any other worker.
                    unsafe {
                        band_update(
                            ptr.get(),
                            ld,
                            m,
                            k,
                            kb,
                            lo,
                            hi,
                            &l00,
                            blk,
                            krn,
                            &mut ab,
                            &mut bb,
                        )
                    };
                }
            });
            slot.into_inner()
                .unwrap()
                .expect("pool worker 0 always factors the panel")
        };
        p_k = panel_result.map_err(|e| SingularMatrix {
            column: next_k + e.column,
        })?;
        k = next_k;
    }
    Ok(LuFactorization { lu, perm, sign })
}

/// In-place partial-pivoting factorization of the `mrem x kb` panel whose
/// top-left element is `(row0, col0)` of an `ld`-strided buffer. Replicates
/// [`crate::lu::lu_unblocked`]'s arithmetic exactly (strict-`>` first-max
/// pivot search, division by the pivot, row AXPYs in order), so the values
/// it produces are bitwise identical to factoring a contiguous copy.
/// Returns the panel-local permutation in one-line notation (or the
/// panel-local singular column).
///
/// # Safety
/// The panel region must be in-bounds and no other thread may read or
/// write any element of it during the call.
unsafe fn factor_panel(
    ptr: *mut f64,
    ld: usize,
    row0: usize,
    col0: usize,
    mrem: usize,
    kb: usize,
) -> Result<Vec<usize>, SingularMatrix> {
    let el = |i: usize, j: usize| ptr.add((row0 + i) * ld + col0 + j);
    let mut perm: Vec<usize> = (0..mrem).collect();
    for k in 0..kb.min(mrem) {
        let mut p = k;
        let mut best = (*el(k, k)).abs();
        for i in k + 1..mrem {
            let v = (*el(i, k)).abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(SingularMatrix { column: k });
        }
        if p != k {
            let rp = std::slice::from_raw_parts_mut(el(p, 0), kb);
            let rk = std::slice::from_raw_parts_mut(el(k, 0), kb);
            rp.swap_with_slice(rk);
            perm.swap(p, k);
        }
        let pivot = *el(k, k);
        let rk = std::slice::from_raw_parts(el(k, 0) as *const f64, kb);
        for i in k + 1..mrem {
            let e = el(i, k);
            let lik = *e / pivot;
            *e = lik;
            if lik != 0.0 {
                let ri = std::slice::from_raw_parts_mut(el(i, 0), kb);
                for j in k + 1..kb {
                    ri[j] -= lik * rk[j];
                }
            }
        }
    }
    Ok(perm)
}

/// One unit of trailing-update work for step `k`: columns `lo..hi` get
/// their U row-panel solved (`U01 <- L00^-1 A01`, via a contiguous copy so
/// the blocked TRSM kernel applies) and, if trailing rows remain, the GEMM
/// `C -= L10 * U01` written **in place** through the strided packed
/// kernel. Per-column arithmetic is independent of the band split, so any
/// banding yields bitwise-identical results.
///
/// # Safety
/// Caller must guarantee exclusive access to rows `k..m` of columns
/// `lo..hi` and that no thread writes rows `k+kb..m` of columns
/// `k..k+kb` (`L10`) during the call.
#[allow(clippy::too_many_arguments)]
unsafe fn band_update(
    ptr: *mut f64,
    ld: usize,
    m: usize,
    k: usize,
    kb: usize,
    lo: usize,
    hi: usize,
    l00: &Matrix,
    blk: GemmBlocking,
    krn: &Microkernel,
    abuf: &mut Vec<f64>,
    bbuf: &mut Vec<f64>,
) {
    let w = hi - lo;
    if w == 0 {
        return;
    }
    let mut v = Vec::with_capacity(kb * w);
    for i in 0..kb {
        v.extend_from_slice(std::slice::from_raw_parts(ptr.add((k + i) * ld + lo), w));
    }
    let mut u01 = Matrix::from_vec(kb, w, v);
    trsm_lower_left(l00, &mut u01, true);
    for i in 0..kb {
        std::slice::from_raw_parts_mut(ptr.add((k + i) * ld + lo), w).copy_from_slice(u01.row(i));
    }
    let next_k = k + kb;
    if next_k < m {
        let a = MatView::from_raw(ptr.add(next_k * ld + k) as *const f64, ld, m - next_k, kb);
        let b = MatView::of(&u01);
        let cptr = ptr.add(next_k * ld + lo);
        for i0 in (0..m - next_k).step_by(blk.mc) {
            let mh = blk.mc.min(m - next_k - i0);
            for j0 in (0..w).step_by(blk.nc) {
                let nw = blk.nc.min(w - j0);
                packed_tile_update(cptr, ld, -1.0, a, b, i0, mh, j0, nw, blk, krn, abuf, bbuf);
            }
        }
    }
}

/// Split columns `lo..hi` into contiguous bands: one `nc`-wide band per
/// chunk when serial (matching the serial GEMM tile walk), narrower bands
/// when parallel so the queue keeps `threads` workers busy alongside the
/// lookahead panel.
fn split_bands(lo: usize, hi: usize, threads: usize, nc: usize) -> Vec<(usize, usize)> {
    if hi <= lo {
        return Vec::new();
    }
    let w = hi - lo;
    let target = if threads <= 1 {
        nc
    } else {
        w.div_ceil(3 * threads).max(64).min(nc)
    };
    let mut bands = Vec::with_capacity(w.div_ceil(target));
    let mut c = lo;
    while c < hi {
        let e = (c + target).min(hi);
        bands.push((c, e));
        c = e;
    }
    bands
}

/// Apply the panel-local permutation `p` (one-line notation, rows
/// `k..k+p.len()`) to the columns outside the panel (`[0,k)` and
/// `[k+kb,n)`) as an in-place cycle-following gather, column-sliced across
/// the pool. Pure data movement: identical to the save-and-rewrite gather
/// in `lu_blocked` without its per-row allocations.
fn apply_panel_perm_cols(lu: &mut Matrix, k: usize, kb: usize, p: &[usize], threads: usize) {
    let n = lu.cols();
    if p.iter().enumerate().all(|(i, &s)| i == s) {
        return;
    }
    let total = k + n.saturating_sub(k + kb);
    if total == 0 {
        return;
    }
    let target = if threads <= 1 {
        total
    } else {
        total.div_ceil(threads).max(128)
    };
    let mut chunks: Vec<(usize, usize)> = Vec::new();
    for (rlo, rhi) in [(0, k), ((k + kb).min(n), n)] {
        let mut c = rlo;
        while c < rhi {
            let e = (c + target).min(rhi);
            chunks.push((c, e));
            c = e;
        }
    }
    let ld = n;
    let ptr = SyncPtr(lu.as_mut_slice().as_mut_ptr());
    if chunks.len() <= 1 || threads <= 1 {
        for &(lo, hi) in &chunks {
            // SAFETY: exclusive borrow of `lu`.
            unsafe { gather_chunk(ptr.get(), ld, k, p, lo, hi) };
        }
    } else {
        let counter = AtomicUsize::new(0);
        pool::global().run(threads.min(chunks.len()), &|_| loop {
            let ci = counter.fetch_add(1, Ordering::Relaxed);
            if ci >= chunks.len() {
                break;
            }
            let (lo, hi) = chunks[ci];
            // SAFETY: chunks are pairwise-disjoint column ranges; `run`
            // joins before `lu` is touched again.
            unsafe { gather_chunk(ptr.get(), ld, k, p, lo, hi) };
        });
    }
}

/// Cycle-following in-place gather: for every row index `i` of the panel,
/// row `row0+i`'s segment `[lo, hi)` receives the segment previously at
/// row `row0+p[i]`.
///
/// # Safety
/// Rows `row0..row0+p.len()`, columns `lo..hi` must be in-bounds and
/// exclusively owned by the caller; `p` must be a permutation.
unsafe fn gather_chunk(ptr: *mut f64, ld: usize, row0: usize, p: &[usize], lo: usize, hi: usize) {
    let w = hi - lo;
    if w == 0 {
        return;
    }
    let seg = |i: usize| std::slice::from_raw_parts_mut(ptr.add((row0 + i) * ld + lo), w);
    let mut tmp = vec![0.0f64; w];
    let mut visited = vec![false; p.len()];
    for s in 0..p.len() {
        if visited[s] || p[s] == s {
            visited[s] = true;
            continue;
        }
        tmp.copy_from_slice(seg(s));
        let mut i = s;
        loop {
            visited[i] = true;
            let j = p[i];
            if j == s {
                seg(i).copy_from_slice(&tmp);
                break;
            }
            let (di, sj) = (seg(i), seg(j));
            di.copy_from_slice(sj);
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_blocked;
    use crate::rng::SplitMix64;

    fn assert_bitwise(a: &Matrix, nb: usize, threads: usize) {
        let fs = lu_blocked(a, nb).unwrap();
        let fp = lu_parallel_with(a, nb, threads).unwrap();
        assert_eq!(fs.perm, fp.perm, "nb={nb} threads={threads}");
        assert_eq!(fs.sign, fp.sign, "nb={nb} threads={threads}");
        assert_eq!(
            fs.lu.as_slice(),
            fp.lu.as_slice(),
            "nb={nb} threads={threads}"
        );
    }

    #[test]
    fn matches_blocked_bitwise_square() {
        let mut rng = SplitMix64::new(50);
        for n in [1, 2, 13, 64, 65, 130] {
            let a = Matrix::random(&mut rng, n, n);
            for nb in [1, 8, 32, 64, 200] {
                for threads in [1, 2, 4, 8] {
                    assert_bitwise(&a, nb, threads);
                }
            }
        }
    }

    #[test]
    fn matches_blocked_bitwise_rectangular() {
        let mut rng = SplitMix64::new(51);
        for (m, n) in [(90, 33), (33, 90), (128, 64), (64, 128), (100, 1), (1, 100)] {
            let a = Matrix::random(&mut rng, m, n);
            for nb in [8, 32, 64] {
                for threads in [1, 3, 6] {
                    assert_bitwise(&a, nb, threads);
                }
            }
        }
    }

    #[test]
    fn wilkinson_growth_matrix_bitwise() {
        // Worst-case element growth for partial pivoting: every step's
        // pivot choice and 2^k growth pattern must match exactly.
        let n = 70;
        let a = Matrix::from_fn(n, n, |i, j| {
            if j == n - 1 || i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            }
        });
        for threads in [1, 2, 5, 8] {
            assert_bitwise(&a, 16, threads);
        }
    }

    #[test]
    fn near_singular_bitwise() {
        let mut rng = SplitMix64::new(52);
        let mut a = Matrix::random(&mut rng, 80, 80);
        // Make row 41 nearly a copy of row 17.
        for j in 0..80 {
            a[(41, j)] = a[(17, j)] * (1.0 + 1e-13);
        }
        for threads in [1, 4] {
            assert_bitwise(&a, 24, threads);
        }
    }

    #[test]
    fn singular_column_matches_blocked() {
        for zero_col in [0usize, 5, 37, 63] {
            let mut a = Matrix::identity(64);
            a[(zero_col, zero_col)] = 0.0;
            let es = lu_blocked(&a, 16).unwrap_err();
            for threads in [1, 4] {
                let ep = lu_parallel_with(&a, 16, threads).unwrap_err();
                assert_eq!(es, ep, "zero_col={zero_col} threads={threads}");
            }
        }
    }

    #[test]
    fn residual_stays_small() {
        let mut rng = SplitMix64::new(53);
        let a = Matrix::random(&mut rng, 150, 150);
        let f = lu_parallel_with(&a, 48, 4).unwrap();
        assert!(f.residual(&a) < 1e-11, "residual={}", f.residual(&a));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        for (m, n) in [(0, 0), (0, 4), (4, 0)] {
            let a = Matrix::zeros(m, n);
            let f = lu_parallel_with(&a, 8, 4).unwrap();
            assert_eq!(f.lu.shape(), (m, n));
            assert_eq!(f.perm.len(), m);
            assert_eq!(f.sign, 1.0);
        }
    }
}
