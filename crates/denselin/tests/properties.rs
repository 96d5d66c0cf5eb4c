//! Seeded property tests of the dense linear algebra substrate.

use denselin::cholesky::{cholesky_blocked, cholesky_residual, random_spd};
use denselin::gemm::{
    gemm, gemm_emulated, gemm_reference, gemm_with, matmul, microkernels, selected_kernel,
    GemmBlocking,
};
use denselin::lu::{lu_blocked, lu_unblocked};
use denselin::lu_parallel::{lu_parallel, lu_parallel_with};
use denselin::matrix::Matrix;
use denselin::rng::{check_cases, SplitMix64};
use denselin::trsm::{
    trsm_lower_left, trsm_lower_left_parallel, trsm_upper_left, trsm_upper_left_parallel,
    trsm_upper_right,
};

fn rand_matrix(seed: u64, r: usize, c: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::random(&mut rng, r, c)
}

#[test]
fn gemm_is_linear_in_alpha() {
    check_cases("gemm_is_linear_in_alpha", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..20);
        let a = rand_matrix(seed, n, n);
        let b = rand_matrix(seed ^ 1, n, n);
        let mut c1 = Matrix::zeros(n, n);
        gemm(&mut c1, 2.0, &a, &b, 0.0);
        let mut c2 = Matrix::zeros(n, n);
        gemm(&mut c2, 1.0, &a, &b, 0.0);
        assert!(c1.allclose(&c2.scale(2.0), 1e-10));
    });
}

#[test]
fn gemm_distributes_over_addition() {
    check_cases("gemm_distributes_over_addition", 48, |rng| {
        let seed = rng.range(0u64..500);
        let m = rng.range(1usize..12);
        let k = rng.range(1usize..12);
        let n = rng.range(1usize..12);
        let a = rand_matrix(seed, m, k);
        let b1 = rand_matrix(seed ^ 2, k, n);
        let b2 = rand_matrix(seed ^ 3, k, n);
        let lhs = matmul(&a, &b1.add(&b2));
        let rhs = matmul(&a, &b1).add(&matmul(&a, &b2));
        assert!(lhs.allclose(&rhs, 1e-9));
    });
}

#[test]
fn gemm_associates_with_transpose() {
    check_cases("gemm_associates_with_transpose", 48, |rng| {
        let seed = rng.range(0u64..500);
        let m = rng.range(1usize..10);
        let n = rng.range(1usize..10);
        // (A * B)^T == B^T * A^T
        let a = rand_matrix(seed, m, n);
        let b = rand_matrix(seed ^ 4, n, m);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        assert!(lhs.allclose(&rhs, 1e-10));
    });
}

#[test]
fn packed_gemm_matches_reference() {
    check_cases("packed_gemm_matches_reference", 48, |rng| {
        let seed = rng.range(0u64..500);
        let m = rng.range(1usize..40);
        let k = rng.range(1usize..40);
        let n = rng.range(1usize..40);
        let alpha = rng.range(-2.0f64..2.0);
        let beta = rng.range(-2.0f64..2.0);
        // the packed register-blocked kernel against the pre-rewrite scalar
        // path, over shapes that force fringe tiles and partial panels
        let a = rand_matrix(seed, m, k);
        let b = rand_matrix(seed ^ 5, k, n);
        let c0 = rand_matrix(seed ^ 6, m, n);
        let mut packed = c0.clone();
        gemm(&mut packed, alpha, &a, &b, beta);
        let mut reference = c0.clone();
        gemm_reference(&mut reference, alpha, &a, &b, beta);
        assert!(packed.allclose(&reference, 1e-10));
    });
}

#[test]
fn awkward_blockings_agree() {
    check_cases("awkward_blockings_agree", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..32);
        let mc = rng.range(1usize..12);
        let kc = rng.range(1usize..12);
        let nc = rng.range(1usize..12);
        // any blocking, however misaligned with the microkernel tile,
        // produces the same result as the default
        let a = rand_matrix(seed, n, n);
        let b = rand_matrix(seed ^ 7, n, n);
        let mut def = Matrix::zeros(n, n);
        gemm(&mut def, 1.0, &a, &b, 0.0);
        let mut odd = Matrix::zeros(n, n);
        let odd_blk = GemmBlocking { mc, kc, nc };
        gemm_with(&mut odd, 1.0, &a, &b, 0.0, 1, odd_blk, selected_kernel());
        assert!(odd.allclose(&def, 1e-11));
    });
}

#[test]
fn parallel_tile_queue_is_bitwise_serial() {
    check_cases("parallel_tile_queue_is_bitwise_serial", 48, |rng| {
        let seed = rng.range(0u64..500);
        let m = rng.range(1usize..48);
        let n = rng.range(1usize..48);
        let threads = rng.range(1usize..6);
        // the tile queue must not change the reduction order: results are
        // bitwise identical to the serial path, not merely close
        let k = 17;
        let a = rand_matrix(seed, m, k);
        let b = rand_matrix(seed ^ 8, k, n);
        let mut serial = Matrix::zeros(m, n);
        gemm(&mut serial, 1.0, &a, &b, 0.0);
        let mut parallel = Matrix::zeros(m, n);
        let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
        gemm_with(&mut parallel, 1.0, &a, &b, 0.0, threads, blk, krn);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    });
}

#[test]
fn any_variant_any_shape_matches_emulator_bitwise() {
    check_cases(
        "any_variant_any_shape_matches_emulator_bitwise",
        48,
        |rng| {
            let kpick = rng.range(0usize..1000);
            let seed = rng.range(0u64..500);
            let m = rng.range(1usize..36);
            let k = rng.range(1usize..36);
            let n = rng.range(1usize..36);
            let kc = rng.range(1usize..40);
            let alpha = rng.range(-2.0f64..2.0);
            let beta = rng.range(-2.0f64..2.0);
            // variant-indexed: kpick maps uniformly onto the supported subset
            // of the registered table, so every microkernel shape — not just
            // the dispatch default — is pinned to the scalar oracle bit for bit
            let supported: Vec<_> = microkernels().iter().filter(|v| v.supported()).collect();
            let krn = supported[kpick % supported.len()];
            let a = rand_matrix(seed, m, k);
            let b = rand_matrix(seed ^ 10, k, n);
            let c0 = rand_matrix(seed ^ 11, m, n);
            let blk = GemmBlocking { mc: 16, kc, nc: 24 };
            let mut got = c0.clone();
            gemm_with(&mut got, alpha, &a, &b, beta, 1, blk, krn);
            let mut want = c0;
            gemm_emulated(&mut want, alpha, &a, &b, beta, kc, krn.fused);
            assert_eq!(got.as_slice(), want.as_slice());
        },
    );
}

#[test]
fn any_variant_parallel_is_bitwise_serial() {
    check_cases("any_variant_parallel_is_bitwise_serial", 48, |rng| {
        let kpick = rng.range(0usize..1000);
        let seed = rng.range(0u64..500);
        let m = rng.range(1usize..48);
        let n = rng.range(1usize..48);
        let threads = rng.range(1usize..8);
        // the tile queue stays order-preserving for every variant geometry,
        // not just the default (mr, nr)
        let supported: Vec<_> = microkernels().iter().filter(|v| v.supported()).collect();
        let krn = supported[kpick % supported.len()];
        let k = 13;
        let a = rand_matrix(seed, m, k);
        let b = rand_matrix(seed ^ 12, k, n);
        let blk = GemmBlocking {
            mc: 12,
            kc: 5,
            nc: 16,
        };
        let mut serial = Matrix::zeros(m, n);
        gemm_with(&mut serial, 1.0, &a, &b, 0.0, 1, blk, krn);
        let mut parallel = Matrix::zeros(m, n);
        gemm_with(&mut parallel, 1.0, &a, &b, 0.0, threads, blk, krn);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    });
}

#[test]
fn beta_zero_ignores_prior_contents() {
    check_cases("beta_zero_ignores_prior_contents", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..24);
        // beta == 0 must overwrite, never read, C — NaN poison proves it
        let a = rand_matrix(seed, n, n);
        let b = rand_matrix(seed ^ 9, n, n);
        let mut c = Matrix::from_fn(n, n, |_, _| f64::NAN);
        gemm(&mut c, 1.0, &a, &b, 0.0);
        assert!(c.as_slice().iter().all(|x| x.is_finite()));
        assert!(c.allclose(&matmul(&a, &b), 1e-12));
    });
}

#[test]
fn trsm_inverts_triangular_products() {
    check_cases("trsm_inverts_triangular_products", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..30);
        let rhs = rng.range(1usize..5);
        let mut rng = SplitMix64::new(seed);
        let l = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                rng.range(-0.5..0.5)
            } else if i == j {
                1.5
            } else {
                0.0
            }
        });
        let x = Matrix::random(&mut rng, n, rhs);
        let mut b = matmul(&l, &x);
        trsm_lower_left(&l, &mut b, false);
        assert!(b.allclose(&x, 1e-7));
        // and the transposed path
        let u = l.transpose();
        let mut b2 = matmul(&u, &x);
        trsm_upper_left(&u, &mut b2, false);
        assert!(b2.allclose(&x, 1e-7));
        let y = Matrix::random(&mut rng, rhs, n);
        let mut b3 = matmul(&y, &u);
        trsm_upper_right(&mut b3, &u, false);
        assert!(b3.allclose(&y, 1e-7));
    });
}

#[test]
fn lu_determinant_matches_permutation_parity() {
    check_cases("lu_determinant_matches_permutation_parity", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(2usize..12);
        // det(PA) = det(L)det(U) = prod(diag U); det(A) = sign * that
        let a = rand_matrix(seed, n, n);
        if let Ok(f) = lu_unblocked(&a) {
            // cross-check with the production driver
            let fb = lu_parallel(&a, 3).unwrap();
            assert!(
                (f.determinant() - fb.determinant()).abs() <= 1e-6 * f.determinant().abs().max(1.0)
            );
        }
    });
}

#[test]
fn lu_solve_inverts() {
    check_cases("lu_solve_inverts", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..20);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let x = Matrix::random(&mut rng, n, 2);
        let b = a.matmul(&x);
        let f = lu_unblocked(&a).unwrap();
        assert!(f.solve(&b).allclose(&x, 1e-7));
    });
}

#[test]
fn lu_parallel_is_bitwise_blocked() {
    check_cases("lu_parallel_is_bitwise_blocked", 48, |rng| {
        let seed = rng.range(0u64..500);
        let m = rng.range(1usize..40);
        let n = rng.range(1usize..40);
        let nb = rng.range(1usize..12);
        let threads = rng.range(1usize..8);
        // the lookahead pipeline reorders work, never arithmetic: over
        // awkward rectangular shapes, panel widths, and thread counts the
        // factors must be bitwise identical to the serial blocked path,
        // and singularity refusals must name the same column
        let a = rand_matrix(seed, m, n);
        let serial = lu_blocked(&a, nb);
        let parallel = lu_parallel_with(&a, nb, threads);
        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.perm, p.perm);
                assert_eq!(s.sign, p.sign);
                assert_eq!(s.lu.as_slice(), p.lu.as_slice());
            }
            (Err(se), Err(pe)) => assert_eq!(se.column, pe.column),
            (s, p) => panic!(
                "outcomes differ: serial ok={} parallel ok={}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    });
}

#[test]
fn lu_parallel_wilkinson_bitwise() {
    check_cases("lu_parallel_wilkinson_bitwise", 48, |rng| {
        let n = rng.range(2usize..60);
        let nb = rng.range(1usize..10);
        let threads = rng.range(1usize..8);
        // the maximal-element-growth matrix: every elimination step doubles
        // the trailing entries, so any arithmetic reordering would surface
        // as a bit flip long before it perturbed the residual
        let a = Matrix::from_fn(n, n, |i, j| {
            if j + 1 == n || i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            }
        });
        let s = lu_blocked(&a, nb).unwrap();
        let p = lu_parallel_with(&a, nb, threads).unwrap();
        assert_eq!(s.perm, p.perm);
        assert_eq!(s.lu.as_slice(), p.lu.as_slice());
    });
}

#[test]
fn parallel_trsm_is_bitwise_serial() {
    check_cases("parallel_trsm_is_bitwise_serial", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..40);
        let rhs = rng.range(1usize..9);
        let threads = rng.range(1usize..8);
        // column slicing must not change any per-column reduction order
        let mut rng = SplitMix64::new(seed);
        let l = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                rng.range(-0.5..0.5)
            } else if i == j {
                1.5
            } else {
                0.0
            }
        });
        let b0 = Matrix::random(&mut rng, n, rhs);
        let mut serial = b0.clone();
        trsm_lower_left(&l, &mut serial, false);
        let mut parallel = b0.clone();
        trsm_lower_left_parallel(&l, &mut parallel, false, threads);
        assert_eq!(serial.as_slice(), parallel.as_slice());
        let u = l.transpose();
        let mut su = b0.clone();
        trsm_upper_left(&u, &mut su, true);
        let mut pu = b0;
        trsm_upper_left_parallel(&u, &mut pu, true, threads);
        assert_eq!(su.as_slice(), pu.as_slice());
    });
}

#[test]
fn cholesky_reconstructs_spd() {
    check_cases("cholesky_reconstructs_spd", 48, |rng| {
        let seed = rng.range(0u64..500);
        let n = rng.range(1usize..24);
        let nb = rng.range(1usize..8);
        let mut rng = SplitMix64::new(seed);
        let a = random_spd(&mut rng, n);
        let l = cholesky_blocked(&a, nb).unwrap();
        assert!(cholesky_residual(&a, &l) < 1e-10);
    });
}

#[test]
fn block_roundtrip_preserves_data() {
    check_cases("block_roundtrip_preserves_data", 48, |rng| {
        let seed = rng.range(0u64..500);
        let rows = rng.range(1usize..16);
        let cols = rng.range(1usize..16);
        let r0 = rng.range(0usize..8);
        let c0 = rng.range(0usize..8);
        let big = rand_matrix(seed, rows + r0 + 2, cols + c0 + 2);
        let block = big.block(r0, c0, rows, cols);
        let mut copy = big.clone();
        copy.set_block(r0, c0, &block);
        assert_eq!(copy, big);
    });
}
