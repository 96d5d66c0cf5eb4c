//! Property-based tests over the core invariants of the reproduction:
//! block-cyclic index arithmetic, LU reconstruction, tournament pivoting,
//! volume conservation, and COnfLUX end-to-end correctness.
//!
//! Each property runs a fixed number of seeded cases through
//! `denselin::rng::check_cases`; a failing case prints the seed that
//! replays it. Matrix inputs come from the `verifier` crate's
//! deterministic, class-aware generators: the same `(class, n, mseed)`
//! triple reproduces the same entries here, in the fuzz harness, and in a
//! corpus replay — so a failure converts directly into a
//! `verify_seeds.txt` line. Scenario-seed properties shrink a failing
//! scenario through `verifier::minimize` before reporting it. The final
//! group drives the full differential oracle on random scenario seeds.

use conflux_repro::conflux::{factorize, ConfluxConfig, LuGrid};
use conflux_repro::denselin::blockcyclic::BlockCyclic1D;
use conflux_repro::denselin::rng::check_cases;
use conflux_repro::denselin::trsm::trsm_lower_left;
use conflux_repro::denselin::{lu_parallel, lu_unblocked, tournament_pivots, Matrix};
use conflux_repro::simnet::Network;
use conflux_repro::sparselin::{
    banded, cg, random_density, spd_laplacian, spmv, spmv_parallel, CgConfig, CsrMatrix,
    PrecondSetup, Preconditioner, SparseTriangle,
};
use verifier::{matgen, minimize, run_scenario, MatrixClass, Scenario, SplitMix64};

/// Classes on which every pivoting strategy agrees (well-separated
/// candidate magnitudes), so cross-implementation permutation equality is
/// part of the contract.
const STABLE_CLASSES: [MatrixClass; 2] = [MatrixClass::Well, MatrixClass::DiagDom];

/// A deterministic dense panel with entries in `[-1, 1)`.
fn random_panel(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let mut p = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            p[(i, j)] = rng.symmetric();
        }
    }
    p
}

/// The leading `cols` columns of Wilkinson's matrix pattern: every row
/// below row `cols` is identical, so any stack of such rows is exactly
/// singular — the shape that once made tournament playoffs panic.
fn wilkinson_panel(rows: usize, cols: usize) -> Matrix {
    let mut p = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            p[(i, j)] = if i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            };
        }
    }
    p
}

/// Fail with a minimized reproducer when `failure` reports a problem with
/// `sc`: the scenario analogue of shrinking, through the verifier's greedy
/// `minimize`.
fn check_scenario(sc: &Scenario, failure: impl Fn(&Scenario) -> Option<String>) {
    if let Some(msg) = failure(sc) {
        let (minimal, steps) = minimize(sc, |cand| failure(cand).is_some());
        panic!("{msg}\nscenario: {sc}\nminimized in {steps} steps: {minimal}");
    }
}

#[test]
fn block_cyclic_roundtrip() {
    check_cases("block_cyclic_roundtrip", 64, |rng| {
        let n = rng.range(1usize..200);
        let nb = rng.range(1usize..16);
        let p = rng.range(1usize..8);
        let map = BlockCyclic1D::new(n, nb, p);
        for g in 0..n {
            let owner = map.owner(g);
            assert!(owner < p);
            assert_eq!(map.global_index(owner, map.local_index(g)), g);
        }
        let total: usize = (0..p).map(|q| map.local_len(q)).sum();
        assert_eq!(total, n);
    });
}

#[test]
fn lu_reconstructs_generated_matrices() {
    check_cases("lu_reconstructs_generated_matrices", 64, |rng| {
        let mseed = rng.range(0u64..1000);
        let n = rng.range(2usize..24);
        let class = STABLE_CLASSES[rng.range(0usize..2)];
        let a = matgen::matrix(class, n, mseed);
        if let Ok(f) = lu_unblocked(&a) {
            assert!(
                f.residual(&a) < 1e-9,
                "{class:?} residual {}",
                f.residual(&a)
            );
            // the production driver agrees, including on the permutation
            // (the classes here have well-separated pivot candidates)
            let fb = lu_parallel(&a, 4).unwrap();
            assert_eq!(&f.perm, &fb.perm);
        }
    });
}

#[test]
fn tournament_pivots_are_distinct_and_in_range() {
    check_cases("tournament_pivots_are_distinct_and_in_range", 64, |rng| {
        let seed = rng.range(0u64..1000);
        let rows = rng.range(4usize..40);
        let v = rng.range(1usize..6).min(rows);
        let parts = rng.range(1usize..6);
        let panel = random_panel(seed, rows, v);
        let sel = tournament_pivots(&panel, v, parts).unwrap();
        assert_eq!(sel.pivot_rows.len(), v);
        let mut sorted = sel.pivot_rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), v);
        assert!(sorted.iter().all(|&r| r < rows));
    });
}

#[test]
fn tournament_survives_singular_playoff_stacks() {
    check_cases("tournament_survives_singular_playoff_stacks", 64, |rng| {
        let rows = rng.range(6usize..40);
        let v = rng.range(2usize..6);
        let parts = rng.range(1usize..6);
        // duplicate rows make every playoff stack rank-deficient; the
        // tournament must still return v distinct rows whose submatrix is
        // nonsingular (regression for the zero-pivot panic in
        // denselin::tournament)
        let v = v.min(rows / 2);
        let panel = wilkinson_panel(rows, v);
        let sel = tournament_pivots(&panel, v, parts).unwrap();
        assert_eq!(sel.pivot_rows.len(), v);
        let mut chosen = Matrix::zeros(v, v);
        for (i, &r) in sel.pivot_rows.iter().enumerate() {
            assert!(r < rows);
            for j in 0..v {
                chosen[(i, j)] = panel[(r, j)];
            }
        }
        assert!(
            lu_unblocked(&chosen).is_ok(),
            "selected rows {:?} are singular",
            sel.pivot_rows
        );
    });
}

#[test]
fn network_send_receive_conservation() {
    check_cases("network_send_receive_conservation", 64, |rng| {
        let len = rng.range(1usize..40);
        let ops: Vec<(usize, usize, u64)> = (0..len)
            .map(|_| {
                (
                    rng.range(0usize..6),
                    rng.range(0usize..6),
                    rng.range(1u64..100),
                )
            })
            .collect();
        let mut net = Network::new(6);
        for &(src, dst, elems) in &ops {
            net.send(src, dst, elems, "p2p");
        }
        let sent: u64 = (0..6).map(|r| net.stats.sent_by(r)).sum();
        let recv: u64 = (0..6).map(|r| net.stats.received_by(r)).sum();
        assert_eq!(sent, recv);
        let expected: u64 = ops
            .iter()
            .filter(|(s, d, _)| s != d)
            .map(|(_, _, e)| e)
            .sum();
        assert_eq!(sent, expected);
    });
}

#[test]
fn collective_volumes_conserve() {
    check_cases("collective_volumes_conserve", 64, |rng| {
        let group_size = rng.range(1usize..12);
        let elems = rng.range(1u64..50);
        let mut net = Network::new(group_size);
        let group: Vec<usize> = (0..group_size).collect();
        net.broadcast(&group, elems, "b");
        net.reduce(&group, elems, "r");
        net.allgather(&group, elems, "ag");
        net.butterfly(&group, elems, "t");
        let sent: u64 = (0..group_size).map(|r| net.stats.sent_by(r)).sum();
        let recv: u64 = (0..group_size).map(|r| net.stats.received_by(r)).sum();
        assert_eq!(sent, recv);
    });
}

#[test]
fn scenario_encoding_roundtrips() {
    check_cases("scenario_encoding_roundtrips", 64, |rng| {
        check_scenario(&Scenario::from_seed(rng.next_u64()), |sc| {
            if let Err(e) = sc.validate() {
                return Some(format!("invalid scenario: {e:?}"));
            }
            let line = sc.encode();
            (Scenario::decode(&line).ok().as_ref() != Some(sc))
                .then(|| format!("`{line}` does not decode to the same scenario"))
        });
    });
}

#[test]
fn minimize_preserves_the_failing_property() {
    check_cases("minimize_preserves_the_failing_property", 64, |rng| {
        let sc = Scenario::from_seed(rng.range(0u64..10_000));
        let kernel = sc.kernel;
        let (minimal, _steps) = minimize(&sc, |cand| cand.kernel == kernel);
        assert_eq!(minimal.kernel, kernel);
        assert!(minimal.validate().is_ok());
        assert!(minimal.n() <= sc.n());
        assert!(minimal.ranks() <= sc.ranks());
    });
}

// heavier cases: fewer iterations

#[test]
fn conflux_correct_on_random_configs() {
    check_cases("conflux_correct_on_random_configs", 12, |rng| {
        let mseed = rng.range(0u64..100);
        let nb_blocks = rng.range(3usize..8);
        let v = 4usize << rng.range(1usize..3); // 8 or 16
        let q = rng.range(1usize..3);
        let c = rng.range(1usize..3);
        let class = STABLE_CLASSES[rng.range(0usize..2)];
        if v < c {
            return;
        }
        let n = nb_blocks * v;
        let a = matgen::matrix(class, n, mseed);
        let grid = LuGrid::new(q * q * c, q, c);
        let run = factorize(&ConfluxConfig::dense(n, v, grid), Some(&a));
        let f = run.factors.unwrap();
        assert!(
            f.residual(&a) < 1e-8,
            "residual {} at n={n} v={v} q={q} c={c}",
            f.residual(&a)
        );
        // permutation is a bijection
        let mut p = f.perm.clone();
        p.sort_unstable();
        assert_eq!(p, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn conflux_volume_independent_of_data() {
    check_cases("conflux_volume_independent_of_data", 12, |rng| {
        // two different matrices, same config + synthetic pivots
        // => identical volumes
        use conflux_repro::conflux::PivotChoice;
        let mseed = rng.range(0u64..50);
        let n = 64;
        let grid = LuGrid::new(8, 2, 2);
        let mut cfg = ConfluxConfig::dense(n, 8, grid);
        cfg.pivot_choice = PivotChoice::Synthetic;
        let a = matgen::matrix(MatrixClass::DiagDom, n, mseed);
        let b = matgen::matrix(MatrixClass::DiagDom, n, !mseed);
        let ra = factorize(&cfg, Some(&a));
        let rb = factorize(&cfg, Some(&b));
        assert_eq!(ra.stats.total_sent(), rb.stats.total_sent());
    });
}

#[test]
fn tournament_growth_tracks_partial_pivoting() {
    check_cases("tournament_growth_tracks_partial_pivoting", 12, |rng| {
        // randomized companion of crates/verifier/tests/growth.rs
        let mseed = rng.range(0u64..1000);
        let n = 16;
        let a = matgen::matrix(MatrixClass::Well, n, mseed);
        let grid = LuGrid::new(4, 2, 1);
        let run = factorize(&ConfluxConfig::dense(n, 4, grid), Some(&a));
        let t = run.factors.unwrap().to_factorization().growth_factor(&a);
        let p = lu_unblocked(&a).unwrap().growth_factor(&a);
        assert!(
            t <= 16.0 * p.max(f64::MIN_POSITIVE),
            "tournament growth {t:.3e} vs partial {p:.3e}"
        );
    });
}

#[test]
fn differential_oracle_accepts_random_scenarios() {
    check_cases("differential_oracle_accepts_random_scenarios", 12, |rng| {
        // the full oracle: five LU implementations, Cholesky, the serving
        // layer, the sparse family, invariants — any disagreement fails
        // the property (the seed range is swept exhaustively by
        // `verify-fuzz`)
        check_scenario(&Scenario::from_seed(rng.range(0u64..5000)), |sc| {
            let report = run_scenario(sc);
            (!report.passed()).then(|| report.summary())
        });
    });
}

/// The strict lower triangle plus diagonal of `a`, as its own CSR matrix
/// (the shape `SparseTriangle::lower` wants).
fn lower_of(a: &CsrMatrix) -> CsrMatrix {
    let mut trip = Vec::new();
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j <= i {
                trip.push((i, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(a.rows(), a.cols(), &trip).unwrap()
}

// the sparse kernel family: determinism, triangular solves, CG theory

#[test]
fn spmv_parallel_is_bitwise_serial() {
    check_cases("spmv_parallel_is_bitwise_serial", 48, |rng| {
        let n = rng.range(1usize..150);
        let pattern = rng.range(0usize..3);
        let seed = rng.range(0u64..1000);
        let threads = rng.range(1usize..10);
        // awkward shapes on purpose: n smaller than the thread count,
        // single rows, empty bands — the nnz-balanced row split must stay
        // bitwise in all of them
        let a = match pattern {
            0 => banded(n, (n / 4).max(1), seed),
            1 => random_density(n, 0.15, seed),
            _ => spd_laplacian(n.clamp(1, 12), n.div_ceil(12).max(1), 0.5),
        };
        let m = a.rows();
        let mut rng = SplitMix64::new(seed ^ 0xabcd);
        let x: Vec<f64> = (0..m).map(|_| rng.symmetric()).collect();
        let mut y_serial = vec![0.0f64; m];
        spmv(&a, &x, &mut y_serial).unwrap();
        let mut y_par = vec![0.0f64; m];
        spmv_parallel(&a, &x, &mut y_par, threads).unwrap();
        for i in 0..m {
            assert_eq!(
                y_serial[i].to_bits(),
                y_par[i].to_bits(),
                "row {i} diverges at {threads} threads"
            );
        }
    });
}

#[test]
fn sptrsv_matches_dense_substitution() {
    check_cases("sptrsv_matches_dense_substitution", 48, |rng| {
        let n = rng.range(1usize..80);
        let hb = rng.range(1usize..10);
        let seed = rng.range(0u64..1000);
        let threads = rng.range(1usize..6);
        // level-scheduled sparse forward substitution vs the dense blocked
        // TRSM on the densified triangle: same math, different order, so
        // the contract is agreement to roundoff
        let l = lower_of(&banded(n, hb.min(n), seed));
        let tri = SparseTriangle::lower(l.clone()).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x771a);
        let b: Vec<f64> = (0..n).map(|_| rng.symmetric()).collect();
        let mut x_sparse = vec![0.0f64; n];
        tri.solve(&b, &mut x_sparse, threads).unwrap();

        let ld = l.to_dense();
        let mut x_dense = Matrix::from_fn(n, 1, |i, _| b[i]);
        trsm_lower_left(&ld, &mut x_dense, false);
        let scale = (0..n).map(|i| x_dense[(i, 0)].abs()).fold(1.0f64, f64::max);
        for i in 0..n {
            assert!(
                (x_sparse[i] - x_dense[(i, 0)]).abs() <= 1e-9 * scale,
                "row {i}: sparse {} vs dense {}",
                x_sparse[i],
                x_dense[(i, 0)]
            );
        }
    });
}

#[test]
fn cg_respects_the_laplacian_iteration_bound() {
    check_cases("cg_respects_the_laplacian_iteration_bound", 48, |rng| {
        let nx = rng.range(2usize..14);
        let ny = rng.range(2usize..14);
        let shift_idx = rng.range(0usize..4);
        let seed = rng.range(0u64..1000);
        // spectrum of the shifted 5-point Laplacian lives in
        // [shift, shift + 8], so κ ≤ (shift + 8)/shift and the classical
        // CG bound gives ‖e_k‖_A ≤ 2((√κ−1)/(√κ+1))^k ‖e_0‖_A; solving
        // for the 2-norm residual target (which lags the A-norm by at
        // most another √κ) bounds the iteration count analytically
        let shift = [0.5f64, 1.0, 2.0, 4.0][shift_idx];
        let a = spd_laplacian(nx, ny, shift);
        let n = a.rows();
        let mut rng = SplitMix64::new(seed);
        let b: Vec<f64> = (0..n).map(|_| rng.symmetric()).collect();
        let setup = PrecondSetup::prepare(Preconditioner::None, &a).unwrap();
        let tol = 1e-10;
        let cfg = CgConfig {
            tol,
            max_iters: 4 * n,
            threads: 0,
            record_iterates: false,
        };
        let run = cg(&a, &b, &setup, &cfg).unwrap();
        assert!(run.converged, "no convergence in {} iters", run.iterations);

        let kappa = (shift + 8.0) / shift;
        let rho = (kappa.sqrt() - 1.0) / (kappa.sqrt() + 1.0);
        // iterations until 2·ρ^k ≤ tol/√κ, plus slack for the floating-
        // point gap between theory and the recurrence residual
        let bound = ((tol / kappa.sqrt() / 2.0).ln() / rho.ln()).ceil() as usize + 2;
        let bound = bound.min(n + 2); // exact-arithmetic termination
        assert!(
            run.iterations <= bound,
            "{} iterations exceeds the κ={:.1} bound {} (n={})",
            run.iterations,
            kappa,
            bound,
            n
        );
    });
}
