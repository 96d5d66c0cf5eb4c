//! Property tests pinning the service's two numerical contracts:
//!
//! * a cache-hit solve is **bitwise identical** to a fresh-factor solve
//!   (the cache may never change an answer, not even in the last ulp),
//! * a batched multi-RHS solve matches solving each column separately.

use denselin::rng::{check_cases, SplitMix64};
use denselin::{lu_parallel, Matrix};
use solversrv::{serve, MatrixKind, ServiceConfig, SolveRequest};

fn system(n: usize, seed: u64, k: usize) -> (Matrix, Matrix) {
    let mut rng = SplitMix64::new(seed);
    let a = Matrix::random_diagonally_dominant(&mut rng, n);
    let b = Matrix::random(&mut rng, n, k);
    (a, b)
}

#[test]
fn cache_hit_solve_is_bitwise_identical_to_fresh() {
    check_cases("cache_hit_solve_is_bitwise_identical_to_fresh", 12, |rng| {
        let n = rng.range(4usize..48);
        let seed = rng.range(0u64..1_000);
        let k = rng.range(1usize..4);
        let (a, b) = system(n, seed, k);
        let ((miss, hit), _) = serve(ServiceConfig::default(), |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            let miss = h.solve(SolveRequest::new(1, b.clone())).unwrap();
            let hit = h.solve(SolveRequest::new(1, b.clone())).unwrap();
            (miss, hit)
        });
        assert!(!miss.stats.cache_hit);
        assert!(hit.stats.cache_hit);
        assert_eq!(miss.x.as_slice(), hit.x.as_slice());

        // and both match the same factorization driven directly, outside
        // the service (panel width must match the service's)
        let f = lu_parallel(&a, ServiceConfig::default().panel.min(n)).unwrap();
        let direct = f.solve(&b);
        assert_eq!(direct.as_slice(), hit.x.as_slice());
    });
}

#[test]
fn batched_multi_rhs_matches_per_column_solves() {
    check_cases("batched_multi_rhs_matches_per_column_solves", 12, |rng| {
        let n = rng.range(4usize..40);
        let seed = rng.range(0u64..1_000);
        let k = rng.range(2usize..6);
        let (a, b) = system(n, seed, k);
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let (results, _) = serve(cfg, |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            h.solve(SolveRequest::new(1, b.clone())).unwrap(); // warm factor
                                                               // submit every column while the single worker is busy, so the
                                                               // service is free to coalesce them into one batch
            let tickets: Vec<_> = (0..k)
                .map(|j| h.submit(SolveRequest::new(1, b.block(0, j, n, 1))).unwrap())
                .collect();
            let per_col: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
            let joint = h.solve(SolveRequest::new(1, b.clone())).unwrap();
            (per_col, joint)
        });
        let (per_col, joint) = results;
        for (j, resp) in per_col.iter().enumerate() {
            assert!(resp.residual <= 1e-10);
            let col = joint.x.block(0, j, n, 1);
            // identical factor, identical triangular kernels; only the
            // batch width differs, which must not move the answer beyond
            // roundoff reassociation in the blocked update
            let diff = col.sub(&resp.x).max_norm();
            let scale = resp.x.max_norm().max(1.0);
            assert!(diff <= 1e-12 * scale, "col {j} diff {diff:.3e}");
        }
    });
}

#[test]
fn rejected_requests_leave_no_orphan_state() {
    check_cases("rejected_requests_leave_no_orphan_state", 12, |rng| {
        let n = rng.range(4usize..24);
        let seed = rng.range(0u64..1_000);
        let (a, b) = system(n, seed, 1);
        let cfg = ServiceConfig {
            workers: 1,
            max_queue: 1,
            ..ServiceConfig::default()
        };
        let ((), report) = serve(cfg, |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            let mut tickets = Vec::new();
            for _ in 0..16 {
                if let Ok(t) = h.submit(SolveRequest::new(1, b.clone())) {
                    tickets.push(t);
                }
            }
            for t in tickets {
                t.wait().unwrap();
            }
        });
        assert_eq!(
            report.stats.submitted, report.stats.completed,
            "every accepted request answered exactly once"
        );
        assert_eq!(report.stats.failed, 0);
    });
}
