//! Execution primitives shared by the single-node service
//! ([`crate::service`]) and the sharded cluster ([`crate::cluster`]):
//! result slots, the registered-matrix record, factorization routing
//! (Cholesky / distributed / local lookahead LU) and iterative refinement.
//!
//! Keeping these here means the cluster's failover path factors and
//! refines with *exactly* the same code as the single-node service, so
//! the verifier's bitwise-equality oracles hold across both.

use std::sync::{Arc, Condvar, Mutex};

use conflux::{factorize_threaded, ConfluxConfig};
use denselin::gemm::gemm_auto;
use denselin::lu::SingularMatrix;
use denselin::{cholesky_blocked, lu_parallel, solve_refined, Matrix};
use sparselin::{cg, CgConfig, CgOutcome, CsrMatrix, PrecondSetup, Preconditioner, SparseError};

use crate::api::{MatrixKind, SolveError, SolveResponse};
use crate::cache::CachedFactor;
use crate::fingerprint::Fingerprint;
use crate::service::DistributedConfig;

/// One registered matrix: the data, how to factor it, and its content
/// fingerprint.
#[derive(Clone)]
pub(crate) struct Registered {
    pub(crate) matrix: Arc<Matrix>,
    pub(crate) kind: MatrixKind,
    pub(crate) fp: Fingerprint,
}

/// One registered sparse system: the CSR matrix, the preconditioner its
/// solves will use, and the fingerprint keying its cached setup (contents
/// + preconditioner tag, see [`Fingerprint::with_tag`]).
#[derive(Clone)]
pub(crate) struct SparseRegistered {
    pub(crate) matrix: Arc<CsrMatrix>,
    pub(crate) precond: Preconditioner,
    pub(crate) fp: Fingerprint,
}

/// Either kind of registered operand. The cluster only replicates dense
/// factors, so it keeps using [`Registered`] directly; the single-node
/// service serves both families through one queue.
#[derive(Clone)]
pub(crate) enum AnyRegistered {
    Dense(Registered),
    Sparse(SparseRegistered),
}

/// The rendezvous cell a ticket waits on: a worker delivers exactly one
/// result, the client takes it.
#[derive(Default)]
pub(crate) struct Slot {
    pub(crate) cell: Mutex<Option<Result<SolveResponse, SolveError>>>,
    pub(crate) ready: Condvar,
}

impl Slot {
    pub(crate) fn deliver(&self, result: Result<SolveResponse, SolveError>) {
        *self.cell.lock().unwrap() = Some(result);
        self.ready.notify_all();
    }

    pub(crate) fn wait_take(&self) -> Result<SolveResponse, SolveError> {
        let mut cell = self.cell.lock().unwrap();
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = self.ready.wait(cell).unwrap();
        }
    }
}

/// A factorization outcome plus how it was obtained.
pub(crate) struct Factored {
    pub(crate) factor: CachedFactor,
    pub(crate) distributed: bool,
    pub(crate) spd_fallback: bool,
}

pub(crate) fn is_symmetric(a: &Matrix) -> bool {
    (0..a.rows()).all(|i| (0..i).all(|j| a[(i, j)] == a[(j, i)]))
}

/// Factor `a` according to `kind`: Cholesky for (actually) SPD matrices,
/// the distributed COnfLUX driver for compatible large cold misses, the
/// local lookahead LU otherwise.
pub(crate) fn factor_matrix(
    panel: usize,
    distributed: Option<DistributedConfig>,
    a: &Matrix,
    kind: MatrixKind,
) -> Result<Factored, SolveError> {
    let n = a.rows();
    let mut spd_fallback = false;
    if kind == MatrixKind::SymmetricPositiveDefinite && !is_symmetric(a) {
        // the blocked Cholesky only reads the lower triangle, so it can
        // "succeed" on a mis-tagged non-symmetric matrix and produce a
        // factor of the wrong matrix; catch the lie up front
        spd_fallback = true;
    } else if kind == MatrixKind::SymmetricPositiveDefinite {
        match cholesky_blocked(a, panel.min(n.max(1))) {
            Ok(l) => {
                return Ok(Factored {
                    factor: CachedFactor::Cholesky {
                        lt: l.transpose(),
                        l,
                    },
                    distributed: false,
                    spd_fallback: false,
                })
            }
            Err(_) => spd_fallback = true, // caller lied about SPD: use LU
        }
    }
    if let Some(d) = distributed {
        // the threaded driver asserts its preconditions; route around it
        // (to the local factorization) instead of panicking a worker
        let compatible = n >= d.min_n
            && d.grid.q.is_power_of_two()
            && d.tile >= d.grid.c
            && d.tile > 0
            && n.is_multiple_of(d.tile);
        if compatible {
            let ccfg = ConfluxConfig::dense(n, d.tile, d.grid);
            if let Ok(run) = factorize_threaded(&ccfg, a) {
                if let Some(factors) = run.factors {
                    return Ok(Factored {
                        factor: CachedFactor::Lu(factors.to_factorization()),
                        distributed: true,
                        spd_fallback,
                    });
                }
            }
            // fall through to the local path on any distributed failure
        }
    }
    // Every local factorization (including the cluster shards' failover
    // path) goes through the lookahead pipeline, which beats the serial
    // blocked reference at every order and thread count and matches it
    // bit for bit.
    match lu_parallel(a, panel.min(n.max(1))) {
        Ok(f) => Ok(Factored {
            factor: CachedFactor::Lu(f),
            distributed: false,
            spd_fallback,
        }),
        Err(SingularMatrix { column }) => Err(SolveError::Singular { column }),
    }
}

/// Refine one solve that missed its tolerance. Returns the refined
/// solution, its residual and the per-sweep history, or
/// [`SolveError::ToleranceNotMet`].
#[allow(clippy::type_complexity)]
pub(crate) fn refine_solution(
    factor: &CachedFactor,
    a: &Matrix,
    rhs: &Matrix,
    tolerance: f64,
    sweeps: usize,
    x0: Matrix,
    residual0: f64,
) -> Result<(Matrix, f64, Vec<f64>), SolveError> {
    if let Some(lu) = factor.as_lu() {
        let out = solve_refined(a, lu, rhs, sweeps, tolerance);
        if out.converged {
            let residual = out.final_residual();
            return Ok((out.x, residual, out.residual_history));
        }
        return Err(SolveError::ToleranceNotMet {
            achieved: out.final_residual(),
            requested: tolerance,
            sweeps: out.sweeps(),
        });
    }
    // Cholesky: same r = b - A·x; x += A⁻¹r iteration through the factor
    let bnorm = rhs.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut x = x0;
    let mut best = residual0;
    let mut history = vec![residual0];
    for _ in 0..sweeps {
        if best <= tolerance {
            break;
        }
        let mut r = rhs.clone();
        gemm_auto(&mut r, -1.0, a, &x, 1.0);
        let mut dx = Matrix::zeros(r.rows(), r.cols());
        factor.solve_into(&r, &mut dx);
        let candidate = x.add(&dx);
        let mut r2 = rhs.clone();
        gemm_auto(&mut r2, -1.0, a, &candidate, 1.0);
        let rn = r2.frobenius_norm() / bnorm;
        if rn >= best {
            break; // stagnated: keep the better iterate
        }
        x = candidate;
        best = rn;
        history.push(rn);
    }
    if best <= tolerance {
        Ok((x, best, history))
    } else {
        Err(SolveError::ToleranceNotMet {
            achieved: best,
            requested: tolerance,
            sweeps: history.len() - 1,
        })
    }
}

// ---------------------------------------------------------------------------
// Sparse (CG) execution
// ---------------------------------------------------------------------------

/// Translate a sparse kernel failure into the service vocabulary.
pub(crate) fn map_sparse_error(e: SparseError) -> SolveError {
    match e {
        SparseError::ZeroDiagonal { row } => SolveError::Singular { column: row },
        SparseError::NotPositiveDefinite { iteration } => {
            SolveError::IndefiniteMatrix { iteration }
        }
        SparseError::NotConverged {
            iterations,
            residual,
        } => SolveError::ToleranceNotMet {
            achieved: residual,
            requested: 0.0,
            sweeps: iterations,
        },
        // structural errors the registration path already screens for;
        // surface the dimensions if one slips through
        SparseError::DimensionMismatch { expected, got } => SolveError::ShapeMismatch {
            matrix_rows: expected,
            rhs_rows: got,
        },
        SparseError::OutOfBounds { col, .. } | SparseError::NotTriangular { col, .. } => {
            SolveError::Singular { column: col }
        }
    }
}

/// Run the preconditioner setup for a registered sparse system — the
/// sparse analogue of [`factor_matrix`]: the expensive, cacheable phase.
pub(crate) fn prepare_sparse(
    a: &CsrMatrix,
    precond: Preconditioner,
) -> Result<Factored, SolveError> {
    let setup = PrecondSetup::prepare(precond, a).map_err(map_sparse_error)?;
    Ok(Factored {
        factor: CachedFactor::Sparse {
            setup: Arc::new(setup),
            n: a.rows(),
        },
        distributed: false,
        spd_fallback: false,
    })
}

/// Solve one member's multi-column RHS by CG, column by column, with
/// relaxed-tolerance degradation: a column whose *true* residual
/// `‖b − A·x‖₂/‖b‖₂` (recomputed by SpMV — CG's recursive residual drifts
/// below machine precision and cannot be trusted for acceptance) misses
/// `tolerance` is still accepted — flagged as degraded — if it is within
/// `relax × tolerance`; beyond that the member fails with
/// [`SolveError::ToleranceNotMet`] (no silent wrong answers).
///
/// Returns `(x, residual, degraded, history, iterations)` where `residual`
/// is the worst per-column true relative residual and `history` is the CG
/// residual trajectory of the worst column (the sparse counterpart of the
/// dense refinement history).
#[allow(clippy::type_complexity)]
pub(crate) fn solve_sparse_member(
    a: &CsrMatrix,
    setup: &PrecondSetup,
    rhs: &Matrix,
    tolerance: f64,
    relax: f64,
) -> Result<(Matrix, f64, bool, Vec<f64>, u64), SolveError> {
    let n = a.rows();
    let k = rhs.cols();
    let cfg = CgConfig {
        tol: tolerance,
        max_iters: 0, // n iterations: the exact-arithmetic CG bound
        threads: 0,   // auto: CG parallelism is bitwise thread-count independent
        record_iterates: false,
    };
    let mut x = Matrix::zeros(n, k);
    let mut worst = 0.0f64;
    let mut worst_history: Vec<f64> = Vec::new();
    let mut degraded = false;
    let mut iterations = 0u64;
    let mut col = vec![0.0f64; n];
    let mut ax = vec![0.0f64; n];
    for j in 0..k {
        for i in 0..n {
            col[i] = rhs[(i, j)];
        }
        let out: CgOutcome = cg(a, &col, setup, &cfg).map_err(map_sparse_error)?;
        iterations += out.iterations as u64;
        // judge acceptance on the recomputed true residual, same as the
        // dense path's batch GEMM check
        sparselin::spmv_parallel(a, &out.x, &mut ax, 0).map_err(map_sparse_error)?;
        let mut rr = 0.0f64;
        let mut bb = 0.0f64;
        for i in 0..n {
            let d = col[i] - ax[i];
            rr += d * d;
            bb += col[i] * col[i];
        }
        let res = if bb == 0.0 { 0.0 } else { (rr / bb).sqrt() };
        if res > tolerance {
            if res <= relax * tolerance {
                degraded = true;
            } else {
                return Err(SolveError::ToleranceNotMet {
                    achieved: res,
                    requested: tolerance,
                    sweeps: out.iterations,
                });
            }
        }
        if res >= worst {
            worst = res;
            worst_history = out.residual_history.clone();
        }
        for i in 0..n {
            x[(i, j)] = out.x[i];
        }
    }
    Ok((x, worst, degraded, worst_history, iterations))
}
