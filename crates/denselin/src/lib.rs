//! `denselin` — the dense linear algebra substrate of the COnfLUX
//! reproduction.
//!
//! The paper's implementation links against vendor BLAS/LAPACK; this crate
//! replaces that dependency with pure-Rust kernels that are fast enough to
//! validate full factorizations numerically:
//!
//! * [`matrix`] — the row-major [`matrix::Matrix`] type,
//! * [`mod@gemm`] — packed register-blocked matrix multiply: one driver,
//!   [`gemm_with`] (explicit threads, blocking and microkernel, with a
//!   work-stealing tile-queue parallel path), the [`gemm()`] / [`gemm_auto`]
//!   front ends that resolve those once, and the
//!   [`gemm::gemm_reference`] / [`gemm_emulated`] oracles,
//! * [`trsm`] — the four triangular-solve variants LU needs, with
//!   column-sliced parallel left-solves for multi-RHS batches,
//! * [`lu_parallel`][mod@lu_parallel] — the production LU driver:
//!   lookahead-pipelined, multithreaded, partial pivoting,
//! * [`lu`] — the factorization type plus two references:
//!   [`lu_unblocked`] (the tolerance oracle) and [`lu_blocked`] (the
//!   bitwise reference [`lu_parallel()`] is tested against),
//! * [`pool`] — the persistent worker pool every parallel kernel shares,
//! * [`tune`] — persistent per-host microkernel/blocking tuning (the
//!   macro-generated variant table lives in [`mod@gemm`]; the `tune`
//!   bench bin sweeps it and persists the winner, and a process without a
//!   record uses [`GemmBlocking::default`]),
//! * [`tournament`] — communication-avoiding tournament pivoting,
//! * [`rng`] — SplitMix64, the workspace's one seeded generator, and the
//!   seeded property-case runner,
//! * [`blockcyclic`] — ScaLAPACK-style block-cyclic index arithmetic.
//!
//! # Example
//!
//! Factor a small matrix with the lookahead partial-pivoting LU and
//! verify `P·A ≈ L·U` through the residual:
//!
//! ```
//! use denselin::{lu_parallel, Matrix};
//!
//! let a = Matrix::from_fn(8, 8, |i, j| {
//!     if i == j { 4.0 } else { 1.0 / (2.0 + i as f64 + j as f64) }
//! });
//! let f = lu_parallel(&a, 4).expect("well conditioned");
//! assert!(f.residual(&a) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod blockcyclic;
pub mod cholesky;
pub mod condition;
pub mod gemm;
pub mod lu;
pub mod lu_parallel;
pub mod matrix;
pub mod pool;
pub mod qr;
pub mod refine;
pub mod rng;
pub mod tournament;
pub mod trsm;
pub mod tune;

pub use blockcyclic::{BlockCyclic1D, BlockCyclic2D};
pub use cholesky::{cholesky_blocked, cholesky_unblocked, NotPositiveDefinite};
pub use condition::{condition_estimate, one_norm};
pub use gemm::{
    auto_threads, default_isa_kernel, force_kernel, gemm, gemm_auto, gemm_emulated,
    gemm_update_block, gemm_with, matmul, microkernels, selected_kernel, GemmBlocking, Microkernel,
};
pub use lu::{lu_blocked, lu_unblocked, LuFactorization, SingularMatrix};
pub use lu_parallel::{lu_parallel, lu_parallel_with};
pub use matrix::Matrix;
pub use qr::{qr_householder, tsqr, QrFactorization};
pub use refine::{solve_refined, Refinement};
pub use rng::SplitMix64;
pub use tournament::{tournament_pivots, PivotSelection};
