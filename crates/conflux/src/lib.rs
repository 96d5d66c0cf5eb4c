//! `conflux` — the paper's primary contribution: COnfLUX, a near
//! communication-optimal parallel LU factorization (Section 7).
//!
//! COnfLUX decomposes `P` processors into a `[√P1, √P1, c]` 2.5D grid
//! ([`grid`], with the Processor Grid Optimization), distributes the matrix
//! block-cyclically with `c`-fold replication ([`store`]), selects pivots
//! with a row-masking tournament ([`pivoting`]) and runs the 11-step
//! Algorithm 1 ([`algorithm`]) on the simulated machine from `simnet`,
//! counting every transferred element. Its communication volume is
//! `N³/(P√M) + O(N²/P)` per rank — a factor `1/3` above the lower bound the
//! `iobound` crate derives ([`model`]).
//!
//! Dense runs produce verifiable factors (`P·A ≈ L·U`); Phantom runs count
//! identical volumes at paper scale without floating-point work ([`tiles`]).
//!
//! # Example
//!
//! Count COnfLUX's communication on a 2.5D grid of 8 ranks (Phantom mode:
//! no numerics, exact volumes) and record an event timeline:
//!
//! ```
//! use conflux::{factorize, ConfluxConfig, LuGrid};
//!
//! let grid = LuGrid::new(8, 2, 2); // [2, 2, 2]: q = 2, c = 2 layers
//! let cfg = ConfluxConfig::phantom(32, 4, grid).with_timeline();
//! let run = factorize(&cfg, None);
//! assert!(run.stats.total_sent() > 0);
//! assert!(run.stats.phases().contains(&"02:tournament"));
//! // the timeline reconciles exactly with the accountant
//! let trace = run.timeline.unwrap();
//! assert_eq!(trace.rebuild_stats(), run.stats);
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod grid;
pub mod model;
pub mod pivoting;
pub mod store;
pub mod threaded;
pub mod tiles;

pub use algorithm::{
    factorize, try_factorize, ConfluxConfig, ConfluxRun, LuCause, LuError, LuFactors,
};
pub use grid::{choose_grid, LuGrid};
pub use model::{conflux_volume_per_rank, conflux_volume_total};
pub use pivoting::{PivotChoice, PivotStrategy};
pub use threaded::{factorize_threaded, try_factorize_threaded};
pub use tiles::{Mode, Tile};

pub mod cholesky;
pub use cholesky::{factorize_cholesky, CholeskyConfig, CholeskyRun};

pub mod mmm25d;
pub mod redistribute;
pub use mmm25d::{multiply_25d, Mmm25dConfig, Mmm25dRun};
