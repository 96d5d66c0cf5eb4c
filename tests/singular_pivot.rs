//! A rank-deficient input whose tournament leaves only a singular `v x v`
//! pivot block must end both fallible COnfLUX drivers with a typed
//! `LuCause::SingularPivot`, never a panic (and never a rank-thread panic
//! that the threaded driver's peers wait out until their receive timeout).
//!
//! The input is the differential-fuzz scenario below (sweep seed 22), a
//! rank-3 product of 4 x 3 and 3 x 4 factors. Its step-1 pivot block comes
//! out exactly singular under the fused multiply-add kernels, so dispatch
//! is forced to a supported fused variant; a host without one skips.

use std::panic::{catch_unwind, AssertUnwindSafe};

use conflux_repro::conflux::{factorize, factorize_threaded, try_factorize};
use conflux_repro::conflux::{ConfluxConfig, LuCause, LuGrid};
use conflux_repro::denselin::{force_kernel, microkernels};
use conflux_repro::verifier::{matgen, Scenario};

const SCENARIO: &str =
    "kernel=lu n=4 v=2 q=2 c=2 class=rankdef mseed=13077985301326917637 nrhs=3 faults=none";

#[test]
fn singular_pivot_block_is_a_typed_error_in_both_drivers() {
    let Some(krn) = microkernels().iter().find(|k| k.fused && k.supported()) else {
        eprintln!("no fused microkernel on this host; skipping");
        return;
    };
    let _force = force_kernel(krn.name).unwrap();
    let sc = Scenario::decode(SCENARIO).unwrap();
    let a = matgen::matrix(sc.class, sc.n(), sc.mseed);
    let cfg = ConfluxConfig::dense(sc.n(), sc.v, LuGrid::new(sc.ranks(), sc.q, sc.c));
    let expected = LuCause::SingularPivot { step: 1, column: 3 };

    let orchestrated = try_factorize(&cfg, Some(&a)).unwrap_err();
    assert_eq!(orchestrated.error, expected);
    assert_eq!(orchestrated.step, Some(1));

    let threaded = factorize_threaded(&cfg, &a).unwrap_err();
    assert_eq!(threaded.error, expected);
    assert_eq!(threaded.step, Some(1));
    // both stop right after broadcasting the singular block
    assert_eq!(threaded.stats, orchestrated.stats);

    // the infallible entry point still panics, naming the cause
    let panic = catch_unwind(AssertUnwindSafe(|| factorize(&cfg, Some(&a)))).unwrap_err();
    let message = panic.downcast_ref::<String>().unwrap();
    assert!(
        message.contains("singular pivot block: zero pivot in column 3 at step 1"),
        "{message}"
    );
}
