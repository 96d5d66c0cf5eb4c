//! Numerical equivalence: every distributed LU in the workspace must
//! produce factors of the same quality as the serial reference on the same
//! matrix, across grid shapes and block sizes.

use std::time::{Duration, Instant};

use conflux_repro::baselines::lu2d::{factorize_2d, Lu2dConfig, Variant};
use conflux_repro::baselines::{factorize_candmc, CandmcConfig};
use conflux_repro::conflux::{
    factorize, factorize_threaded, try_factorize, try_factorize_threaded, ConfluxConfig, LuCause,
    LuGrid, PivotChoice,
};
use conflux_repro::denselin::{lu_unblocked, Matrix, SplitMix64};
use conflux_repro::simnet::trace::EventKind;
use conflux_repro::simnet::{FaultPlan, SimnetError, Supervisor};

fn random_matrix(seed: u64, n: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::random(&mut rng, n, n)
}

#[test]
fn conflux_matches_serial_quality_across_grids() {
    for (seed, n, v, q, c) in [
        (100, 32, 4, 1, 1),
        (101, 48, 4, 2, 1),
        (102, 64, 8, 2, 2),
        (103, 60, 4, 3, 1),
        (104, 96, 8, 2, 4),
        (105, 72, 12, 3, 2),
    ] {
        let a = random_matrix(seed, n);
        let serial = lu_unblocked(&a).unwrap();
        let grid = LuGrid::new(q * q * c, q, c);
        let run = factorize(&ConfluxConfig::dense(n, v, grid), Some(&a));
        let f = run.factors.unwrap();
        let res = f.residual(&a);
        let serial_res = serial.residual(&a);
        // tournament pivoting is allowed a modest stability factor over
        // partial pivoting (Grigori et al.), but both should be ~machine eps
        assert!(
            res < 1e4 * serial_res.max(1e-15),
            "n={n} q={q} c={c}: distributed residual {res:.2e} vs serial {serial_res:.2e}"
        );
        assert!(
            res < 1e-9,
            "n={n} q={q} c={c}: residual too large: {res:.2e}"
        );
    }
}

#[test]
fn threaded_conflux_matches_serial_quality() {
    // the real-threads SPMD driver must be numerically as good as the
    // orchestrated one and the serial reference
    for (seed, n, v, q, c) in [(600, 32, 4, 2, 1), (601, 64, 8, 2, 2)] {
        let a = random_matrix(seed, n);
        let serial_res = lu_unblocked(&a).unwrap().residual(&a);
        let grid = LuGrid::new(q * q * c, q, c);
        let run = factorize_threaded(&ConfluxConfig::dense(n, v, grid), &a)
            .expect("fault-free threaded run completes");
        let res = run.factors.unwrap().residual(&a);
        assert!(
            res < 1e4 * serial_res.max(1e-15) && res < 1e-9,
            "n={n} q={q} c={c}: threaded residual {res:.2e} vs serial {serial_res:.2e}"
        );
    }
}

#[test]
fn threaded_zero_fault_volumes_match_orchestrated() {
    // accounting must not drift: with no faults and identical (synthetic)
    // pivots, the threaded run charges byte-for-byte what the orchestrated
    // accountant charges, per rank and per phase
    let n = 64;
    let grid = LuGrid::new(8, 2, 2);
    let mut rng = SplitMix64::new(610);
    let a = Matrix::random_diagonally_dominant(&mut rng, n);
    let mut cfg = ConfluxConfig::dense(n, 8, grid);
    cfg.pivot_choice = PivotChoice::Synthetic;
    let threaded = factorize_threaded(&cfg, &a).unwrap();
    let orchestrated = factorize(&cfg, Some(&a));
    assert_eq!(threaded.retries, 0);
    assert_eq!(
        threaded.stats.phase_table(),
        orchestrated.stats.phase_table()
    );
    for r in 0..8 {
        assert_eq!(threaded.stats.sent_by(r), orchestrated.stats.sent_by(r));
        assert_eq!(
            threaded.stats.received_by(r),
            orchestrated.stats.received_by(r)
        );
    }
}

#[test]
fn threaded_conflux_survives_drops_at_n128_p8_reproducibly() {
    // ISSUE acceptance: seeded message drops (no crashes) still yield a
    // residual <= 1e-10 at N=128 on 8 ranks, and the same seed replays to
    // an identical traffic trace and retry count
    let n = 128;
    let grid = LuGrid::new(8, 2, 2);
    let a = random_matrix(620, n);
    let clean = factorize_threaded(&ConfluxConfig::dense(n, 8, grid), &a).unwrap();
    let cfg =
        ConfluxConfig::dense(n, 8, grid).with_faults(FaultPlan::new(0xd20).with_drop_rate(0.02));

    let run1 = try_factorize_threaded(&cfg, &a, Supervisor::default()).unwrap();
    let res = run1.factors.as_ref().unwrap().residual(&a);
    assert!(res <= 1e-10, "residual under drops: {res:.2e}");

    let run2 = try_factorize_threaded(&cfg, &a, Supervisor::default()).unwrap();
    assert_eq!(run1.retries, run2.retries, "retry count must replay");
    assert!(run1.retries > 0, "a 2% drop rate must force retries");
    assert_eq!(
        run1.stats.phase_table(),
        run2.stats.phase_table(),
        "per-phase traffic must replay"
    );
    assert_eq!(run1.stats.total_sent(), run2.stats.total_sent());
    assert_eq!(
        run1.factors.unwrap().perm,
        run2.factors.unwrap().perm,
        "pivoting must replay"
    );
    // retransmissions are real traffic on top of the clean schedule
    assert!(run1.stats.total_sent() > clean.stats.total_sent());
}

#[test]
fn threaded_conflux_crash_is_bounded_and_structured() {
    // ISSUE acceptance: a rank-crash plan never hangs — the supervised run
    // returns the crashed rank id and partial per-phase stats within a 5s
    // ceiling
    let n = 64;
    let grid = LuGrid::new(8, 2, 2);
    let a = random_matrix(630, n);
    let cfg = ConfluxConfig::dense(n, 8, grid).with_faults(FaultPlan::new(31).with_crash(3, 2));
    let sup = Supervisor::default()
        .with_recv_timeout(Duration::from_millis(200))
        .with_deadline(Duration::from_secs(5));

    let t0 = Instant::now();
    let err = match try_factorize_threaded(&cfg, &a, sup) {
        Err(e) => e,
        Ok(_) => panic!("the crash plan must fail the run"),
    };
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "must return within the deadline, took {:?}",
        t0.elapsed()
    );
    assert_eq!(
        err.error,
        LuCause::Comm(SimnetError::RankCrashed { rank: 3, step: 2 })
    );
    assert_eq!(err.step, Some(2));
    // the two completed steps' traffic is preserved for triage
    assert!(err.stats.sent_in_phase("02:tournament") > 0);
    assert!(err.stats.sent_in_phase("08:send-a10") > 0);
}

#[test]
fn orchestrated_trace_replays_identically_under_faults() {
    // seeded-replay guarantee at the timeline level: same seed, same
    // fault plan => the exact same virtual-time events, twice
    let n = 64;
    let grid = LuGrid::new(8, 2, 2);
    let run = || {
        let cfg = ConfluxConfig::phantom(n, 8, grid)
            .with_timeline()
            .with_faults(
                FaultPlan::new(41)
                    .with_drop_rate(0.1)
                    .with_duplicate_rate(0.1),
            );
        try_factorize(&cfg, None).expect("drops never abort the accountant")
    };
    let a = run();
    let b = run();
    let ta = a.timeline.expect("the timeline was enabled").events;
    let tb = b.timeline.expect("the timeline was enabled").events;
    assert!(ta
        .iter()
        .any(|e| matches!(e.kind, EventKind::Retransmit { .. })));
    assert_eq!(ta, tb, "the event timeline must replay from the seed");
    assert_eq!(a.stats.total_sent(), b.stats.total_sent());
}

#[test]
fn lu2d_is_exactly_partial_pivoting() {
    for (seed, n, p, nb) in [(200, 40, 4, 8), (201, 64, 16, 16), (202, 50, 2, 5)] {
        let a = random_matrix(seed, n);
        let mut cfg =
            Lu2dConfig::for_ranks(n, p, Variant::LibSci, conflux_repro::conflux::Mode::Dense);
        cfg.nb = nb;
        let run = factorize_2d(&cfg, Some(&a));
        let f = run.factors.unwrap();
        let reference = lu_unblocked(&a).unwrap();
        assert_eq!(
            f.perm, reference.perm,
            "n={n} p={p} nb={nb}: pivot order differs"
        );
        assert!(
            f.lu.allclose(&reference.lu, 1e-9),
            "n={n} p={p} nb={nb}: factors differ"
        );
    }
}

#[test]
fn candmc_produces_valid_factorizations() {
    for (seed, n, v, q, c) in [(300, 48, 8, 2, 1), (301, 64, 8, 2, 2), (302, 96, 16, 2, 2)] {
        let a = random_matrix(seed, n);
        let grid = LuGrid::new(q * q * c, q, c);
        let run = factorize_candmc(&CandmcConfig::dense(n, v, grid), Some(&a));
        let f = run.factors.unwrap();
        let res = f.residual(&a);
        assert!(res < 1e-9, "n={n} q={q} c={c}: residual {res:.2e}");
    }
}

#[test]
fn all_four_solve_the_same_system() {
    // end to end: factor with each implementation, solve, compare solutions
    let n = 64;
    let a = random_matrix(400, n);
    let mut rng = SplitMix64::new(401);
    let x_true = Matrix::random(&mut rng, n, 1);
    let b = a.matmul(&x_true);

    // serial
    let serial_x = lu_unblocked(&a).unwrap().solve(&b);
    assert!(serial_x.allclose(&x_true, 1e-7));

    // conflux
    let grid = LuGrid::new(8, 2, 2);
    let f = factorize(&ConfluxConfig::dense(n, 8, grid), Some(&a))
        .factors
        .unwrap();
    let mut y = b.gather_rows(&f.perm);
    conflux_repro::denselin::trsm::trsm_lower_left(&f.l, &mut y, true);
    conflux_repro::denselin::trsm::trsm_upper_left(&f.u, &mut y, false);
    assert!(y.allclose(&x_true, 1e-6), "conflux solve mismatch");

    // lu2d
    let cfg = Lu2dConfig::for_ranks(n, 4, Variant::Slate, conflux_repro::conflux::Mode::Dense);
    let f2 = factorize_2d(&cfg, Some(&a)).factors.unwrap();
    assert!(f2.solve(&b).allclose(&x_true, 1e-6), "lu2d solve mismatch");

    // candmc
    let f3 = factorize_candmc(&CandmcConfig::dense(n, 8, grid), Some(&a))
        .factors
        .unwrap();
    assert!(
        f3.solve(&b).allclose(&x_true, 1e-6),
        "candmc solve mismatch"
    );
}
