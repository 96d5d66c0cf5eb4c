//! `perfsmoke` — fast GFLOP/s smoke test of the local compute substrate.
//!
//! Measures the packed register-blocked GEMM against the scalar reference
//! path, the tile-queue parallel GEMM, blocked TRSM, blocked LU, and the
//! lookahead-pipelined parallel LU (plus a thread sweep of the parallel
//! kernels), then writes `BENCH_kernels.json` at the repo root. This file
//! is the perf trajectory future PRs are held against (CI uploads it as an
//! artifact, `--check` turns a packed-slower-than-reference regression into
//! a red build, and `--check-scaling` additionally gates the parallel
//! speedups — skipped automatically on single-core machines, where there is
//! no parallelism to measure).
//!
//! The thread count the parallel entries use comes from
//! [`auto_threads`] (override with `DENSELIN_THREADS`).
//!
//! Usage: `cargo run --release -p conflux-bench --bin perfsmoke -- [--quick]
//! [--check] [--check-scaling] [--out PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use denselin::gemm::{
    auto_threads, gemm, gemm_reference, gemm_with, selected_kernel, GemmBlocking,
};
use denselin::lu::lu_blocked;
use denselin::lu_parallel::lu_parallel_with;
use denselin::matrix::Matrix;
use denselin::trsm::trsm_lower_left;
use denselin::SplitMix64;
use simnet::trace::RankTracer;

/// One measured kernel configuration.
struct Entry {
    kernel: &'static str,
    n: usize,
    threads: usize,
    seconds: f64,
    gflops: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let check_scaling = args.iter().any(|a| a == "--check-scaling");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR")));

    let reps = if quick { 2 } else { 3 };
    let gemm_sizes: &[usize] = if quick {
        &[256, 512]
    } else {
        &[256, 512, 1024]
    };
    let threads = auto_threads();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let blk = GemmBlocking::tuned();
    let krn = selected_kernel();
    println!(
        "# perfsmoke: blocking mc={} kc={} nc={}, {threads} thread(s), {cores} core(s)",
        blk.mc, blk.kc, blk.nc
    );

    let mut rng = SplitMix64::new(4242);
    let mut entries: Vec<Entry> = Vec::new();

    // ---- GEMM: reference scalar path vs packed vs tile-queue parallel ----
    for &n in gemm_sizes {
        let a = Matrix::random(&mut rng, n, n);
        let b = Matrix::random(&mut rng, n, n);
        let flops = 2.0 * (n as f64).powi(3);

        let mut c = Matrix::zeros(n, n);
        let t = best_of(reps, || gemm_reference(&mut c, 1.0, &a, &b, 0.0));
        push(&mut entries, "gemm_reference", n, 1, t, flops);

        let t = best_of(reps, || gemm(&mut c, 1.0, &a, &b, 0.0));
        push(&mut entries, "gemm_packed", n, 1, t, flops);

        if threads > 1 {
            let t = best_of(reps, || {
                gemm_with(&mut c, 1.0, &a, &b, 0.0, threads, blk, krn)
            });
            push(&mut entries, "gemm_parallel", n, threads, t, flops);
        }
    }

    // ---- disabled tracer overhead on the packed GEMM driver ----
    // every hot path in the simulator calls `begin()`/`push_*` on a
    // possibly-noop tracer; the disabled branch must cost nothing
    {
        let n = 512;
        let a = Matrix::random(&mut rng, n, n);
        let b = Matrix::random(&mut rng, n, n);
        let mut c = Matrix::zeros(n, n);
        let flops = 2.0 * (n as f64).powi(3);
        let reps = reps.max(4);
        let mut tracer = RankTracer::noop();

        // interleave the two variants so frequency/cache drift hits both
        gemm(&mut c, 1.0, &a, &b, 0.0); // warm-up
        let mut t_bare = f64::INFINITY;
        let mut t_traced = f64::INFINITY;
        for _ in 0..reps {
            t_bare = t_bare.min(best_of(1, || gemm(&mut c, 1.0, &a, &b, 0.0)));
            t_traced = t_traced.min(best_of(1, || {
                let t0 = tracer.begin();
                gemm(&mut c, 1.0, &a, &b, 0.0);
                tracer.push_compute("perfsmoke", "gemm", t0);
            }));
        }
        push(&mut entries, "gemm_untraced", n, 1, t_bare, flops);
        push(&mut entries, "gemm_noop_traced", n, 1, t_traced, flops);
    }

    // ---- TRSM (blocked forward substitution, packed rank-k updates) ----
    let trsm_sizes: &[usize] = if quick { &[512] } else { &[512, 1024] };
    for &n in trsm_sizes {
        let l = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                0.1
            } else if i == j {
                2.0
            } else {
                0.0
            }
        });
        let nrhs = 256;
        let b = Matrix::random(&mut rng, n, nrhs);
        let flops = (n as f64) * (n as f64) * nrhs as f64;
        let t = best_of(reps, || {
            let mut x = b.clone();
            trsm_lower_left(&l, &mut x, false);
        });
        push(&mut entries, "trsm_lower_left", n, 1, t, flops);
    }

    // ---- Blocked LU (panel + TRSM + packed trailing update) and the
    // ---- lookahead-pipelined parallel LU over the same inputs ----
    let lu_sizes: &[usize] = if quick { &[512] } else { &[512, 1024] };
    for &n in lu_sizes {
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let flops = 2.0 / 3.0 * (n as f64).powi(3);
        let t = best_of(reps, || {
            lu_blocked(&a, 64).unwrap();
        });
        push(&mut entries, "lu_blocked64", n, 1, t, flops);

        let t = best_of(reps, || {
            lu_parallel_with(&a, 64, threads).unwrap();
        });
        push(&mut entries, "lu_parallel", n, threads, t, flops);
    }

    // ---- thread sweep of the parallel kernels at the largest size ----
    // fills the scaling curve the docs plot; the auto-thread entries above
    // stay first in the list, so the summary ratios below keep finding them
    if threads > 1 {
        let n = *lu_sizes.last().unwrap();
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let ga = Matrix::random(&mut rng, n, n);
        let gb = Matrix::random(&mut rng, n, n);
        let mut gc = Matrix::zeros(n, n);
        let lu_flops = 2.0 / 3.0 * (n as f64).powi(3);
        let gemm_flops = 2.0 * (n as f64).powi(3);
        for &t in &[1usize, 2, 4, 8] {
            if t >= threads {
                continue; // the auto-thread point was measured above
            }
            let s = best_of(reps, || gemm_with(&mut gc, 1.0, &ga, &gb, 0.0, t, blk, krn));
            push(&mut entries, "gemm_parallel", n, t, s, gemm_flops);
            let s = best_of(reps, || {
                lu_parallel_with(&a, 64, t).unwrap();
            });
            push(&mut entries, "lu_parallel", n, t, s, lu_flops);
        }
    }

    let speedup_512 = speedup(&entries, "gemm_packed", "gemm_reference", 512);
    // seconds(traced)/seconds(untraced) - 1: the noop tracer's cost
    let noop_overhead = speedup(&entries, "gemm_untraced", "gemm_noop_traced", 512)
        .map(|gflops_ratio| gflops_ratio - 1.0);
    let parallel_scaling = speedup(
        &entries,
        "gemm_parallel",
        "gemm_packed",
        *gemm_sizes.last().unwrap(),
    );
    let lu_parallel_scaling = speedup(
        &entries,
        "lu_parallel",
        "lu_blocked64",
        *lu_sizes.last().unwrap(),
    );

    // ---- render BENCH_kernels.json (hand-rolled: no serde in-tree) ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_kernels/v1\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"blocking\": {{ \"mc\": {}, \"kc\": {}, \"nc\": {} }},",
        blk.mc, blk.kc, blk.nc
    );
    let _ = writeln!(
        json,
        "  \"packed_vs_reference_n512\": {},",
        speedup_512.map_or("null".into(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(
        json,
        "  \"parallel_vs_serial\": {},",
        parallel_scaling.map_or("null".into(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(
        json,
        "  \"lu_parallel_vs_serial\": {},",
        lu_parallel_scaling.map_or("null".into(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(
        json,
        "  \"noop_tracer_overhead_n512\": {},",
        noop_overhead.map_or("null".into(), |s| format!("{s:.4}"))
    );
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{}\", \"n\": {}, \"threads\": {}, \"seconds\": {:.6}, \"gflops\": {:.3} }}{comma}",
            e.kernel, e.n, e.threads, e.seconds, e.gflops
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!("# wrote {out_path}");

    if check {
        match speedup_512 {
            Some(s) if s >= 1.0 => {
                println!("# check OK: packed gemm is {s:.2}x the reference at N=512");
            }
            Some(s) => {
                eprintln!("# check FAILED: packed gemm only {s:.2}x the reference at N=512");
                std::process::exit(1);
            }
            None => {
                eprintln!("# check FAILED: missing N=512 measurements");
                std::process::exit(1);
            }
        }
        match noop_overhead {
            Some(o) if o < 0.02 => {
                println!(
                    "# check OK: noop tracer overhead {:.2}% at N=512",
                    o * 100.0
                );
            }
            Some(o) => {
                eprintln!(
                    "# check FAILED: noop tracer costs {:.2}% on the packed gemm",
                    o * 100.0
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check FAILED: missing noop-tracer measurements");
                std::process::exit(1);
            }
        }
    }

    if check_scaling {
        // the scaling gates measure real parallelism; on a single-core (or
        // single-thread) run the parallel path degenerates to the serial
        // one plus pool overhead, so there is nothing meaningful to gate
        if cores < 2 || threads < 2 {
            println!(
                "# check-scaling SKIPPED: {cores} core(s) / {threads} thread(s) \
                 visible; parallel speedup gates need at least 2 of each"
            );
            return;
        }
        let lu_n = *lu_sizes.last().unwrap();
        // the LU pipeline's panel stays on one worker, so its speedup trails
        // gemm's: demand the issue's 2x only once 4 workers are available,
        // and a lookahead-beats-serial margin on a 2-thread runner
        let lu_floor = if threads >= 4 { 2.0 } else { 1.2 };
        match parallel_scaling {
            Some(s) if s >= 1.5 => {
                println!("# check-scaling OK: parallel gemm is {s:.2}x the packed serial path");
            }
            Some(s) => {
                eprintln!(
                    "# check-scaling FAILED: parallel gemm only {s:.2}x serial \
                     on {threads} threads (need >= 1.5)"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check-scaling FAILED: no parallel gemm measurement");
                std::process::exit(1);
            }
        }
        match lu_parallel_scaling {
            Some(s) if s >= lu_floor => {
                println!("# check-scaling OK: lookahead LU is {s:.2}x lu_blocked64 at N={lu_n}");
            }
            Some(s) => {
                eprintln!(
                    "# check-scaling FAILED: lookahead LU only {s:.2}x lu_blocked64 \
                     at N={lu_n} on {threads} threads (need >= {lu_floor})"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check-scaling FAILED: no lu_parallel measurement");
                std::process::exit(1);
            }
        }
    }
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn push(
    entries: &mut Vec<Entry>,
    kernel: &'static str,
    n: usize,
    threads: usize,
    t: f64,
    flops: f64,
) {
    let gflops = flops / t / 1e9;
    println!("{kernel:>16}  n={n:<5} threads={threads:<2} {t:>9.4} s  {gflops:>8.2} GFLOP/s");
    entries.push(Entry {
        kernel,
        n,
        threads,
        seconds: t,
        gflops,
    });
}

/// GFLOP/s ratio `num/den` at size `n`, if both were measured.
fn speedup(entries: &[Entry], num: &str, den: &str, n: usize) -> Option<f64> {
    let g = |k: &str| {
        entries
            .iter()
            .find(|e| e.kernel == k && e.n == n)
            .map(|e| e.gflops)
    };
    Some(g(num)? / g(den)?)
}
