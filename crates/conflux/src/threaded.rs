//! COnfLUX on the real-threads backend: Algorithm 1 executed as a genuine
//! SPMD program, one OS thread per rank, under supervision.
//!
//! The orchestrated driver in [`crate::algorithm`] walks the 11 steps
//! centrally and *charges* a [`simnet::Network`]; this module runs the same
//! steps where every rank owns only its block-cyclic tiles and every
//! transfer is a real message through [`simnet::threaded`]. Both backends
//! follow the identical communication plans (the shared `a10_scatter_plan`
//! / `a01_scatter_plan` / segment helpers), use the same phase names, and —
//! under a zero fault plan — charge byte-identical per-rank, per-phase
//! volumes, which `tests/distributed_vs_serial.rs` asserts.
//!
//! Under a seeded [`FaultPlan`](simnet::FaultPlan) the supervisor injects
//! drops (retransmitted with backoff, every attempt charged), duplicates
//! (deduplicated by sequence number), delays, reorders and rank crashes.
//! Message faults never change the numerics — the factors and the residual
//! are identical to the fault-free run, only the traffic and the retry
//! count grow. A crash surfaces as a structured [`LuError`] with partial
//! statistics within the supervisor's deadline instead of a hang.
//!
//! Restrictions compared to the orchestrated driver: Dense mode with
//! masking pivoting only, and `q` must be a power of two (the tournament
//! butterfly converges — and matches the orchestrated volume formula —
//! only on power-of-two groups).

use std::collections::HashMap;

use denselin::gemm::{auto_threads, matmul};
use denselin::matrix::Matrix;
use denselin::tournament::{local_candidates, lu_no_pivot, playoff_round, Candidates};
use denselin::trsm::{trsm_lower_left_parallel, trsm_upper_right};
use simnet::error::{SimnetError, SimnetResult};
use simnet::network::BcastAlgo;
use simnet::stats::Rank;
use simnet::threaded::{run_spmd_supervised, RankCtx, Supervisor};
use simnet::topology::Grid3D;

use crate::algorithm::{
    a01_scatter_plan, a01_send_segments, a10_scatter_plan, a10_send_segments,
    grid_cols_of_trailing, grid_rows_of_live, ConfluxConfig, ConfluxRun, LuCause, LuError,
    LuFactors,
};
use crate::pivoting::{synthetic_winners, PivotChoice, PivotStrategy};
use crate::store::rows_by_block;
use crate::tiles::Mode;

/// What one rank contributes to the assembly of one step's factors. The
/// final `L`/`U` are stitched from these after the threads join — assembly
/// is a result-collection artifact of the harness, not communication the
/// algorithm performs, so it is not charged.
struct StepShard {
    /// Pivot rows in elimination order (filled by rank 0 only).
    pivots: Vec<usize>,
    /// Factored `A00` (rank 0 only).
    a00: Option<Matrix>,
    /// This rank's factored `A10` rows: `(global row id, v values)`.
    a10_rows: Vec<(usize, Vec<f64>)>,
    /// This rank's factored `A01` columns: `(global col, v values in pivot
    /// order)`.
    a01_cols: Vec<(usize, Vec<f64>)>,
}

/// Per-rank tile storage: the block-cyclic shard of the matrix this rank
/// owns, mirroring [`crate::store::BlockStore`] sliced by rank.
struct RankTiles {
    /// Base values, layer-0 owners only: `(br, bc) -> v x v`.
    base: HashMap<(usize, usize), Matrix>,
    /// Schur-update accumulators for this rank's `(i, j)` tiles on its own
    /// layer. True value of an element is `base - sum_k delta_k`.
    delta: HashMap<(usize, usize), Matrix>,
}

/// `tag = (step-major counter) << 12 | plan index`: unique per collective
/// or point-to-point plan entry within a run (the threaded collectives fold
/// their internal round numbers into the high bits themselves).
fn tag_of(t: usize, step: usize, idx: usize) -> u64 {
    debug_assert!(idx < (1 << 12), "plan too large for the tag scheme");
    (((t * 16 + step) as u64) << 12) | idx as u64
}

/// Encode a candidate set as a flat buffer of exactly `v * (v + 1)` values:
/// `v` row ids (padded with −1) followed by `v` rows of `v` values (zero
/// padded). This fixed size is what the orchestrated accountant charges per
/// butterfly round.
fn encode_candidates(c: &Candidates, v: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(v * (v + 1));
    for i in 0..v {
        buf.push(c.rows.get(i).map_or(-1.0, |&r| r as f64));
    }
    for i in 0..v {
        if i < c.values.rows() {
            buf.extend_from_slice(c.values.row(i));
        } else {
            buf.extend(std::iter::repeat_n(0.0, v));
        }
    }
    buf
}

fn decode_candidates(buf: &[f64], v: usize) -> Candidates {
    let rows: Vec<usize> = buf[..v]
        .iter()
        .take_while(|&&r| r >= 0.0)
        .map(|&r| r as usize)
        .collect();
    let mut values = Matrix::zeros(rows.len(), v);
    for i in 0..rows.len() {
        values
            .row_mut(i)
            .copy_from_slice(&buf[v + i * v..v + (i + 1) * v]);
    }
    Candidates { rows, values }
}

/// Merge two partial synthetic candidate sets: the winner list is fixed by
/// the seed, each rank contributes the rows it owns, and the union (in
/// winner order) flows up the butterfly.
fn merge_synthetic(a: &Candidates, b: &Candidates, winners: &[usize], v: usize) -> Candidates {
    let mut rows = Vec::new();
    let mut values = Matrix::zeros(winners.len(), v);
    for &w in winners {
        let from = a
            .rows
            .iter()
            .position(|&r| r == w)
            .map(|i| a.values.row(i))
            .or_else(|| b.rows.iter().position(|&r| r == w).map(|i| b.values.row(i)));
        if let Some(row) = from {
            values.row_mut(rows.len()).copy_from_slice(row);
            rows.push(w);
        }
    }
    let values = values.block(0, 0, rows.len(), v);
    Candidates { rows, values }
}

/// Run COnfLUX as a supervised SPMD program over `p = q*q*c` rank threads.
///
/// The configuration's [`FaultPlan`](simnet::FaultPlan) is installed into
/// the supervisor (overriding whatever plan `sup` carried), so the fault
/// schedule has a single source of truth. Returns the run — with factors
/// and merged statistics — or a [`LuError`] carrying the structured cause
/// and the partial statistics if any rank crashed, timed out or panicked.
///
/// # Panics
/// Panics if the configuration is outside the threaded driver's domain:
/// non-Dense mode, swapping pivoting, non-binomial broadcast, or a `q`
/// that is not a power of two.
pub fn try_factorize_threaded(
    cfg: &ConfluxConfig,
    a: &Matrix,
    sup: Supervisor,
) -> Result<ConfluxRun, LuError> {
    let (n, v) = (cfg.n, cfg.v);
    assert!(n % v == 0, "v must divide n");
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    assert!(v >= c, "v must be at least the layer count c");
    assert_eq!(cfg.mode, Mode::Dense, "threaded driver is Dense-only");
    assert_eq!(
        cfg.pivot_strategy,
        PivotStrategy::Masking,
        "threaded driver implements masking pivoting only"
    );
    assert_eq!(
        cfg.bcast,
        BcastAlgo::Binomial,
        "threaded collectives are binomial-tree only"
    );
    assert!(
        q.is_power_of_two(),
        "threaded tournament butterfly needs a power-of-two q"
    );
    assert_eq!(a.shape(), (n, n), "input matrix must be n x n");
    let topo = cfg.grid.topology();
    let p = topo.ranks();
    let nb = n / v;

    let mut sup = sup.with_faults(cfg.faults.clone());
    if cfg.timeline {
        sup = sup.with_trace();
    }
    let mut report = run_spmd_supervised(p, sup, |ctx| rank_program(ctx, cfg, a, &topo, nb));
    let retries = report.retries;
    let timeline = report.trace.take();

    match report.into_result() {
        Ok((outcomes, stats)) => {
            // every rank reads the same A00 broadcast, so a singular pivot
            // block stops all of them at the same step
            let shards: Vec<_> = match outcomes.into_iter().collect() {
                Ok(shards) => shards,
                Err((step, column)) => {
                    return Err(LuError {
                        error: LuCause::SingularPivot { step, column },
                        step: Some(step),
                        stats,
                        retries,
                    })
                }
            };
            let factors = assemble_shards(n, v, nb, &shards);
            Ok(ConfluxRun {
                stats,
                factors: Some(factors),
                timeline,
                retries,
                config: cfg.clone(),
            })
        }
        Err(failure) => {
            // prefer a root cause, an injected fault or else a panicked
            // rank, over the timeouts the surviving ranks report as a
            // consequence
            let errors = &failure.errors;
            let error = errors
                .iter()
                .find(|e| e.is_injected())
                .or_else(|| {
                    errors
                        .iter()
                        .find(|e| matches!(e, SimnetError::RankPanicked { .. }))
                })
                .unwrap_or(&failure.error)
                .clone();
            let step = match error {
                SimnetError::RankCrashed { step, .. } => Some(step),
                _ => None,
            };
            Err(LuError {
                error: LuCause::Comm(error),
                step,
                stats: failure.stats,
                retries: failure.retries,
            })
        }
    }
}

/// Convenience wrapper: default supervision (plus the config's fault plan).
pub fn factorize_threaded(cfg: &ConfluxConfig, a: &Matrix) -> Result<ConfluxRun, LuError> {
    try_factorize_threaded(cfg, a, Supervisor::default())
}

/// The per-rank SPMD program: the same 11 steps as the orchestrated driver,
/// acting only on this rank's tiles. The inner `Err((step, column))` is a
/// singular pivot block, which every rank learns of from the step-3
/// broadcast.
fn rank_program(
    ctx: &mut RankCtx,
    cfg: &ConfluxConfig,
    a: &Matrix,
    topo: &Grid3D,
    nb: usize,
) -> SimnetResult<Result<Vec<StepShard>, (usize, usize)>> {
    let (n, v) = (cfg.n, cfg.v);
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    let p = ctx.p;
    let me = topo.coord_of(ctx.rank);

    // ---- distribute: carve my block-cyclic shard out of the input ----
    let mut tiles = RankTiles {
        base: HashMap::new(),
        delta: HashMap::new(),
    };
    for br in 0..nb {
        for bc in 0..nb {
            if br % q == me.i && bc % q == me.j {
                tiles.delta.insert((br, bc), Matrix::zeros(v, v));
                if me.k == 0 {
                    tiles.base.insert((br, bc), a.block(br * v, bc * v, v, v));
                }
            }
        }
    }

    let mut remaining: Vec<usize> = (0..n).collect();
    let mut shards: Vec<StepShard> = Vec::with_capacity(nb);

    for t in 0..nb {
        // a planned crash fires here, between steps, as a structured error
        ctx.fail_point(t)?;

        let kt = t % c;
        let bct = t;
        let col_j = bct % q;

        // ---- Step 1: reduce the current block column over the fibers ----
        let live_groups = rows_by_block(&remaining, v);
        for (idx, (br, rows)) in live_groups.iter().enumerate() {
            if br % q != me.i || bct % q != me.j {
                continue;
            }
            let folded = if c > 1 {
                let fiber = topo.layer_fiber(me.i, me.j);
                let contrib = gather_delta_rows(&tiles.delta[&(*br, bct)], rows, v);
                let reduced = ctx.try_reduce_sum(
                    &fiber,
                    fiber[0],
                    contrib,
                    tag_of(t, 1, idx),
                    "01:reduce-column",
                )?;
                zero_delta_rows(tiles.delta.get_mut(&(*br, bct)).unwrap(), rows, v);
                reduced
            } else {
                let d = tiles.delta.get_mut(&(*br, bct)).unwrap();
                let contrib = gather_delta_rows(d, rows, v);
                zero_delta_rows(d, rows, v);
                Some(contrib)
            };
            if let Some(sum) = folded {
                // layer-0 owner folds: base -= sum of all layers' deltas
                let base = tiles.base.get_mut(&(*br, bct)).unwrap();
                fold_into_base(base, rows, &sum, v);
            }
        }

        // ---- Step 2: tournament pivoting on the column group ----
        let pivot_group = topo.column_group(col_j, 0);
        let in_pivot_group = me.j == col_j && me.k == 0;
        let mut winner: Option<Candidates> = None;
        if in_pivot_group {
            let my_rows: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&r| (r / v) % q == me.i)
                .collect();
            let local = match cfg.pivot_choice {
                PivotChoice::Tournament => {
                    let panel = read_base_rows(&tiles, bct, &my_rows, v);
                    local_candidates(&panel, &my_rows, v)
                }
                PivotChoice::Synthetic => {
                    let winners = synthetic_winners(&remaining, v, cfg.seed, t);
                    let mine: Vec<usize> = winners
                        .iter()
                        .copied()
                        .filter(|&w| (w / v) % q == me.i)
                        .collect();
                    let values = read_base_rows(&tiles, bct, &mine, v);
                    Candidates { rows: mine, values }
                }
            };
            let combined = ctx.try_butterfly(
                &pivot_group,
                encode_candidates(&local, v),
                tag_of(t, 2, 0),
                "02:tournament",
                |x, y| {
                    let (ca, cb) = (decode_candidates(&x, v), decode_candidates(&y, v));
                    let merged = match cfg.pivot_choice {
                        PivotChoice::Tournament => playoff_round(&ca, &cb, v),
                        PivotChoice::Synthetic => {
                            let winners = synthetic_winners(&remaining, v, cfg.seed, t);
                            merge_synthetic(&ca, &cb, &winners, v)
                        }
                    };
                    encode_candidates(&merged, v)
                },
            )?;
            winner = Some(decode_candidates(&combined, v));
        }

        // ---- Step 3: broadcast A00 + pivot row ids everywhere ----
        let all_ranks = topo.all_ranks();
        let root = pivot_group[0];
        let payload = if ctx.rank == root {
            let w = winner.as_ref().expect("root ran the butterfly");
            debug_assert_eq!(w.rows.len(), v, "tournament must yield v pivots");
            let mut buf = Vec::with_capacity(v * v + v);
            match lu_no_pivot(&w.values) {
                Ok(a00) => {
                    buf.extend(w.rows.iter().map(|&r| r as f64));
                    for i in 0..v {
                        buf.extend_from_slice(a00.row(i));
                    }
                }
                // a singular block travels in the same v*v + v elements:
                // a negative first row id carries the zero pivot's column
                Err(e) => {
                    buf.resize(v * v + v, 0.0);
                    buf[0] = -1.0 - e.column as f64;
                }
            }
            Some(buf)
        } else {
            None
        };
        let buf = ctx.try_broadcast(&all_ranks, root, payload, tag_of(t, 3, 0), "03:bcast-a00")?;
        if buf[0] < 0.0 {
            return Ok(Err((t, t * v + (-1.0 - buf[0]) as usize)));
        }
        let pivots: Vec<usize> = buf[..v].iter().map(|&r| r as usize).collect();
        let mut a00 = Matrix::zeros(v, v);
        for i in 0..v {
            a00.row_mut(i)
                .copy_from_slice(&buf[v + i * v..v + (i + 1) * v]);
        }

        let pivset: std::collections::HashSet<usize> = pivots.iter().copied().collect();
        remaining.retain(|r| !pivset.contains(r));
        let rows10 = remaining.clone();
        let n10 = rows10.len();

        // ---- Step 4: scatter A10 1D block-row over all ranks ----
        let plan4 = a10_scatter_plan(&rows10, bct, p, v, q, topo);
        let my_lo = chunk_lo(ctx.rank, n10, p);
        let my_hi = chunk_hi(ctx.rank, n10, p);
        let mut a10_local = Matrix::zeros(my_hi - my_lo, v);
        for (idx, e) in plan4.iter().enumerate() {
            if e.src == ctx.rank {
                let rows = &rows10[e.pos0..e.pos0 + e.nrows];
                let data = read_base_rows(&tiles, bct, rows, v);
                ctx.try_send(
                    e.dst,
                    tag_of(t, 4, idx),
                    data.as_slice().to_vec(),
                    "04:scatter-a10",
                )?;
            }
            if e.dst == ctx.rank {
                let data = ctx.try_recv_from(e.src, tag_of(t, 4, idx))?;
                for r in 0..e.nrows {
                    a10_local
                        .row_mut(e.pos0 + r - my_lo)
                        .copy_from_slice(&data[r * v..(r + 1) * v]);
                }
            }
        }

        // ---- Step 5: reduce the v pivot rows over the fibers ----
        let mut sorted_pivots = pivots.clone();
        sorted_pivots.sort_unstable();
        let piv_groups = rows_by_block(&sorted_pivots, v);
        let mut idx5 = 0;
        for (br, rows) in &piv_groups {
            for bc in t + 1..nb {
                idx5 += 1;
                if br % q != me.i || bc % q != me.j {
                    continue;
                }
                let folded = if c > 1 {
                    let fiber = topo.layer_fiber(me.i, me.j);
                    let contrib = gather_delta_rows(&tiles.delta[&(*br, bc)], rows, v);
                    let reduced = ctx.try_reduce_sum(
                        &fiber,
                        fiber[0],
                        contrib,
                        tag_of(t, 5, idx5),
                        "05:reduce-pivot-rows",
                    )?;
                    zero_delta_rows(tiles.delta.get_mut(&(*br, bc)).unwrap(), rows, v);
                    reduced
                } else {
                    let d = tiles.delta.get_mut(&(*br, bc)).unwrap();
                    let contrib = gather_delta_rows(d, rows, v);
                    zero_delta_rows(d, rows, v);
                    Some(contrib)
                };
                if let Some(sum) = folded {
                    let base = tiles.base.get_mut(&(*br, bc)).unwrap();
                    fold_into_base(base, rows, &sum, v);
                }
            }
        }

        // ---- Step 6: scatter A01 1D block-column over all ranks ----
        let m01 = (nb - t - 1) * v;
        let my_clo = chunk_lo(ctx.rank, m01, p);
        let my_chi = chunk_hi(ctx.rank, m01, p);
        let mut a01_local = Matrix::zeros(v, my_chi - my_clo);
        if m01 > 0 {
            let plan6 = a01_scatter_plan(&piv_groups, t, nb, p, v, m01, topo, q);
            for (idx, e) in plan6.iter().enumerate() {
                let rows = &piv_groups[e.group_idx].1;
                if e.src == ctx.rank {
                    // rows of this pivot group, columns col0..col0+seg of bc
                    let tile = &tiles.base[&(piv_groups[e.group_idx].0, e.bc)];
                    let mut data = Vec::with_capacity(rows.len() * e.seg);
                    for &r in rows {
                        data.extend_from_slice(&tile.row(r % v)[e.col0..e.col0 + e.seg]);
                    }
                    ctx.try_send(e.dst, tag_of(t, 6, idx), data, "06:scatter-a01")?;
                }
                if e.dst == ctx.rank {
                    let data = ctx.try_recv_from(e.src, tag_of(t, 6, idx))?;
                    let gpos0 = (e.bc - t - 1) * v + e.col0;
                    for (ri, &r) in rows.iter().enumerate() {
                        let pi = pivots.iter().position(|&x| x == r).unwrap();
                        for s in 0..e.seg {
                            a01_local[(pi, gpos0 + s - my_clo)] = data[ri * e.seg + s];
                        }
                    }
                }
            }
        }

        // ---- Step 7: FactorizeA10 locally: A10 <- A10 · U00^{-1} ----
        if a10_local.rows() > 0 {
            ctx.compute("07:factorize-a10", "trsm", || {
                trsm_upper_right(&mut a10_local, &a00, false)
            });
        }

        // ---- Step 8: send factored A10 rows to layer kt ----
        let dst_cols = grid_cols_of_trailing(t, nb, q);
        let segs8 = a10_send_segments(&rows10, p, v);
        let mut l_blocks: HashMap<usize, Vec<(usize, Vec<f64>)>> = HashMap::new();
        let mut idx8 = 0;
        for e in &segs8 {
            for &j in &dst_cols {
                let dst = topo.rank_of(e.br % q, j, kt);
                idx8 += 1;
                if e.src == ctx.rank {
                    let mut data = Vec::with_capacity(e.len * v);
                    for pos in e.pos0..e.pos0 + e.len {
                        data.extend_from_slice(a10_local.row(pos - my_lo));
                    }
                    ctx.try_send(dst, tag_of(t, 8, idx8), data, "08:send-a10")?;
                }
                if dst == ctx.rank {
                    let data = ctx.try_recv_from(e.src, tag_of(t, 8, idx8))?;
                    let rows = l_blocks.entry(e.br).or_default();
                    for (i, pos) in (e.pos0..e.pos0 + e.len).enumerate() {
                        rows.push((rows10[pos], data[i * v..(i + 1) * v].to_vec()));
                    }
                }
            }
        }

        // ---- Step 9: FactorizeA01 locally: A01 <- L00^{-1} · A01 ----
        // Column-sliced over the shared worker pool: the multi-RHS solve is
        // per-column independent, so the parallel route is bitwise
        // identical and the per-rank flop/byte accounting is unchanged.
        if a01_local.cols() > 0 {
            ctx.compute("09:factorize-a01", "trsm", || {
                trsm_lower_left_parallel(&a00, &mut a01_local, true, auto_threads())
            });
        }

        // ---- Step 10: send factored A01 columns to layer kt ----
        let dst_rows = grid_rows_of_live(&live_groups, &pivset, q);
        let mut u_blocks: HashMap<usize, Matrix> = HashMap::new();
        if m01 > 0 {
            let segs10 = a01_send_segments(t, nb, p, v, m01);
            let mut idx10 = 0;
            for e in &segs10 {
                for &i in &dst_rows {
                    let dst = topo.rank_of(i, e.bc % q, kt);
                    idx10 += 1;
                    if e.src == ctx.rank {
                        let gpos0 = (e.bc - t - 1) * v + e.col0;
                        let mut data = Vec::with_capacity(v * e.seg);
                        for r in 0..v {
                            for s in 0..e.seg {
                                data.push(a01_local[(r, gpos0 + s - my_clo)]);
                            }
                        }
                        ctx.try_send(dst, tag_of(t, 10, idx10), data, "10:send-a01")?;
                    }
                    if dst == ctx.rank {
                        let data = ctx.try_recv_from(e.src, tag_of(t, 10, idx10))?;
                        let block = u_blocks.entry(e.bc).or_insert_with(|| Matrix::zeros(v, v));
                        for r in 0..v {
                            for s in 0..e.seg {
                                block[(r, e.col0 + s)] = data[r * e.seg + s];
                            }
                        }
                    }
                }
            }
        }

        // ---- Step 11: local Schur update into my delta tiles ----
        if me.k == kt {
            ctx.compute("11:schur-update", "gemm", || {
                for (br, rows) in rows_by_block(&rows10, v) {
                    if br % q != me.i {
                        continue;
                    }
                    let Some(lrows) = l_blocks.get(&br) else {
                        continue;
                    };
                    let mut l = Matrix::zeros(rows.len(), v);
                    for (i, (rid, vals)) in lrows.iter().enumerate() {
                        debug_assert_eq!(*rid, rows[i]);
                        l.row_mut(i).copy_from_slice(vals);
                    }
                    for bc in t + 1..nb {
                        if bc % q != me.j {
                            continue;
                        }
                        let Some(u) = u_blocks.get(&bc) else { continue };
                        // local Schur product via the packed register-blocked gemm
                        let prod = matmul(&l, u);
                        let delta = tiles.delta.get_mut(&(br, bc)).unwrap();
                        for (i, &r) in rows.iter().enumerate() {
                            let lr = r % v;
                            for col in 0..v {
                                delta[(lr, col)] += prod[(i, col)];
                            }
                        }
                    }
                }
            });
        }

        // ---- collect this step's shard for assembly after the join ----
        let mut a10_rows = Vec::new();
        for (off, pos) in (my_lo..my_hi).enumerate() {
            a10_rows.push((rows10[pos], a10_local.row(off).to_vec()));
        }
        let mut a01_cols = Vec::new();
        for gpos in my_clo..my_chi {
            let col: Vec<f64> = (0..v).map(|r| a01_local[(r, gpos - my_clo)]).collect();
            a01_cols.push(((t + 1) * v + gpos, col));
        }
        shards.push(StepShard {
            pivots: if ctx.rank == 0 { pivots } else { Vec::new() },
            a00: (ctx.rank == 0).then_some(a00),
            a10_rows,
            a01_cols,
        });
    }

    Ok(Ok(shards))
}

/// Positions `[lo, hi)` of the contiguous 1D chunk `rank` holds out of
/// `len` positions split over `p` ranks (the `holder_1d` partition).
fn chunk_lo(rank: Rank, len: usize, p: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let chunk = len.div_ceil(p);
    (rank * chunk).min(len)
}

fn chunk_hi(rank: Rank, len: usize, p: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let chunk = len.div_ceil(p);
    ((rank + 1) * chunk).min(len)
}

/// Current values of the given global rows in block column `bc`, gathered
/// from this rank's base tiles (which must own all of them).
fn read_base_rows(tiles: &RankTiles, bc: usize, rows: &[usize], v: usize) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), v);
    for (i, &r) in rows.iter().enumerate() {
        let tile = &tiles.base[&(r / v, bc)];
        out.row_mut(i).copy_from_slice(tile.row(r % v));
    }
    out
}

/// Flatten the delta-tile rows for a fiber reduction contribution.
fn gather_delta_rows(delta: &Matrix, rows: &[usize], v: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len() * v);
    for &r in rows {
        out.extend_from_slice(delta.row(r % v));
    }
    out
}

fn zero_delta_rows(delta: &mut Matrix, rows: &[usize], v: usize) {
    for &r in rows {
        for col in 0..v {
            delta[(r % v, col)] = 0.0;
        }
    }
}

/// Fold a reduced delta sum into the base tile: `base -= sum` row-wise.
fn fold_into_base(base: &mut Matrix, rows: &[usize], sum: &[f64], v: usize) {
    for (i, &r) in rows.iter().enumerate() {
        let lr = r % v;
        for col in 0..v {
            base[(lr, col)] -= sum[i * v + col];
        }
    }
}

/// Stitch the per-rank, per-step shards into global `P`, `L`, `U`.
fn assemble_shards(n: usize, v: usize, nb: usize, shards: &[Vec<StepShard>]) -> LuFactors {
    let mut perm = Vec::with_capacity(n);
    for step in &shards[0] {
        perm.extend_from_slice(&step.pivots);
    }
    debug_assert_eq!(perm.len(), n);
    let mut pos_of = vec![usize::MAX; n];
    for (pos, &r) in perm.iter().enumerate() {
        pos_of[r] = pos;
    }
    let mut l = Matrix::identity(n);
    let mut u = Matrix::zeros(n, n);
    for t in 0..nb {
        let base = t * v;
        let a00 = shards[0][t].a00.as_ref().expect("rank 0 carries A00");
        for i in 0..v {
            for j in 0..v {
                if i > j {
                    l[(base + i, base + j)] = a00[(i, j)];
                } else {
                    u[(base + i, base + j)] = a00[(i, j)];
                }
            }
        }
        for rank_shards in shards {
            for (rid, vals) in &rank_shards[t].a10_rows {
                let pos = pos_of[*rid];
                debug_assert!(pos >= base + v);
                for (j, &x) in vals.iter().enumerate() {
                    l[(pos, base + j)] = x;
                }
            }
            for (col, vals) in &rank_shards[t].a01_cols {
                for (i, &x) in vals.iter().enumerate() {
                    u[(base + i, *col)] = x;
                }
            }
        }
    }
    LuFactors { perm, l, u }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{factorize, try_factorize};
    use crate::grid::LuGrid;
    use denselin::SplitMix64;
    use simnet::{FaultPlan, SimnetError};
    use std::time::Duration;

    fn random_matrix(seed: u64, n: usize) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        Matrix::random(&mut rng, n, n)
    }

    #[test]
    fn threaded_lu_is_correct_across_grids() {
        for (seed, n, v, q, c) in [
            (70, 16, 4, 1, 1),
            (71, 32, 4, 2, 1),
            (72, 32, 4, 2, 2),
            (73, 64, 8, 2, 2),
        ] {
            let a = random_matrix(seed, n);
            let grid = LuGrid::new(q * q * c, q, c);
            let cfg = ConfluxConfig::dense(n, v, grid);
            let run = factorize_threaded(&cfg, &a).expect("fault-free run completes");
            let f = run.factors.unwrap();
            let res = f.residual(&a);
            assert!(res < 1e-9, "n={n} q={q} c={c}: residual {res:.2e}");
        }
    }

    #[test]
    fn threaded_matches_orchestrated_volumes_exactly() {
        // Synthetic pivoting so both backends pick identical pivots; the
        // per-rank per-phase charge must then be byte-identical.
        let n = 32;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let mut rng = SplitMix64::new(80);
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let mut cfg = ConfluxConfig::dense(n, v, grid);
        cfg.pivot_choice = PivotChoice::Synthetic;
        let threaded = factorize_threaded(&cfg, &a).unwrap();
        let orchestrated = factorize(&cfg, Some(&a));
        assert_eq!(
            threaded.stats.phase_table(),
            orchestrated.stats.phase_table()
        );
        for r in 0..8 {
            assert_eq!(
                threaded.stats.sent_by(r),
                orchestrated.stats.sent_by(r),
                "rank {r} sent"
            );
            assert_eq!(
                threaded.stats.received_by(r),
                orchestrated.stats.received_by(r),
                "rank {r} received"
            );
        }
    }

    #[test]
    fn drop_plan_same_factors_more_traffic() {
        let n = 32;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let a = random_matrix(81, n);
        let clean_cfg = ConfluxConfig::dense(n, v, grid);
        let clean = factorize_threaded(&clean_cfg, &a).unwrap();
        let faulty_cfg = clean_cfg
            .clone()
            .with_faults(FaultPlan::new(7).with_drop_rate(0.05));
        let faulty = try_factorize_threaded(&faulty_cfg, &a, Supervisor::default()).unwrap();
        // numerics unharmed by retransmission
        let res = faulty.factors.as_ref().unwrap().residual(&a);
        assert!(res < 1e-10, "residual {res:.2e}");
        assert_eq!(
            faulty.factors.unwrap().perm,
            clean.factors.unwrap().perm,
            "drops must not change pivoting"
        );
        // but the accountant saw the retransmissions
        assert!(faulty.stats.total_sent() > clean.stats.total_sent());
    }

    #[test]
    fn crash_surfaces_as_structured_error_with_partial_stats() {
        let n = 32;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let a = random_matrix(82, n);
        let cfg = ConfluxConfig::dense(n, v, grid).with_faults(FaultPlan::new(3).with_crash(5, 2));
        let sup = Supervisor::default()
            .with_recv_timeout(Duration::from_millis(200))
            .with_deadline(Duration::from_secs(5));
        let t0 = std::time::Instant::now();
        let err = match try_factorize_threaded(&cfg, &a, sup) {
            Err(e) => e,
            Ok(_) => panic!("crash plan must fail the run"),
        };
        assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
        assert_eq!(
            err.error,
            LuCause::Comm(SimnetError::RankCrashed { rank: 5, step: 2 })
        );
        assert_eq!(err.step, Some(2));
        // two full steps ran before the crash: their traffic is recorded
        assert!(err.stats.sent_in_phase("02:tournament") > 0);
        assert!(err.stats.sent_in_phase("04:scatter-a10") > 0);
    }

    #[test]
    fn orchestrated_failover_completes_on_survivors() {
        // a layer-1 rank dies mid-run; the orchestrated driver remaps its
        // role to layer 0 and finishes, charging the failover phases
        let grid = LuGrid::new(8, 2, 2);
        let cfg =
            ConfluxConfig::phantom(64, 8, grid).with_faults(FaultPlan::new(9).with_crash(7, 3));
        let run = try_factorize(&cfg, None).expect("failover must complete");
        assert!(run.stats.sent_in_phase("xx:failover") > 0);
        assert!(run.stats.sent_in_phase("08b:ft-backup-a10") > 0);
        let clean = factorize(&ConfluxConfig::phantom(64, 8, grid), None);
        assert!(run.stats.total_sent() > clean.stats.total_sent());
    }
}
