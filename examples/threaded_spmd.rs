//! The threaded backend: every rank is a real OS thread exchanging real
//! messages over crossbeam channels. Runs a distributed tournament-pivot
//! selection (the paper's butterfly pattern) and checks that the measured
//! per-rank volume matches what the orchestrated accountant charges for the
//! same collective.
//!
//! Run with `cargo run --release --example threaded_spmd`.

use conflux_repro::denselin::tournament::{local_candidates, playoff_round, Candidates};
use conflux_repro::denselin::{Matrix, SplitMix64};
use conflux_repro::simnet::{run_spmd, Network};

/// Encode a candidate set as a flat f64 buffer: [rows..., values...].
fn encode(c: &Candidates, v: usize) -> Vec<f64> {
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

fn decode(buf: &[f64], v: usize) -> Candidates {
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

fn main() {
    let p = 8; // 8 rank threads
    let v = 4; // pivots to select
    let rows_per_rank = 16;

    // every rank owns `rows_per_rank` rows of a tall panel
    let mut rng = SplitMix64::new(7);
    let panel = Matrix::random(&mut rng, p * rows_per_rank, v);

    println!("distributed tournament pivoting over {p} rank threads (butterfly)...");
    let group: Vec<usize> = (0..p).collect();
    let (results, stats) = run_spmd(p, |ctx| {
        let my_rows: Vec<usize> =
            (ctx.rank * rows_per_rank..(ctx.rank + 1) * rows_per_rank).collect();
        let my_panel = panel.gather_rows(&my_rows);
        let local = local_candidates(&my_panel, &my_rows, v);
        let winner_buf = ctx.butterfly(&group, encode(&local, v), 777, "tournament", |a, b| {
            encode(&playoff_round(&decode(&a, v), &decode(&b, v), v), v)
        });
        decode(&winner_buf, v).rows
    });

    // all ranks agree on the winners
    for r in 1..p {
        assert_eq!(results[0], results[r], "ranks disagree on pivots");
    }
    println!("winners (global row ids): {:?}", results[0]);

    // the serial tournament gives the same answer
    let serial = conflux_repro::denselin::tournament_pivots(&panel, v, p)
        .expect("a random panel has full rank");
    assert_eq!(
        results[0], serial.pivot_rows,
        "threaded != serial tournament"
    );
    println!("matches the serial tournament: ok");

    // and the threaded volume equals the orchestrated accountant's charge
    let mut net = Network::new(p);
    net.butterfly(&group, (v * (v + 1)) as u64, "tournament");
    println!(
        "measured volume: threaded = {} elements, orchestrated charge = {} elements",
        stats.total_sent(),
        net.stats.total_sent()
    );
    assert_eq!(stats.total_sent(), net.stats.total_sent());
    println!("backends agree: ok");
}
