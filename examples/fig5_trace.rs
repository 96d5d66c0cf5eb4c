//! Figure 5, as a trace: run COnfLUX on the paper's P = 8 (2x2x2 grid)
//! configuration with its event timeline enabled and print who
//! communicates with whom in each of Algorithm 1's steps — the textual
//! version of the paper's decomposition diagram.
//!
//! Run with `cargo run --release --example fig5_trace`.

use conflux_repro::conflux::{factorize, ConfluxConfig, LuGrid};
use conflux_repro::simnet::trace::EventKind;

fn main() {
    let n = 16;
    let v = 4;
    let grid = LuGrid::new(8, 2, 2); // Figure 5's 2x2x2 grid
    let cfg = ConfluxConfig::phantom(n, v, grid).with_timeline();

    println!(
        "COnfLUX on the Figure-5 grid [2,2,2], N = {n}, v = {v} ({} steps)\n",
        n / v
    );
    let run = factorize(&cfg, None);
    let trace = run.timeline.expect("the timeline was enabled");

    // One line per transfer: a send, or the steps of one collective (they
    // share a `seq`). Receives mirror their sends and compute regions move
    // nothing, so both are skipped.
    let events = &trace.events;
    let (mut transfers, mut shown_per_phase, mut phase, mut last_seq) = (0, 0, "", None);
    for ev in events {
        let line = match ev.kind {
            EventKind::Send { peer } => {
                format!(
                    "rank {:>2} -> rank {peer:<2}  {} elements",
                    ev.rank, ev.sent
                )
            }
            EventKind::CollectiveStep { op } if last_seq != Some(ev.seq) => {
                last_seq = Some(ev.seq);
                let steps = events.iter().filter(|s| {
                    s.seq == ev.seq && matches!(s.kind, EventKind::CollectiveStep { .. })
                });
                let ranks: Vec<usize> = steps.clone().map(|s| s.rank).collect();
                let sent: u64 = steps.map(|s| s.sent).sum();
                format!("{op:<10} over ranks {ranks:?}, {sent} elements sent")
            }
            _ => continue,
        };
        transfers += 1;
        if ev.phase != phase {
            (phase, shown_per_phase) = (ev.phase, 0);
            println!("--- {phase} ---");
        }
        shown_per_phase += 1;
        if shown_per_phase <= 6 {
            println!("      {line}");
        } else if shown_per_phase == 7 {
            println!("      ...");
        }
    }

    println!(
        "\ntotal transfers: {transfers}, total volume: {} elements",
        run.stats.total_sent()
    );
    println!("\nper-phase volumes (matches Algorithm 1's cost annotations):");
    print!("{}", run.stats.phase_table());
}
