//! Orchestrated network: the volume accountant of the simulator.
//!
//! In the orchestrated execution style, the algorithm driver owns all rank
//! states and performs data movement itself; *every* inter-rank transfer must
//! be declared to this [`Network`], which charges the per-rank volumes of the
//! chosen collective algorithm to [`CommStats`]. This mirrors how the paper
//! instruments real MPI implementations with Score-P: the algorithm's
//! communication pattern is what is measured, independent of wall-clock.

use std::collections::HashMap;

use crate::collectives::{self, Volumes};
use crate::error::{SimnetError, SimnetResult};
use crate::faults::FaultPlan;
use crate::stats::{CommStats, Rank};
use crate::trace::{Trace, Tracer};

/// Which broadcast algorithm to charge (ablation knob; the paper's
/// implementations use tree-based collectives).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Binomial tree (MPI default for mid-size messages).
    #[default]
    Binomial,
    /// Root sends to every participant directly.
    Flat,
}

/// Counted network connecting `p` simulated ranks.
#[derive(Clone, Debug)]
pub struct Network {
    /// Volume record of everything sent through this network.
    pub stats: CommStats,
    /// Broadcast algorithm used by [`Network::broadcast`].
    pub bcast_algo: BcastAlgo,
    /// Fault schedule consulted when charging point-to-point traffic: a
    /// dropped transmission is charged to the sender again (the retransmit)
    /// and a duplicated one to both sides, exactly as the threaded backend
    /// does on real channels. The zero plan changes nothing.
    pub faults: FaultPlan,
    /// Sequence counters per (src, dst) pair, mirroring the sender-side
    /// numbering of the threaded backend so both backends query the plan
    /// with the same keys.
    p2p_seqs: HashMap<(Rank, Rank), u64>,
    /// Timestamped event recorder ([`Tracer::noop`] by default; enable with
    /// [`Network::with_timeline`] or [`Network::enable_timeline`]). The
    /// tracer advances per-rank virtual clocks and feeds the critical-path
    /// analyzer.
    pub tracer: Tracer,
}

impl Network {
    /// A network connecting `p` ranks.
    pub fn new(p: usize) -> Self {
        Self {
            stats: CommStats::new(p),
            bcast_algo: BcastAlgo::Binomial,
            faults: FaultPlan::none(),
            p2p_seqs: HashMap::new(),
            tracer: Tracer::noop(),
        }
    }

    /// A network that charges retransmission/duplication overheads for
    /// point-to-point traffic according to `faults`.
    pub fn with_faults(p: usize, faults: FaultPlan) -> Self {
        let mut net = Self::new(p);
        net.faults = faults;
        net
    }

    /// A network that additionally records a virtual-time event timeline
    /// (under the default `aries_like` α-β model); extract it afterwards
    /// with [`Network::take_timeline`].
    pub fn with_timeline(p: usize) -> Self {
        let mut net = Self::new(p);
        net.enable_timeline();
        net
    }

    /// Start recording a virtual-time event timeline on this network
    /// (idempotent; existing events are kept).
    pub fn enable_timeline(&mut self) {
        if !self.tracer.enabled() {
            self.tracer = Tracer::virtual_time(self.ranks(), crate::cost::AlphaBeta::aries_like());
        }
    }

    /// Extract the recorded timeline, disabling further recording.
    /// `None` if the timeline was never enabled.
    pub fn take_timeline(&mut self) -> Option<Trace> {
        self.tracer.take()
    }

    /// Record a local compute region of `flops` floating-point operations on
    /// one rank (a timeline-only annotation: no communication is charged).
    pub fn compute(&mut self, rank: Rank, flops: f64, phase: &'static str, label: &'static str) {
        self.tracer.compute(rank, flops, phase, label);
    }

    /// Record the same compute region on every rank (for work that is
    /// uniformly distributed, e.g. a 1D-partitioned TRSM).
    pub fn compute_all(&mut self, flops_per_rank: f64, phase: &'static str, label: &'static str) {
        if self.tracer.enabled() {
            for rank in 0..self.ranks() {
                self.tracer.compute(rank, flops_per_rank, phase, label);
            }
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.stats.ranks()
    }

    /// Point-to-point message of `elems` elements.
    pub fn send(&mut self, src: Rank, dst: Rank, elems: u64, phase: &'static str) {
        self.stats.record(src, dst, elems, phase);
        let mut drops = 0u64;
        let mut duplicated = false;
        if src != dst && elems > 0 && !self.faults.is_zero() {
            let seq = self.p2p_seqs.entry((src, dst)).or_insert(0);
            let n = *seq;
            *seq += 1;
            // each lost attempt is retransmitted: sender pays again
            drops = self.faults.drops_for(src, dst, n) as u64;
            if drops > 0 {
                self.stats.charge(src, drops * elems, 0, drops, phase);
            }
            // a duplicated message crosses the wire twice, then the
            // receiver deduplicates — both sides pay for the extra copy
            duplicated = self.faults.duplicates(src, dst, n);
            if duplicated {
                self.stats.charge(src, elems, 0, 1, phase);
                self.stats.charge(dst, 0, elems, 0, phase);
            }
        }
        self.tracer.p2p(src, dst, elems, phase, drops, duplicated);
    }

    /// Broadcast `elems` elements from `group[0]` to the whole group.
    pub fn broadcast(&mut self, group: &[Rank], elems: u64, phase: &'static str) {
        let v = match self.bcast_algo {
            BcastAlgo::Binomial => collectives::binomial_broadcast(group.len(), elems),
            BcastAlgo::Flat => collectives::flat_broadcast(group.len(), elems),
        };
        self.charge_group("broadcast", group, &v, elems, phase);
    }

    /// Broadcast from an arbitrary member: `root` is rotated to the front of
    /// the tree. Returns [`SimnetError::NotInGroup`] if `root` is not a
    /// member.
    pub fn try_broadcast_from(
        &mut self,
        root: Rank,
        group: &[Rank],
        elems: u64,
        phase: &'static str,
    ) -> SimnetResult<()> {
        let rotated = try_rotate_to_front(group, root, "broadcast")?;
        self.broadcast(&rotated, elems, phase);
        Ok(())
    }

    /// Panicking form of [`Network::try_broadcast_from`].
    pub fn broadcast_from(&mut self, root: Rank, group: &[Rank], elems: u64, phase: &'static str) {
        let rotated = rotate_to_front(group, root);
        self.broadcast(&rotated, elems, phase);
    }

    /// Reduce `elems` elements from every group member onto `group[0]`.
    pub fn reduce(&mut self, group: &[Rank], elems: u64, phase: &'static str) {
        let v = collectives::binomial_reduce(group.len(), elems);
        self.charge_group("reduce", group, &v, elems, phase);
    }

    /// Reduce onto an arbitrary member. Returns [`SimnetError::NotInGroup`]
    /// if `root` is not a member.
    pub fn try_reduce_onto(
        &mut self,
        root: Rank,
        group: &[Rank],
        elems: u64,
        phase: &'static str,
    ) -> SimnetResult<()> {
        let rotated = try_rotate_to_front(group, root, "reduce")?;
        self.reduce(&rotated, elems, phase);
        Ok(())
    }

    /// Panicking form of [`Network::try_reduce_onto`].
    pub fn reduce_onto(&mut self, root: Rank, group: &[Rank], elems: u64, phase: &'static str) {
        let rotated = rotate_to_front(group, root);
        self.reduce(&rotated, elems, phase);
    }

    /// Allreduce `elems` elements across the group (recursive doubling).
    pub fn allreduce(&mut self, group: &[Rank], elems: u64, phase: &'static str) {
        let v = collectives::recursive_doubling_allreduce(group.len(), elems);
        self.charge_group("allreduce", group, &v, elems, phase);
    }

    /// Scatter distinct `elems_per_rank`-element chunks from `group[0]`.
    pub fn scatter(&mut self, group: &[Rank], elems_per_rank: u64, phase: &'static str) {
        let v = collectives::scatter(group.len(), elems_per_rank);
        self.charge_group("scatter", group, &v, elems_per_rank, phase);
    }

    /// Gather `elems_per_rank`-element chunks onto `group[0]`.
    pub fn gather(&mut self, group: &[Rank], elems_per_rank: u64, phase: &'static str) {
        let v = collectives::gather(group.len(), elems_per_rank);
        self.charge_group("gather", group, &v, elems_per_rank, phase);
    }

    /// Ring allgather of `elems`-element contributions.
    pub fn allgather(&mut self, group: &[Rank], elems: u64, phase: &'static str) {
        let v = collectives::ring_allgather(group.len(), elems);
        self.charge_group("allgather", group, &v, elems, phase);
    }

    /// Butterfly exchange of `elems` elements per round over `log2 |group|`
    /// rounds (the tournament-pivoting pattern).
    pub fn butterfly(&mut self, group: &[Rank], elems: u64, phase: &'static str) {
        let v = collectives::butterfly_exchange(group.len(), elems);
        self.charge_group("butterfly", group, &v, elems, phase);
    }

    /// Reduce-scatter with `elems_per_chunk`-element result chunks.
    pub fn reduce_scatter(&mut self, group: &[Rank], elems_per_chunk: u64, phase: &'static str) {
        let v = collectives::reduce_scatter(group.len(), elems_per_chunk);
        self.charge_group("reduce-scatter", group, &v, elems_per_chunk, phase);
    }

    fn charge_group(
        &mut self,
        op: &'static str,
        group: &[Rank],
        v: &Volumes,
        msg_elems: u64,
        phase: &'static str,
    ) {
        debug_assert_eq!(group.len(), v.len());
        let msgs_of = |sent: u64| {
            if msg_elems > 0 {
                sent.div_ceil(msg_elems)
            } else {
                0
            }
        };
        for (&rank, &(sent, recv)) in group.iter().zip(v) {
            self.stats.charge(rank, sent, recv, msgs_of(sent), phase);
        }
        if self.tracer.enabled() {
            let participants: Vec<(Rank, u64, u64, u64)> = group
                .iter()
                .zip(v)
                .map(|(&rank, &(sent, recv))| (rank, sent, recv, msgs_of(sent)))
                .collect();
            self.tracer.collective(op, phase, &participants);
        }
    }
}

fn try_rotate_to_front(group: &[Rank], root: Rank, op: &'static str) -> SimnetResult<Vec<Rank>> {
    let pos = group
        .iter()
        .position(|&r| r == root)
        .ok_or(SimnetError::NotInGroup { rank: root, op })?;
    let mut rotated = Vec::with_capacity(group.len());
    rotated.extend_from_slice(&group[pos..]);
    rotated.extend_from_slice(&group[..pos]);
    Ok(rotated)
}

fn rotate_to_front(group: &[Rank], root: Rank) -> Vec<Rank> {
    try_rotate_to_front(group, root, "collective").expect("root must be a member of the group")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_counts_group_minus_one() {
        let mut net = Network::new(8);
        net.broadcast(&[0, 1, 2, 3], 10, "b");
        assert_eq!(net.stats.total_sent(), 30);
        // root never receives
        assert_eq!(net.stats.received_by(0), 0);
        assert_eq!(net.stats.received_by(3), 10);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let mut net = Network::new(4);
        net.broadcast_from(2, &[0, 1, 2, 3], 5, "b");
        assert_eq!(net.stats.total_sent(), 15);
        assert_eq!(net.stats.received_by(2), 0);
        assert!(net.stats.sent_by(2) >= 5);
    }

    #[test]
    fn flat_vs_binomial_same_total_different_root_load() {
        let mut bin = Network::new(8);
        bin.broadcast(&(0..8).collect::<Vec<_>>(), 4, "b");
        let mut flat = Network::new(8);
        flat.bcast_algo = BcastAlgo::Flat;
        flat.broadcast(&(0..8).collect::<Vec<_>>(), 4, "b");
        assert_eq!(bin.stats.total_sent(), flat.stats.total_sent());
        assert!(flat.stats.sent_by(0) > bin.stats.sent_by(0));
    }

    #[test]
    fn reduce_onto_counts() {
        let mut net = Network::new(4);
        net.reduce_onto(3, &[0, 1, 2, 3], 6, "r");
        assert_eq!(net.stats.total_sent(), 18);
        assert_eq!(net.stats.sent_by(3), 0);
    }

    #[test]
    fn scatter_root_sends_everything() {
        let mut net = Network::new(4);
        net.scatter(&[0, 1, 2, 3], 9, "s");
        assert_eq!(net.stats.sent_by(0), 27);
        assert_eq!(net.stats.received_by(2), 9);
    }

    #[test]
    fn butterfly_per_rank_log_rounds() {
        let mut net = Network::new(8);
        net.butterfly(&(0..8).collect::<Vec<_>>(), 16, "t");
        for r in 0..8 {
            assert_eq!(net.stats.sent_by(r), 3 * 16);
        }
    }

    #[test]
    fn singleton_groups_are_free() {
        let mut net = Network::new(2);
        net.broadcast(&[1], 100, "x");
        net.reduce(&[0], 100, "x");
        net.allgather(&[1], 100, "x");
        net.butterfly(&[0], 100, "x");
        assert_eq!(net.stats.total_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "root must be a member")]
    fn broadcast_from_nonmember_panics() {
        let mut net = Network::new(4);
        net.broadcast_from(9, &[0, 1], 1, "x");
    }

    #[test]
    fn try_broadcast_from_nonmember_is_typed() {
        let mut net = Network::new(4);
        let err = net.try_broadcast_from(9, &[0, 1], 1, "x").unwrap_err();
        assert_eq!(
            err,
            SimnetError::NotInGroup {
                rank: 9,
                op: "broadcast"
            }
        );
        // nothing was charged for the rejected call
        assert_eq!(net.stats.total_sent(), 0);
        assert!(net.try_broadcast_from(1, &[0, 1], 1, "x").is_ok());
    }

    #[test]
    fn try_reduce_onto_nonmember_is_typed() {
        let mut net = Network::new(4);
        let err = net.try_reduce_onto(7, &[0, 1, 2], 5, "r").unwrap_err();
        assert_eq!(
            err,
            SimnetError::NotInGroup {
                rank: 7,
                op: "reduce"
            }
        );
        assert!(net.try_reduce_onto(2, &[0, 1, 2], 5, "r").is_ok());
    }

    #[test]
    fn zero_fault_plan_charges_like_seed() {
        let mut plain = Network::new(4);
        let mut faulty = Network::with_faults(4, FaultPlan::none());
        for net in [&mut plain, &mut faulty] {
            net.send(0, 1, 10, "p");
            net.send(1, 2, 5, "p");
            net.broadcast(&[0, 1, 2, 3], 8, "b");
        }
        assert_eq!(plain.stats.phase_table(), faulty.stats.phase_table());
        assert_eq!(plain.stats.total_messages(), faulty.stats.total_messages());
    }

    #[test]
    fn drop_plan_charges_deterministic_retransmissions() {
        let plan = FaultPlan::new(21).with_drop_rate(0.5);
        let run = |plan: FaultPlan| {
            let mut net = Network::with_faults(2, plan);
            for _ in 0..32 {
                net.send(0, 1, 3, "p");
            }
            (net.stats.sent_by(0), net.stats.received_by(1))
        };
        let (sent_a, recv_a) = run(plan.clone());
        let (sent_b, recv_b) = run(plan.clone());
        assert_eq!((sent_a, recv_a), (sent_b, recv_b));
        // retransmissions inflate the sender, deliveries stay at 32
        let expected_drops: u64 = (0..32).map(|s| plan.drops_for(0, 1, s) as u64).sum();
        assert!(expected_drops > 0, "seed 21 should drop something");
        assert_eq!(sent_a, 3 * (32 + expected_drops));
        assert_eq!(recv_a, 3 * 32);
    }

    #[test]
    fn duplicate_plan_charges_both_sides() {
        let plan = FaultPlan::new(4).with_duplicate_rate(1.0);
        let mut net = Network::with_faults(2, plan);
        net.send(0, 1, 5, "p");
        assert_eq!(net.stats.sent_by(0), 10);
        assert_eq!(net.stats.received_by(1), 10);
        assert_eq!(net.stats.total_messages(), 2);
    }
}
