//! Row-masking tournament pivoting over the simulated grid (Section 7.3).
//!
//! Each step, the `q` ranks owning the current block column run tournament
//! pivoting: every rank nominates `v` candidate rows from the rows *it
//! owns*, then the candidate sets play off pairwise up a binary tree (the
//! paper uses a butterfly; both exchange `v x v` blocks for `⌈log₂ q⌉`
//! rounds). No rows are swapped — only the `v` winning row indices
//! propagate, and subsequent steps mask them out.

use denselin::lu::SingularMatrix;
use denselin::matrix::Matrix;
use denselin::tournament::{local_candidates, lu_no_pivot, playoff_round, Candidates};
use denselin::SplitMix64;

use crate::tiles::{Mode, Tile};

/// How pivot rows are selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotChoice {
    /// Real tournament pivoting on the data (Dense mode only).
    Tournament,
    /// Seeded pseudo-random selection from the remaining rows — mimics the
    /// paper's "pivots are evenly distributed with high probability"
    /// regime; required in Phantom mode, optional (for Dense/Phantom
    /// volume-identity tests on well-conditioned matrices) in Dense mode.
    Synthetic,
}

/// Row-masking vs. physical row swapping (the Section 7.3 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotStrategy {
    /// COnfLUX's choice: propagate pivot indices only.
    Masking,
    /// Swap pivot rows into position across all replication layers (what
    /// CANDMC-style 2.5D LU does); roughly doubles the leading term.
    Swapping,
}

/// Seeded pseudo-random pivot choice for step `step`: every rank (and both
/// backends) computes the identical list from `(seed, step)` alone, which is
/// what makes Synthetic runs reproducible and lets the threaded driver pick
/// winners without communicating.
pub(crate) fn synthetic_winners(
    remaining: &[usize],
    v: usize,
    seed: u64,
    step: usize,
) -> Vec<usize> {
    let v_eff = v.min(remaining.len());
    let mut rng = SplitMix64::new(seed ^ (step as u64).wrapping_mul(0x9e3779b9));
    let mut rows = remaining.to_vec();
    rng.shuffle(&mut rows);
    rows.truncate(v_eff);
    rows
}

/// Result of one pivoting round.
pub struct PivotRound {
    /// The `v` chosen global row indices, in elimination order.
    pub pivot_rows: Vec<usize>,
    /// Factored `A00` (packed `L\U`, no further pivoting), `v x v`.
    pub a00: Tile,
}

/// Run the tournament for step `t`.
///
/// * `panel` — current values of all remaining rows in the pivot block
///   column (Dense mode; ignored in Phantom),
/// * `remaining` — global row ids matching `panel` rows,
/// * `owner_of_row` — grid-row index (`0..q`) owning each remaining row,
/// * `v` — number of pivots to select.
///
/// # Errors
/// [`SingularMatrix`] (with the column inside the block) when the chosen
/// Dense `v x v` block is exactly singular.
#[allow(clippy::too_many_arguments)] // mirrors the step's full parameter set
pub fn select_pivots(
    mode: Mode,
    choice: PivotChoice,
    panel: Option<&Matrix>,
    remaining: &[usize],
    owner_of_row: impl Fn(usize) -> usize,
    q: usize,
    v: usize,
    seed: u64,
    step: usize,
) -> Result<PivotRound, SingularMatrix> {
    let v_eff = v.min(remaining.len());
    match (mode, choice) {
        (Mode::Phantom, PivotChoice::Tournament) => {
            panic!("tournament pivoting needs data; use PivotChoice::Synthetic in Phantom mode")
        }
        (_, PivotChoice::Synthetic) => {
            let rows = synthetic_winners(remaining, v, seed, step);
            let a00 = match (mode, panel) {
                (Mode::Dense, Some(p)) => {
                    let idx: Vec<usize> = rows
                        .iter()
                        .map(|r| remaining.iter().position(|x| x == r).unwrap())
                        .collect();
                    Tile::from_matrix(lu_no_pivot(&p.gather_rows(&idx))?)
                }
                _ => Tile::zeros(Mode::Phantom, v_eff, v_eff),
            };
            Ok(PivotRound {
                pivot_rows: rows,
                a00,
            })
        }
        (Mode::Dense, PivotChoice::Tournament) => {
            let panel = panel.expect("dense tournament needs the column panel");
            assert_eq!(panel.rows(), remaining.len());
            // group panel rows by owning grid row
            let mut groups: Vec<(Vec<usize>, Vec<usize>)> = vec![(vec![], vec![]); q];
            for (i, &r) in remaining.iter().enumerate() {
                let o = owner_of_row(r);
                groups[o].0.push(i); // panel-local index
                groups[o].1.push(r); // global id
            }
            let mut sets: Vec<Candidates> = groups
                .into_iter()
                .filter(|(idx, _)| !idx.is_empty())
                .map(|(idx, ids)| local_candidates(&panel.gather_rows(&idx), &ids, v_eff))
                .collect();
            // binary-tree playoff (volume counted by the caller as a
            // butterfly over the column group)
            while sets.len() > 1 {
                let mut next = Vec::with_capacity(sets.len().div_ceil(2));
                let mut it = sets.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => next.push(playoff_round(&a, &b, v_eff)),
                        None => next.push(a),
                    }
                }
                sets = next;
            }
            let winner = sets.pop().expect("at least one candidate set");
            // read winning rows back out of the panel to factor A00
            let idx: Vec<usize> = winner
                .rows
                .iter()
                .map(|r| remaining.iter().position(|x| x == r).unwrap())
                .collect();
            let a00 = Tile::from_matrix(lu_no_pivot(&panel.gather_rows(&idx))?);
            Ok(PivotRound {
                pivot_rows: winner.rows,
                a00,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_selection_is_deterministic_and_valid() {
        let remaining: Vec<usize> = (0..32).collect();
        let a = select_pivots(
            Mode::Phantom,
            PivotChoice::Synthetic,
            None,
            &remaining,
            |_| 0,
            4,
            8,
            42,
            3,
        )
        .unwrap();
        let b = select_pivots(
            Mode::Phantom,
            PivotChoice::Synthetic,
            None,
            &remaining,
            |_| 0,
            4,
            8,
            42,
            3,
        )
        .unwrap();
        assert_eq!(a.pivot_rows, b.pivot_rows);
        assert_eq!(a.pivot_rows.len(), 8);
        let mut sorted = a.pivot_rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(sorted.iter().all(|r| remaining.contains(r)));
    }

    #[test]
    fn synthetic_differs_across_steps() {
        let remaining: Vec<usize> = (0..32).collect();
        let a = select_pivots(
            Mode::Phantom,
            PivotChoice::Synthetic,
            None,
            &remaining,
            |_| 0,
            4,
            8,
            42,
            0,
        )
        .unwrap();
        let b = select_pivots(
            Mode::Phantom,
            PivotChoice::Synthetic,
            None,
            &remaining,
            |_| 0,
            4,
            8,
            42,
            1,
        )
        .unwrap();
        assert_ne!(a.pivot_rows, b.pivot_rows);
    }

    #[test]
    fn tournament_selects_strong_rows() {
        let mut rng = SplitMix64::new(5);
        let remaining: Vec<usize> = (0..24).map(|i| i * 2).collect(); // masked ids
        let mut panel = Matrix::random(&mut rng, 24, 4);
        panel[(17, 0)] = 500.0;
        let round = select_pivots(
            Mode::Dense,
            PivotChoice::Tournament,
            Some(&panel),
            &remaining,
            |r| (r / 2) % 3,
            3,
            4,
            0,
            0,
        )
        .unwrap();
        assert_eq!(round.pivot_rows.len(), 4);
        // panel row 17 has global id 34 and must win
        assert!(round.pivot_rows.contains(&34));
        // A00 reconstructs the chosen rows
        let idx: Vec<usize> = round
            .pivot_rows
            .iter()
            .map(|r| remaining.iter().position(|x| x == r).unwrap())
            .collect();
        let chosen = panel.gather_rows(&idx);
        let lu = round.a00.dense();
        assert!(lu.unit_lower().matmul(&lu.upper()).allclose(&chosen, 1e-9));
    }

    #[test]
    fn dense_synthetic_factors_chosen_rows() {
        let mut rng = SplitMix64::new(6);
        // diagonally dominant so random pivots are numerically fine
        let panel = Matrix::from_fn(16, 4, |i, j| {
            if i % 4 == j {
                8.0
            } else {
                rng.range(-1.0..1.0)
            }
        });
        let remaining: Vec<usize> = (0..16).collect();
        let round = select_pivots(
            Mode::Dense,
            PivotChoice::Synthetic,
            Some(&panel),
            &remaining,
            |_| 0,
            2,
            4,
            9,
            0,
        )
        .unwrap();
        assert_eq!(round.a00.dense().rows(), 4);
    }

    #[test]
    #[should_panic(expected = "Synthetic in Phantom")]
    fn phantom_tournament_rejected() {
        let remaining: Vec<usize> = (0..4).collect();
        let _ = select_pivots(
            Mode::Phantom,
            PivotChoice::Tournament,
            None,
            &remaining,
            |_| 0,
            2,
            2,
            0,
            0,
        );
    }

    #[test]
    fn fewer_rows_than_v() {
        let remaining = vec![7, 9];
        let round = select_pivots(
            Mode::Phantom,
            PivotChoice::Synthetic,
            None,
            &remaining,
            |_| 0,
            2,
            8,
            1,
            0,
        )
        .unwrap();
        assert_eq!(round.pivot_rows.len(), 2);
    }
}
