//! NIC selection (paper §II-B, Fig 2).
//!
//! "The first step is to draw up which NICs should participate to the
//! communication. ... NIC1 is typically discarded provided that NIC2 is
//! expected to become free before NIC1" — and, for eager sends, the chunk
//! count is capped at "min{number of idle NICs, number of idle cores}"
//! (§III-B).
//!
//! Selection here is computed *constructively*: run the equal-completion
//! split over every candidate; rails that cannot contribute before the
//! optimal completion receive zero bytes and drop out. If the surviving set
//! exceeds `max_chunks`, the smallest contributors are discarded and the
//! split is recomputed over the survivors.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::predictor::CostModel;
use crate::split::{equal_completion_split, Split};
use nm_model::{InlineVec, MAX_RAILS};
use nm_sim::RailId;

/// Computes the participating rail set and their chunk sizes.
///
/// * `rails` — candidates with their predicted waits (µs until idle).
/// * `size` — message bytes.
/// * `max_chunks` — upper bound on participating rails (idle-core cap);
///   must be ≥ 1.
// nm-analyzer: no_alloc
#[must_use]
pub fn select_rails<C: CostModel>(
    cost: &C,
    rails: &[(RailId, f64)],
    size: u64,
    max_chunks: usize,
) -> Split {
    assert!(max_chunks >= 1, "must allow at least one chunk");
    assert!(!rails.is_empty(), "need at least one candidate rail");

    let mut split = equal_completion_split(cost, rails, size);
    while split.assignments.len() > max_chunks {
        // Drop the smallest contributor and re-balance among the rest. The
        // loop guard proves `assignments.len() > max_chunks >= 1`, so a
        // minimum exists; the `else` arm is unreachable but total.
        let Some(&(drop_rail, _)) = split.assignments.iter().min_by_key(|&&(_, b)| b) else {
            break;
        };
        let survivors: InlineVec<(RailId, f64), MAX_RAILS> = rails
            .iter()
            .copied()
            .filter(|&(r, _)| r != drop_rail && split.assignments.iter().any(|&(rr, _)| rr == r))
            .collect();
        split = equal_completion_split(cost, &survivors, size);
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::{affine_rail, two_rail_predictor};
    use crate::predictor::Predictor;

    const R0: RailId = RailId(0);
    const R1: RailId = RailId(1);

    #[test]
    fn busy_rail_is_discarded_fig2() {
        // Rail 0 idle, rail 1 busy long past rail 0's completion: the split
        // must use rail 0 alone — exactly Fig 2's discard.
        let p = two_rail_predictor();
        let size = 128 * 1024;
        let alone = p.natural_cost().time_us(R0, size);
        let s = select_rails(&p.natural_cost(), &[(R0, 0.0), (R1, alone * 2.0)], size, 2);
        assert_eq!(s.assignments, vec![(R0, size)]);
    }

    #[test]
    fn briefly_busy_rail_is_kept() {
        // Rail 1 busy for a *short* time still helps: prediction looks past
        // the current transfer ("take into account NICs that are currently
        // busy but that will be idle soon").
        let p = two_rail_predictor();
        let size = 4 << 20;
        let s = select_rails(&p.natural_cost(), &[(R0, 0.0), (R1, 100.0)], size, 2);
        assert_eq!(s.assignments.len(), 2, "{:?}", s.assignments);
        // The waiting rail gets less than it would when idle.
        let idle = select_rails(&p.natural_cost(), &[(R0, 0.0), (R1, 0.0)], size, 2);
        let busy_share = s.assignments.iter().find(|&&(r, _)| r == R1).unwrap().1;
        let idle_share = idle.assignments.iter().find(|&&(r, _)| r == R1).unwrap().1;
        assert!(busy_share < idle_share);
    }

    #[test]
    fn chunk_cap_limits_participants() {
        let p = Predictor::new(vec![
            affine_rail(0, "a", 3.0, 1000.0),
            affine_rail(1, "b", 1.0, 500.0),
            affine_rail(2, "c", 5.0, 2000.0),
        ]);
        let rails = [(R0, 0.0), (R1, 0.0), (RailId(2), 0.0)];
        let size = 8u64 << 20;
        let unlimited = select_rails(&p.natural_cost(), &rails, size, 3);
        assert_eq!(unlimited.assignments.len(), 3);
        let capped = select_rails(&p.natural_cost(), &rails, size, 2);
        assert_eq!(capped.assignments.len(), 2);
        assert_eq!(capped.total(), size);
        // The slowest rail (b, 500 MB/s) is the one dropped.
        assert!(capped.assignments.iter().all(|&(r, _)| r != R1), "{:?}", capped.assignments);
        // Capping cannot beat the unlimited split.
        assert!(capped.completion_us >= unlimited.completion_us - 1e-6);
    }

    #[test]
    fn cap_of_one_degenerates_to_fastest_rail() {
        let p = two_rail_predictor();
        let size = 1u64 << 20;
        let s = select_rails(&p.natural_cost(), &[(R0, 0.0), (R1, 0.0)], size, 1);
        assert_eq!(s.assignments.len(), 1);
        assert_eq!(s.assignments[0].0, R0, "bandwidth-dominant rail wins for 1 MiB");
    }
}
