//! DAG repair: replacement schedules computed from what actually landed.
//!
//! When the self-healing runner reaches quiescence with obligations still
//! unmet (hops cancelled after retry exhaustion, endpoints dead), it calls
//! one of these planners with the *semantic* state of the collective —
//! who is released, who holds the payload, which blocks are homed — and
//! grafts the returned hops onto the running DAG as fresh indices. Fresh
//! indices are what make repair exactly-once: an original hop is either
//! delivered or torn out of its engine before its replacement is planned,
//! never both, and a replacement never reuses an original's identity.
//!
//! Plans are expressed against *survivors only* (nodes with at least one
//! live NIC port). Dead nodes are excused: a barrier completes on the
//! survivors, a broadcast reaches the surviving non-holders, an all-to-all
//! delivers every block whose source and destination both survive. The one
//! unrecoverable case is a broadcast whose every holder died — the payload
//! no longer exists anywhere, and [`plan_bcast`] reports it as an error.
//!
//! This module is on the analyzer's hot-path list (repair runs inside the
//! watchdog recovery path): no unwrap/expect/indexing.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::schedule::BARRIER_BYTES;
use std::collections::BTreeSet;

/// What a repair hop means to the collective's completion accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopRole {
    /// Barrier fan-in: the destination learns the source arrived.
    Arrive,
    /// Barrier fan-out: the destination may leave the barrier.
    Release,
    /// Broadcast payload: the destination becomes a holder.
    Payload,
    /// All-to-all block `(origin, home)`: delivery homes the block.
    Block(usize, usize),
}

/// One planned replacement hop. `deps` are indices *into the plan*; the
/// runner rebases them onto the live DAG when grafting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairHop {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Plan-relative dependencies (always earlier plan entries).
    pub deps: Vec<usize>,
    /// Semantic role, so the runner can update its tracking sets.
    pub role: HopRole,
}

/// Plans a flat re-barrier over the survivors, rooted at the smallest
/// surviving node: every survivor re-arrives at the root, then the root
/// releases each survivor not yet released. Empty when nothing is owed
/// (everyone released, or fewer than two survivors remain — a lone node
/// is trivially synchronized). Re-arrivals from already-arrived nodes are
/// deliberate: after a fault nobody trusts the partial fan-in that may
/// have died with the old root.
pub fn plan_barrier(survivors: &BTreeSet<usize>, released: &BTreeSet<usize>) -> Vec<RepairHop> {
    let Some(&root) = survivors.iter().next() else { return Vec::new() };
    let unreleased: Vec<usize> =
        survivors.iter().copied().filter(|s| *s != root && !released.contains(s)).collect();
    if unreleased.is_empty() {
        return Vec::new();
    }
    let mut plan = Vec::new();
    for &s in survivors.iter().filter(|&&s| s != root) {
        plan.push(RepairHop {
            src: s,
            dst: root,
            bytes: BARRIER_BYTES,
            deps: Vec::new(),
            role: HopRole::Arrive,
        });
    }
    let arrivals: Vec<usize> = (0..plan.len()).collect();
    for s in unreleased {
        plan.push(RepairHop {
            src: root,
            dst: s,
            bytes: BARRIER_BYTES,
            // nm-analyzer: allow(clone) -- one dep list per release hop; plan size is bounded by the survivor count, built once per repair
            deps: arrivals.clone(),
            role: HopRole::Release,
        });
    }
    plan
}

/// Plans a binomial re-broadcast from the surviving holders to the
/// surviving non-holders: each wave, every node with the payload forwards
/// to one that lacks it, so coverage doubles per wave even when the
/// original root died. Errors when no holder survived — the payload is
/// gone and no schedule can recover it.
pub fn plan_bcast(
    bytes: u64,
    survivors: &BTreeSet<usize>,
    holders: &BTreeSet<usize>,
) -> Result<Vec<RepairHop>, String> {
    let needy: Vec<usize> = survivors.iter().copied().filter(|s| !holders.contains(s)).collect();
    if needy.is_empty() {
        return Ok(Vec::new());
    }
    // (node, plan hop that delivered to it — None for original holders).
    let mut have: Vec<(usize, Option<usize>)> =
        survivors.iter().copied().filter(|s| holders.contains(s)).map(|s| (s, None)).collect();
    if have.is_empty() {
        return Err("broadcast payload lost: every holder is dead".into());
    }
    let mut plan = Vec::new();
    let mut pending = needy.into_iter();
    loop {
        let mut wave = Vec::new();
        for &(src, src_dep) in &have {
            let Some(dst) = pending.next() else { break };
            let deps: Vec<usize> = src_dep.into_iter().collect();
            plan.push(RepairHop { src, dst, bytes, deps, role: HopRole::Payload });
            wave.push((dst, Some(plan.len() - 1)));
        }
        if wave.is_empty() {
            return Ok(plan);
        }
        have.extend(wave);
    }
}

/// Plans direct splice hops for every block not yet homed whose origin and
/// destination both survived: per source, the missing sends are chained in
/// destination order (mirroring the pairwise algorithm's per-node
/// serialization) with no cross-source dependencies. Blocks from dead
/// sources are excused — their data died with the node.
pub fn plan_alltoall(
    bytes: u64,
    survivors: &BTreeSet<usize>,
    block_done: &BTreeSet<(usize, usize)>,
) -> Vec<RepairHop> {
    let mut plan = Vec::new();
    for &s in survivors {
        let mut prev: Option<usize> = None;
        for &d in survivors {
            if d == s || block_done.contains(&(s, d)) {
                continue;
            }
            let deps: Vec<usize> = prev.into_iter().collect();
            plan.push(RepairHop { src: s, dst: d, bytes, deps, role: HopRole::Block(s, d) });
            prev = Some(plan.len() - 1);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[usize]) -> BTreeSet<usize> {
        v.iter().copied().collect()
    }

    #[test]
    fn barrier_plan_rearms_the_fan_in_and_releases_only_the_owed() {
        let survivors = set(&[1, 2, 3, 5]);
        let released = set(&[2]);
        let plan = plan_barrier(&survivors, &released);
        // Root is 1 (min survivor): 3 arrivals, releases for 3 and 5 only.
        let arrivals: Vec<_> = plan.iter().filter(|h| h.role == HopRole::Arrive).collect();
        let releases: Vec<_> = plan.iter().filter(|h| h.role == HopRole::Release).collect();
        assert_eq!(arrivals.len(), 3);
        assert!(arrivals.iter().all(|h| h.dst == 1 && h.deps.is_empty()));
        assert_eq!(releases.iter().map(|h| h.dst).collect::<Vec<_>>(), vec![3, 5]);
        assert!(releases.iter().all(|h| h.src == 1 && h.deps.len() == 3));
        // Nothing owed → nothing planned.
        assert!(plan_barrier(&survivors, &set(&[2, 3, 5])).is_empty());
        assert!(plan_barrier(&set(&[4]), &set(&[])).is_empty(), "a lone survivor needs no hops");
    }

    #[test]
    fn bcast_plan_doubles_coverage_per_wave() {
        let survivors = set(&[0, 1, 2, 3, 4, 5, 6]);
        let holders = set(&[2]);
        let plan = plan_bcast(1024, &survivors, &holders).expect("plan");
        assert_eq!(plan.len(), 6, "every non-holder gets the payload once");
        // First hop fans out of the sole holder with no deps; later hops
        // chain off the hop that delivered to their source.
        assert_eq!(plan.first().map(|h| (h.src, h.deps.len())), Some((2, 0)));
        for (i, h) in plan.iter().enumerate().skip(1) {
            for &d in &h.deps {
                assert!(d < i);
                assert_eq!(plan.get(d).map(|p| p.dst), Some(h.src), "dep delivered to the src");
            }
        }
        // Wave structure: 1 holder → ≤ log2 ceil waves; depth of the last
        // hop is at most 3 for 6 receivers.
        let mut depth = vec![0usize; plan.len()];
        for (i, h) in plan.iter().enumerate() {
            depth[i] = h.deps.iter().map(|&d| depth[d] + 1).max().unwrap_or(1);
        }
        assert!(depth.iter().max() <= Some(&3), "binomial depth: {depth:?}");
    }

    #[test]
    fn bcast_plan_fails_when_the_payload_died() {
        let survivors = set(&[1, 2, 3]);
        let holders = set(&[0]); // 0 is dead (not a survivor)
        assert!(plan_bcast(64, &survivors, &holders).is_err());
        // And is a no-op when every survivor already holds it.
        assert_eq!(plan_bcast(64, &set(&[0, 1]), &set(&[0, 1])), Ok(Vec::new()));
    }

    #[test]
    fn alltoall_plan_covers_exactly_the_missing_surviving_blocks() {
        let survivors = set(&[0, 1, 3]);
        let mut done = BTreeSet::new();
        done.insert((0, 1));
        done.insert((3, 0));
        // Blocks touching dead node 2 are excused automatically.
        let plan = plan_alltoall(256, &survivors, &done);
        let pairs: BTreeSet<(usize, usize)> = plan.iter().map(|h| (h.src, h.dst)).collect();
        assert_eq!(pairs, [(0, 3), (1, 0), (1, 3), (3, 1)].into_iter().collect());
        for h in &plan {
            assert_eq!(h.role, HopRole::Block(h.src, h.dst));
            assert_eq!(h.bytes, 256);
        }
        // Per-source chains: 1's two sends are ordered.
        let one_sends: Vec<_> = plan.iter().enumerate().filter(|(_, h)| h.src == 1).collect();
        assert_eq!(one_sends.len(), 2);
        assert!(one_sends.last().map(|(_, h)| h.deps.len()) == Some(1));
    }
}
