//! Repair/watchdog fixture: the self-healing idioms of the collectives
//! repair path. Unlike `collectives_fixture.rs` (per-fn markers) this file
//! is listed in the fixture config's `hot_paths` — mirroring how
//! `crates/collectives/src/repair.rs` is covered file-level in
//! `analyzer.toml` — so *every* non-test fn here is a hot-path fn.

/// Deadline arithmetic in bare integers: pinned violation — 1x unit-bare
/// (a public `_us` fn trafficking in bare u64 instead of `Micros`, exactly
/// the watchdog idiom the rule guards).
pub fn deadline_us(base: u64, backoff: u64) -> u64 {
    base + backoff
}

/// Plan graft that clones the dependency list per release: pinned
/// violation (the real planner shares one list deliberately, with the
/// escape on record).
pub fn graft_deps(arrivals: &Vec<usize>) -> Vec<usize> {
    arrivals.clone() // 1x clone
}

/// Copy-free by construction: the shape the real planners use.
pub fn first_unreleased(survivors: &[usize], released: &[usize]) -> Option<usize> {
    survivors.iter().copied().find(|s| !released.contains(s))
}

#[cfg(test)]
mod tests {
    #[test]
    fn first_unreleased_skips_released() {
        let survivors = vec![3, 5];
        assert_eq!(super::first_unreleased(&survivors.clone(), &[3]), Some(5)); // test clone is exempt
    }
}
