//! Collectives-dispatch fixture: the selection hot loop idioms the
//! collectives crate must keep copy-free, with a pinned violation. Unlike
//! `panic_fixture.rs` (file-level marker) this file marks individual fns,
//! mirroring how `crates/collectives/src/select.rs` annotates only its
//! dispatch path while leaving constructors cold.

/// Cold constructor: a copy here is *not* a finding.
pub fn build_table(seed: &Vec<f64>) -> Vec<f64> {
    seed.clone() // not counted: cold fn
}

/// Per-operation dispatch: picks a variant index from corrections.
// nm-analyzer: hot_path
pub fn dispatch(corrections: &[f64], predicted: &[f64]) -> usize {
    let scored = predicted.iter().zip(corrections.iter());
    let mut best = (0usize, f64::INFINITY);
    for (i, (p, c)) in scored.enumerate() {
        let cost = p * c;
        if cost < best.1 {
            best = (i, cost);
        }
    }
    best.0
}

/// Hot broadcast of the correction table: a pinned allocation-by-clone.
// nm-analyzer: hot_path
pub fn snapshot(corrections: &Vec<f64>) -> Vec<f64> {
    corrections.clone() // 1x clone
}

#[cfg(test)]
mod tests {
    #[test]
    fn dispatch_prefers_lower_corrected_cost() {
        let pick = super::dispatch(&[1.0, 1.0], &[2.0, 1.0]);
        assert_eq!(pick, 1);
    }
}
