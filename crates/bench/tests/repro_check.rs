//! Every deterministic artifact regenerates byte for byte: `repro check`
//! reruns each one at seed 42 and compares it with its golden under
//! `tests/golden/` and with its committed `BENCH_*.json`.
//!
//! If a change is *supposed* to move an artifact, regenerate it (`cargo
//! run --release -p nm-bench --bin repro -- <name> >
//! crates/bench/tests/golden/<name>.txt`, from the repo root so the BENCH
//! file lands beside its committed copy) and justify the delta in the
//! commit.

use std::process::Command;

#[test]
fn every_deterministic_artifact_matches_its_committed_bytes() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg("check").output().expect("run repro");
    assert!(
        out.status.success(),
        "repro check failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
