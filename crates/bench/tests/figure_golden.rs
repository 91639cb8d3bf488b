//! Golden-output pin for the figure artifacts.
//!
//! The simulation stack is required to be **bit-reproducible**: the split
//! dichotomy, the plan cache, and the calendar event queue must never
//! change a figure by a single byte. These tests run `repro <figure>` and
//! compare its stdout against the committed snapshot. `repro check`
//! (`repro_check.rs`) compares the same bytes in-process; these tests also
//! pin the subcommand's own stdout and exit status.
//!
//! If a change is *supposed* to alter a figure, regenerate the snapshot
//! (`cargo run --release -p nm-bench --bin repro -- fig8 >
//! crates/bench/tests/golden/fig8.txt`) and justify the delta in the commit.

use std::process::Command;

fn assert_matches_golden(artifact: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(artifact)
        .output()
        .unwrap_or_else(|e| panic!("run repro {artifact}: {e}"));
    assert!(out.status.success(), "repro {artifact} exited with {:?}", out.status);
    let got = String::from_utf8(out.stdout).expect("figure output is utf-8");
    if got != golden {
        let first_diff = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| format!("first differing line: {}", i + 1))
            .unwrap_or_else(|| "outputs differ in length".into());
        panic!(
            "repro {artifact} output drifted from its golden snapshot ({first_diff}).\n\
             --- got ---\n{got}\n--- want ---\n{golden}"
        );
    }
}

#[test]
fn fig3_output_is_bit_identical() {
    assert_matches_golden("fig3", include_str!("golden/fig3.txt"));
}

#[test]
fn fig8_output_is_bit_identical() {
    assert_matches_golden("fig8", include_str!("golden/fig8.txt"));
}

#[test]
fn fig9_output_is_bit_identical() {
    assert_matches_golden("fig9", include_str!("golden/fig9.txt"));
}

#[test]
fn table_splits_output_is_bit_identical() {
    assert_matches_golden("table_splits", include_str!("golden/table_splits.txt"));
}
