//! The fault-free resilience path must be invisible: running the full
//! Fig 8 sweep through the chaos driver with an *empty* schedule and fault
//! tolerance enabled (`repro fig8_chaos`) has to reproduce the golden
//! figure bit-identically. This pins the "empty schedule is inert"
//! guarantee (no extra events, no RNG draws, no duration rounding, no
//! health-driven planning changes) end-to-end through the public `Engine`
//! API.

use std::process::Command;

#[test]
fn fault_free_chaos_sweep_reproduces_fig8_bit_identically() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig8_chaos")
        .output()
        .expect("run repro fig8_chaos");
    assert!(out.status.success(), "repro fig8_chaos exited with {:?}", out.status);
    let report = String::from_utf8(out.stdout).expect("figure output is utf-8");
    assert_eq!(report, include_str!("golden/fig8.txt"), "fig8 via chaos driver diverged");
}
