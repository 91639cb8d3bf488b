//! Fixture suite: each file under `tests/fixtures/` carries a known set of
//! violations; this test pins the exact per-rule diagnostic counts and the
//! allow tallies, so any rule regression (missed finding, false positive,
//! broken escape hatch) shows up as a count mismatch.

use std::collections::HashMap;
use std::path::Path;

use nm_analyzer::config::Config;
use nm_analyzer::parse::parse_file;
use nm_analyzer::rules::{analyze, Analysis};

fn fixture_config() -> Config {
    Config {
        // File-level hot-path coverage (the analyzer.toml mechanism the
        // repair path uses), exercised by repair_fixture.rs.
        hot_paths: vec!["crates/fixture/src/repair_fixture.rs".to_string()],
        unit_boundary_files: Vec::new(),
        facade_crates: vec!["fixture_facade".to_string()],
        must_use_files: vec!["crates/fixture/src/must_use_fixture.rs".to_string()],
        // Determinism roots: every fn in these files is a root for the
        // taint pass and seeds the bounded-growth checked set.
        det_roots: vec![
            "crates/fixture/src/detflow_fixture.rs".to_string(),
            "crates/fixture/src/growth_fixture.rs".to_string(),
        ],
        ..Default::default()
    }
}

/// Parses every fixture under a synthetic `crates/fixture/src/` layout.
fn analyze_fixtures() -> Analysis {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files = Vec::new();
    for (name, crate_name) in [
        ("panic_fixture.rs", "fixture"),
        ("unit_fixture.rs", "fixture"),
        ("no_alloc_fixture.rs", "fixture"),
        ("ordering_fixture.rs", "fixture_facade"),
        ("replog_fixture.rs", "fixture_facade"),
        ("must_use_fixture.rs", "fixture"),
        ("collectives_fixture.rs", "fixture"),
        ("repair_fixture.rs", "fixture"),
        ("blocking_fixture.rs", "fixture"),
        ("atomics_fixture.rs", "fixture"),
        ("unsafe_fixture.rs", "fixture"),
        ("detflow_fixture.rs", "fixture"),
        ("growth_fixture.rs", "fixture"),
    ] {
        let src = std::fs::read_to_string(dir.join(name)).expect("fixture readable");
        let rel = format!("crates/fixture/src/{name}");
        // Mirror the scanner's file-level hot-path promotion (lib.rs).
        let cfg = fixture_config();
        let force_hot = cfg.hot_paths.iter().any(|h| h == &rel || rel.ends_with(h.as_str()));
        files.push(parse_file(&rel, crate_name, &src, force_hot));
    }
    analyze(&files, &fixture_config())
}

fn count_map(v: Vec<(String, usize)>) -> HashMap<String, usize> {
    v.into_iter().collect()
}

#[test]
fn per_rule_unallowed_counts_are_exact() {
    let analysis = analyze_fixtures();
    let counts = count_map(analysis.counts());
    let expected: &[(&str, usize)] = &[
        ("clone", 3),
        ("allow-missing-reason", 1),
        ("unit-bare", 5),
        ("no-alloc", 6),
        ("facade-bypass", 4),
        ("must-use", 1),
        ("hot-path-blocking", 2),
        ("atomic-unpaired-release", 1),
        ("atomic-mixed-relaxed", 3),
        ("unsafe-no-safety", 2),
        ("allow-unused", 1),
        ("allow-unknown-rule", 1),
        ("determinism-taint", 7),
        ("unbounded-growth", 2),
        ("bounded-unknown-cap", 1),
        ("bounded-missing-reason", 1),
        ("bounded-unused", 1),
    ];
    for &(rule, n) in expected {
        assert_eq!(
            counts.get(rule).copied().unwrap_or(0),
            n,
            "rule `{rule}`: expected {n} unallowed finding(s), got {:?}\nall: {:#?}",
            counts.get(rule),
            analysis.unallowed()
        );
    }
    let total: usize = expected.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        analysis.unallowed().len(),
        total,
        "unexpected extra findings: {:#?}",
        analysis.unallowed()
    );
}

#[test]
fn allow_escapes_suppress_and_are_tallied() {
    let analysis = analyze_fixtures();
    let allowed = count_map(analysis.allow_counts());
    assert_eq!(allowed.get("clone").copied(), Some(2), "allowed clones: {allowed:?}");
    assert_eq!(allowed.get("unit-bare").copied(), Some(2), "allowed unit-bare: {allowed:?}");
    assert_eq!(allowed.get("no-alloc").copied(), Some(1), "allowed no-alloc: {allowed:?}");
    assert_eq!(
        allowed.get("hot-path-blocking").copied(),
        Some(1),
        "allowed hot-path-blocking: {allowed:?}"
    );
    assert_eq!(
        allowed.get("atomic-unpaired-release").copied(),
        Some(1),
        "allowed atomic-unpaired-release: {allowed:?}"
    );
    assert_eq!(
        allowed.get("unsafe-no-safety").copied(),
        Some(1),
        "allowed unsafe-no-safety: {allowed:?}"
    );
    assert_eq!(
        allowed.get("determinism-taint").copied(),
        Some(1),
        "allowed determinism-taint: {allowed:?}"
    );
    assert_eq!(
        allowed.get("unbounded-growth").copied(),
        Some(1),
        "allowed unbounded-growth: {allowed:?}"
    );
    assert_eq!(allowed.len(), 8, "no other rule should have allowed findings: {allowed:?}");

    // Eleven escape comments are on record; exactly one lacks a reason.
    assert_eq!(analysis.allows.len(), 11, "allows on record: {:#?}", analysis.allows);
    assert_eq!(analysis.allows.iter().filter(|a| a.reason.is_empty()).count(), 1);
}

#[test]
fn diagnostics_carry_positions() {
    let analysis = analyze_fixtures();
    let clone = analysis
        .findings
        .iter()
        .find(|f| f.rule == "clone" && f.allowed_reason.is_none())
        .expect("clone finding present");
    assert_eq!(clone.file, "crates/fixture/src/panic_fixture.rs");
    assert_eq!(clone.line, 7, "clone_site body line");
    assert!(clone.col > 0);
}

#[test]
fn transitive_no_alloc_names_the_chain() {
    let analysis = analyze_fixtures();
    let transitive = analysis
        .findings
        .iter()
        .find(|f| f.rule == "no-alloc" && f.message.contains("reached from"))
        .expect("transitive finding present");
    assert!(
        transitive.message.contains("calls_helper") && transitive.message.contains("helper"),
        "chain missing from message: {}",
        transitive.message
    );
}

#[test]
fn blocking_reachability_names_the_call_chain() {
    let analysis = analyze_fixtures();
    let transitive = analysis
        .findings
        .iter()
        .find(|f| f.rule == "hot-path-blocking" && f.message.contains("reached from"))
        .expect("transitive blocking finding present");
    assert!(
        transitive.message.contains("hot_lookup") && transitive.message.contains("grab_a"),
        "blocking chain missing: {}",
        transitive.message
    );
    let direct = analysis
        .findings
        .iter()
        .find(|f| {
            f.rule == "hot-path-blocking"
                && f.allowed_reason.is_none()
                && f.message.contains("recv")
        })
        .expect("direct blocking finding present");
    assert!(direct.message.contains("hot_poll"), "direct site: {}", direct.message);
}

#[test]
fn atomic_protocol_table_is_complete() {
    let analysis = analyze_fixtures();
    let by_field: HashMap<&str, _> =
        analysis.atomics.iter().map(|p| (p.field.as_str(), p)).collect();

    let mixed = by_field.get("fixture::Gauge::mixed").expect("mixed in table");
    assert_eq!(mixed.classification, "paired", "mixed: {mixed:?}");
    assert_eq!(mixed.sites.len(), 5, "all mixed sites (incl. via-ref alias): {mixed:?}");

    let ready = by_field.get("fixture::Gauge::ready").expect("ready in table");
    assert_eq!(ready.classification, "unpaired-release", "ready: {ready:?}");

    let count = by_field.get("fixture::Gauge::count").expect("count in table");
    assert_eq!(count.classification, "relaxed-only", "count: {count:?}");

    let counter = by_field.get("fixture_facade::COUNTER").expect("static COUNTER in table");
    assert_eq!(counter.classification, "acquire-only", "COUNTER: {counter:?}");
}

#[test]
fn pass_timings_are_recorded() {
    let analysis = analyze_fixtures();
    assert!(!analysis.timings.is_empty(), "per-family timings recorded");
    let names: Vec<&str> = analysis.timings.iter().map(|(n, _)| n.as_str()).collect();
    for family in ["blocking", "atomics", "unsafe-audit", "allow-audit", "determinism", "growth"] {
        assert!(names.contains(&family), "missing `{family}` in {names:?}");
    }
}

#[test]
fn determinism_taint_names_root_and_chain() {
    let analysis = analyze_fixtures();
    // Direct source: the finding anchors at the source site inside the
    // root fn itself, with no chain.
    let direct = analysis
        .findings
        .iter()
        .find(|f| f.rule == "determinism-taint" && f.message.contains(".keys()"))
        .expect("direct keys() finding present");
    assert!(
        direct.message.contains("in determinism-root fn `Registry::broadcast`"),
        "direct root missing: {}",
        direct.message
    );
    // Transitive source: first witnessing root plus the full call chain.
    let transitive = analysis
        .findings
        .iter()
        .find(|f| f.rule == "determinism-taint" && f.message.contains(".iter()"))
        .expect("transitive iter() finding present");
    assert!(
        transitive.message.contains("taints determinism root `Registry::broadcast`")
            && transitive.message.contains("via `Registry::collect_seen`"),
        "root/chain missing: {}",
        transitive.message
    );
    // The taint table mirrors the findings, including the allowed row.
    assert_eq!(analysis.det_sources.len(), 8, "taint table: {:#?}", analysis.det_sources);
    assert_eq!(analysis.det_sources.iter().filter(|s| s.allowed).count(), 1);
    let whats: Vec<&str> = analysis.det_sources.iter().map(|s| s.what.as_str()).collect();
    for what in [
        "hash-order iteration (`for .. in tmp`)",
        "wall-clock read (`Instant::now()`)",
        "unseeded RNG (`thread_rng()`)",
        "thread identity (`thread::current()`)",
    ] {
        assert!(whats.contains(&what), "missing `{what}` in {whats:?}");
    }
}

#[test]
fn growth_table_classifies_every_site() {
    let analysis = analyze_fixtures();
    let by_field: HashMap<&str, _> = analysis
        .growth_sites
        .iter()
        .filter(|g| g.file == "crates/fixture/src/growth_fixture.rs")
        .map(|g| (g.field.as_str(), g))
        .collect();

    let entries = by_field.get("fixture::Ledger::entries").expect("entries in table");
    assert_eq!(entries.status, "unbounded", "entries: {entries:?}");
    let lanes = by_field.get("fixture::Ledger::lanes").expect("lanes (via alias) in table");
    assert_eq!(lanes.status, "unbounded", "lanes: {lanes:?}");
    let log = by_field.get("fixture::Ledger::log").expect("log in table");
    assert_eq!(log.status, "guarded", "log: {log:?}");
    // The bounded cap is pinned against the real declared constant.
    let ring = by_field.get("fixture::Ledger::ring").expect("ring in table");
    assert_eq!((ring.status, ring.cap.as_str()), ("bounded", "RING_CAP"), "ring: {ring:?}");
    let recent = by_field.get("fixture::Ledger::recent").expect("recent in table");
    assert_eq!((recent.status, recent.cap.as_str()), ("bounded", "GROW_CAP"), "recent: {recent:?}");
    let trail = by_field.get("fixture::Ledger::trail").expect("trail in table");
    assert_eq!(trail.status, "allowed", "trail: {trail:?}");

    // `self.mystery` resolves to no declared field: tallied, not dropped.
    assert_eq!(analysis.growth_unresolved, 1, "unresolved tally");
}
