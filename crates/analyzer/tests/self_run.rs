//! Self-application gate: the analyzer, run over this workspace with the
//! checked-in `analyzer.toml`, must report zero unallowed findings. This is
//! the same invocation ci.sh makes; keeping it as a test means `cargo test`
//! alone catches a production regression (or a stale allow) without the
//! shell harness.

use std::path::Path;

fn self_analysis() -> nm_analyzer::rules::Analysis {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_text = std::fs::read_to_string(root.join("analyzer.toml")).expect("analyzer.toml");
    let cfg = nm_analyzer::config::Config::parse(&cfg_text).expect("config parses");
    let sources = nm_analyzer::workspace_sources(&root).expect("workspace sources");
    let audit = nm_analyzer::audit_sources(&root, &cfg.audit_dirs).expect("audit sources");
    assert!(!sources.is_empty(), "workspace sources found");
    assert!(!audit.is_empty(), "audit dirs configured and non-empty");
    assert!(!cfg.det_roots.is_empty(), "determinism roots configured");
    nm_analyzer::run(&root, &sources, &audit, &cfg).expect("analysis runs")
}

#[test]
fn workspace_is_clean_under_own_rules() {
    let analysis = self_analysis();
    let unallowed = analysis.unallowed();
    assert!(
        unallowed.is_empty(),
        "self-run must be clean; findings:\n{}",
        unallowed
            .iter()
            .map(|f| nm_analyzer::report::render_finding(f))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The determinism/growth tables over the real workspace: every surviving
/// nondeterministic source must carry an allow, and every growth site on a
/// checked path must be proven (guarded, bounded, or reasoned-allowed) —
/// `unbounded` rows are exactly the unallowed findings the gate rejects.
#[test]
fn growth_and_determinism_tables_are_proven() {
    let analysis = self_analysis();
    let loose: Vec<_> = analysis.det_sources.iter().filter(|s| !s.allowed).collect();
    assert!(loose.is_empty(), "unallowed determinism sources: {loose:#?}");
    assert!(!analysis.growth_sites.is_empty(), "growth sites discovered");
    let unbounded: Vec<_> =
        analysis.growth_sites.iter().filter(|g| g.status == "unbounded").collect();
    assert!(unbounded.is_empty(), "unproven growth sites: {unbounded:#?}");
    // The discipline is exercised in all three proof modes, including at
    // least one documented cap naming a real constant.
    for status in ["guarded", "bounded", "allowed"] {
        assert!(
            analysis.growth_sites.iter().any(|g| g.status == status),
            "no `{status}` site in {:#?}",
            analysis.growth_sites
        );
    }
    assert!(analysis.growth_sites.iter().any(|g| g.status == "bounded" && !g.cap.is_empty()));
    // A determinism root that matches no file checks nothing, silently: the
    // engine's directory root must keep reporting the engine's ledgers.
    assert!(
        analysis.growth_sites.iter().any(|g| g.file.starts_with("crates/core/src/engine/")),
        "no growth site under crates/core/src/engine/ — is the `[determinism] roots` entry stale?"
    );
}
