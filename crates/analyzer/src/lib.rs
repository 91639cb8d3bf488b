//! nm-analyzer: workspace-specific static analysis.
//!
//! A dependency-free lexer + item parser enforcing the invariants the
//! generic toolchain cannot express:
//!
//! * no `.clone()` in hot-path functions (`// nm-analyzer: hot_path`; the
//!   panic-freedom of the same functions is clippy's, see `clippy.toml`),
//! * unit hygiene at public API boundaries (`*_us`/`*_bytes`/`*_bw`),
//! * transitive allocation-freedom under `// nm-analyzer: no_alloc`,
//! * the concurrency family: sync-facade bypasses, blocking-call
//!   reachability from hot-path fns, and whole-program atomic ordering
//!   protocols,
//! * `SAFETY:` comments on every `unsafe` block/fn/impl (including the
//!   vendored `compat/` shims via `[unsafe_audit] extra_dirs`),
//! * determinism taint: nondeterministic sources (hash-order iteration,
//!   wall clock, unseeded RNG, thread identity) reaching the configured
//!   `[determinism] roots`,
//! * bounded-growth proofs for collection growth on hot/determinism paths
//!   (`// nm-analyzer: bounded(<CONST>) -- why`).
//!
//! Escapes are explicit and audited: `// nm-analyzer: allow(<rule>) -- why`
//! — a stale or unknown-rule allow is itself a finding.

pub mod atomics;
pub mod blocking;
pub mod config;
pub mod detflow;
pub mod growth;
pub mod guards;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

/// Collects `.rs` files under every `crates/*/src` directory of `root`.
///
/// Returns `(repo-relative path, crate dir name)` pairs, sorted for
/// deterministic reports.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut |p| out.push((p, crate_name.clone())))?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, f: &mut impl FnMut(PathBuf)) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if entry.file_type()?.is_dir() {
            walk_rs(&p, f)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            f(p);
        }
    }
    Ok(())
}

/// Collects `.rs` files under `cfg.audit_dirs` (e.g. `compat/`) for the
/// unsafe-SAFETY audit. Same `(path, label)` shape as
/// [`workspace_sources`]; the label is the audit directory name.
pub fn audit_sources(root: &Path, dirs: &[String]) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    for dir in dirs {
        let base = root.join(dir);
        if base.is_dir() {
            walk_rs(&base, &mut |p| out.push((p, dir.clone())))?;
        }
    }
    out.sort();
    Ok(out)
}

/// Parses and analyzes workspace sources plus audit-only sources against
/// `cfg`.
///
/// `root` is stripped from paths for reporting; `cfg.hot_paths` matches the
/// stripped (repo-relative) form. `audit` files run only the unsafe-SAFETY
/// rule and allow collection.
pub fn run(
    root: &Path,
    sources: &[(PathBuf, String)],
    audit: &[(PathBuf, String)],
    cfg: &config::Config,
) -> std::io::Result<rules::Analysis> {
    let t0 = std::time::Instant::now();
    let mut files = Vec::with_capacity(sources.len() + audit.len());
    for (path, crate_name) in sources {
        let src = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        let force_hot = cfg.hot_paths.iter().any(|h| h == &rel || rel.ends_with(h.as_str()));
        files.push(parse::parse_file(&rel, crate_name, &src, force_hot));
    }
    for (path, label) in audit {
        let src = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        let mut ast = parse::parse_file(&rel, label, &src, false);
        ast.audit_only = true;
        files.push(ast);
    }
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut analysis = rules::analyze(&files, cfg);
    analysis.timings.insert(0, ("parse".to_string(), parse_ms));
    Ok(analysis)
}
