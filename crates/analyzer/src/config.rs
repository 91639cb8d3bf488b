//! `analyzer.toml` — a minimal TOML-subset reader.
//!
//! The container this repo builds in has no crates.io access, so the
//! workspace carries no `toml`/`serde` dependency; the analyzer reads the
//! small subset it needs by hand: `[section]` headers and
//! `key = ["a", "b", ...]` string arrays (single- or multi-line), plus
//! `#` comments. Anything else is a configuration error.

use std::collections::HashMap;

/// Analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files (repo-relative) whose every function is hot-path.
    pub hot_paths: Vec<String>,
    /// Files defining the unit newtypes themselves — the one legitimate
    /// bare-number boundary, exempt from the unit-hygiene rule.
    pub unit_boundary_files: Vec<String>,
    /// Crate directory names that must route through the `nm-sync` facade.
    pub facade_crates: Vec<String>,
    /// Files whose public value-returning functions must be `#[must_use]`.
    pub must_use_files: Vec<String>,
    /// Method names treated as blocking by the hot-path reachability rule
    /// (defaults applied when the section is absent).
    pub blocking_methods: Vec<String>,
    /// Extra directories (beyond `crates/*/src`) scanned by the
    /// unsafe-SAFETY audit only.
    pub audit_dirs: Vec<String>,
    /// Determinism roots: files (or directory prefixes ending in `/`)
    /// whose fns produce modeled output — nondeterministic sources
    /// reaching any fn in them are `determinism-taint` findings, and
    /// collection growth reachable from them needs a bounding proof.
    pub det_roots: Vec<String>,
    /// Files whose wall-clock reads (`Instant::now`/`SystemTime`) are
    /// legitimate measurement provenance, exempt from the taint rule.
    pub wall_clock_files: Vec<String>,
}

impl Config {
    /// Parses the TOML subset; returns an error string on malformed input.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut sections: HashMap<String, HashMap<String, Vec<String>>> = HashMap::new();
        let mut section = String::new();
        let mut pending_key: Option<String> = None;
        let mut pending_vals: Vec<String> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(key) = pending_key.clone() {
                // Inside a multi-line array: collect strings until `]`.
                let done = line.contains(']');
                let body = line.split(']').next().unwrap_or("");
                pending_vals.extend(parse_strings(body));
                if done {
                    sections.entry(section.clone()).or_default().insert(key, pending_vals.clone());
                    pending_key = None;
                    pending_vals.clear();
                }
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                section = line[1..line.len() - 1].trim().to_string();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("analyzer.toml:{}: expected `key = [...]`", lineno + 1));
            };
            let key = line[..eq].trim().to_string();
            let val = line[eq + 1..].trim();
            if let Some(open) = val.find('[') {
                let rest = &val[open + 1..];
                if let Some(close) = rest.find(']') {
                    let vals = parse_strings(&rest[..close]);
                    sections.entry(section.clone()).or_default().insert(key, vals);
                } else {
                    pending_key = Some(key);
                    pending_vals = parse_strings(rest);
                }
            } else {
                // Bare scalar: store as a single-element list.
                sections
                    .entry(section.clone())
                    .or_default()
                    .insert(key, vec![val.trim_matches('"').to_string()]);
            }
        }
        if pending_key.is_some() {
            return Err("analyzer.toml: unterminated array".into());
        }

        let take = |sec: &str, key: &str| -> Vec<String> {
            sections.get(sec).and_then(|s| s.get(key)).cloned().unwrap_or_default()
        };
        Ok(Config {
            hot_paths: take("hot_paths", "files"),
            unit_boundary_files: take("units", "boundary_files"),
            facade_crates: take("facade", "crates"),
            must_use_files: take("must_use", "files"),
            blocking_methods: take("blocking", "methods"),
            audit_dirs: take("unsafe_audit", "extra_dirs"),
            det_roots: take("determinism", "roots"),
            wall_clock_files: take("determinism", "wall_clock_provenance"),
        })
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => break,
            _ => {}
        }
        out.push(c);
    }
    out
}

/// Extracts all double-quoted strings from a fragment.
fn parse_strings(fragment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in fragment.chars() {
        match (in_str, c) {
            (false, '"') => {
                in_str = true;
                cur.clear();
            }
            (true, '"') => {
                in_str = false;
                out.push(cur.clone());
            }
            (true, ch) => cur.push(ch),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(
            r#"
# comment
[hot_paths]
files = [
  "crates/core/src/split.rs",   # hot
  "crates/proto/src/header.rs",
]

[facade]
crates = ["runtime", "core"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.hot_paths, vec!["crates/core/src/split.rs", "crates/proto/src/header.rs"]);
        assert_eq!(cfg.facade_crates, vec!["runtime", "core"]);
        assert!(cfg.must_use_files.is_empty());
    }

    #[test]
    fn single_line_arrays_and_hashes_in_strings() {
        let cfg = Config::parse("[units]\nboundary_files = [\"a#b.rs\"]\n").unwrap();
        assert_eq!(cfg.unit_boundary_files, vec!["a#b.rs"]);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Config::parse("[x]\nnot a kv\n").is_err());
        assert!(Config::parse("[x]\nk = [\"unterminated\"\n").is_err());
    }
}
