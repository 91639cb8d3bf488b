//! Diagnostic rendering: rustc-style text to stderr-compatible strings and a
//! hand-written JSON report (`ANALYZER_REPORT.json`).
//!
//! JSON is emitted without serde (the build container is offline); the
//! escaping below covers the control characters that can appear in messages
//! and file paths.

use crate::rules::{Analysis, Finding};
use std::fmt::Write as _;

/// Renders one finding in rustc style: `file:line:col: level[rule]: message`.
pub fn render_finding(f: &Finding) -> String {
    match &f.allowed_reason {
        Some(reason) => format!(
            "{}:{}:{}: allowed[{}]: {} (reason: {})",
            f.file, f.line, f.col, f.rule, f.message, reason
        ),
        None => format!("{}:{}:{}: error[{}]: {}", f.file, f.line, f.col, f.rule, f.message),
    }
}

/// Renders the full human-readable report.
pub fn render_text(a: &Analysis, verbose: bool) -> String {
    let mut out = String::new();
    for f in &a.findings {
        if f.allowed_reason.is_none() || verbose {
            let _ = writeln!(out, "{}", render_finding(f));
        }
    }
    let unallowed = a.unallowed().len();
    let allowed = a.findings.len() - unallowed;
    let _ = writeln!(
        out,
        "nm-analyzer: {} files, {} fns ({} hot, {} no_alloc): {} finding(s), {} allowed, {} escape(s) on record",
        a.files_scanned, a.fns_total, a.fns_hot, a.fns_no_alloc, unallowed, allowed, a.allows.len()
    );
    if unallowed > 0 {
        for (rule, n) in a.counts() {
            let _ = writeln!(out, "  {rule}: {n}");
        }
    }
    out
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable JSON report.
pub fn render_json(a: &Analysis) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"tool\": \"nm-analyzer\",");
    let _ = writeln!(out, "  \"version\": \"{}\",", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(out, "  \"schema\": 3,");
    let _ = writeln!(out, "  \"files_scanned\": {},", a.files_scanned);
    let _ = writeln!(out, "  \"fns_total\": {},", a.fns_total);
    let _ = writeln!(out, "  \"fns_hot\": {},", a.fns_hot);
    let _ = writeln!(out, "  \"fns_no_alloc\": {},", a.fns_no_alloc);
    let _ = writeln!(out, "  \"atomic_sites_unresolved\": {},", a.atomic_unresolved);
    let _ = writeln!(out, "  \"growth_sites_unresolved\": {},", a.growth_unresolved);
    let _ = writeln!(out, "  \"timings_ms\": {{");
    for (i, (name, ms)) in a.timings.iter().enumerate() {
        let comma = if i + 1 < a.timings.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {:.3}{}", esc(name), ms, comma);
    }
    let _ = writeln!(out, "  }},");
    let _ =
        writeln!(out, "  \"total_ms\": {:.3},", a.timings.iter().map(|(_, ms)| ms).sum::<f64>());
    let _ = writeln!(
        out,
        "  \"status\": \"{}\",",
        if a.unallowed().is_empty() { "pass" } else { "fail" }
    );

    let _ = writeln!(out, "  \"counts\": {{");
    let counts = a.counts();
    for (i, (rule, n)) in counts.iter().enumerate() {
        let comma = if i + 1 < counts.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {}{}", esc(rule), n, comma);
    }
    let _ = writeln!(out, "  }},");

    let _ = writeln!(out, "  \"allowed_counts\": {{");
    let acounts = a.allow_counts();
    for (i, (rule, n)) in acounts.iter().enumerate() {
        let comma = if i + 1 < acounts.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {}{}", esc(rule), n, comma);
    }
    let _ = writeln!(out, "  }},");

    let _ = writeln!(out, "  \"findings\": [");
    for (i, f) in a.findings.iter().enumerate() {
        let comma = if i + 1 < a.findings.len() { "," } else { "" };
        let allowed = match &f.allowed_reason {
            Some(r) => format!("\"{}\"", esc(r)),
            None => "null".into(),
        };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"family\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"message\": \"{}\", \"allowed\": {}}}{}",
            esc(&f.rule),
            esc(f.family),
            esc(&f.file),
            f.line,
            f.col,
            esc(&f.message),
            allowed,
            comma
        );
    }
    let _ = writeln!(out, "  ],");

    let _ = writeln!(out, "  \"allows\": [");
    for (i, al) in a.allows.iter().enumerate() {
        let comma = if i + 1 < a.allows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{}",
            esc(&al.rule),
            esc(&al.file),
            al.line,
            esc(&al.reason),
            comma
        );
    }
    let _ = writeln!(out, "  ],");

    let _ = writeln!(out, "  \"atomic_protocols\": [");
    for (i, p) in a.atomics.iter().enumerate() {
        let comma = if i + 1 < a.atomics.len() { "," } else { "" };
        let sites = p
            .sites
            .iter()
            .map(|s| {
                format!(
                    "{{\"file\": \"{}\", \"line\": {}, \"op\": \"{}\", \"orderings\": [{}]}}",
                    esc(&s.file),
                    s.line,
                    esc(&s.op),
                    s.orderings
                        .iter()
                        .map(|o| format!("\"{}\"", esc(o)))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "    {{\"field\": \"{}\", \"classification\": \"{}\", \"sites\": [{}]}}{}",
            esc(&p.field),
            p.classification,
            sites,
            comma
        );
    }
    let _ = writeln!(out, "  ],");

    let _ = writeln!(out, "  \"determinism_sources\": [");
    for (i, s) in a.det_sources.iter().enumerate() {
        let comma = if i + 1 < a.det_sources.len() { "," } else { "" };
        let chain =
            s.chain.iter().map(|c| format!("\"{}\"", esc(c))).collect::<Vec<_>>().join(", ");
        let _ = writeln!(
            out,
            "    {{\"file\": \"{}\", \"line\": {}, \"what\": \"{}\", \"root\": \"{}\", \
             \"chain\": [{}], \"allowed\": {}}}{}",
            esc(&s.file),
            s.line,
            esc(&s.what),
            esc(&s.root),
            chain,
            s.allowed,
            comma
        );
    }
    let _ = writeln!(out, "  ],");

    let _ = writeln!(out, "  \"growth_sites\": [");
    for (i, g) in a.growth_sites.iter().enumerate() {
        let comma = if i + 1 < a.growth_sites.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"file\": \"{}\", \"line\": {}, \"field\": \"{}\", \"method\": \"{}\", \
             \"status\": \"{}\", \"cap\": \"{}\"}}{}",
            esc(&g.file),
            g.line,
            esc(&g.field),
            esc(&g.method),
            g.status,
            esc(&g.cap),
            comma
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn json_escapes_and_renders() {
        let a = Analysis {
            findings: vec![Finding {
                rule: "clone".into(),
                family: "hot-path",
                file: "a\"b.rs".into(),
                line: 3,
                col: 7,
                message: "x\ny".into(),
                allowed_reason: None,
            }],
            ..Default::default()
        };
        let j = render_json(&a);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"status\": \"fail\""));
        assert!(render_text(&a, false).contains("a\"b.rs:3:7: error[clone]"));
    }

    #[test]
    fn empty_analysis_passes() {
        let a = Analysis::default();
        assert!(render_json(&a).contains("\"status\": \"pass\""));
    }
}
