//! Rule families.
//!
//! 1. **hot-path** (`clone`) — no `.clone()` in hot-path functions. (Their
//!    panic-freedom — `unwrap`, `expect`, `panic!`, `todo!`,
//!    `unreachable!`, indexing — is clippy's: `#![deny(clippy::…)]` at the
//!    top of each hot file, `clippy.toml`.)
//! 2. **unit-hygiene** (`unit-bare`) — public fns trafficking in bare
//!    `f64`/`u64` under unit-suffixed names.
//! 3. **no-alloc** — transitive allocation-freedom under `no_alloc`
//!    markers, via a within-crate call graph.
//! 4. **concurrency** (`facade-bypass`, `hot-path-blocking`,
//!    `atomic-unpaired-release`, `atomic-mixed-relaxed`) — the sync-facade
//!    gate plus the whole-program blocking-reachability / ordering-protocol
//!    analyses in [`crate::blocking`] and [`crate::atomics`].
//! 5. **must-use** — public value-returning fns in configured decision-path
//!    files must carry `#[must_use]`.
//! 6. **unsafe-audit** (`unsafe-no-safety`) — every `unsafe` block / fn /
//!    impl carries a `SAFETY:` comment (also runs over `[unsafe_audit]`
//!    extra directories such as the vendored `compat/` shims).
//! 7. **determinism** (`determinism-taint`) — nondeterministic sources
//!    (hash-order iteration, wall clock, unseeded RNG, thread identity)
//!    reaching `[determinism] roots` over the call graph
//!    ([`crate::detflow`]).
//! 8. **growth** (`unbounded-growth`, plus the `bounded(..)` audits) —
//!    collection-growth sites on hot/determinism paths need a bounding
//!    proof ([`crate::growth`]).
//!
//! Every rule honors `// nm-analyzer: allow(<rule>) -- <reason>` on the
//! finding line (or the comment block directly above, or the function
//! header); allows are tallied, an allow without a reason is itself a
//! finding (`allow-missing-reason`), an allow naming an unknown rule is an
//! error (`allow-unknown-rule`), and an allow that suppresses nothing is
//! stale (`allow-unused`).

use crate::config::Config;
use crate::lexer::TokKind;
use crate::parse::{is_non_expr_keyword, Directive, FileAst, FnItem};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Every rule name an allow escape may legitimately reference.
pub const KNOWN_RULES: &[&str] = &[
    "clone",
    "unit-bare",
    "no-alloc",
    "facade-bypass",
    "must-use",
    "hot-path-blocking",
    "atomic-unpaired-release",
    "atomic-mixed-relaxed",
    "unsafe-no-safety",
    "determinism-taint",
    "unbounded-growth",
];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (e.g. `clone`, `unit-bare`).
    pub rule: String,
    /// Rule family (e.g. `unit-hygiene`).
    pub family: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` when an allow escape suppressed this finding.
    pub allowed_reason: Option<String>,
}

/// One `allow` escape found in the tree (used or not).
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Rule being allowed.
    pub rule: String,
    /// Written reason (empty = missing, which is itself a finding).
    pub reason: String,
    /// File containing the escape.
    pub file: String,
    /// Line of the escape comment.
    pub line: u32,
}

/// Full analysis result.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, allowed ones included.
    pub findings: Vec<Finding>,
    /// All allow escapes in scanned files.
    pub allows: Vec<AllowRecord>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Total functions parsed.
    pub fns_total: usize,
    /// Hot-path functions.
    pub fns_hot: usize,
    /// Functions under no-alloc rules.
    pub fns_no_alloc: usize,
    /// Whole-program atomic ordering protocols, one entry per field.
    pub atomics: Vec<crate::atomics::AtomicProtocol>,
    /// Atomic op sites whose receiver did not resolve to a declared field.
    pub atomic_unresolved: usize,
    /// Determinism-taint table: nondeterministic sources reaching a root.
    pub det_sources: Vec<crate::detflow::DetSource>,
    /// Growth-site table: resolved collection-growth sites on checked
    /// paths with their bounding status.
    pub growth_sites: Vec<crate::growth::GrowthSite>,
    /// Growth sites whose `self.`-rooted receiver did not resolve.
    pub growth_unresolved: usize,
    /// Wall time per pass, in milliseconds, in execution order.
    pub timings: Vec<(String, f64)>,
    /// Allow escapes consumed by at least one finding, keyed by
    /// (file, rule, anchor line) — feeds the stale-allow audit.
    pub used_allows: HashSet<(String, String, u32)>,
}

impl Analysis {
    /// Findings not suppressed by an allow escape.
    pub fn unallowed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.allowed_reason.is_none()).collect()
    }

    /// Per-rule counts of unallowed findings.
    pub fn counts(&self) -> Vec<(String, usize)> {
        let mut m: HashMap<String, usize> = HashMap::new();
        for f in self.findings.iter().filter(|f| f.allowed_reason.is_none()) {
            *m.entry(f.rule.clone()).or_default() += 1;
        }
        let mut v: Vec<_> = m.into_iter().collect();
        v.sort();
        v
    }

    /// Per-rule counts of allowed (escaped) findings.
    pub fn allow_counts(&self) -> Vec<(String, usize)> {
        let mut m: HashMap<String, usize> = HashMap::new();
        for f in self.findings.iter().filter(|f| f.allowed_reason.is_some()) {
            *m.entry(f.rule.clone()).or_default() += 1;
        }
        let mut v: Vec<_> = m.into_iter().collect();
        v.sort();
        v
    }
}

/// Runs every rule family over the parsed files.
///
/// Audit-only files (vendored shims) see only the unsafe-SAFETY rule and
/// allow collection; every other family skips them.
pub fn analyze(files: &[FileAst], cfg: &Config) -> Analysis {
    let mut out = Analysis { files_scanned: files.len(), ..Default::default() };
    for f in files.iter().filter(|f| !f.audit_only) {
        out.fns_total += f.fns.len();
        out.fns_hot += f.fns.iter().filter(|x| x.hot && !x.in_test).count();
        out.fns_no_alloc += f.fns.iter().filter(|x| x.no_alloc && !x.in_test).count();
    }

    let timed = |out: &mut Analysis, name: &str, pass: &mut dyn FnMut(&mut Analysis)| {
        let t0 = Instant::now();
        pass(out);
        out.timings.push((name.to_string(), t0.elapsed().as_secs_f64() * 1e3));
    };

    timed(&mut out, "escape-hatch", &mut |out| collect_allows(files, out));
    timed(&mut out, "hot-path-clone", &mut |out| {
        for file in files.iter().filter(|f| !f.audit_only) {
            hot_path_clone(file, out);
        }
    });
    timed(&mut out, "unit-hygiene", &mut |out| {
        for file in files.iter().filter(|f| !f.audit_only) {
            unit_hygiene(file, cfg, out);
        }
    });
    timed(&mut out, "facade", &mut |out| {
        for file in files.iter().filter(|f| !f.audit_only) {
            facade_bypass(file, cfg, out);
        }
    });
    timed(&mut out, "must-use", &mut |out| {
        for file in files.iter().filter(|f| !f.audit_only) {
            must_use(file, cfg, out);
        }
    });
    let index = build_call_index(files);
    timed(&mut out, "no-alloc", &mut |out| no_alloc(files, &index, out));
    let fields = crate::guards::scan_fields(files);
    timed(&mut out, "blocking", &mut |out| {
        crate::blocking::blocking_reachability(files, &index, &fields.locks, cfg, out)
    });
    timed(&mut out, "atomics", &mut |out| {
        crate::atomics::atomic_protocols(files, &fields.atomics, out)
    });
    timed(&mut out, "determinism", &mut |out| {
        crate::detflow::determinism_taint(files, &index, &fields.maps, cfg, out)
    });
    timed(&mut out, "growth", &mut |out| {
        crate::growth::bounded_growth(files, &index, &fields.collections, cfg, out)
    });
    timed(&mut out, "unsafe-audit", &mut |out| {
        for file in files {
            unsafe_safety(file, out);
        }
    });
    timed(&mut out, "allow-audit", &mut |out| allow_audit(out));
    out
}

/// Audits the recorded allow escapes after every rule has run: an unknown
/// rule name is an error, and an allow no finding consumed is stale.
fn allow_audit(out: &mut Analysis) {
    let known: HashSet<&str> = KNOWN_RULES.iter().copied().collect();
    let allows = out.allows.clone();
    for al in &allows {
        if !known.contains(al.rule.as_str()) {
            out.findings.push(Finding {
                rule: "allow-unknown-rule".into(),
                family: "escape-hatch",
                file: al.file.clone(),
                line: al.line,
                col: 1,
                message: format!(
                    "allow({}) names an unknown rule — known rules: {}",
                    al.rule,
                    KNOWN_RULES.join(", ")
                ),
                allowed_reason: None,
            });
        } else if !out.used_allows.contains(&(al.file.clone(), al.rule.clone(), al.line)) {
            out.findings.push(Finding {
                rule: "allow-unused".into(),
                family: "escape-hatch",
                file: al.file.clone(),
                line: al.line,
                col: 1,
                message: format!(
                    "allow({}) suppresses no finding — stale escape, remove it",
                    al.rule
                ),
                allowed_reason: None,
            });
        }
    }
}

/// Records every allow escape; flags reason-less ones.
fn collect_allows(files: &[FileAst], out: &mut Analysis) {
    for file in files {
        let mut seen: HashSet<(u32, String)> = HashSet::new();
        let mut lines: Vec<&u32> = file.comment_lines.keys().collect();
        lines.sort();
        for &line in lines {
            let text = &file.comment_lines[&line];
            for d in crate::parse::parse_directives(text, line) {
                if let Directive::Allow { rule, reason, line } = d {
                    if !seen.insert((line, rule.clone())) {
                        continue; // multi-line block comment duplicates
                    }
                    if reason.is_empty() {
                        out.findings.push(Finding {
                            rule: "allow-missing-reason".into(),
                            family: "escape-hatch",
                            file: file.path.clone(),
                            line,
                            col: 1,
                            message: format!(
                                "allow({rule}) without a written reason; append `-- <why>`"
                            ),
                            allowed_reason: None,
                        });
                    }
                    out.allows.push(AllowRecord { rule, reason, file: file.path.clone(), line });
                }
            }
        }
    }
}

/// Looks up an allow escape for `rule` at `line`: same line, the comment
/// block directly above, or the enclosing function's header. Returns the
/// written reason and the escape's own line (the usage anchor the
/// stale-allow audit matches against [`AllowRecord::line`]).
fn find_allow(
    file: &FileAst,
    rule: &str,
    line: u32,
    enclosing: Option<&FnItem>,
) -> Option<(String, u32)> {
    for d in file.directives_above(line) {
        if let Directive::Allow { rule: r, reason, line: al } = d {
            if r == rule {
                return Some((reason, al));
            }
        }
    }
    if let Some(f) = enclosing {
        for d in &f.allows {
            if let Directive::Allow { rule: r, reason, line: al } = d {
                if r == rule {
                    return Some((reason.clone(), *al));
                }
            }
        }
    }
    None
}

/// The function whose body contains token index `i`, innermost first.
fn enclosing_fn(file: &FileAst, i: usize) -> Option<&FnItem> {
    file.fns
        .iter()
        .filter(|f| f.body.is_some_and(|(s, e)| i >= s && i < e))
        .min_by_key(|f| f.body.map(|(s, e)| e - s).unwrap_or(usize::MAX))
}

pub(crate) fn push(
    file: &FileAst,
    out: &mut Analysis,
    rule: &str,
    family: &'static str,
    i: usize,
    msg: String,
) {
    let t = &file.toks[i];
    let allowed = find_allow(file, rule, t.line, enclosing_fn(file, i));
    if let Some((_, anchor)) = &allowed {
        out.used_allows.insert((file.path.clone(), rule.to_string(), *anchor));
    }
    out.findings.push(Finding {
        rule: rule.into(),
        family,
        file: file.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
        allowed_reason: allowed.map(|(r, _)| r),
    });
}

/// Like [`push`] for findings anchored on a fn *signature* (unit-bare,
/// must-use): the token is outside any body, so the item's own header
/// directives are consulted instead of the enclosing-body lookup.
fn push_sig(
    file: &FileAst,
    out: &mut Analysis,
    rule: &str,
    family: &'static str,
    f: &FnItem,
    msg: String,
) {
    let t = &file.toks[f.sig.0];
    let allowed = find_allow(file, rule, t.line, Some(f));
    if let Some((_, anchor)) = &allowed {
        out.used_allows.insert((file.path.clone(), rule.to_string(), *anchor));
    }
    out.findings.push(Finding {
        rule: rule.into(),
        family,
        file: file.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
        allowed_reason: allowed.map(|(r, _)| r),
    });
}

// ---------------------------------------------------------------- clone ----

fn hot_path_clone(file: &FileAst, out: &mut Analysis) {
    for f in &file.fns {
        if !f.hot || f.in_test {
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        let toks = &file.toks;
        for i in bs + 1..be.saturating_sub(1) {
            if file.is_excluded(i) || file.in_test_range(i) {
                continue;
            }
            let is_method_call = toks[i].kind == TokKind::Ident
                && toks[i].text == "clone"
                && toks[i - 1].kind == TokKind::Punct
                && toks[i - 1].text == "."
                && toks[i + 1].text == "(";
            if is_method_call {
                let msg = format!(".clone() in hot-path fn `{}`", f.name);
                push(file, out, "clone", "hot-path", i, msg);
            }
        }
    }
}

// ---------------------------------------------------------------- units ----

const UNIT_SUFFIXES: &[&str] = &["_us", "_bytes", "_bw"];

fn has_unit_suffix(name: &str) -> bool {
    UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

fn unit_hygiene(file: &FileAst, cfg: &Config, out: &mut Analysis) {
    if cfg.unit_boundary_files.iter().any(|f| file.path.ends_with(f) || f == &file.path) {
        return;
    }
    for f in &file.fns {
        if !f.is_pub || f.in_test {
            continue;
        }
        let (ss, se) = f.sig;
        let toks = &file.toks[ss..se];
        // Locate params: skip `fn name`, optional generics, then `( .. )`.
        let mut j = 2; // fn + name
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 1i32;
            j += 1;
            while j < toks.len() && angle > 0 {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" if toks[j - 1].text != "-" => angle -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let Some(popen) = (j..toks.len()).find(|&k| toks[k].text == "(") else { continue };
        let mut depth = 0i32;
        let mut pclose = popen;
        for (k, t) in toks.iter().enumerate().skip(popen) {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        pclose = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        // Return type: `-> T` up to `where` or the end of the signature.
        let mut ret: Vec<&str> = Vec::new();
        if toks.get(pclose + 1).is_some_and(|t| t.text == "-")
            && toks.get(pclose + 2).is_some_and(|t| t.text == ">")
        {
            for t in &toks[pclose + 3..] {
                if t.kind == TokKind::Ident && t.text == "where" {
                    break;
                }
                ret.push(t.text.as_str());
            }
        }
        if has_unit_suffix(&f.name) && matches!(ret.as_slice(), ["f64"] | ["u64"]) {
            push_sig(
                file,
                out,
                "unit-bare",
                "unit-hygiene",
                f,
                format!(
                    "pub fn `{}` returns bare {} — use the typed wrappers in \
                     model/src/{{time,units}}.rs",
                    f.name, ret[0]
                ),
            );
        }
        // Params: split at top-level commas.
        let params = &toks[popen + 1..pclose];
        let mut start = 0usize;
        let mut d = (0i32, 0i32, 0i32); // paren, angle, bracket
        for k in 0..=params.len() {
            let at_end = k == params.len();
            let is_comma = !at_end && params[k].text == "," && d.0 == 0 && d.1 <= 0 && d.2 == 0;
            if !at_end && !is_comma {
                match params[k].text.as_str() {
                    "(" => d.0 += 1,
                    ")" => d.0 -= 1,
                    "<" => d.1 += 1,
                    ">" if k > 0 && params[k - 1].text != "-" => d.1 -= 1,
                    "[" => d.2 += 1,
                    "]" => d.2 -= 1,
                    _ => {}
                }
                continue;
            }
            let group = &params[start..k];
            start = k + 1;
            // Find `name : type` at top level of the group.
            let mut gd = (0i32, 0i32, 0i32);
            let mut colon = None;
            for (gi, t) in group.iter().enumerate() {
                match t.text.as_str() {
                    "(" => gd.0 += 1,
                    ")" => gd.0 -= 1,
                    "<" => gd.1 += 1,
                    ">" if gi > 0 && group[gi - 1].text != "-" => gd.1 -= 1,
                    "[" => gd.2 += 1,
                    "]" => gd.2 -= 1,
                    ":" if gd == (0, 0, 0)
                        && group.get(gi + 1).map(|n| n.text.as_str()) != Some(":")
                        && (gi == 0 || group[gi - 1].text != ":") =>
                    {
                        colon = Some(gi);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(ci) = colon else { continue };
            let pname = group[..ci]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                .map(|t| t.text.as_str())
                .unwrap_or("");
            let ptype: Vec<&str> = group[ci + 1..].iter().map(|t| t.text.as_str()).collect();
            if has_unit_suffix(pname) && matches!(ptype.as_slice(), ["f64"] | ["u64"]) {
                push_sig(
                    file,
                    out,
                    "unit-bare",
                    "unit-hygiene",
                    f,
                    format!(
                        "pub fn `{}` takes `{pname}: {}` bare — use the typed wrappers in \
                         model/src/{{time,units}}.rs",
                        f.name, ptype[0]
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------- concurrency ----

fn facade_bypass(file: &FileAst, cfg: &Config, out: &mut Analysis) {
    if !cfg.facade_crates.iter().any(|c| c == &file.crate_name) {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.is_excluded(i) {
            continue;
        }
        let hit = (toks[i].text == "sync"
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].text == "std")
            || (toks[i].text == "parking_lot"
                && toks.get(i + 1).is_some_and(|t| t.text == ":")
                && toks.get(i + 2).is_some_and(|t| t.text == ":"));
        if hit {
            push(
                file,
                out,
                "facade-bypass",
                "concurrency",
                i,
                "direct std::sync/parking_lot use — route through nm-sync so loom \
                 model checks see it"
                    .into(),
            );
        }
    }
}

// --------------------------------------------------------- unsafe audit ----

/// Every `unsafe {` / `unsafe fn` / `unsafe impl` must carry a `SAFETY:`
/// comment on its line or the contiguous comment run directly above. Unlike
/// the other rules this scans test code and audit-only (vendored) files too
/// (clippy's `undocumented_unsafe_blocks` never sees `compat/`, nor
/// `unsafe fn` / `unsafe impl`).
fn unsafe_safety(file: &FileAst, out: &mut Analysis) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "unsafe" {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| matches!(t.text.as_str(), "{" | "fn" | "impl")) {
            continue;
        }
        let line = toks[i].line;
        let mut documented = file.comment_lines.get(&line).is_some_and(|t| t.contains("SAFETY:"));
        let mut l = line.saturating_sub(1);
        while !documented && l >= 1 {
            match file.comment_lines.get(&l) {
                Some(t) => {
                    documented = t.contains("SAFETY:");
                    l -= 1;
                }
                None => break,
            }
        }
        if !documented {
            push(
                file,
                out,
                "unsafe-no-safety",
                "unsafe-audit",
                i,
                format!(
                    "`unsafe {}` without a `SAFETY:` comment on or directly above it",
                    toks[i + 1].text
                ),
            );
        }
    }
}

// ------------------------------------------------------------- must-use ----

fn must_use(file: &FileAst, cfg: &Config, out: &mut Analysis) {
    if !cfg.must_use_files.iter().any(|f| file.path.ends_with(f) || f == &file.path) {
        return;
    }
    for f in &file.fns {
        if !f.is_pub || f.in_test || f.has_must_use {
            continue;
        }
        let (ss, se) = f.sig;
        let has_ret = (ss..se.saturating_sub(1))
            .any(|k| file.toks[k].text == "-" && file.toks[k + 1].text == ">");
        if has_ret {
            push_sig(
                file,
                out,
                "must-use",
                "must-use",
                f,
                format!("pub fn `{}` returns a discardable value; add #[must_use]", f.name),
            );
        }
    }
}

// ----------------------------------------------------------- call graph ----

/// Within-crate call graph index: (crate, fn name) -> [(file idx, fn idx)].
pub(crate) type CallIndex = HashMap<(String, String), Vec<(usize, usize)>>;

/// Builds the call index over non-test fns with bodies (audit-only files
/// excluded — vendored code is never part of the workspace graph).
pub(crate) fn build_call_index(files: &[FileAst]) -> CallIndex {
    let mut index: CallIndex = HashMap::new();
    for (fidx, file) in files.iter().enumerate() {
        if file.audit_only {
            continue;
        }
        for (gidx, f) in file.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            index.entry((file.crate_name.clone(), f.name.clone())).or_default().push((fidx, gidx));
        }
    }
    index
}

/// Resolves the call at token `i` (an ident followed by `(`) in fn `at` to
/// its within-crate targets. The call form filters candidates so name
/// collisions with std methods (`.max(`, `.all(`, `Type::new(`) don't drag
/// unrelated fns into the graph: `Owner::name(` follows only fns in an
/// impl of `Owner` (`Self::` maps to the caller's owner), `.name(` only
/// methods (fns taking `self`), and a bare `name(` only free functions.
/// `<T>::name(` and cross-crate calls resolve to nothing (leaves).
pub(crate) fn resolve_call(
    files: &[FileAst],
    index: &CallIndex,
    at: (usize, usize),
    i: usize,
) -> Vec<(usize, usize)> {
    let file = &files[at.0];
    let f = &file.fns[at.1];
    let toks = &file.toks;
    let name = toks[i].text.as_str();
    let qualified = i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":";
    let owner_hint: Option<String> = if qualified {
        if toks[i - 3].kind != TokKind::Ident {
            return Vec::new(); // `<T>::name(` and friends: unresolvable.
        }
        let h = toks[i - 3].text.clone();
        if h == "Self" {
            match &f.owner {
                Some(o) => Some(o.clone()),
                None => return Vec::new(),
            }
        } else {
            Some(h)
        }
    } else {
        None
    };
    let method = !qualified && i > 0 && toks[i - 1].text == ".";
    // `foo().name(` / `foo[..].name(`: the receiver is a temporary whose
    // type we cannot name, so by-name method resolution is pure noise
    // (e.g. `.len()` on a `MutexGuard<VecDeque<_>>` must not resolve to
    // every workspace type with a `len` method). Skip those.
    if method && i >= 2 && matches!(toks[i - 2].text.as_str(), ")" | "]") {
        return Vec::new();
    }
    let key = (file.crate_name.clone(), name.to_string());
    let Some(targets) = index.get(&key) else { return Vec::new() };
    targets
        .iter()
        .copied()
        .filter(|&tgt| {
            if tgt == at {
                return false;
            }
            let tf = &files[tgt.0].fns[tgt.1];
            if let Some(hint) = &owner_hint {
                tf.owner.as_deref() == Some(hint.as_str())
            } else if method {
                tf.owner.is_some() && fn_takes_self(&files[tgt.0], tf)
            } else {
                tf.owner.is_none()
            }
        })
        .collect()
}

/// Call edges of one fn body: `(call token, resolved targets)` for every
/// ident-followed-by-`(` that [`resolve_call`] resolves within the crate.
/// Shared by the determinism-taint and bounded-growth passes.
pub(crate) fn fn_call_edges(
    files: &[FileAst],
    index: &CallIndex,
    at: (usize, usize),
) -> Vec<(usize, Vec<(usize, usize)>)> {
    let file = &files[at.0];
    let f = &file.fns[at.1];
    let mut out = Vec::new();
    let Some((bs, be)) = f.body else { return out };
    let toks = &file.toks;
    for i in bs..be {
        if file.is_excluded(i) || file.in_test_range(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || is_non_expr_keyword(&t.text)
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let targets = resolve_call(files, index, at, i);
        if !targets.is_empty() {
            out.push((i, targets));
        }
    }
    out
}

// ------------------------------------------------------------- no-alloc ----

const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned"];
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

fn no_alloc(files: &[FileAst], index: &CallIndex, out: &mut Analysis) {
    for (fidx, file) in files.iter().enumerate() {
        if file.audit_only {
            continue;
        }
        for (gidx, f) in file.fns.iter().enumerate() {
            if !f.no_alloc || f.in_test {
                continue;
            }
            let mut visited: HashSet<(usize, usize)> = HashSet::new();
            let root = format!("{}::{}", file.crate_name, f.name);
            check_no_alloc(files, index, (fidx, gidx), &root, &mut visited, out);
        }
    }
}

fn check_no_alloc(
    files: &[FileAst],
    index: &CallIndex,
    at: (usize, usize),
    root: &str,
    visited: &mut HashSet<(usize, usize)>,
    out: &mut Analysis,
) {
    if !visited.insert(at) {
        return;
    }
    let file = &files[at.0];
    let f = &file.fns[at.1];
    let Some((bs, be)) = f.body else { return };
    let toks = &file.toks;
    let mut i = bs;
    while i < be {
        if file.is_excluded(i) || file.in_test_range(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            let next_is = |k: usize, s: &str| toks.get(i + k).is_some_and(|t| t.text == s);
            let prev_is = |s: &str| i > bs && toks[i - 1].text == s;

            // Direct allocation patterns.
            if ALLOC_MACROS.contains(&name) && next_is(1, "!") {
                report_alloc(file, out, i, root, &f.name, &format!("{name}!"));
            } else if ALLOC_METHODS.contains(&name) && prev_is(".") && next_is(1, "(") {
                report_alloc(file, out, i, root, &f.name, &format!(".{name}()"));
            } else if name == "collect" && prev_is(".") && next_is(1, ":") && next_is(2, ":") {
                // Only `.collect::<Vec<..>>()` / `::<String>()` is statically
                // an allocation; untyped `.collect()` may target InlineVec
                // (stack-only) and is left to the counting-allocator test.
                let mut k = i + 3;
                let mut angle = 0i32;
                let mut heap = false;
                while k < be {
                    match toks[k].text.as_str() {
                        "<" => angle += 1,
                        ">" => {
                            angle -= 1;
                            if angle <= 0 {
                                break;
                            }
                        }
                        "Vec" | "String" | "Box" | "HashMap" | "BTreeMap" => heap = true,
                        _ => {}
                    }
                    k += 1;
                }
                if heap {
                    report_alloc(file, out, i, root, &f.name, "collect::<heap container>");
                }
            } else if next_is(1, "(") && !is_non_expr_keyword(name) {
                let is_path_head = |off: usize, s: &str| i >= off && toks[i - off].text == s;
                // `Type::method(` allocation constructors.
                let path_alloc = i >= 3
                    && toks[i - 1].text == ":"
                    && toks[i - 2].text == ":"
                    && ALLOC_PATHS.iter().any(|&(ty, m)| m == name && is_path_head(3, ty));
                if path_alloc {
                    report_alloc(
                        file,
                        out,
                        i,
                        root,
                        &f.name,
                        &format!("{}::{name}", toks[i - 3].text),
                    );
                } else {
                    // Call edge: resolve within the same crate (see
                    // [`resolve_call`] for the candidate filtering).
                    for tgt in resolve_call(files, index, at, i) {
                        check_no_alloc(files, index, tgt, root, visited, out);
                    }
                }
            }
        }
        i += 1;
    }
}

/// Whether a fn's parameter list mentions `self` (i.e. it is a method that
/// a `.name(` call could target).
fn fn_takes_self(file: &FileAst, f: &FnItem) -> bool {
    let (ss, se) = f.sig;
    file.toks[ss..se].iter().any(|t| t.kind == TokKind::Ident && t.text == "self")
}

fn report_alloc(file: &FileAst, out: &mut Analysis, i: usize, root: &str, here: &str, what: &str) {
    let via = if root.ends_with(&format!("::{here}")) {
        String::new()
    } else {
        format!(" (reached from no_alloc fn `{root}` via `{here}`)")
    };
    push(file, out, "no-alloc", "no-alloc", i, format!("{what} allocates{via}"));
}
