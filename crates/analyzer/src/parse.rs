//! Lightweight item-level parser over the token stream.
//!
//! Extracts the structure the rules need — functions with their
//! signatures, bodies, enclosing impl/mod scopes, `#[cfg(test)]` regions,
//! attribute spans and the analyzer's marker directives — without building
//! a full AST. Everything is index ranges into the token vector, so rules
//! scan tokens directly with precise positions.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::HashMap;

/// A directive parsed from a `// nm-analyzer: ...` comment.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `nm-analyzer: hot_path` — the hot-path rules (`clone`, `hot-path-blocking`, growth) apply.
    HotPath,
    /// `nm-analyzer: no_alloc` — transitive allocation-freedom applies.
    NoAlloc,
    /// `nm-analyzer: allow(<rule>) -- <reason>` — suppress and tally.
    Allow {
        /// Rule name being allowed.
        rule: String,
        /// Written justification (empty when missing — itself a finding).
        reason: String,
        /// Line the allow comment starts on.
        line: u32,
    },
    /// `nm-analyzer: bounded(<CONST>) -- <reason>` — documents the cap a
    /// collection-growth site is bounded by (the named constant must exist
    /// in the workspace; audited by the unbounded-growth rule).
    Bounded {
        /// Name of the bounding constant.
        cap: String,
        /// Written justification (empty when missing — itself a finding).
        reason: String,
        /// Line the bounded comment starts on.
        line: u32,
    },
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait type name, if any.
    pub owner: Option<String>,
    /// 1-based line/col of the `fn` keyword.
    pub line: u32,
    /// Column of the `fn` keyword.
    pub col: u32,
    /// Whether the function is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Token range `[start, end)` of the signature (from `fn` to the body
    /// opener / semicolon, exclusive).
    pub sig: (usize, usize),
    /// Token range `[start, end)` of the body including braces, if present.
    pub body: Option<(usize, usize)>,
    /// Whether `#[must_use]` is among the attributes.
    pub has_must_use: bool,
    /// Whether the fn is inside any `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Whether a `hot_path` marker applies (fn, enclosing mod, or file).
    pub hot: bool,
    /// Whether a `no_alloc` marker applies.
    pub no_alloc: bool,
    /// Allow directives attached to the item header (apply to the whole fn).
    pub allows: Vec<Directive>,
}

/// A parsed source file ready for rule scanning.
#[derive(Debug)]
pub struct FileAst {
    /// Repo-relative path.
    pub path: String,
    /// Crate directory name under `crates/` (e.g. `core`).
    pub crate_name: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Map line -> concatenated comment text covering that line.
    pub comment_lines: HashMap<u32, String>,
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// Token ranges excluded from scanning: attributes, `#[cfg(test)]`
    /// items/modules, `macro_rules!` bodies.
    pub excluded: Vec<(usize, usize)>,
    /// Token ranges under `#[cfg(test)]` (subset of `excluded` semantics:
    /// rule families skip them entirely).
    pub test_ranges: Vec<(usize, usize)>,
    /// File-level `hot_path` marker (or forced via config).
    pub file_hot: bool,
    /// Audit-only file (vendored shims under `[unsafe_audit] extra_dirs`):
    /// only the unsafe-SAFETY rule and allow collection run on it.
    pub audit_only: bool,
}

impl FileAst {
    /// True when token index `i` lies in an excluded (attr/test/macro) range.
    pub fn is_excluded(&self, i: usize) -> bool {
        self.excluded.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// True when token index `i` lies in a `#[cfg(test)]` region.
    pub fn in_test_range(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Directives found on `line` or in the contiguous comment run directly
    /// above it.
    pub fn directives_above(&self, line: u32) -> Vec<Directive> {
        let mut out = Vec::new();
        if let Some(text) = self.comment_lines.get(&line) {
            out.extend(parse_directives(text, line));
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            match self.comment_lines.get(&l) {
                Some(text) => out.extend(parse_directives(text, l)),
                None => break,
            }
            l -= 1;
        }
        out
    }

    /// True when `marker` (e.g. `RELAXED-OK:`) appears in a comment on
    /// `line` or the line directly above — the contract the old grep gate
    /// used for ordering justifications.
    pub fn line_has_marker(&self, line: u32, marker: &str) -> bool {
        self.comment_lines.get(&line).is_some_and(|t| t.contains(marker))
            || line > 1 && self.comment_lines.get(&(line - 1)).is_some_and(|t| t.contains(marker))
    }
}

/// Parses `nm-analyzer:` directives out of one comment text.
pub fn parse_directives(text: &str, line: u32) -> Vec<Directive> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = text[from..].find("nm-analyzer:") {
        let at = from + off;
        from = at + "nm-analyzer:".len();
        // A directive must lead its comment: only comment syntax and
        // whitespace may precede it. Prose mentions (backticks, words)
        // do not activate markers.
        let lead_ok = text[..at]
            .rsplit('\n')
            .next()
            .unwrap_or("")
            .chars()
            .all(|c| matches!(c, '/' | '!' | '*' | ' ' | '\t'));
        if !lead_ok {
            continue;
        }
        let part = text[from..].trim_start();
        if part.starts_with("hot_path") {
            out.push(Directive::HotPath);
        } else if part.starts_with("no_alloc") {
            out.push(Directive::NoAlloc);
        } else if let Some(rest) = part.strip_prefix("allow(") {
            let Some(close) = rest.find(')') else { continue };
            let rule = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            let reason = match after.find("--") {
                Some(i) => after[i + 2..].trim().trim_end_matches("*/").trim().to_string(),
                None => String::new(),
            };
            out.push(Directive::Allow { rule, reason, line });
        } else if let Some(rest) = part.strip_prefix("bounded(") {
            let Some(close) = rest.find(')') else { continue };
            let cap = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            let reason = match after.find("--") {
                Some(i) => after[i + 2..].trim().trim_end_matches("*/").trim().to_string(),
                None => String::new(),
            };
            out.push(Directive::Bounded { cap, reason, line });
        }
    }
    out
}

const NON_EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "break", "continue", "in", "as", "mut", "ref", "move",
    "where", "for", "let", "const", "static", "type", "use", "crate", "dyn", "pub", "fn", "unsafe",
    "enum", "struct", "trait", "impl", "mod", "while", "loop", "await", "async", "box",
];

/// True when an ident token in expression-sniffing position is a keyword
/// (so a following `[` opens a type/pattern, not an index expression).
pub fn is_non_expr_keyword(text: &str) -> bool {
    NON_EXPR_KEYWORDS.contains(&text)
}

struct Scope {
    close_depth: i32,
    test: bool,
    hot: bool,
    no_alloc: bool,
    owner: Option<String>,
}

/// Parses one file's source into a [`FileAst`].
pub fn parse_file(path: &str, crate_name: &str, src: &str, force_hot: bool) -> FileAst {
    let lexed = lex(src);
    let mut comment_lines: HashMap<u32, String> = HashMap::new();
    let mut first_comment_block_end = 0u32;
    for c in &lexed.comments {
        for l in c.line..=c.end_line {
            comment_lines.entry(l).or_default().push_str(&c.text);
        }
        // Track the leading comment block (file-level marker position).
        if c.line <= first_comment_block_end + 1 {
            first_comment_block_end = c.end_line;
        }
    }
    let first_tok_line = lexed.toks.first().map(|t| t.line).unwrap_or(u32::MAX);
    let mut file_hot = force_hot;
    let mut file_no_alloc = false;
    // A directive in the leading comments is file-level only when its
    // contiguous comment run is separated from the first token by a blank
    // line; a run touching the first item attaches to that item instead.
    let mut ci = 0;
    while ci < lexed.comments.len() && lexed.comments[ci].line < first_tok_line {
        let mut cj = ci;
        let mut run_end = lexed.comments[cj].end_line;
        while cj + 1 < lexed.comments.len() && lexed.comments[cj + 1].line <= run_end + 1 {
            cj += 1;
            run_end = lexed.comments[cj].end_line;
        }
        if run_end + 1 < first_tok_line {
            for c in &lexed.comments[ci..=cj] {
                for d in parse_directives(&c.text, c.line) {
                    match d {
                        Directive::HotPath => file_hot = true,
                        Directive::NoAlloc => file_no_alloc = true,
                        Directive::Allow { .. } | Directive::Bounded { .. } => {}
                    }
                }
            }
        }
        ci = cj + 1;
    }

    let toks = lexed.toks;
    let mut ast = FileAst {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        toks,
        comment_lines,
        fns: Vec::new(),
        excluded: Vec::new(),
        test_ranges: Vec::new(),
        file_hot,
        audit_only: false,
    };

    let toks = &ast.toks;
    let mut fns = Vec::new();
    let mut excluded = Vec::new();
    let mut test_ranges = Vec::new();

    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: i32 = 0;
    // Attributes seen since the last item boundary, as flattened text.
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut pending_attr_line: Option<u32> = None;
    let mut i = 0usize;

    let is_punct = |i: usize, ch: &str| -> bool {
        toks.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    };
    let ident_at = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    };

    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") => {
                // Attribute: #[...] or #![...]; record span, collect text.
                let mut j = i + 1;
                if is_punct(j, "!") {
                    j += 1;
                }
                if is_punct(j, "[") {
                    let start = i;
                    let mut bdepth = 0i32;
                    while j < toks.len() {
                        if is_punct(j, "[") {
                            bdepth += 1;
                        } else if is_punct(j, "]") {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let end = (j + 1).min(toks.len());
                    let text: String = toks[start..end]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join("");
                    excluded.push((start, end));
                    pending_attr_line.get_or_insert(toks[start].line);
                    pending_attrs.push(text);
                    i = end;
                } else {
                    i += 1;
                }
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                // An opening brace that no item arm consumed (struct/enum
                // bodies, expression blocks) ends attribute attachment.
                pending_attrs.clear();
                pending_attr_line = None;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                while scopes.last().is_some_and(|s| s.close_depth == depth) {
                    scopes.pop();
                }
                i += 1;
            }
            (TokKind::Punct, ";") => {
                pending_attrs.clear();
                pending_attr_line = None;
                i += 1;
            }
            (TokKind::Ident, "mod") if ident_at(i + 1).is_some() => {
                let attrs_test = pending_attrs.iter().any(|a| a.contains("cfg(test)"));
                let header_line = pending_attr_line.unwrap_or(t.line);
                let dirs = ast.directives_above(header_line);
                let hot = dirs.contains(&Directive::HotPath);
                let no_alloc = dirs.contains(&Directive::NoAlloc);
                // `mod name { ... }` opens a scope; `mod name;` does not.
                let mut j = i + 2;
                // cfg_attr and path attrs can't appear between name and `{`.
                if is_punct(j, "{") {
                    let parent_test = scopes.last().is_some_and(|s| s.test);
                    let in_test = attrs_test || parent_test;
                    scopes.push(Scope {
                        close_depth: depth,
                        test: in_test,
                        hot: hot || scopes.last().is_some_and(|s| s.hot),
                        no_alloc: no_alloc || scopes.last().is_some_and(|s| s.no_alloc),
                        owner: None,
                    });
                    if attrs_test && !parent_test {
                        // Find the matching close to record the test range.
                        let mut bdepth = 0i32;
                        let mut k = j;
                        while k < toks.len() {
                            if is_punct(k, "{") {
                                bdepth += 1;
                            } else if is_punct(k, "]") {
                            } else if is_punct(k, "}") {
                                bdepth -= 1;
                                if bdepth == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        test_ranges.push((j, (k + 1).min(toks.len())));
                    }
                    j += 1;
                    depth += 1;
                }
                pending_attrs.clear();
                pending_attr_line = None;
                i = j;
            }
            (TokKind::Ident, "impl" | "trait") => {
                // Scan to the opening `{` (angle-depth aware), extracting the
                // self-type / trait name: the last path segment before `{`
                // (after `for` when present).
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut last_seg: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut saw_for = false;
                let mut saw_where = false;
                while j < toks.len() {
                    let tj = &toks[j];
                    match (tj.kind, tj.text.as_str()) {
                        (TokKind::Punct, "{") if angle <= 0 => break,
                        (TokKind::Punct, ";") if angle <= 0 => break,
                        (TokKind::Punct, "<") => angle += 1,
                        // `->` in Fn(..) -> Ret bounds: don't count.
                        (TokKind::Punct, ">") if !(j > 0 && is_punct(j - 1, "-")) => {
                            angle -= 1;
                        }
                        (TokKind::Ident, "for") if angle <= 0 => saw_for = true,
                        (TokKind::Ident, "where") if angle <= 0 => saw_where = true,
                        (TokKind::Ident, name) if angle <= 0 && !saw_where => {
                            if saw_for {
                                after_for = Some(name.to_string());
                            } else {
                                last_seg = Some(name.to_string());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let owner = after_for.or(last_seg);
                if is_punct(j, "{") {
                    let attrs_test = pending_attrs.iter().any(|a| a.contains("cfg(test)"));
                    let parent = scopes.last();
                    scopes.push(Scope {
                        close_depth: depth,
                        test: attrs_test || parent.is_some_and(|s| s.test),
                        hot: parent.is_some_and(|s| s.hot),
                        no_alloc: parent.is_some_and(|s| s.no_alloc),
                        owner,
                    });
                    depth += 1;
                    j += 1;
                }
                pending_attrs.clear();
                pending_attr_line = None;
                i = j;
            }
            (TokKind::Ident, "macro_rules") if is_punct(i + 1, "!") => {
                // Skip the whole definition: token soup would false-positive.
                let mut j = i + 2;
                while j < toks.len() && !is_punct(j, "{") {
                    j += 1;
                }
                let mut bdepth = 0i32;
                let start = j;
                while j < toks.len() {
                    if is_punct(j, "{") {
                        bdepth += 1;
                    } else if is_punct(j, "}") {
                        bdepth -= 1;
                        if bdepth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                excluded.push((start, (j + 1).min(toks.len())));
                pending_attrs.clear();
                pending_attr_line = None;
                i = (j + 1).min(toks.len());
            }
            (TokKind::Ident, "fn") if ident_at(i + 1).is_some() => {
                let name = ident_at(i + 1).unwrap_or("").to_string();
                // Visibility: look back over contiguous qualifier tokens.
                let mut is_pub = false;
                {
                    let mut k = i;
                    while k > 0 {
                        k -= 1;
                        match (toks[k].kind, toks[k].text.as_str()) {
                            (TokKind::Ident, "pub") => {
                                is_pub = true;
                                break;
                            }
                            (
                                TokKind::Ident,
                                "const" | "unsafe" | "async" | "extern" | "default",
                            ) => {}
                            (TokKind::Punct, ")" | "(") => {}
                            (TokKind::Ident, "crate" | "super" | "self" | "in") => {}
                            (TokKind::Str, _) => {}
                            _ => break,
                        }
                    }
                }
                // Signature: fn name [<generics>] (params) [-> ret] [where ...]
                let mut j = i + 2;
                if is_punct(j, "<") {
                    let mut angle = 1i32;
                    j += 1;
                    while j < toks.len() && angle > 0 {
                        if is_punct(j, "<") {
                            angle += 1;
                        } else if is_punct(j, ">") && !is_punct(j - 1, "-") {
                            angle -= 1;
                        }
                        j += 1;
                    }
                }
                // Params.
                if is_punct(j, "(") {
                    let mut pdepth = 0i32;
                    while j < toks.len() {
                        if is_punct(j, "(") {
                            pdepth += 1;
                        } else if is_punct(j, ")") {
                            pdepth -= 1;
                            if pdepth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                // Return type + where clause: up to `{` or `;` at depth 0.
                let mut angle2 = 0i32;
                let mut bracket = 0i32;
                let mut paren = 0i32;
                while j < toks.len() {
                    let tj = &toks[j];
                    if tj.kind == TokKind::Punct {
                        match tj.text.as_str() {
                            "<" => angle2 += 1,
                            ">" if !is_punct(j - 1, "-") => angle2 -= 1,
                            "(" => paren += 1,
                            ")" => paren -= 1,
                            "[" => bracket += 1,
                            "]" => bracket -= 1,
                            "{" if angle2 <= 0 && bracket <= 0 && paren <= 0 => break,
                            ";" if angle2 <= 0 && bracket <= 0 && paren <= 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                let sig = (i, j);
                // Body.
                let body = if is_punct(j, "{") {
                    let start = j;
                    let mut bdepth = 0i32;
                    let mut k = j;
                    while k < toks.len() {
                        if is_punct(k, "{") {
                            bdepth += 1;
                        } else if is_punct(k, "}") {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    Some((start, (k + 1).min(toks.len())))
                } else {
                    None
                };

                let attrs_test = pending_attrs
                    .iter()
                    .any(|a| a.contains("cfg(test)") || a == "#[test]" || a.contains("[test]"));
                let in_test = attrs_test || scopes.iter().any(|s| s.test);
                let has_must_use = pending_attrs.iter().any(|a| a.contains("must_use"));

                // Markers: comments directly above the item header (first
                // attribute line or the fn line itself).
                let header_line = pending_attr_line.unwrap_or(t.line);
                let dirs = ast.directives_above(header_line);
                let hot = ast.file_hot
                    || scopes.iter().any(|s| s.hot)
                    || dirs.contains(&Directive::HotPath);
                let no_alloc = file_no_alloc
                    || scopes.iter().any(|s| s.no_alloc)
                    || dirs.contains(&Directive::NoAlloc);
                let allows: Vec<Directive> = dirs
                    .into_iter()
                    .filter(|d| matches!(d, Directive::Allow { .. } | Directive::Bounded { .. }))
                    .collect();

                let owner = scopes.iter().rev().find_map(|s| s.owner.clone());
                fns.push(FnItem {
                    name,
                    owner,
                    line: t.line,
                    col: t.col,
                    is_pub,
                    sig,
                    body,
                    has_must_use,
                    in_test,
                    hot,
                    no_alloc,
                    allows,
                });
                if in_test {
                    if let Some((s, e)) = body {
                        test_ranges.push((s, e));
                    }
                }
                pending_attrs.clear();
                pending_attr_line = None;
                // Continue scanning from just after the signature so nested
                // items inside the body are discovered too.
                i = j;
            }
            (TokKind::Ident, _) => {
                // A significant token that is not an item introducer ends the
                // attribute attachment only at statement boundaries; keep
                // qualifiers (pub/const/...) pending.
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    ast.fns = fns;
    ast.excluded = excluded;
    ast.test_ranges = test_ranges;
    ast
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_with_owner_and_visibility() {
        let src = r#"
            pub struct Foo;
            impl Foo {
                pub fn bar(&self) -> u32 { 1 }
                fn baz() {}
            }
            pub fn free() -> bool { true }
        "#;
        let ast = parse_file("x.rs", "test", src, false);
        let names: Vec<_> =
            ast.fns.iter().map(|f| (f.name.clone(), f.owner.clone(), f.is_pub)).collect();
        assert_eq!(
            names,
            vec![
                ("bar".into(), Some("Foo".into()), true),
                ("baz".into(), Some("Foo".into()), false),
                ("free".into(), None, true),
            ]
        );
    }

    #[test]
    fn cfg_test_mods_are_marked() {
        let src = r#"
            pub fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { prod(); }
            }
        "#;
        let ast = parse_file("x.rs", "test", src, false);
        let prod = ast.fns.iter().find(|f| f.name == "prod").unwrap();
        let t = ast.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(!prod.in_test);
        assert!(t.in_test);
    }

    #[test]
    fn markers_attach_to_items() {
        let src = r#"
            // nm-analyzer: hot_path
            pub fn hot_fn() {}

            // nm-analyzer: no_alloc
            #[inline]
            pub fn lean() {}

            pub fn plain() {}
        "#;
        let ast = parse_file("x.rs", "test", src, false);
        assert!(ast.fns.iter().find(|f| f.name == "hot_fn").unwrap().hot);
        assert!(ast.fns.iter().find(|f| f.name == "lean").unwrap().no_alloc);
        let plain = ast.fns.iter().find(|f| f.name == "plain").unwrap();
        assert!(!plain.hot && !plain.no_alloc);
    }

    #[test]
    fn file_level_marker_covers_everything() {
        let src = "// nm-analyzer: hot_path\n//! doc\npub fn f() {}\n";
        let ast = parse_file("x.rs", "test", src, false);
        assert!(ast.fns[0].hot);
    }

    #[test]
    fn allow_directives_parse_with_reasons() {
        let d = parse_directives("// nm-analyzer: allow(no-alloc) -- cold path, bounded", 7);
        assert_eq!(
            d,
            vec![Directive::Allow {
                rule: "no-alloc".into(),
                reason: "cold path, bounded".into(),
                line: 7
            }]
        );
        let missing = parse_directives("// nm-analyzer: allow(clone)", 9);
        assert_eq!(
            missing,
            vec![Directive::Allow { rule: "clone".into(), reason: String::new(), line: 9 }]
        );
    }

    #[test]
    fn trait_methods_and_impl_for() {
        let src = r#"
            pub trait Cost {
                fn time_us(&self, bytes: u64) -> f64;
            }
            impl Cost for Table {
                fn time_us(&self, bytes: u64) -> f64 { 0.0 }
            }
        "#;
        let ast = parse_file("x.rs", "test", src, false);
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].owner.as_deref(), Some("Cost"));
        assert_eq!(ast.fns[1].owner.as_deref(), Some("Table"));
        assert!(ast.fns[0].body.is_none());
        assert!(ast.fns[1].body.is_some());
    }
}
