//! Shared machinery for the concurrency rule family: discovering lock /
//! atomic fields, resolving method-call receivers back to those fields,
//! and extracting per-function event streams (blocking operations, call
//! edges).
//!
//! Resolution is name-based, not type-based — the analyzer has no type
//! inference. The naming discipline that makes this sound in practice:
//! a field key is `crate::Type::field`; a receiver resolves when it is
//! `self.field`, a local bound by `let x = <field expr>` (alias tracking),
//! or a bare identifier whose name matches exactly one field declaration
//! in the crate (the common "param named after the field it came from"
//! idiom). Anything else is *unresolved*: unresolved lock acquisitions
//! still count as blocking operations, and unresolved atomic ops are
//! tallied in the report rather than silently dropped.

use crate::lexer::TokKind;
use crate::parse::{is_non_expr_keyword, FileAst, FnItem};
use crate::rules::{resolve_call, CallIndex};
use std::collections::{HashMap, HashSet};

/// Blocking method names used when `[blocking] methods` is not configured.
pub const DEFAULT_BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "sleep",
    "park",
    "park_timeout",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "join",
];

/// The lock or atomic fields (and statics) declared across the scanned
/// files, keyed by bare name for receiver resolution.
#[derive(Debug, Default)]
pub struct FieldSet {
    /// (crate, field name) -> owning type names declaring such a field.
    pub owners: HashMap<(String, String), Vec<String>>,
    /// (crate, static item name).
    pub statics: HashSet<(String, String)>,
}

impl FieldSet {
    /// Resolves a receiver name to a display key `crate::Type::field` /
    /// `crate::NAME`. `self_q` means the receiver was literally
    /// `self.<name>`; `aliases` maps local bindings to already-resolved
    /// keys. Ambiguous multi-owner names resolve to the enclosing impl's
    /// owner when it declares the field, else to `crate::?::field` so the
    /// protocol still aggregates rather than fragmenting per call site.
    pub fn resolve(
        &self,
        krate: &str,
        fn_owner: Option<&str>,
        name: &str,
        self_q: bool,
        aliases: &HashMap<String, String>,
    ) -> Option<String> {
        if !self_q {
            if let Some(k) = aliases.get(name) {
                return Some(k.clone());
            }
        }
        let key = (krate.to_string(), name.to_string());
        if let Some(owners) = self.owners.get(&key) {
            if let Some(o) = fn_owner {
                if owners.iter().any(|x| x == o) {
                    return Some(format!("{krate}::{o}::{name}"));
                }
            }
            if self_q {
                // `self.name` on an owner that doesn't declare it (Deref'd
                // wrappers): fall through to the unique-name rule.
            }
            if owners.len() == 1 {
                return Some(format!("{krate}::{}::{name}", owners[0]));
            }
            return Some(format!("{krate}::?::{name}"));
        }
        if self.statics.contains(&key) {
            return Some(format!("{krate}::{name}"));
        }
        None
    }
}

/// Field sets for every declared-type classification the rule families
/// track, discovered in one scan.
#[derive(Debug, Default)]
pub struct Fields {
    /// `Mutex`-typed fields/statics (blocking reachability).
    pub locks: FieldSet,
    /// `Atomic*`-typed fields/statics (ordering protocols).
    pub atomics: FieldSet,
    /// Hash-based containers (`HashMap`/`HashSet`): iterating them is a
    /// nondeterministic source for the determinism-taint rule.
    pub maps: FieldSet,
    /// Growable collections (`Vec`, `VecDeque`, `String`, maps, `BTree*`,
    /// `BinaryHeap`): growth sites need a bounding proof.
    pub collections: FieldSet,
}

/// Scans struct fields and statics in non-audit files, classifying each by
/// declared type: `Mutex` anywhere in the type -> lock, an `Atomic*`
/// identifier -> atomic, `HashMap`/`HashSet` -> map, any growable std
/// container -> collection.
pub fn scan_fields(files: &[FileAst]) -> Fields {
    let mut out = Fields::default();
    for file in files {
        if file.audit_only {
            continue;
        }
        let toks = &file.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if file.is_excluded(i) || file.in_test_range(i) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident && t.text == "struct" {
                if let Some((owner, body_open)) = struct_body(file, i) {
                    i = scan_struct_fields(file, &owner, body_open, &mut out);
                    continue;
                }
            } else if t.kind == TokKind::Ident && t.text == "static" {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(j + 1).is_some_and(|t| t.text == ":")
                {
                    let name = toks[j].text.clone();
                    let c = classify_type(file, j + 2, &["=", ";"]);
                    let key = (file.crate_name.clone(), name);
                    if c.lock {
                        out.locks.statics.insert(key.clone());
                    }
                    if c.atomic {
                        out.atomics.statics.insert(key.clone());
                    }
                    if c.map {
                        out.maps.statics.insert(key.clone());
                    }
                    if c.collection {
                        out.collections.statics.insert(key);
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// `struct Name<...> { ...` -> `(Name, index of '{')`; `None` for unit /
/// tuple structs and `struct` in non-item position.
fn struct_body(file: &FileAst, i: usize) -> Option<(String, usize)> {
    let toks = &file.toks;
    let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?.text.clone();
    let mut j = i + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => angle += 1,
            ">" if !(j > 0 && toks[j - 1].text == "-") => angle -= 1,
            "{" if angle <= 0 => return Some((name, j)),
            ";" | "(" if angle <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Walks one struct body registering `field: Mutex<..>` / `field: Atomic*`
/// / `field: HashMap<..>` / growable-container declarations; returns the
/// index just past the closing brace.
fn scan_struct_fields(file: &FileAst, owner: &str, body_open: usize, out: &mut Fields) -> usize {
    let toks = &file.toks;
    let mut depth = 0i32;
    let mut k = body_open;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        if depth == 1
            && toks[k].kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|t| t.text == ":")
            && toks.get(k + 2).map(|t| t.text.as_str()) != Some(":")
            && k > 0
            && matches!(toks[k - 1].text.as_str(), "{" | "," | ")" | "pub")
        {
            let fname = toks[k].text.clone();
            let c = classify_type(file, k + 2, &[","]);
            let key = (file.crate_name.clone(), fname);
            if c.lock {
                out.locks.owners.entry(key.clone()).or_default().push(owner.to_string());
            }
            if c.atomic {
                out.atomics.owners.entry(key.clone()).or_default().push(owner.to_string());
            }
            if c.map {
                out.maps.owners.entry(key.clone()).or_default().push(owner.to_string());
            }
            if c.collection {
                out.collections.owners.entry(key).or_default().push(owner.to_string());
            }
        }
        k += 1;
    }
    k
}

/// Declared-type classification flags for one field/static.
#[derive(Debug, Default, Clone, Copy)]
struct Classify {
    lock: bool,
    atomic: bool,
    map: bool,
    collection: bool,
}

/// Growable std containers whose appearance in a declared type marks the
/// field as a collection (growth sites on it need bounding proofs).
const COLLECTION_TYPES: &[&str] =
    &["Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "BinaryHeap", "String"];

/// Classifies the type tokens starting at `from` up to any of `stop` at
/// zero bracket depth (or a brace).
fn classify_type(file: &FileAst, from: usize, stop: &[&str]) -> Classify {
    let toks = &file.toks;
    let mut d = (0i32, 0i32, 0i32); // paren, angle, bracket
    let mut c = Classify::default();
    let mut m = from;
    while m < toks.len() {
        let tt = &toks[m];
        if d == (0, 0, 0) && stop.contains(&tt.text.as_str()) {
            break;
        }
        match tt.text.as_str() {
            "(" => d.0 += 1,
            ")" => {
                if d.0 == 0 {
                    break;
                }
                d.0 -= 1;
            }
            "<" => d.1 += 1,
            ">" if !(m > 0 && toks[m - 1].text == "-") => d.1 -= 1,
            "[" => d.2 += 1,
            "]" => d.2 -= 1,
            "{" | "}" => break,
            _ => {}
        }
        if tt.kind == TokKind::Ident {
            if tt.text == "Mutex" {
                c.lock = true;
            }
            if tt.text.starts_with("Atomic") {
                c.atomic = true;
            }
            if tt.text == "HashMap" || tt.text == "HashSet" {
                c.map = true;
            }
            if COLLECTION_TYPES.contains(&tt.text.as_str()) {
                c.collection = true;
            }
        }
        m += 1;
    }
    c
}

/// For a method-call op at token `i` (ident with `.` before and `(` after):
/// the receiver's final identifier index and whether the chain reads
/// `self.<ident>` directly. Skips trailing index groups and tuple-index
/// hops, so `self.slots[i].marker.load(..)` resolves `marker` and
/// `pair.0.lock()` resolves `pair`... (the latter stays unresolved unless
/// aliased, which is the honest answer).
pub fn receiver(file: &FileAst, i: usize) -> Option<(usize, bool)> {
    let toks = &file.toks;
    if i == 0 || toks[i - 1].text != "." {
        return None;
    }
    let mut j = i - 1; // the '.'
    loop {
        if j == 0 {
            return None;
        }
        j -= 1; // last token of the receiver expression
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokKind::Punct, "]") => {
                let mut d = 1i32;
                while j > 0 && d > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        "]" => d += 1,
                        "[" => d -= 1,
                        _ => {}
                    }
                }
                if d != 0 || j == 0 {
                    return None;
                }
                // Continue with the expression the index applies to.
                continue;
            }
            (TokKind::Num, _) if j > 0 && toks[j - 1].text == "." => {
                if j < 2 {
                    return None;
                }
                j -= 1; // step over the tuple-index '.' and go again
                continue;
            }
            (TokKind::Ident, name) if !is_non_expr_keyword(name) && name != "self" => {
                let self_q = j >= 2 && toks[j - 1].text == "." && toks[j - 2].text == "self";
                return Some((j, self_q));
            }
            _ => return None,
        }
    }
}

/// Local-alias map for one fn body: bindings whose initializer references
/// exactly one known field (`let r = &self.mixed;`) alias that field; a
/// tuple pattern whose initializer references exactly as many fields in
/// order (`let (a2, b2) = (a.clone(), b.clone());`) aliases positionally.
pub fn fn_aliases(file: &FileAst, f: &FnItem, fields: &FieldSet) -> HashMap<String, String> {
    let mut aliases: HashMap<String, String> = HashMap::new();
    let Some((bs, be)) = f.body else { return aliases };
    let toks = &file.toks;
    let owner = f.owner.as_deref();
    let mut i = bs;
    while i < be {
        if file.is_excluded(i) || file.in_test_range(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        let is_let = t.kind == TokKind::Ident && t.text == "let";
        let is_for = t.kind == TokKind::Ident && t.text == "for";
        if !is_let && !is_for {
            i += 1;
            continue;
        }
        let eq_kw = if is_let { "=" } else { "in" };
        // Pattern idents up to `=` / `in` at zero depth; a top-level `:`
        // starts a type annotation (stop collecting, keep scanning).
        let mut pattern: Vec<String> = Vec::new();
        let mut d = (0i32, 0i32, 0i32);
        let mut in_type = false;
        let mut j = i + 1;
        let mut rhs_start = None;
        while j < be {
            let tj = &toks[j];
            if d == (0, 0, 0) {
                if tj.text == eq_kw && tj.kind != TokKind::Ident && is_let {
                    rhs_start = Some(j + 1);
                    break;
                }
                if is_for && tj.kind == TokKind::Ident && tj.text == "in" {
                    rhs_start = Some(j + 1);
                    break;
                }
                if tj.text == ";" || tj.text == "{" {
                    break;
                }
                if tj.text == ":" && toks.get(j + 1).map(|t| t.text.as_str()) != Some(":") {
                    in_type = true;
                }
            }
            match tj.text.as_str() {
                "(" => d.0 += 1,
                ")" => d.0 -= 1,
                "<" => d.1 += 1,
                ">" if !(j > 0 && toks[j - 1].text == "-") => d.1 -= 1,
                "[" => d.2 += 1,
                "]" => d.2 -= 1,
                _ => {}
            }
            if !in_type
                && tj.kind == TokKind::Ident
                && !matches!(tj.text.as_str(), "mut" | "ref" | "_")
                && !is_non_expr_keyword(&tj.text)
            {
                pattern.push(tj.text.clone());
            }
            j += 1;
        }
        let Some(rs) = rhs_start else {
            i = j + 1;
            continue;
        };
        // RHS: up to `;` (let) / `{` (for) at zero depth; collect field refs.
        let mut refs: Vec<String> = Vec::new();
        let mut d = (0i32, 0i32, 0i32);
        let mut k = rs;
        while k < be {
            let tk = &toks[k];
            if d == (0, 0, 0) && (tk.text == ";" || (is_for && tk.text == "{")) {
                break;
            }
            match tk.text.as_str() {
                "(" => d.0 += 1,
                ")" => d.0 -= 1,
                "[" => d.2 += 1,
                "]" => d.2 -= 1,
                _ => {}
            }
            if tk.kind == TokKind::Ident
                && !is_non_expr_keyword(&tk.text)
                && tk.text != "self"
                && toks.get(k + 1).map(|t| t.text.as_str()) != Some("(")
                && toks.get(k + 1).map(|t| t.text.as_str()) != Some("!")
                && toks.get(k + 1).map(|t| t.text.as_str()) != Some(":")
                && (k == 0 || toks[k - 1].text != ":")
            {
                let self_q = k >= 2 && toks[k - 1].text == "." && toks[k - 2].text == "self";
                let plain = k == 0 || toks[k - 1].text != ".";
                if self_q || plain {
                    if let Some(key) =
                        fields.resolve(&file.crate_name, owner, &tk.text, self_q, &aliases)
                    {
                        refs.push(key);
                    }
                }
            }
            k += 1;
        }
        if refs.len() == 1 {
            for p in &pattern {
                aliases.insert(p.clone(), refs[0].clone());
            }
        } else if !refs.is_empty() && refs.len() == pattern.len() {
            for (p, r) in pattern.iter().zip(refs.iter()) {
                aliases.insert(p.clone(), r.clone());
            }
        }
        i = k.max(j) + 1;
    }
    aliases
}

/// Like [`fn_aliases`], but only honors *pure place bindings*:
/// `let [mut] x [: Ty] = [&][mut] self.field;` or `= other_alias;`.
///
/// A binding whose initializer calls anything (`.clone()`,
/// `.iter().collect()`, `.entry(..).or_insert(..)`, `mem::take(..)`)
/// produces a *new* value — iterating or growing it is not iterating or
/// growing the field — so the dataflow passes (determinism taint, bounded
/// growth) must not attribute it to the field. Where the derivation itself
/// iterates the map, the deriving call site is still flagged directly.
/// The blocking pass keeps [`fn_aliases`]: a guard *is* its lock however
/// the binding was derived.
pub fn pure_aliases(file: &FileAst, f: &FnItem, fields: &FieldSet) -> HashMap<String, String> {
    let mut aliases: HashMap<String, String> = HashMap::new();
    let Some((bs, be)) = f.body else { return aliases };
    let toks = &file.toks;
    let owner = f.owner.as_deref();
    let mut i = bs;
    while i < be {
        if file.is_excluded(i)
            || file.in_test_range(i)
            || toks[i].kind != TokKind::Ident
            || toks[i].text != "let"
        {
            i += 1;
            continue;
        }
        // `let [mut] <name>` — single-ident patterns only.
        let mut j = i + 1;
        if j < be && toks[j].text == "mut" {
            j += 1;
        }
        if j >= be || toks[j].kind != TokKind::Ident || is_non_expr_keyword(&toks[j].text) {
            i = j;
            continue;
        }
        let name = toks[j].text.clone();
        j += 1;
        // Optional `: Ty` annotation: scan to `=` at zero depth.
        let mut d = (0i32, 0i32, 0i32);
        let mut eq = None;
        while j < be {
            let tj = &toks[j];
            if d == (0, 0, 0) {
                if tj.kind == TokKind::Punct
                    && tj.text == "="
                    && toks.get(j + 1).map(|t| t.text.as_str()) != Some("=")
                {
                    eq = Some(j);
                    break;
                }
                if tj.text == ";" || tj.text == "{" {
                    break;
                }
            }
            match tj.text.as_str() {
                "(" => d.0 += 1,
                ")" => d.0 -= 1,
                "<" => d.1 += 1,
                ">" if !(j > 0 && toks[j - 1].text == "-") => d.1 -= 1,
                "[" => d.2 += 1,
                "]" => d.2 -= 1,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // RHS must be `[&][mut] ident(.ident)* ;` — nothing else.
        let mut k = eq + 1;
        if k < be && toks[k].text == "&" {
            k += 1;
        }
        if k < be && toks[k].text == "mut" {
            k += 1;
        }
        let mut chain: Vec<usize> = Vec::new();
        let mut expect_ident = true;
        let mut pure = true;
        while k < be {
            let tk = &toks[k];
            if tk.text == ";" {
                break;
            }
            if expect_ident {
                let head_self = tk.text == "self" && chain.is_empty();
                if tk.kind != TokKind::Ident || (!head_self && is_non_expr_keyword(&tk.text)) {
                    pure = false;
                    break;
                }
                chain.push(k);
                expect_ident = false;
            } else if tk.text == "." {
                expect_ident = true;
            } else {
                pure = false;
                break;
            }
            k += 1;
        }
        if pure && !expect_ident {
            let key = match chain.as_slice() {
                [a] if toks[*a].text != "self" => aliases.get(toks[*a].text.as_str()).cloned(),
                [a, b] if toks[*a].text == "self" => {
                    fields.resolve(&file.crate_name, owner, &toks[*b].text, true, &aliases)
                }
                _ => None,
            };
            if let Some(key) = key {
                aliases.insert(name, key);
            }
        }
        i = k + 1;
    }
    aliases
}

/// One concurrency-relevant occurrence in a fn body, in token order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A blocking operation (lock acquisition, `recv`, `sleep`, ...).
    Block {
        /// Human-readable description of the operation.
        what: String,
        /// Token index.
        tok: usize,
    },
    /// A within-crate call edge.
    Call {
        /// Resolved targets as (file idx, fn idx).
        targets: Vec<(usize, usize)>,
    },
}

/// Extracts the event stream for one fn: `.lock()` acquisitions (named by
/// their field when the receiver resolves), blocking method calls, and call
/// edges.
pub fn fn_events(
    files: &[FileAst],
    index: &CallIndex,
    at: (usize, usize),
    locks: &FieldSet,
    aliases: &HashMap<String, String>,
    blocking: &[String],
) -> Vec<Event> {
    let file = &files[at.0];
    let f = &file.fns[at.1];
    let mut out = Vec::new();
    let Some((bs, be)) = f.body else { return out };
    let toks = &file.toks;
    let owner = f.owner.as_deref();
    for i in bs..be {
        if file.is_excluded(i) || file.in_test_range(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let dotted = i > bs && toks[i - 1].text == ".";
        let pathed = i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":";
        if t.text == "lock" && dotted {
            let resolved = receiver(file, i).and_then(|(j, self_q)| {
                locks.resolve(&file.crate_name, owner, &toks[j].text, self_q, aliases)
            });
            let what = match resolved {
                Some(key) => format!("lock acquisition on `{key}`"),
                None => ".lock()".into(),
            };
            out.push(Event::Block { what, tok: i });
            continue;
        }
        if blocking.iter().any(|b| b == &t.text) && (dotted || pathed) {
            let what = if pathed && i >= 3 && toks[i - 3].kind == TokKind::Ident {
                format!("{}::{}", toks[i - 3].text, t.text)
            } else {
                format!(".{}()", t.text)
            };
            out.push(Event::Block { what, tok: i });
            continue;
        }
        if !is_non_expr_keyword(&t.text) {
            let targets = resolve_call(files, index, at, i);
            if !targets.is_empty() {
                out.push(Event::Call { targets });
            }
        }
    }
    out
}

/// First identifier of the postfix chain ending at the op ident `i`
/// (`self.a.b[j].lock()` -> index of `self`). `None` when the chain head
/// is a call result or other non-ident.
pub(crate) fn chain_head(file: &FileAst, i: usize) -> Option<usize> {
    let toks = &file.toks;
    if i == 0 || toks[i - 1].text != "." {
        return None;
    }
    let mut h = i; // current known chain ident
    loop {
        if h < 2 || toks[h - 1].text != "." {
            return Some(h).filter(|&x| x != i);
        }
        let mut b = h - 2;
        match (toks[b].kind, toks[b].text.as_str()) {
            (TokKind::Punct, "]") => {
                let mut d = 1i32;
                while b > 0 && d > 0 {
                    b -= 1;
                    match toks[b].text.as_str() {
                        "]" => d += 1,
                        "[" => d -= 1,
                        _ => {}
                    }
                }
                if d != 0 || b == 0 {
                    return None;
                }
                if toks[b - 1].kind == TokKind::Ident {
                    h = b - 1;
                } else {
                    return None;
                }
            }
            (TokKind::Ident, _) | (TokKind::Num, _) => h = b,
            _ => return Some(h).filter(|&x| x != i),
        }
    }
}
