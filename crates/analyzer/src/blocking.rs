//! Hot-path blocking reachability.
//!
//! Per fn, the [`crate::guards`] event stream gives blocking operations
//! (lock acquisitions, `recv`, `sleep`, `join`, ...) and within-crate call
//! edges. Blocking sites propagate transitively over the call graph (same
//! machinery as the no-alloc proof): a `hot_path` fn that can reach one
//! gets a `hot-path-blocking` finding at the blocking site, chain included
//! — the decision path must stay lock-free by construction, not by hope.
//!
//! There is no lock-*order* analysis: the workspace has one production
//! lock, and `ci.sh` fails when a second lock field appears.

use crate::config::Config;
use crate::guards::{fn_aliases, fn_events, Event, FieldSet, DEFAULT_BLOCKING};
use crate::parse::FileAst;
use crate::rules::{push, Analysis, CallIndex};
use std::collections::{HashMap, HashSet};

type Node = (usize, usize); // (file idx, fn idx)
type Site = (usize, usize); // (file idx, token idx)
/// Blocking site details: what blocks there, via which call chain.
type BlockInfo = (String, Vec<String>);
type BlockMemo = HashMap<Node, HashMap<Site, BlockInfo>>;

fn display(files: &[FileAst], n: Node) -> String {
    let f = &files[n.0].fns[n.1];
    match &f.owner {
        Some(o) => format!("{}::{}", o, f.name),
        None => f.name.clone(),
    }
}

/// Pushes a `hot-path-blocking` finding for every blocking site a
/// `hot_path` fn can reach.
pub fn blocking_reachability(
    files: &[FileAst],
    index: &CallIndex,
    locks: &FieldSet,
    cfg: &Config,
    out: &mut Analysis,
) {
    let blocking: Vec<String> = if cfg.blocking_methods.is_empty() {
        DEFAULT_BLOCKING.iter().map(|s| s.to_string()).collect()
    } else {
        cfg.blocking_methods.clone()
    };

    // Event streams for every non-test fn with a body.
    let mut nodes: Vec<Node> = Vec::new();
    let mut events: HashMap<Node, Vec<Event>> = HashMap::new();
    for (fidx, file) in files.iter().enumerate() {
        if file.audit_only {
            continue;
        }
        for (gidx, f) in file.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let n = (fidx, gidx);
            let aliases = fn_aliases(file, f, locks);
            events.insert(n, fn_events(files, index, n, locks, &aliases, &blocking));
            nodes.push(n);
        }
    }

    let mut block_memo: BlockMemo = HashMap::new();
    for &n in &nodes {
        block_reach(n, &events, &mut block_memo, &mut HashSet::new(), files);
    }
    for &n in &nodes {
        let file = &files[n.0];
        let f = &file.fns[n.1];
        if !f.hot {
            continue;
        }
        let mut sites: Vec<(&Site, &BlockInfo)> = block_memo[&n].iter().collect();
        sites.sort_by_key(|(site, _)| **site);
        for (&(sfidx, stok), (what, chain)) in sites {
            let root = display(files, n);
            let msg = if chain.is_empty() {
                format!("`{what}` may block in hot-path fn `{root}`")
            } else {
                format!(
                    "`{what}` may block (reached from hot_path fn `{root}` via `{}`)",
                    chain.join(" -> ")
                )
            };
            push(&files[sfidx], out, "hot-path-blocking", "concurrency", stok, msg);
        }
    }
}

/// Transitive blocking sites for `n`: (file idx, tok) -> (what, chain).
fn block_reach(
    n: Node,
    events: &HashMap<Node, Vec<Event>>,
    memo: &mut BlockMemo,
    on_stack: &mut HashSet<Node>,
    files: &[FileAst],
) -> HashMap<Site, BlockInfo> {
    if let Some(m) = memo.get(&n) {
        return m.clone();
    }
    if !on_stack.insert(n) {
        return HashMap::new();
    }
    let mut m: HashMap<Site, BlockInfo> = HashMap::new();
    if let Some(evs) = events.get(&n) {
        for ev in evs {
            match ev {
                Event::Block { what, tok } => {
                    m.entry((n.0, *tok)).or_insert((what.clone(), Vec::new()));
                }
                Event::Call { targets } => {
                    for &t in targets {
                        let sub = block_reach(t, events, memo, on_stack, files);
                        for (site, (what, chain)) in sub {
                            m.entry(site).or_insert_with(|| {
                                let mut c = vec![display(files, t)];
                                c.extend(chain.iter().cloned());
                                (what.clone(), c)
                            });
                        }
                    }
                }
            }
        }
    }
    on_stack.remove(&n);
    memo.insert(n, m.clone());
    m
}
