//! Lock-order analysis and hot-path blocking reachability.
//!
//! Per fn, the [`crate::guards`] event stream gives lock acquisitions with
//! their lexical guard scope, blocking calls, and within-crate call edges.
//! From those:
//!
//! * **May-acquire sets** propagate transitively over the call graph (same
//!   machinery as the no-alloc proof): for each fn, which lock keys can be
//!   acquired somewhere below it, with one witnessing call chain each.
//! * **Lock-order graph**: an edge `A -> B` means some fn acquires `B`
//!   (directly or transitively) while lexically holding `A`. Any cycle is
//!   a potential deadlock; the finding prints every edge of the cycle with
//!   its witnessing acquisition chain (`lock-order-cycle`).
//! * **Blocking reachability**: a `hot_path` fn that can reach a lock
//!   acquisition or a blocking call (`recv`, `sleep`, `join`, ...) gets a
//!   `hot-path-blocking` finding at the blocking site, chain included —
//!   the decision path must stay lock-free by construction, not by hope.

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

/// A witnessed acquisition: where, and through which call chain.
#[derive(Debug, Clone)]
struct Acq {
    fidx: usize,
    tok: usize,
    chain: Vec<String>, // fn display names from the callee downward
}

fn display(files: &[FileAst], n: Node) -> String {
    let f = &files[n.0].fns[n.1];
    match &f.owner {
        Some(o) => format!("{}::{}", o, f.name),
        None => f.name.clone(),
    }
}

/// Runs both passes; pushes `lock-order-cycle` and `hot-path-blocking`
/// findings into `out`.
pub fn lock_discipline(
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

    // ---- may-acquire sets (transitive, memoized) -------------------------
    let mut reach_memo: HashMap<Node, HashMap<String, Acq>> = HashMap::new();
    for &n in &nodes {
        may_acquire(n, &events, &mut reach_memo, &mut HashSet::new(), files);
    }

    // ---- lock-order edges ------------------------------------------------
    // (held key, acquired key) -> first witness.
    let mut edges: HashMap<(String, String), Acq> = HashMap::new();
    for &n in &nodes {
        let evs = &events[&n];
        for (ai, ev) in evs.iter().enumerate() {
            let Event::Acquire { key: held, tok, held_to } = ev else { continue };
            for later in &evs[ai + 1..] {
                match later {
                    Event::Acquire { key, tok: btok, .. }
                        if key != held && *btok > *tok && *btok <= *held_to =>
                    {
                        edges.entry((held.clone(), key.clone())).or_insert_with(|| Acq {
                            fidx: n.0,
                            tok: *btok,
                            chain: vec![display(files, n)],
                        });
                    }
                    Event::Call { targets, tok: ctok } if *ctok > *tok && *ctok <= *held_to => {
                        for &t in targets {
                            let empty = HashMap::new();
                            let sub = reach_memo.get(&t).unwrap_or(&empty);
                            for (key, acq) in sub {
                                if key == held {
                                    continue;
                                }
                                edges.entry((held.clone(), key.clone())).or_insert_with(|| {
                                    let mut chain = vec![display(files, n), display(files, t)];
                                    chain.extend(acq.chain.iter().cloned());
                                    Acq { fidx: acq.fidx, tok: acq.tok, chain }
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // ---- cycles ----------------------------------------------------------
    report_cycles(files, &edges, out);

    // ---- blocking reachability ------------------------------------------
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

/// Transitive may-acquire set for `n`: lock key -> one witnessed site.
fn may_acquire(
    n: Node,
    events: &HashMap<Node, Vec<Event>>,
    memo: &mut HashMap<Node, HashMap<String, Acq>>,
    on_stack: &mut HashSet<Node>,
    files: &[FileAst],
) -> HashMap<String, Acq> {
    if let Some(m) = memo.get(&n) {
        return m.clone();
    }
    if !on_stack.insert(n) {
        return HashMap::new(); // call-graph cycle: already being computed
    }
    let mut m: HashMap<String, Acq> = HashMap::new();
    if let Some(evs) = events.get(&n) {
        for ev in evs {
            match ev {
                Event::Acquire { key, tok, .. } => {
                    m.entry(key.clone()).or_insert(Acq { fidx: n.0, tok: *tok, chain: Vec::new() });
                }
                Event::Call { targets, .. } => {
                    for &t in targets {
                        let sub = may_acquire(t, events, memo, on_stack, files);
                        for (key, acq) in sub {
                            m.entry(key).or_insert_with(|| {
                                let mut chain = vec![display(files, t)];
                                chain.extend(acq.chain.iter().cloned());
                                Acq { fidx: acq.fidx, tok: acq.tok, chain }
                            });
                        }
                    }
                }
                Event::Block { .. } => {}
            }
        }
    }
    on_stack.remove(&n);
    memo.insert(n, m.clone());
    m
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
                Event::Acquire { key, tok, .. } => {
                    m.entry((n.0, *tok))
                        .or_insert((format!("lock acquisition on `{key}`"), Vec::new()));
                }
                Event::Block { what, tok } => {
                    m.entry((n.0, *tok)).or_insert((what.clone(), Vec::new()));
                }
                Event::Call { targets, .. } => {
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

/// Finds strongly-connected components of the lock-order graph and reports
/// one `lock-order-cycle` finding per nontrivial SCC, listing every edge of
/// a concrete cycle with its witnessing acquisition chain.
fn report_cycles(files: &[FileAst], edges: &HashMap<(String, String), Acq>, out: &mut Analysis) {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    let mut keys: Vec<&str> = Vec::new();
    for (a, b) in edges.keys() {
        for k in [a.as_str(), b.as_str()] {
            if !adj.contains_key(k) {
                adj.insert(k, Vec::new());
                keys.push(k);
            }
        }
        adj.get_mut(a.as_str()).unwrap().push(b.as_str());
    }
    keys.sort();
    for v in adj.values_mut() {
        v.sort();
    }

    let reachable = |from: &str, to: &str| -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(k) = stack.pop() {
            if !seen.insert(k) {
                continue;
            }
            for &nx in adj.get(k).map(|v| v.as_slice()).unwrap_or(&[]) {
                if nx == to {
                    return true;
                }
                stack.push(nx);
            }
        }
        false
    };

    let mut in_reported_scc: HashSet<&str> = HashSet::new();
    for &start in &keys {
        if in_reported_scc.contains(start) || !reachable(start, start) {
            continue;
        }
        // SCC of `start`: mutually reachable keys.
        let scc: HashSet<&str> = keys
            .iter()
            .copied()
            .filter(|&k| k == start || (reachable(start, k) && reachable(k, start)))
            .collect();
        in_reported_scc.extend(scc.iter().copied());
        // A concrete cycle from `start` back to itself inside the SCC.
        let mut cycle: Vec<&str> = vec![start];
        let mut cur = start;
        loop {
            let next = adj[cur]
                .iter()
                .copied()
                .find(|n| scc.contains(n) && (*n == start || !cycle.contains(n)))
                .unwrap_or(start);
            if next == start {
                cycle.push(start);
                break;
            }
            cycle.push(next);
            cur = next;
        }
        let ring = cycle.iter().map(|k| format!("`{k}`")).collect::<Vec<_>>().join(" -> ");
        let mut parts = Vec::new();
        let mut anchor: Option<&Acq> = None;
        for w in cycle.windows(2) {
            let key = (w[0].to_string(), w[1].to_string());
            if let Some(acq) = edges.get(&key) {
                anchor.get_or_insert(acq);
                parts.push(format!(
                    "`{}` -> `{}` via `{}` at {}:{}",
                    w[0],
                    w[1],
                    acq.chain.join(" -> "),
                    files[acq.fidx].path,
                    files[acq.fidx].toks[acq.tok].line
                ));
            }
        }
        let Some(anchor) = anchor else { continue };
        let msg = format!(
            "lock-order cycle (potential deadlock): {ring}; acquisition chains: {}",
            parts.join("; ")
        );
        let (fidx, tok) = (anchor.fidx, anchor.tok);
        push(&files[fidx], out, "lock-order-cycle", "concurrency", tok, msg);
    }
}
