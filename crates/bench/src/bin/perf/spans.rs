//! Span store and self-time arithmetic for the traced pass.
//!
//! The benchmark is one thread, so spans obey a stack discipline: a span's
//! children lie inside it and never overlap each other. That is what lets a
//! layer's self time be its span minus the sum of its direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Capacity of the span store. The traced pass replays a fixed prefix sized
/// to fit; a span that would not fit is counted, and the run fails.
pub const MAX_SPANS: usize = 1 << 20;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `driver.submit`.
    pub name: &'static str,
    /// Start, ns since the store was created.
    pub start_ns: u64,
    /// End, ns since the store was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The load generator's op this span belongs to: root spans number the
    /// ops, and a span inherits the id of the root it lies under.
    pub op_id: u32,
}

struct Store {
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last; `NO_PARENT` marks a span
    /// that did not fit the store.
    open: Vec<u32>,
    origin: Instant,
    op_id: u32,
    dropped: u64,
}

thread_local! {
    static STORE: RefCell<Option<Store>> = const { RefCell::new(None) };
}

/// Starts a fresh, pre-sized store on this thread.
// nm-analyzer: allow(determinism-taint) -- host-time origin of the trace; spans are
// measured provenance and never feed a modeled (sim_*) number
pub fn start() {
    STORE.with(|s| {
        *s.borrow_mut() = Some(Store {
            spans: Vec::with_capacity(MAX_SPANS),
            open: Vec::with_capacity(64),
            origin: Instant::now(),
            op_id: 0,
            dropped: 0,
        });
    });
}

/// Ends tracing and returns the recorded spans with the count of spans that
/// did not fit.
pub fn finish() -> (Vec<Span>, u64) {
    STORE.with(|s| s.borrow_mut().take().map_or((Vec::new(), 0), |st| (st.spans, st.dropped)))
}

/// Closes its span when dropped.
pub struct Guard(());

/// Opens a span; it closes when the guard drops. Without a started store
/// this records nothing.
pub fn enter(name: &'static str) -> Guard {
    STORE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let parent = st.open.last().copied().unwrap_or(NO_PARENT);
            if st.open.is_empty() {
                st.op_id += 1;
            }
            // The store is pre-sized: a span that would not fit is counted in
            // `dropped` instead of pushed.
            if st.spans.len() < MAX_SPANS {
                let start_ns = st.origin.elapsed().as_nanos() as u64;
                st.open.push(st.spans.len() as u32);
                st.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id: st.op_id });
            } else {
                st.dropped += 1;
                st.open.push(NO_PARENT);
            }
        }
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        STORE.with(|s| {
            if let Some(st) = s.borrow_mut().as_mut() {
                if let Some(idx) = st.open.pop() {
                    if let Some(span) = st.spans.get_mut(idx as usize) {
                        span.end_ns = st.origin.elapsed().as_nanos() as u64;
                    }
                }
            }
        });
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their direct children cover.
    pub self_ns: u64,
}

/// Per-name totals and self times. A child is clipped to its parent's
/// interval; children of one parent are assumed not to overlap (see the
/// module comment).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let agg = out.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(*c);
    }
    out
}

/// Sum of the root spans' durations: the traced op time.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == NO_PARENT).map(|s| s.end_ns - s.start_ns).sum()
}

/// Durations of every span called `name`, sorted.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    let mut d: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).collect();
    d.sort_by(f64::total_cmp);
    d
}

/// Writes the spans as Chrome trace-event JSON (open in `chrome://tracing`
/// or <https://ui.perfetto.dev>): complete events, `ts`/`dur` in µs.
pub fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op_id
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        // op [0,100) > post [10,60) > decide [20,30)
        let spans = [
            span("loadgen.op", 0, 100, NO_PARENT),
            span("engine.post", 10, 60, 0),
            span("strategy.decide", 20, 30, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["loadgen.op"].self_ns, 50);
        assert_eq!(t["engine.post"].self_ns, 40);
        assert_eq!(t["strategy.decide"].self_ns, 10);
        let sum: u64 = t.values().map(|a| a.self_ns).sum();
        assert_eq!(sum, root_ns(&spans), "self times tile the op");
    }

    #[test]
    fn sibling_spans_add_up_under_one_parent() {
        let spans = [
            span("engine.poll", 0, 100, NO_PARENT),
            span("driver.poll", 10, 30, 0),
            span("driver.submit", 30, 45, 0),
            span("driver.submit", 50, 55, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["engine.poll"].self_ns, 100 - 20 - 15 - 5);
        assert_eq!(t["driver.submit"], Agg { count: 2, total_ns: 20, self_ns: 20 });
    }

    #[test]
    fn zero_length_spans_count_but_cover_nothing() {
        let spans = [span("engine.post", 5, 25, NO_PARENT), span("driver.state", 7, 7, 0)];
        let t = self_times(&spans);
        assert_eq!(t["engine.post"].self_ns, 20);
        assert_eq!(t["driver.state"], Agg { count: 1, total_ns: 0, self_ns: 0 });
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span("a.parent", 10, 20, NO_PARENT), span("b.child", 15, 40, 0)];
        assert_eq!(self_times(&spans)["a.parent"].self_ns, 5);
    }

    #[test]
    fn the_recorder_links_parents_and_ops() {
        start();
        {
            let _op = enter("loadgen.op");
            let _post = enter("engine.post");
        }
        let _root = enter("loadgen.op");
        drop(_root);
        let (spans, dropped) = finish();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert_eq!(spans.iter().map(|s| s.op_id).collect::<Vec<_>>(), [1, 1, 2]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[0].end_ns, "children close first");
        drop(enter("ignored.without.a.store"));
        assert_eq!(finish().0.len(), 0);
    }
}
