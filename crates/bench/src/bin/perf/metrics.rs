//! The metric catalogue, a workload's report, and the one JSON writer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Host time or host memory, measured on this machine: noisy.
    Measured,
    /// Simulator virtual time: bit-deterministic for a seed.
    Modeled,
    /// An event count: repeats exactly for a seed.
    Count,
}

impl Provenance {
    fn as_str(self) -> &'static str {
        match self {
            Provenance::Measured => "measured",
            Provenance::Modeled => "modeled",
            Provenance::Count => "count",
        }
    }

    /// Whether two runs of one seed must print identical digits.
    pub fn exact(self) -> bool {
        self != Provenance::Measured
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it counts
    /// as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
    pub provenance: Provenance,
    /// Listed under `end_to_end` in `BENCHMARK.json` (printed with
    /// `--trace 0`); everything else is printed with `--trace 1`.
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    provenance: Provenance,
    gated: bool,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), provenance, gated }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    provenance: Provenance,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, provenance, gated: false }
}

use Better::{Higher, Lower};
use Provenance::{Count, Measured, Modeled};

/// Unit of simulator virtual time in microseconds, kept apart from host `us`.
pub const SIM_US: &str = "sim_us";

/// The end-to-end metrics. A gated bound is the share of the parent's median
/// the driver tolerates across *different* seeds, so it sits at about three
/// times the widest inter-quartile spread any workload showed over ten seeds
/// at the seed commit (`overload_storm`, `collectives_node_death` and
/// `framed_bytes` set them; see the README). Two runs of *one* seed must
/// still agree exactly on everything modeled or counted. `predict_err` and `failed_share` are not `gated`:
/// the first is left out on the fault workloads and the second is 0 on most,
/// which the driver's contract forbids for a gated metric, so `BENCHMARK.json`
/// lists them per layer and gates `completed_share` (1 − `failed_share`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, Measured, true),
    e2e("wall_ns_per_msg", "ns", Lower, 0.25, Measured, true),
    e2e("sim_goodput_mibps", "MiB/s", Higher, 0.04, Modeled, true),
    e2e("sim_latency_us_p50", SIM_US, Lower, 0.03, Modeled, true),
    e2e("sim_latency_us_p99", SIM_US, Lower, 0.25, Modeled, true),
    e2e("peak_heap_mib", "MiB", Lower, 0.10, Measured, true),
    e2e("completed_share", "ratio", Higher, 0.02, Count, true),
    e2e("predict_err", "ratio", Lower, 0.01, Modeled, false),
    e2e("failed_share", "ratio", Lower, 0.005, Count, false),
];

/// The per-layer metrics, `layer.name`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sampler.sample_rail_us", "us", Lower, Measured),
    layer("sampler.pingpongs", "count", Lower, Count),
    layer("model.predict_ns", "ns", Lower, Measured),
    layer("strategy.decide_ns_p50", "ns", Lower, Measured),
    layer("strategy.decide_ns_p99", "ns", Lower, Measured),
    layer("strategy.decide_calls_per_msg", "1/msg", Lower, Count),
    layer("strategy.decide_share", "ratio", Lower, Measured),
    layer("strategy.plan_cache_hit_ratio", "ratio", Higher, Count),
    layer("strategy.defers_per_msg", "1/msg", Lower, Count),
    layer("strategy.split_behind_single_sizes", "count", Lower, Count),
    layer("engine.post_self_ns_per_msg", "ns", Lower, Measured),
    layer("engine.poll_self_ns_per_msg", "ns", Lower, Measured),
    layer("engine.polls_per_msg", "1/msg", Lower, Count),
    layer("engine.chunks_per_msg", "1/msg", Lower, Count),
    layer("engine.aggregated_share", "ratio", Higher, Count),
    layer("engine.rail0_bytes_share", "ratio", Higher, Count),
    // Measured, not counted: hash-map tombstones depend on the per-process
    // hash seed, so a table now and then grows one resize earlier or later.
    layer("engine.allocs_per_msg", "1/msg", Lower, Measured),
    layer("engine.alloc_bytes_per_msg", "B/msg", Lower, Measured),
    layer("engine.block_ns_per_msg_p99", "ns", Lower, Measured),
    layer("admission.accepted", "count", Higher, Count),
    layer("admission.rejected", "count", Lower, Count),
    layer("admission.shed", "count", Lower, Count),
    layer("admission.degrade_transitions", "count", Lower, Count),
    layer("admission.reject_ns", "ns", Lower, Measured),
    layer("health.retries", "count", Lower, Count),
    layer("health.failovers", "count", Lower, Count),
    layer("health.quarantines", "count", Lower, Count),
    layer("health.readmissions", "count", Higher, Count),
    layer("health.probes_sent", "count", Lower, Count),
    layer("health.chunks_timed_out", "count", Lower, Count),
    layer("health.failover_latency_us_mean", SIM_US, Lower, Modeled),
    layer("health.retransmitted_bytes_share", "ratio", Lower, Count),
    layer("health.hard_poll_errors", "count", Lower, Count),
    layer("driver.submit_ns_p50", "ns", Lower, Measured),
    layer("driver.poll_ns_p50", "ns", Lower, Measured),
    layer("driver.submit_share", "ratio", Lower, Measured),
    layer("driver.poll_share", "ratio", Lower, Measured),
    layer("driver.events_per_poll", "1/poll", Higher, Count),
    layer("driver.state_queries_per_msg", "1/msg", Lower, Count),
    layer("driver.state_query_ns_per_msg", "ns", Lower, Measured),
    layer("sim.events_per_msg", "1/msg", Lower, Count),
    layer("sim.events_per_s", "1/s", Higher, Measured),
    layer("sim.event_queue_ops_per_s", "1/s", Higher, Measured),
    layer("proto.encode_ns_per_kib", "ns/KiB", Lower, Measured),
    layer("proto.decode_ns_per_kib", "ns/KiB", Lower, Measured),
    layer("proto.crc32c_mib_per_s", "MiB/s", Higher, Measured),
    layer("proto.reassemble_ns_per_chunk", "ns", Lower, Measured),
    layer("proto.sequence_ns_per_msg", "ns", Lower, Measured),
    layer("proto.aggregate_flush_ns_per_entry", "ns", Lower, Measured),
    layer("proto.wire_overhead_share", "ratio", Lower, Count),
    layer("proto.corrupt_dropped", "count", Lower, Count),
    layer("proto.duplicates_dropped", "count", Lower, Count),
    layer("faults.transitions", "count", Lower, Count),
    layer("faults.compile_us", "us", Lower, Measured),
    layer("replog.ops_appended_per_msg", "1/msg", Lower, Count),
    layer("replog.read_ns", "ns", Lower, Measured),
    layer("collectives.dag_build_ns_per_hop", "ns", Lower, Measured),
    layer("collectives.predict_ns_per_hop", "ns", Lower, Measured),
    layer("collectives.select_ns", "ns", Lower, Measured),
    layer("collectives.run_ns_per_hop", "ns", Lower, Measured),
    layer("collectives.hops_per_op", "count", Lower, Count),
    layer("collectives.runner_overhead_ratio", "ratio", Lower, Measured),
    layer("collectives.sim_us.barrier", SIM_US, Lower, Modeled),
    layer("collectives.sim_us.broadcast", SIM_US, Lower, Modeled),
    layer("collectives.sim_us.alltoall", SIM_US, Lower, Modeled),
    layer("collectives.predict_err.barrier", "ratio", Lower, Modeled),
    layer("collectives.predict_err.broadcast", "ratio", Lower, Modeled),
    layer("collectives.predict_err.alltoall", "ratio", Lower, Modeled),
    layer("collectives.repairs", "count", Lower, Count),
    layer("collectives.hops_retried", "count", Lower, Count),
    layer("collectives.hops_rerouted", "count", Lower, Count),
    layer("collectives.repair_latency_us", SIM_US, Lower, Modeled),
    layer("collectives.timeout_wait_share", "ratio", Lower, Modeled),
    layer("collectives.retry_queue_peak", "count", Lower, Count),
    layer("loadgen.late_us_max", SIM_US, Lower, Modeled),
    layer("loadgen.trace_overhead_share", "ratio", Lower, Measured),
    layer("loadgen.self_time_coverage", "ratio", Higher, Measured),
    layer("loadgen.wall_ns_per_msg_p50", "ns", Lower, Measured),
    layer("loadgen.blocks", "count", Higher, Measured),
    layer("loadgen.ops", "count", Higher, Count),
];

/// Looks a metric up in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// A reported value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// Everything one workload reported.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Ops attempted over every phase of the run.
    pub attempted: u64,
    /// Ops that reached no legal terminal state (see the README: a post that
    /// admission control refuses or sheds *is* in a legal terminal state and
    /// counts in `failed_share` instead).
    pub failed: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
    /// Named checks that are known not to hold at the seed commit, with what
    /// was seen: reported, counted by a metric, and not a failed run.
    pub known_failures: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report { workload, ..Report::default() }
    }

    /// Records a metric; recording one twice or off the catalogue is a bug
    /// in the benchmark, reported as a failed check.
    // nm-analyzer: allow(unbounded-growth) -- at most one entry per catalogue name, and one
    // error per misuse; a report lives for one workload
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        if def(name).is_none() {
            self.errors.push(format!("metric {name} is not in the catalogue"));
        } else if !value.is_finite() {
            self.errors.push(format!("metric {name} is not finite: {value}"));
        } else if self.metrics.insert(name, Value { value, samples }).is_some() {
            self.errors.push(format!("metric {name} reported twice"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|v| v.value)
    }

    /// Records a failed output check.
    // nm-analyzer: allow(unbounded-growth) -- one entry per failed check of a fixed list; any
    // entry fails the run
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records a check that is known to fail (see [`Report::known_failures`]).
    // nm-analyzer: allow(unbounded-growth) -- one entry per failing instance of a fixed list
    pub fn known_failure(&mut self, name: &'static str, what: String) {
        self.known_failures.push((name, what));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Escapes a string for JSON.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The driver's result line: `correct`, `attempted`, `failed` and the gated
/// (`trace == false`) or the remaining (`trace == true`) metrics, every
/// catalogue name present (0 where the workload has nothing to report).
pub fn contract_line(report: &Report, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    let wanted = END_TO_END.iter().chain(PER_LAYER).filter(|d| d.gated != trace);
    for (i, d) in wanted.enumerate() {
        let value = report.get(d.name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(d.name),
            json_str(d.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Facts about the run that every result file carries.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub cores_available: usize,
    pub git_describe: String,
    pub rustc: String,
}

/// The full result document (stdout and `target/perf/results.json`).
pub fn results_json(info: &RunInfo, reports: &[Report]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"perf\",");
    let _ = writeln!(out, "  \"seed\": {},", info.seed);
    let _ = writeln!(out, "  \"seconds_per_pass\": {},", info.seconds);
    let _ = writeln!(out, "  \"cores_available\": {},", info.cores_available);
    let _ = writeln!(out, "  \"git_describe\": {},", json_str(&info.git_describe));
    let _ = writeln!(out, "  \"rustc\": {},", json_str(&info.rustc));
    out.push_str("  \"workloads\": [\n");
    for (wi, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{\"name\": {},", json_str(r.workload));
        let _ = writeln!(
            out,
            "     \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            r.correct(),
            r.attempted,
            r.failed
        );
        let errors: Vec<String> = r.errors.iter().map(|e| json_str(e)).collect();
        let _ = writeln!(out, "     \"errors\": [{}],", errors.join(", "));
        let known: Vec<String> = r
            .known_failures
            .iter()
            .map(|(name, what)| {
                format!("{{\"check\": {}, \"seen\": {}}}", json_str(name), json_str(what))
            })
            .collect();
        let _ = writeln!(out, "     \"known_failures\": [{}],", known.join(", "));
        out.push_str("     \"metrics\": {\n");
        for (mi, (name, v)) in r.metrics.iter().enumerate() {
            let d = def(name).expect("Report::set admits catalogue names only");
            let bound = d.bound.map_or("null".to_string(), |b| b.to_string());
            let sep = if mi + 1 == r.metrics.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "       {}: {{\"value\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {bound}, \
                 \"provenance\": \"{}\", \"samples\": {}}}{sep}",
                json_str(name),
                v.value,
                json_str(d.unit),
                d.better.as_str(),
                d.provenance.as_str(),
                v.samples
            );
        }
        let sep = if wi + 1 == reports.len() { "" } else { "," };
        let _ = writeln!(out, "     }}\n    }}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints one workload's metrics, one per line, by name with unit,
/// provenance and sample count.
pub fn print_table(report: &Report, why: &str) {
    println!("## {}: {why}", report.workload);
    for (name, v) in &report.metrics {
        let d = def(name).expect("Report::set admits catalogue names only");
        println!(
            "{:<40} {:>18.6} {:<8} {:<9} n={}",
            name,
            v.value,
            d.unit,
            d.provenance.as_str(),
            v.samples
        );
    }
    for (name, what) in &report.known_failures {
        println!("KNOWN FAILURE [{name}]: {what}");
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            assert!(d.unit.chars().all(|c| ok(c) || "/%".contains(c)), "{}", d.unit);
            assert_eq!(d.bound.is_some(), END_TO_END.iter().any(|e| e.name == d.name));
        }
        assert!(END_TO_END.iter().filter(|d| d.gated).all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() + END_TO_END.iter().filter(|d| !d.gated).count() <= 128);
    }

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn the_contract_line_carries_every_name_of_its_half() {
        let mut r = Report::new("w");
        r.attempted = 10;
        r.set("setup_s", 0.125, 20);
        let line = contract_line(&r, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(line.contains("\"wall_ns_per_msg\": {\"value\": 0,"));
        assert!(!line.contains("loadgen.ops"));
        assert!(contract_line(&r, true).contains("\"loadgen.ops\""));
        r.set("setup_s", 1.0, 1);
        assert!(!r.correct(), "a metric reported twice fails the run");
    }
}
