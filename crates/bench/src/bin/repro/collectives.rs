//! Collectives harness: completion vs node count, prediction vs execution.
//!
//! For every primitive (barrier, broadcast, all-to-all) and a small + large
//! block size, sweep the node count 2..32 on a homogeneous paper-rail
//! cluster and report, per algorithm variant:
//!
//! * the cost model's **predicted** makespan (what selection runs on), and
//! * the **measured** makespan of executing the hop DAG event-ordered over
//!   per-pair engines sharing one simulated cluster.
//!
//! The headline artifact is the **crossover point** per series: the node
//! count where the second variant (tree / ring) starts beating the first
//! (flat / pairwise). Prediction-driven selection is only trustworthy when
//! the predicted crossover matches the measured one.
//!
//! Provenance: both series come from the discrete-event simulator —
//! `"provenance": "modeled"` in the JSON. On real hardware the measured
//! series would flip to `"measured"`; the schema carries the distinction
//! from day one so downstream tooling never has to guess.
//!
//! Results go to stdout and `BENCH_collectives.json`.

use crate::doc::{floats, json};
use crate::{Args, Output, Table};
use nm_collectives::{cost, Algorithm, Collective, CollectiveCluster, ProfileBank, Selector};
use nm_model::builtin;
use nm_model::units::{format_size, KIB, MIB};
use nm_sim::ClusterSpec;

/// Node counts swept (the paper's testbed is the first point).
const NODE_COUNTS: [usize; 6] = [2, 4, 8, 16, 24, 32];

/// One (collective, block size) sweep: per-variant series over the counts.
struct Series {
    collective: Collective,
    bytes: u64,
    /// `[variant][node-count index]`, variants in `algorithms()` order.
    predicted_us: [Vec<f64>; 2],
    measured_us: [Vec<f64>; 2],
    /// Name of the variant the selector picks per node count.
    selected: Vec<&'static str>,
}

impl Series {
    /// Smallest swept node count where variant 1 beats variant 0, -1 when
    /// it never does.
    fn crossover(series: &[Vec<f64>; 2]) -> i64 {
        NODE_COUNTS
            .iter()
            .enumerate()
            .find(|&(i, _)| series[1][i] < series[0][i])
            .map_or(-1, |(_, &n)| n as i64)
    }
}

pub fn run(_: &Args) -> Output {
    // (collective, sizes): barrier tokens have one size; data-carrying
    // primitives get a latency-bound and a bandwidth-bound block.
    let plan: Vec<(Collective, Vec<u64>)> = vec![
        (Collective::Barrier, vec![nm_collectives::BARRIER_BYTES]),
        (Collective::Broadcast, vec![64 * KIB, 4 * MIB]),
        (Collective::AllToAll, vec![16 * KIB, 256 * KIB]),
    ];
    let mut series: Vec<Series> = plan
        .iter()
        .flat_map(|(coll, sizes)| {
            sizes.iter().map(|&bytes| Series {
                collective: *coll,
                bytes,
                predicted_us: [Vec::new(), Vec::new()],
                measured_us: [Vec::new(), Vec::new()],
                selected: Vec::new(),
            })
        })
        .collect();

    for &n in &NODE_COUNTS {
        let spec = ClusterSpec::homogeneous(n, 4, builtin::paper_testbed());
        // One bank per node count: homogeneous pairs share one sampled
        // profile set, so sampling happens once here.
        let mut bank = ProfileBank::new(spec.clone());
        let selector = Selector::new();
        for s in series.iter_mut() {
            let variants = s.collective.algorithms();
            let mut candidates: Vec<(Algorithm, f64)> = Vec::new();
            for (v, &algo) in variants.iter().enumerate() {
                let dag = algo.dag(n, s.bytes);
                let predicted = cost::predict_dag_us(&mut bank, &dag);
                s.predicted_us[v].push(predicted);
                candidates.push((algo, predicted));
                // Fresh cluster per run: each variant measured from a
                // quiet machine, like the paper's one-shot figures.
                let mut cluster = CollectiveCluster::new(spec.clone());
                let run = cluster.run(&mut bank, &dag).expect("collective run");
                s.measured_us[v].push(run.duration_us);
            }
            let (picked, _) = selector.choose(&candidates).expect("two candidates");
            s.selected.push(picked.name());
        }
    }

    let mut out = String::new();
    outln!(out, "# collectives: completion (us) vs node count, predicted | measured");
    outln!(out, "# provenance: modeled (both series from the discrete-event simulator)");
    let mut json_series = Vec::new();
    for s in &series {
        let variants = s.collective.algorithms();
        outln!(out, "\n## {} {}", s.collective.name(), format_size(s.bytes));
        let mut table = Table::new(&[
            "nodes",
            &format!("{} pred", variants[0].name()),
            &format!("{} meas", variants[0].name()),
            &format!("{} pred", variants[1].name()),
            &format!("{} meas", variants[1].name()),
            "selected",
        ]);
        for (i, &n) in NODE_COUNTS.iter().enumerate() {
            table.row(vec![
                n.to_string(),
                format!("{:.1}", s.predicted_us[0][i]),
                format!("{:.1}", s.measured_us[0][i]),
                format!("{:.1}", s.predicted_us[1][i]),
                format!("{:.1}", s.measured_us[1][i]),
                s.selected[i].to_string(),
            ]);
        }
        out.push_str(&table.render());

        let predicted_crossover_n = Series::crossover(&s.predicted_us);
        let measured_crossover_n = Series::crossover(&s.measured_us);
        let crossover_match = predicted_crossover_n == measured_crossover_n;
        outln!(
            out,
            "# crossover to {}: predicted n={predicted_crossover_n}, measured \
             n={measured_crossover_n}, match={crossover_match}",
            variants[1].name()
        );

        let variant = |v: usize| {
            json! {
                "algorithm": variants[v].name(),
                "predicted_us": floats(s.predicted_us[v].iter().copied(), 1),
                "measured_us": floats(s.measured_us[v].iter().copied(), 1),
            }
        };
        json_series.push(json! {
            "collective": s.collective.name(), "bytes": s.bytes,
            "variants": vec![variant(0), variant(1)], "selected": s.selected.clone(),
            "predicted_crossover_n": predicted_crossover_n,
            "measured_crossover_n": measured_crossover_n, "crossover_match": crossover_match,
        });
    }

    let matches = series
        .iter()
        .filter(|s| Series::crossover(&s.predicted_us) == Series::crossover(&s.measured_us))
        .count();
    outln!(
        out,
        "\n# {matches}/{} series have matching predicted/measured crossovers",
        series.len()
    );

    let doc = json! {
        "bench": "collectives", "provenance": "modeled", "node_counts": NODE_COUNTS.to_vec(),
        "crossover_matches": matches, "series": json_series,
    };
    Output { text: out, bench: Some(("BENCH_collectives.json", doc)) }
}
