//! `repro` — every table and figure of the paper's evaluation, and every
//! extension harness, as one subcommand each (see DESIGN.md §4):
//!
//! ```text
//! repro <artifact>... [--seed N]     default seed 42
//! repro sample [DIR]                 sampling files into DIR (default nmad_sampling)
//! repro check
//! ```
//!
//! An artifact prints its text on stdout and, for the `BENCH_*.json`
//! harnesses, writes its file into the working directory; a failed write
//! exits non-zero. `check` regenerates every deterministic artifact at seed
//! 42 in-process and compares it byte for byte with its golden
//! (`tests/golden/<name>.txt`) and its committed BENCH file, writing no
//! file of the repo. `scaling` and `table_offload` measure the host, so
//! `check` does not compare them.

// No unsafe anywhere in this binary; keep it that way.
#![forbid(unsafe_code)]

/// `println!` into an artifact's text instead of stdout.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($fmt:tt)*) => {{
        $out.push_str(&format!($($fmt)*));
        $out.push('\n');
    }};
}

mod ablation_msgrate;
mod ablation_offload;
mod ablation_pio;
mod ablation_ratio;
mod ablation_selection;
mod ablation_split;
mod cluster_resilience;
mod collectives;
mod doc;
mod fig3;
mod fig8;
mod fig9;
mod overload;
mod resilience;
mod sample;
mod scaling;
mod table_offload;
mod table_splits;

use doc::Doc;
use nm_core::driver::faulty::FaultSimDriver;
use nm_core::engine::Engine;
use nm_core::strategy::{Strategy, StrategyKind};
use nm_core::HealthConfig;
use nm_faults::FaultSchedule;
use nm_model::{Micros, SimTime};
use nm_sim::{ClusterSpec, RailId, SimEvent, Simulator, TransferId};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What an artifact runs with.
pub struct Args {
    /// Seed of the fault schedules (the harnesses without one ignore it).
    pub seed: u64,
    /// Where `sample` writes its sampling files.
    pub dir: PathBuf,
}

/// What an artifact produced: its text, and the BENCH file it writes.
pub struct Output {
    pub text: String,
    pub bench: Option<(&'static str, Doc)>,
}

impl From<String> for Output {
    fn from(text: String) -> Self {
        Output { text, bench: None }
    }
}

/// One row of the artifact table.
struct Artifact {
    name: &'static str,
    run: fn(&Args) -> Output,
    /// The golden `check` compares the text with; `None` for the
    /// host-measured artifacts.
    golden: Option<&'static str>,
}

const fn pinned(name: &'static str, run: fn(&Args) -> Output) -> Artifact {
    Artifact { name, run, golden: Some(name) }
}

const ARTIFACTS: [Artifact; 18] = [
    pinned("fig3", fig3::run),
    pinned("fig8", fig8::run),
    // The fault-free chaos path must be invisible: Fig 8 through the chaos
    // driver, with an empty schedule and fault tolerance on, is Fig 8.
    Artifact { name: "fig8_chaos", run: fig8::run_chaos, golden: Some("fig8") },
    pinned("fig9", fig9::run),
    pinned("table_splits", table_splits::run),
    Artifact { name: "table_offload", run: table_offload::run, golden: None },
    pinned("ablation_selection", ablation_selection::run),
    pinned("ablation_pio", ablation_pio::run),
    pinned("ablation_ratio", ablation_ratio::run),
    pinned("ablation_offload", ablation_offload::run),
    pinned("ablation_split", ablation_split::run),
    pinned("ablation_msgrate", ablation_msgrate::run),
    pinned("sample", sample::run),
    pinned("resilience", resilience::run),
    pinned("overload", overload::run),
    pinned("collectives", collectives::run),
    pinned("cluster_resilience", cluster_resilience::run),
    Artifact { name: "scaling", run: scaling::run, golden: None },
];

/// What the command line asks for: `None` is `check`.
type Request = Option<(Vec<&'static Artifact>, Args)>;

fn parse(argv: Vec<String>) -> Result<Request, String> {
    if argv == ["check"] {
        return Ok(None);
    }
    let mut artifacts: Vec<&'static Artifact> = Vec::new();
    let mut args = Args { seed: 42, dir: PathBuf::from("nmad_sampling") };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "check" => return Err("check takes no other argument".into()),
            "--seed" => {
                args.seed =
                    argv.next().and_then(|v| v.parse().ok()).ok_or("--seed takes an integer")?
            }
            name => match ARTIFACTS.iter().find(|a| a.name == name) {
                Some(a) => artifacts.push(a),
                None if artifacts.last().is_some_and(|a| a.name == "sample") => {
                    args.dir = PathBuf::from(name)
                }
                None => return Err(format!("unknown artifact: {name}")),
            },
        }
    }
    if artifacts.is_empty() {
        return Err("no artifact named".into());
    }
    Ok(Some((artifacts, args)))
}

/// Writes `text` to `path`; the error names the path.
fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Compares `got` with the file at `path`, naming the first line that
/// differs.
fn compare(path: &Path, got: &str) -> Result<(), String> {
    let want = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (g, w): (Vec<_>, Vec<_>) = (got.split('\n').collect(), want.split('\n').collect());
    let Some(i) = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)) else { return Ok(()) };
    let (g, w) = (g.get(i).unwrap_or(&"<end>"), w.get(i).unwrap_or(&"<end>"));
    Err(format!("{}:{}: regenerated {g:?}, committed {w:?}", path.display(), i + 1))
}

/// Regenerates every pinned artifact at seed 42 and compares it with its
/// committed bytes; `sample` writes into a fresh temporary directory.
fn check() -> Result<(), String> {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = crate_dir.ancestors().nth(2).expect("crates/bench sits two levels down");
    let dir = std::env::temp_dir().join(format!("repro-check-{}", std::process::id()));
    let args = Args { seed: 42, dir: dir.clone() };
    let result = ARTIFACTS.iter().try_for_each(|a| {
        let Some(golden) = a.golden else { return Ok(()) };
        let out = (a.run)(&args);
        compare(&crate_dir.join("tests/golden").join(format!("{golden}.txt")), &out.text)?;
        if let Some((file, doc)) = out.bench {
            compare(&repo.join(file), &doc.render())?;
        }
        println!("ok {}", a.name);
        Ok(())
    });
    let _ = fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let request = match parse(std::env::args().skip(1).collect()) {
        Ok(request) => request,
        Err(e) => {
            let names: Vec<_> = ARTIFACTS.iter().map(|a| a.name).collect();
            eprintln!("repro: {e}");
            eprintln!("usage: repro check | repro <artifact>... [--seed N] | repro sample [DIR]");
            eprintln!("artifacts: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let result = match request {
        None => check(),
        Some((artifacts, args)) => artifacts.into_iter().try_for_each(|a| {
            let out = (a.run)(&args);
            print!("{}", out.text);
            let Some((file, doc)) = out.bench else { return Ok(()) };
            write(Path::new(file), &doc.render())?;
            eprintln!("wrote {file}");
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A paper-testbed engine over the chaos driver, replaying `schedule` with
/// fault tolerance `cfg`.
fn chaos_paper_engine_kind(
    kind: StrategyKind,
    schedule: FaultSchedule,
    cfg: HealthConfig,
) -> Engine<FaultSimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_bench::sample_predictor(&spec);
    Engine::new(FaultSimDriver::new(spec, schedule), predictor, kind.build())
        .expect("engine")
        .with_fault_tolerance(cfg)
        .expect("health config")
}

/// Time for a batch of messages enqueued together to all complete. Batch
/// posting matters: the strategy sees the whole queue, so aggregation can
/// pack it.
fn batch_completion_us(strategy: Box<dyn Strategy>, sizes: &[u64]) -> Micros {
    let mut engine = nm_bench::paper_engine(strategy);
    engine.post_send_batch(sizes).expect("post batch");
    let done = engine.drain().expect("drain");
    Micros::new(done.iter().map(|c| c.delivered_at.as_micros_f64()).fold(0.0, f64::max))
}

/// The share of a `size`-byte message that `chunks` put on Myri-10G.
fn myri_share(chunks: &[(RailId, u64)], size: u64) -> f64 {
    chunks.iter().find(|&&(r, _)| r == RailId(0)).map_or(0.0, |&(_, b)| b as f64 / size as f64)
}

/// Runs `sim` dry and returns when each of `ids` was delivered, in order —
/// read off its `Delivered` event, since the simulator keeps nothing about
/// a transfer once it has delivered.
fn delivery_instants(sim: &mut Simulator, ids: &[TransferId]) -> Vec<SimTime> {
    let events = sim.run_until_idle();
    let delivered = |id| {
        events.iter().find_map(|e| match *e {
            SimEvent::Delivered { transfer, at, .. } if transfer == id => Some(at),
            _ => None,
        })
    };
    ids.iter().map(|&id| delivered(id).unwrap_or_else(|| panic!("{id} never delivered"))).collect()
}

/// An aligned text table: the header, a rule, then the rows.
pub struct Table {
    /// The header, then one entry per row.
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table { rows: vec![headers.iter().map(|s| s.to_string()).collect()] }
    }

    // nm-analyzer: allow(unbounded-growth) -- one row per bench configuration; tables are
    // rendered and dropped at the end of the run
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.rows[0].len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.rows[0].len())
            .map(|i| self.rows.iter().map(|row| row[i].len()).max().unwrap_or(0))
            .collect();
        let line = |row: &Vec<String>| {
            let cells: Vec<_> = row.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}")).collect();
            cells.join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)) + "\n";
        line(&self.rows[0]) + &rule + &self.rows[1..].iter().map(line).collect::<String>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn compare_names_the_file_and_first_differing_line() {
        let dir = scratch("compare");
        let golden = dir.join("golden.txt");
        fs::write(&golden, "a\nb\nc\n").expect("write golden");
        assert_eq!(compare(&golden, "a\nb\nc\n"), Ok(()));
        let err = compare(&golden, "a\nB\nc\n").expect_err("one changed byte");
        assert!(err.starts_with(&format!("{}:2:", golden.display())), "{err}");
        let err = compare(&golden, "a\nb\nc").expect_err("a missing newline");
        assert!(err.starts_with(&format!("{}:4:", golden.display())), "{err}");
        let missing = dir.join("missing.txt");
        let err = compare(&missing, "a\n").expect_err("no such file");
        assert!(err.starts_with(&missing.display().to_string()), "{err}");
        fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn writing_over_a_directory_is_an_error() {
        let dir = scratch("write");
        let err = write(&dir, "{}\n").expect_err("a directory is not a file");
        assert!(err.contains(&dir.display().to_string()), "{err}");
        fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["size", "MB/s"]);
        t.row(vec!["32K".into(), "612.1".into()]);
        t.row(vec!["8M".into(), "1987.0".into()]);
        let s = t.render();
        assert!(s.contains("size"));
        assert!(s.lines().count() == 4);
    }
}
