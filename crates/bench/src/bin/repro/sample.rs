//! `sample` — the sampling tool (NewMadeleine runs its equivalent at
//! library initialization and caches the results in per-driver files).
//!
//! Samples every rail of the paper testbed and writes one
//! `<rail>.nmad_sampling` file per rail into `DIR`:
//!
//! ```text
//! repro sample [DIR]        default nmad_sampling
//! ```

use crate::{Args, Output};
use nm_sampler::store::{sampling_path, save_all};
use nm_sampler::{sample_all_rails, Estimator, SamplingConfig, SimTransport};
use nm_sim::ClusterSpec;
use std::path::Path;

pub fn run(args: &Args) -> Output {
    let mut transport = SimTransport::new(ClusterSpec::paper_testbed());
    let config = SamplingConfig {
        min_size: 4,
        max_size: 8 << 20,
        iters: 5,
        warmup: 1,
        estimator: Estimator::Median,
        mode: None,
    };
    let profiles = sample_all_rails(&mut transport, &config).expect("sampling failed");
    save_all(&args.dir, &profiles).expect("write sampling files");
    // Each file is named without DIR, so the text does not depend on where
    // it was written.
    let mut out = String::new();
    for p in &profiles {
        let (lo, hi) = p.sampled_range();
        outln!(
            out,
            "{}: {} samples ({lo}..{hi} bytes), base latency {:.2}us, wrote {}",
            p.name(),
            p.samples().len(),
            p.predict_us(1),
            sampling_path(Path::new(""), p.name()).display()
        );
    }
    out.into()
}
