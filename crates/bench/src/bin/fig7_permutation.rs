//! Fig. 7: bit-rates of every dimension permutation × fusion case on the
//! global atmosphere temperature dataset (CESM-T).
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin fig7_permutation [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::grid::{FusionSpec, Shape};
use cliz::prelude::*;
use cliz_bench::{datasets, Args, Report, ScaledDims};

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::CesmT, tier);
    let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), 1e-3);
    let original = dataset.data.len() * 4;
    let mut report = Report::new("fig7_permutation", "permutation,fusion,bit_rate,ratio");

    println!(
        "Fig. 7 — bit-rate per permutation × fusion on {} {} (rel eb 1e-3)\n",
        dataset.kind.name(),
        dataset.data.shape()
    );
    println!(
        "{:<6} {:<8} {:>9} {:>8}",
        "perm", "fusion", "bitrate", "ratio"
    );

    let mut best: Option<(f64, String)> = None;
    let mut worst: Option<(f64, String)> = None;
    for perm in Shape::all_permutations(3) {
        for fusion in FusionSpec::candidates(3) {
            let config = PipelineConfig {
                permutation: perm.clone(),
                fusion,
                ..PipelineConfig::default_for(3)
            };
            let bytes =
                cliz::compress(&dataset.data, dataset.mask.as_ref(), bound, &config).unwrap();
            let bit_rate = bytes.len() as f64 * 8.0 / dataset.data.len() as f64;
            let label = format!("{} {}", config.permutation_label(), fusion.label());
            println!(
                "{:<6} {:<8} {:>9.4} {:>8.2}",
                config.permutation_label(),
                fusion.label(),
                bit_rate,
                original as f64 / bytes.len() as f64
            );
            report.row(&format!(
                "{},{},{},{}",
                config.permutation_label(),
                fusion.label(),
                bit_rate,
                original as f64 / bytes.len() as f64
            ));
            if best.as_ref().is_none_or(|(b, _)| bit_rate < *b) {
                best = Some((bit_rate, label.clone()));
            }
            if worst.as_ref().is_none_or(|(w, _)| bit_rate > *w) {
                worst = Some((bit_rate, label));
            }
        }
    }
    let (bb, bl) = best.unwrap();
    let (wb, wl) = worst.unwrap();
    println!(
        "\nbest case: {bl} at {bb:.4} bits/value; worst: {wl} at {wb:.4} \
         ({:.1}% spread — the diversity Fig. 7 visualizes)",
        (wb / bb - 1.0) * 100.0
    );
    println!("CSV mirrored to target/experiments/fig7_permutation.csv");
}
