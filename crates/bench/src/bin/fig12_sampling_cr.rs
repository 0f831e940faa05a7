//! Fig. 12: estimated compression ratio of every candidate pipeline across
//! sampling rates (SSH), with pipelines ordered by their full-data (rate=1)
//! estimate — the ordering stability this figure demonstrates is what makes
//! low-rate tuning safe.
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin fig12_sampling_cr [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::prelude::*;
use cliz_bench::{datasets, Args, Report, ScaledDims};
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::Ssh, tier);
    let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), 1e-3);
    let rates = [1.0, 0.1, 0.01, 1e-3];
    let mut report = Report::new("fig12_sampling_cr", "pipeline,rank_at_full,rate,est_ratio");

    // Estimates per pipeline (keyed by description) per rate.
    let mut per_rate: Vec<HashMap<String, f64>> = Vec::new();
    for &rate in &rates {
        let result = cliz::autotune(
            &dataset.data,
            dataset.mask.as_ref(),
            TuneSpec {
                sampling_rate: rate,
                time_axis: dataset.time_axis,
                bound,
            },
        )
        .expect("autotune");
        per_rate.push(
            result
                .ranking
                .iter()
                .map(|c| (c.config.describe(), c.est_ratio))
                .collect(),
        );
    }

    // Order pipelines by the rate=1 ("precise") estimate.
    let mut order: Vec<(String, f64)> = per_rate[0].iter().map(|(k, &v)| (k.clone(), v)).collect();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!(
        "Fig. 12 — estimated CR per pipeline across sampling rates ({} {}, {} pipelines)\n",
        dataset.kind.name(),
        dataset.data.shape(),
        order.len()
    );
    println!(
        "{:<66} {:>8} {:>8} {:>8} {:>8}",
        "pipeline (sorted by rate=1 estimate)", "100%", "10%", "1%", "0.1%"
    );
    for (rank, (desc, _)) in order.iter().enumerate() {
        let cells: Vec<String> = per_rate
            .iter()
            .map(|m| m.get(desc).map_or("-".into(), |v| format!("{v:.2}")))
            .collect();
        if rank < 12 || rank >= order.len() - 3 {
            println!(
                "{:<66} {:>8} {:>8} {:>8} {:>8}",
                desc, cells[0], cells[1], cells[2], cells[3]
            );
        } else if rank == 12 {
            println!("  ... ({} more pipelines, see CSV) ...", order.len() - 15);
        }
        for (ri, &rate) in rates.iter().enumerate() {
            if let Some(v) = per_rate[ri].get(desc) {
                report.row(&format!("{desc},{rank},{rate:e},{v}"));
            }
        }
    }

    // Ordering stability: the rate=1 winner must stay near the top at 1%.
    let winner = &order[0].0;
    let mut at_1pct: Vec<(String, f64)> =
        per_rate[2].iter().map(|(k, &v)| (k.clone(), v)).collect();
    at_1pct.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let pos = at_1pct
        .iter()
        .position(|(k, _)| k == winner)
        .unwrap_or(usize::MAX);
    println!(
        "\nfull-data winner ranks #{} of {} under 1% sampling (paper: near-stable ordering)",
        pos + 1,
        at_1pct.len()
    );
    println!("CSV mirrored to target/experiments/fig12_sampling_cr.csv");
}
