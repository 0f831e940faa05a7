//! Fig. 11: auto-tuning (sampling + candidate testing) time versus sampling
//! rate, on SSH (periodic, 192 pipelines) and CESM-T (aperiodic, 96).
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin fig11_sampling_time [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::prelude::*;
use cliz_bench::{datasets, Args, Report, ScaledDims};

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let rates = [1.0, 0.1, 0.01, 1e-3, 1e-4];
    let mut report = Report::new(
        "fig11_sampling_time",
        "dataset,sampling_rate,pipelines,sample_points,tuning_s,full_compress_s",
    );

    for kind in [DatasetKind::Ssh, DatasetKind::CesmT] {
        let dataset = datasets::scaled(kind, tier);
        let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), 1e-3);
        println!(
            "\n=== {} {} ({} candidate pipelines expected)",
            kind.name(),
            dataset.data.shape(),
            if dataset.nominal_period.is_some() {
                192
            } else {
                96
            }
        );
        println!(
            "{:>10} {:>10} {:>12} {:>10} {:>14}",
            "rate", "pipelines", "samplepoints", "tuning_s", "full_comp_s"
        );
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

            // Compression of the full data under the estimated-best pipeline.
            let t0 = std::time::Instant::now();
            let _ =
                cliz::compress(&dataset.data, dataset.mask.as_ref(), bound, &result.best).unwrap();
            let full_s = t0.elapsed().as_secs_f64();

            println!(
                "{:>10.0e} {:>10} {:>12} {:>10.3} {:>14.3}",
                rate,
                result.ranking.len(),
                result.sample_points,
                result.seconds,
                full_s
            );
            report.row(&format!(
                "{},{:e},{},{},{},{}",
                kind.name(),
                rate,
                result.ranking.len(),
                result.sample_points,
                result.seconds,
                full_s
            ));
        }
    }
    println!(
        "\nExpected shape (paper Fig. 11): tuning time ~linear in sampling rate, with a \
         constant floor from FFT period detection; SSH carries 2x the pipelines of CESM-T."
    );
    println!("CSV mirrored to target/experiments/fig11_sampling_time.csv");
}
