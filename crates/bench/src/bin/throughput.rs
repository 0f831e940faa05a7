//! Sec. VII-C4 speed comparison: compression and decompression throughput
//! per compressor per dataset, at the evaluation's working bound.
//!
//! The paper's claim: CliZ has "very similar compression and decompression
//! time cost with SZ3 and ZFP … and is substantially faster than SPERR."
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin throughput [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz_bench::{datasets, Args, Report, ScaledDims};

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let mut report = Report::new(
        "throughput",
        "dataset,compressor,compress_mb_s,decompress_mb_s,ratio",
    );

    for kind in [
        DatasetKind::Ssh,
        DatasetKind::CesmT,
        DatasetKind::HurricaneT,
    ] {
        let dataset = datasets::scaled(kind, tier);
        let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), 1e-3);
        let mb = (dataset.data.len() * 4) as f64 / 1e6;
        println!(
            "\n=== {} {} ({mb:.1} MB, rel eb 1e-3)",
            kind.name(),
            dataset.data.shape()
        );
        println!(
            "{:<8} {:>14} {:>16} {:>9}",
            "comp", "compress MB/s", "decompress MB/s", "ratio"
        );
        for compressor in cliz::all_compressors_extended(None) {
            // Two timed repetitions, keep the faster (warm) one.
            let mut c_best = f64::INFINITY;
            let mut d_best = f64::INFINITY;
            let mut bytes = Vec::new();
            for _ in 0..2 {
                let t0 = std::time::Instant::now();
                bytes = compressor
                    .compress(&dataset.data, dataset.mask.as_ref(), bound)
                    .unwrap();
                c_best = c_best.min(t0.elapsed().as_secs_f64());
                let t0 = std::time::Instant::now();
                let _ = compressor
                    .decompress(&bytes, dataset.mask.as_ref())
                    .unwrap();
                d_best = d_best.min(t0.elapsed().as_secs_f64());
            }
            let ratio = (dataset.data.len() * 4) as f64 / bytes.len() as f64;
            println!(
                "{:<8} {:>14.1} {:>16.1} {:>9.2}",
                compressor.name(),
                mb / c_best,
                mb / d_best,
                ratio
            );
            report.row(&format!(
                "{},{},{},{},{ratio}",
                kind.name(),
                compressor.name(),
                mb / c_best,
                mb / d_best
            ));
        }
    }
    println!("\nCSV mirrored to target/experiments/throughput.csv");
}
