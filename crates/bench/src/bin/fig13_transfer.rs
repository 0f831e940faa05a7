//! Fig. 13: compression + Globus-style WAN transfer time for CliZ, SZ3 and
//! ZFP at matched PSNR, across 256 / 512 / 1024 simulated cores (one file
//! per core).
//!
//! Per-file compression time and compressed size are measured for real on a
//! set of distinct ensemble members, then replicated across the core count
//! (DESIGN.md documents this substitution for the Bebop→Anvil testbed).
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin fig13_transfer [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::prelude::*;
use cliz::transfer::{schedule_lpt, WanLink};
use cliz_bench::{datasets, Args, Report, ScaledDims};

/// Finds a relative eb giving roughly the target PSNR for this compressor
/// (bisection over log10(eb)).
fn match_psnr(
    compressor: &dyn Compressor,
    dataset: &cliz::data::ClimateDataset,
    target_db: f64,
) -> f64 {
    let mut lo = 1e-7f64; // tight -> high PSNR
    let mut hi = 1e-1f64; // loose -> low PSNR
    for _ in 0..12 {
        let mid = (lo * hi).sqrt(); // geometric midpoint in eb space
        let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), mid);
        let bytes = compressor
            .compress(&dataset.data, dataset.mask.as_ref(), bound)
            .unwrap();
        let recon = compressor
            .decompress(&bytes, dataset.mask.as_ref())
            .unwrap();
        let psnr = cliz::metrics::psnr(
            dataset.data.as_slice(),
            recon.as_slice(),
            dataset.mask.as_ref(),
        );
        if psnr > target_db {
            lo = mid; // can afford a looser bound
        } else {
            hi = mid;
        }
        if (psnr - target_db).abs() < 1.5 {
            return mid;
        }
    }
    lo
}

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let target_db = 90.0; // matched-PSNR point (paper used ~117 dB on its data)
    let distinct_files = 8usize;
    let core_counts = [256usize, 512, 1024];
    let link = WanLink::bebop_to_anvil();
    let mut report = Report::new(
        "fig13_transfer",
        "compressor,cores,files,psnr_db,compress_s,transfer_s,total_s,shipped_bytes",
    );

    // Distinct ensemble members; per-core files cycle through them.
    let base = datasets::scaled(DatasetKind::Ssh, tier);
    let dims: Vec<usize> = base.data.shape().dims().to_vec();
    let members: Vec<_> = (0..distinct_files)
        .map(|i| cliz::data::ssh(&[dims[0], dims[1], dims[2]], 9000 + i as u64))
        .collect();
    let original = members[0].data.len() * 4;

    // CliZ runs with the climate model's shared tuned configuration
    // (Sec. VII-C4: "datasets with shared configuration files").
    let tuned = cliz::autotune(
        &members[0].data,
        members[0].mask.as_ref(),
        TuneSpec {
            sampling_rate: 0.01,
            time_axis: members[0].time_axis,
            bound: cliz::rel_bound_on_valid(&members[0].data, members[0].mask.as_ref(), 1e-3),
        },
    )
    .expect("autotune")
    .best;

    println!(
        "Fig. 13 — compression + WAN transfer at matched PSNR ≈ {target_db} dB \
         ({} files of {} bytes per core count; link {:.1} Gb/s)\n",
        distinct_files,
        original,
        link.bandwidth_bps * 8.0 / 1e9
    );
    println!(
        "{:<8} {:>6} {:>9} {:>11} {:>11} {:>10} {:>14}",
        "comp", "cores", "PSNR", "compress_s", "transfer_s", "total_s", "shipped_MB"
    );

    let cliz_tuned = Cliz::tuned(tuned);
    for compressor in [&cliz_tuned as &dyn Compressor, &SzInterp, &Zfp] {
        // Tune eb to the PSNR target on the first member.
        let rel = match_psnr(compressor, &members[0], target_db);

        // Measure each distinct member once.
        let mut times = Vec::with_capacity(distinct_files);
        let mut sizes = Vec::with_capacity(distinct_files);
        let mut psnr_sum = 0.0;
        for m in &members {
            let bound = cliz::rel_bound_on_valid(&m.data, m.mask.as_ref(), rel);
            let t0 = std::time::Instant::now();
            let bytes = compressor
                .compress(&m.data, m.mask.as_ref(), bound)
                .unwrap();
            times.push(t0.elapsed().as_secs_f64());
            let recon = compressor.decompress(&bytes, m.mask.as_ref()).unwrap();
            psnr_sum += cliz::metrics::psnr(m.data.as_slice(), recon.as_slice(), m.mask.as_ref());
            sizes.push(bytes.len() as u64);
        }
        let psnr = psnr_sum / distinct_files as f64;

        for &cores in &core_counts {
            // One file per core, cycling through measured members.
            let file_times: Vec<f64> = (0..cores).map(|i| times[i % distinct_files]).collect();
            let file_sizes: Vec<u64> = (0..cores).map(|i| sizes[i % distinct_files]).collect();
            let compress_s = schedule_lpt(&file_times, cores);
            let transfer = link.transfer(&file_sizes);
            let total = compress_s + transfer.seconds;
            println!(
                "{:<8} {:>6} {:>8.1} {:>11.3} {:>11.3} {:>10.3} {:>14.2}",
                compressor.name(),
                cores,
                psnr,
                compress_s,
                transfer.seconds,
                total,
                transfer.total_bytes as f64 / 1e6
            );
            report.row(&format!(
                "{},{cores},{cores},{psnr},{compress_s},{},{total},{}",
                compressor.name(),
                transfer.seconds,
                transfer.total_bytes
            ));
        }
    }
    println!(
        "\nExpected shape (paper Fig. 13): similar compression times, but CliZ's higher \
         ratio shrinks the transfer leg — total cost drops ~32-38% vs SZ3/ZFP."
    );
    println!("CSV mirrored to target/experiments/fig13_transfer.csv");
}
