//! Fig. 14: visual quality at a matched compression ratio (≈25x) — PGM dumps
//! of an SSH slice reconstructed by CliZ, SZ3, and QoZ, plus per-slice
//! PSNR/SSIM so the eyeball comparison has numbers attached.
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin fig14_visual [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::grid::MaskMap;
use cliz::metrics::{write_pgm, SsimSpec};
use cliz::prelude::*;
use cliz_bench::{datasets, Args, Report, ScaledDims};
use std::path::Path;

/// Bisects the relative eb until the compression ratio is ≈ `target`.
fn match_ratio(
    compressor: &dyn Compressor,
    dataset: &cliz::data::ClimateDataset,
    target: f64,
) -> (f64, Vec<u8>) {
    let original = (dataset.data.len() * 4) as f64;
    let mut lo = 1e-7f64;
    let mut hi = 0.3f64;
    let mut best = (1e-3, Vec::new());
    for _ in 0..14 {
        let mid = (lo * hi).sqrt();
        let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), mid);
        let bytes = compressor
            .compress(&dataset.data, dataset.mask.as_ref(), bound)
            .unwrap();
        let ratio = original / bytes.len() as f64;
        best = (mid, bytes);
        if (ratio - target).abs() / target < 0.05 {
            break;
        }
        if ratio > target {
            hi = mid; // too compressed: tighten the bound
        } else {
            lo = mid;
        }
    }
    best
}

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::Ssh, tier);
    let target_ratio = 25.0; // the paper's Fig. 14 operating point
    let dir = Path::new("target/experiments");
    let mut report = Report::new(
        "fig14_visual",
        "compressor,rel_eb,ratio,slice_psnr_db,slice_ssim",
    );

    // The slice everyone gets judged on: mid-time horizontal plane.
    let time_axis = dataset.time_axis.unwrap();
    let t_mid = dataset.data.shape().dim(time_axis) / 2;
    let fixed = vec![0, 0, t_mid];
    let mask = dataset.mask.clone().unwrap();
    let mask_grid =
        cliz::grid::Grid::from_vec(dataset.data.shape().clone(), mask.as_slice().to_vec());
    let slice_mask = MaskMap::from_flags(
        cliz::grid::Shape::new(&[dataset.data.shape().dim(0), dataset.data.shape().dim(1)]),
        mask_grid.slice2d(0, 1, &fixed).into_vec(),
    );
    let orig_slice = dataset.data.slice2d(0, 1, &fixed);
    write_pgm(
        &dir.join("fig14_original.pgm"),
        &orig_slice,
        Some(&slice_mask),
    )
    .unwrap();

    println!(
        "Fig. 14 — visual quality at matched ratio ≈ {target_ratio}x ({} {})\n",
        dataset.kind.name(),
        dataset.data.shape()
    );
    println!(
        "{:<8} {:>9} {:>8} {:>12} {:>12}  image",
        "comp", "rel_eb", "ratio", "slice PSNR", "slice SSIM"
    );

    for compressor in [&Cliz::new() as &dyn Compressor, &SzInterp, &Qoz] {
        let (rel, bytes) = match_ratio(compressor, &dataset, target_ratio);
        let ratio = (dataset.data.len() * 4) as f64 / bytes.len() as f64;
        let recon = compressor
            .decompress(&bytes, dataset.mask.as_ref())
            .unwrap();
        let recon_slice = recon.slice2d(0, 1, &fixed);
        let psnr = cliz::metrics::psnr(
            orig_slice.as_slice(),
            recon_slice.as_slice(),
            Some(&slice_mask),
        );
        let ssim = cliz::metrics::ssim(
            &orig_slice,
            &recon_slice,
            Some(&slice_mask),
            SsimSpec::default(),
        );
        let path = dir.join(format!("fig14_{}.pgm", compressor.name().to_lowercase()));
        write_pgm(&path, &recon_slice, Some(&slice_mask)).unwrap();
        println!(
            "{:<8} {:>9.1e} {:>8.2} {:>11.2}dB {:>12.5}  {}",
            compressor.name(),
            rel,
            ratio,
            psnr,
            ssim,
            path.display()
        );
        report.row(&format!(
            "{},{rel:e},{ratio},{psnr},{ssim}",
            compressor.name()
        ));
    }
    println!(
        "\nExpected shape (paper Fig. 14): at the same ratio CliZ's slice stays closest to \
         the original (highest PSNR/SSIM); SZ3 and QoZ show visible distortion."
    );
    println!("original written to target/experiments/fig14_original.pgm");
}
