//! Fig. 9: a horizontal SSH slice before and after periodic-component
//! removal — the residual is far smoother, which is why the split pays.
//!
//! Writes PGM images of both slices and prints smoothness statistics.
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin fig9_residual [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::grid::{dimension_smoothness, MaskMap};
use cliz::metrics::write_pgm;
use cliz_bench::{datasets, Args, Report, ScaledDims};
use std::path::Path;

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::Ssh, tier);
    let time_axis = dataset.time_axis.unwrap();
    let period = dataset.nominal_period.unwrap();
    let mask = dataset.mask.clone().expect("SSH is masked");
    let mut report = Report::new("fig9_residual", "field,axis,mean_abs_diff,max_abs_diff");

    // Template + residual, exactly as the compressor does it.
    let template = cliz::periodic::build_template(&dataset.data, Some(&mask), time_axis, period);
    let residual =
        cliz::periodic::subtract_template(&dataset.data, &template, Some(&mask), time_axis);

    // Smoothness along the two spatial axes (0 = lat, 1 = lon), valid only.
    println!(
        "Fig. 9 — spatial smoothness before/after periodic-component removal ({} {})\n",
        dataset.kind.name(),
        dataset.data.shape()
    );
    println!(
        "{:<10} {:>6} {:>14} {:>14}",
        "field", "axis", "mean|Δ|", "max|Δ|"
    );
    for (label, grid) in [("original", &dataset.data), ("residual", &residual)] {
        let s = dimension_smoothness(grid, &mask);
        for (axis, sa) in s.iter().enumerate().take(2) {
            println!(
                "{:<10} {:>6} {:>14.6} {:>14.6}",
                label, axis, sa.mean_abs_diff, sa.max_abs_diff
            );
            report.row(&format!(
                "{label},{axis},{},{}",
                sa.mean_abs_diff, sa.max_abs_diff
            ));
        }
    }

    // Dump mid-time slices as PGM for eyeballing (Fig. 9's panels).
    let t_mid = dataset.data.shape().dim(time_axis) / 2;
    let fixed = vec![0, 0, t_mid];
    let orig_slice = dataset.data.slice2d(0, 1, &fixed);
    let res_slice = residual.slice2d(0, 1, &fixed);
    let mask_grid =
        cliz::grid::Grid::from_vec(dataset.data.shape().clone(), mask.as_slice().to_vec());
    let slice_mask = MaskMap::from_flags(
        orig_slice.shape().clone(),
        mask_grid.slice2d(0, 1, &fixed).into_vec(),
    );
    let dir = Path::new("target/experiments");
    write_pgm(
        &dir.join("fig9_original_slice.pgm"),
        &orig_slice,
        Some(&slice_mask),
    )
    .unwrap();
    write_pgm(
        &dir.join("fig9_residual_slice.pgm"),
        &res_slice,
        Some(&slice_mask),
    )
    .unwrap();
    println!("\nslices written to target/experiments/fig9_{{original,residual}}_slice.pgm");

    // Residual variance must collapse relative to the original's seasonal swing.
    let var = |g: &cliz::grid::Grid<f32>| {
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        let mut n = 0usize;
        for (i, &v) in g.as_slice().iter().enumerate() {
            if mask.is_valid(i) {
                sum += v as f64;
                sq += (v as f64) * (v as f64);
                n += 1;
            }
        }
        sq / n as f64 - (sum / n as f64).powi(2)
    };
    let vo = var(&dataset.data);
    let vr = var(&residual);
    println!(
        "valid-point variance: original {vo:.5}, residual {vr:.5} ({:.1}x reduction)",
        vo / vr
    );
}
