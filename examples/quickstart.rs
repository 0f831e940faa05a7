//! Quickstart: compress one climate field with CliZ, check quality, done.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cliz::prelude::*;

fn main() {
    // A synthetic sea-surface-height field: 96×80 grid, 120 monthly
    // snapshots, with a land mask and an annual cycle — the same structure
    // as the paper's SSH dataset (scaled down).
    let field = cliz::data::ssh(&[96, 80, 120], 2024);
    println!(
        "dataset: {} {} ({:.0}% masked)",
        field.kind.name(),
        field.data.shape(),
        field.invalid_fraction() * 100.0
    );

    // Compress with a 1e-3 value-range-relative error bound (resolved
    // against the valid — unmasked — value range).
    let bound = cliz::rel_bound_on_valid(&field.data, field.mask.as_ref(), 1e-3);
    let config = PipelineConfig::default_for(field.data.shape().ndim());
    let t0 = std::time::Instant::now();
    let bytes = cliz::compress(&field.data, field.mask.as_ref(), bound, &config)
        .expect("compression failed");
    let c_time = t0.elapsed();

    let original = field.data.len() * std::mem::size_of::<f32>();
    println!(
        "compressed {} -> {} bytes  (ratio {:.1}x, bit-rate {:.3} bits/value) in {:.2?}",
        original,
        bytes.len(),
        original as f64 / bytes.len() as f64,
        bytes.len() as f64 * 8.0 / field.data.len() as f64,
        c_time,
    );

    // Decompress and verify quality.
    let t0 = std::time::Instant::now();
    let recon = cliz::decompress(&bytes, field.mask.as_ref()).expect("decompression failed");
    let d_time = t0.elapsed();

    let psnr = cliz::metrics::psnr(field.data.as_slice(), recon.as_slice(), field.mask.as_ref());
    let max_err =
        cliz::metrics::max_abs_error(field.data.as_slice(), recon.as_slice(), field.mask.as_ref());
    println!("decompressed in {d_time:.2?}: PSNR {psnr:.1} dB, max error {max_err:.2e}");

    // The error-bound contract, demonstrated.
    let ErrorBound::Abs(eb_abs) = bound else {
        unreachable!()
    };
    assert!(max_err <= eb_abs, "error bound violated!");
    println!("error bound {eb_abs:.2e} holds on every valid point ✓");
}
