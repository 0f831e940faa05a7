//! Mask-map-aware prediction (paper Sec. VI-B) in action.
//!
//! Land-model and ocean-model variables carry huge fill values (≈9.97e36)
//! outside their domain. This example compresses the same SOILLIQ-like field
//! with the mask-blind SZ3 baseline, CliZ without its mask feature, and full
//! CliZ — and prints what the fill values cost each of them.
//!
//! ```sh
//! cargo run --release --example masked_ocean_field
//! ```

use cliz::prelude::*;

fn main() {
    // Soil moisture: ~60-70% of the globe is ocean and therefore fill.
    let field = cliz::data::soilliq(&[48, 8, 48, 72], 5);
    let original = field.data.len() * 4;
    println!(
        "dataset: {} {} — {:.0}% of points are fill values",
        field.kind.name(),
        field.data.shape(),
        field.invalid_fraction() * 100.0
    );

    // Resolve the relative tolerance on the *valid* range, so the mask-blind
    // baseline is held to the same fidelity target (a raw Rel bound would
    // let it treat the 1e36 fill values as signal and claim absurd ratios).
    let bound = cliz::rel_bound_on_valid(&field.data, field.mask.as_ref(), 1e-3);
    let ndim = field.data.shape().ndim();

    // 1. SZ3: mask-blind, must encode the fill cliffs.
    let sz3 = cliz::SzInterp;
    let b1 = sz3
        .compress(&field.data, field.mask.as_ref(), bound)
        .expect("sz3");

    // 2. CliZ with the mask feature disabled (ablation).
    let mut no_mask = PipelineConfig::default_for(ndim);
    no_mask.use_mask = false;
    let b2 = cliz::compress(&field.data, field.mask.as_ref(), bound, &no_mask).expect("cliz");

    // 3. Full CliZ: masked points are neither predicted from nor encoded.
    let with_mask = PipelineConfig::default_for(ndim);
    let b3 = cliz::compress(&field.data, field.mask.as_ref(), bound, &with_mask).expect("cliz");

    println!("\ncompression ratios at rel eb 1e-3:");
    println!(
        "  SZ3 (mask-blind)      {:8.2}x",
        original as f64 / b1.len() as f64
    );
    println!(
        "  CliZ, mask disabled   {:8.2}x",
        original as f64 / b2.len() as f64
    );
    println!(
        "  CliZ, mask-aware      {:8.2}x",
        original as f64 / b3.len() as f64
    );

    // Verify the reconstruction honours the bound on valid points and
    // restores the fill value on masked ones.
    let recon = cliz::decompress(&b3, field.mask.as_ref()).expect("decompress");
    let psnr = cliz::metrics::psnr(field.data.as_slice(), recon.as_slice(), field.mask.as_ref());
    let mask = field.mask.as_ref().unwrap();
    let fills_ok = (0..field.data.len())
        .filter(|&i| !mask.is_valid(i))
        .all(|i| recon.as_slice()[i] == cliz::data::FILL_VALUE);
    println!("\nmask-aware reconstruction: PSNR {psnr:.1} dB on valid points;");
    println!("fill values restored exactly: {fills_ok}");
}
