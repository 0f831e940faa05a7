//! Beyond PSNR: Z-checker-style error diagnostics.
//!
//! Poppick et al. (cited in the paper's related work) showed that pointwise
//! metrics can hide structured compression artifacts. This example compresses
//! the same field with CliZ and ZFP at a matched bound and compares their
//! *error distributions*: histogram shape, bias, spatial autocorrelation, and
//! Pearson correlation.
//!
//! ```sh
//! cargo run --release --example error_analysis
//! ```

use cliz::metrics::analyze_errors;
use cliz::prelude::*;

fn main() {
    let field = cliz::data::tsfc(&[64, 48, 96], 99);
    let bound = cliz::rel_bound_on_valid(&field.data, field.mask.as_ref(), 1e-2);
    println!(
        "dataset: {} {} at rel eb 1e-2\n",
        field.kind.name(),
        field.data.shape()
    );

    for compressor in [&Cliz::new() as &dyn Compressor, &Zfp] {
        let bytes = compressor
            .compress(&field.data, field.mask.as_ref(), bound)
            .unwrap();
        let recon = compressor.decompress(&bytes, field.mask.as_ref()).unwrap();
        let a = analyze_errors(
            field.data.as_slice(),
            recon.as_slice(),
            field.mask.as_ref(),
            15,
            6,
        );
        println!("=== {} ({} bytes)", compressor.name(), bytes.len());
        println!("  pearson:        {:.8}", a.pearson);
        println!("  error bias:     {:+.3e}", a.mean_error);
        println!("  max |error|:    {:.3e}", a.max_abs);
        println!(
            "  autocorr 1..6:  {}",
            a.autocorrelation
                .iter()
                .map(|v| format!("{v:+.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let peak = a.histogram.iter().copied().max().unwrap_or(1).max(1);
        println!("  error histogram:");
        for (b, &count) in a.histogram.iter().enumerate() {
            let lo = -a.max_abs + b as f64 * a.bucket_width;
            println!("    {lo:+.2e} {}", "#".repeat(count * 50 / peak));
        }
        println!();
    }
    println!(
        "Reading: a healthy linear quantizer (CliZ/SZ-family) produces a near-uniform, \
         unbiased, uncorrelated error; transform codecs concentrate error differently, \
         which is what multi-scale climate evaluations look for."
    );
}
