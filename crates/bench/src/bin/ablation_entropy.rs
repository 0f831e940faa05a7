//! Extension ablation: the encoding stage.
//!
//! CliZ's contribution at this stage is *multi*-Huffman (Sec. VI-E). This
//! harness measures what that choice costs or gains against the
//! alternatives on a real quantization-bin stream (produced by the actual
//! predictor on SSH): single Huffman (SZ3's stage), multi-Huffman with the
//! classification map, an order-0 range coder (entropy-optimal static
//! model), and each followed by the zlite byte-level pass, plus wall time —
//! the speed/ratio trade-off that justifies Huffman-family coding in the
//! paper's "comparable speed" claim.
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin ablation_entropy [--full|--quick]
//! ```

use cliz::data::DatasetKind;
use cliz::entropy::{huffman, multi_encode};
use cliz::predict::{predict_quantize, Fitting, InterpParams};
use cliz::quant::classify::{apply_shifts, classify, ClassifySpec};
use cliz::quant::LinearQuantizer;
use cliz_bench::range::range_encode_stream;
use cliz_bench::{datasets, Args, Report, ScaledDims};

fn main() {
    let args = Args::parse();
    let tier = ScaledDims::from_args(&args);
    let dataset = datasets::scaled(DatasetKind::Ssh, tier);
    let mask_slice = dataset.mask.as_ref().map(|m| m.as_slice());
    let mut report = Report::new("ablation_entropy", "stage,bytes,bits_per_symbol,encode_s");

    // Produce the real bin stream the encoder would see.
    let (mn, mx) = cliz::valid_min_max(&dataset.data, dataset.mask.as_ref());
    let eb = 1e-3 * (mx - mn) as f64;
    let q = LinearQuantizer::new(eb);
    let params = match mask_slice {
        Some(m) => InterpParams::with_mask(Fitting::Cubic, m),
        None => InterpParams::new(Fitting::Cubic),
    };
    let dims = dataset.data.shape().dims().to_vec();
    let mut buf = dataset.data.as_slice().to_vec();
    let mut symbols = vec![0u32; buf.len()];
    predict_quantize(&mut buf, &dims, &params, &q, &mut symbols);

    // Valid-position stream (what actually gets encoded).
    let valid: Vec<u32> = symbols
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask_slice.is_none_or(|m| m[i]))
        .map(|(_, &s)| s)
        .collect();
    let n = valid.len();
    println!("Entropy-stage ablation on the real SSH bin stream ({n} symbols, rel eb 1e-3)\n");
    println!(
        "{:<34} {:>10} {:>10} {:>10}",
        "stage", "bytes", "bits/sym", "encode_s"
    );

    let mut run = |name: &str, f: &dyn Fn() -> Vec<u8>| {
        let t0 = std::time::Instant::now();
        let bytes = f();
        let secs = t0.elapsed().as_secs_f64();
        let packed = cliz::lossless::compress(&bytes);
        for (label, len) in [
            (name.to_string(), bytes.len()),
            (format!("{name} + zlite"), packed.len()),
        ] {
            let bps = (len * 8) as f64 / n as f64;
            println!("{label:<34} {len:>10} {bps:>10.4} {secs:>10.3}");
            report.row(&format!("{label},{len},{bps},{secs}"));
        }
    };

    run("single Huffman (SZ3 stage)", &|| {
        huffman::encode_stream(&valid)
    });

    // Multi-Huffman with the real classification map.
    let h_len = dims[dims.len() - 2] * dims[dims.len() - 1];
    let class = classify(&symbols, h_len, mask_slice, ClassifySpec::default());
    let mut shifted = symbols.clone();
    apply_shifts(&mut shifted, &class, mask_slice);
    let shifted_valid: Vec<u32> = shifted
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask_slice.is_none_or(|m| m[i]))
        .map(|(_, &s)| s)
        .collect();
    let groups = class.group_sequence(shifted.len(), mask_slice);
    run("multi-Huffman (CliZ stage)", &|| {
        let mut out = multi_encode(&shifted_valid, &groups, 2);
        out.extend_from_slice(&class.marker_bytes());
        out
    });

    run("range coder (order-0)", &|| range_encode_stream(&valid));

    println!(
        "\nReading: multi-Huffman wins when the classification map finds real structure; \
         the range coder shows the remaining fractional-bit headroom; zlite recovers \
         byte-level redundancy for all three. Huffman decode is table-driven and \
         fastest — the trade the paper makes."
    );
    println!("CSV mirrored to target/experiments/ablation_entropy.csv");
}
