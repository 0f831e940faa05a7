//! Per-stage kernel benchmark with built-in byte-identity gates.
//!
//! Measures each pipeline stage in isolation, and — for the stages that
//! were rewritten for throughput (entropy coding, zlite, the store CRC, the
//! prediction walk) — diffs the new kernels against the frozen pre-rewrite
//! references (`cliz::entropy::reference`, `cliz::lossless::reference`,
//! `cliz::store::checksum::ref_crc32`, `cliz::predict::ref_predict_quantize`,
//! `cliz::predict::ref_reconstruct`) on every run:
//!
//! 1. **entropy encode/decode** — canonical-Huffman stream coding. The new
//!    word-at-a-time writer must produce byte-identical streams, the packed
//!    multi-symbol decoder must reproduce the symbols exactly, and (in the
//!    scaled/full tiers) decode must run ≥ 3× faster than the reference;
//! 2. **lossless compress/decompress** — the zlite container. Compressed
//!    bytes and roundtrip output are diffed against the reference, and the
//!    identity-pinned bucket-ring compressor must beat the reference by the
//!    encode gate. A `zlite_compress_coded` stage runs the
//!    adaptive [`compress`] on the entropy stages' Huffman-coded stream,
//!    where it skips the match finder: it must roundtrip through both
//!    decoders, and its speedup over the reference is reported, not gated;
//! 3. **store crc32** — the chunk store's checksum. Slice-by-8 must give the
//!    frozen byte-wise loop's value (`cliz::store::checksum::ref_crc32`) on
//!    a zlite-packed buffer, the bytes a store checksums; the speedup is
//!    reported, not gated;
//! 4. **quant classify/shift** — per-position classification and the
//!    shift/unshift transforms (unshift must invert shift exactly);
//! 5. **predict quantize/reconstruct** — the interpolation walk. The
//!    run-kernel encode walk is diffed against the frozen reference
//!    (escape count, symbol grid, and reconstruction bits) and gated on
//!    speedup; the decoder's reconstruction must equal the encoder's
//!    in-place buffer and the frozen decoder's output bit-for-bit, and is
//!    gated on speedup too. The `_masked` pair repeats both on the same
//!    field with a land mask (the stretch-driven masked walk), with the
//!    same identity gates and speedup gates of their own.
//!
//! Every pair with a reference is timed *interleaved* (new/reference
//! alternating inside one loop) so clock drift and host noise land on both
//! sides of each rep's ratio alike, and a speedup is the median of the
//! per-rep ratios, so no single fast or slow window decides it.
//!
//! Any divergence (or a missed speedup gate) exits non-zero — CI runs
//! `--quick` as a smoke test of the identity gates.
//!
//! ```sh
//! cargo run -p cliz-bench --release --bin stage_bench [--quick|--full]
//! # writes BENCH_stages.json into the current directory
//! ```
//!
//! See docs/PERFORMANCE.md ("Decode kernel architecture" and "Encode kernel
//! architecture") for how the rewritten kernels earn the speedups recorded
//! here, and for why each gate sits at its level.

use cliz::entropy::huffman::{decode_stream, encode_stream};
use cliz::entropy::reference::{ref_decode_stream, ref_encode_stream};
use cliz::lossless::reference::{ref_compress, ref_decompress};
use cliz::lossless::{compress, decompress};
use cliz::predict::{
    predict_quantize, reconstruct, ref_predict_quantize, ref_reconstruct, Fitting, InterpParams,
};
use cliz::quant::classify::{apply_shifts, unapply_shifts};
use cliz::quant::{classify, ClassifySpec, LinearQuantizer, ESCAPE};
use cliz::store::checksum::{crc32, ref_crc32};
use cliz_bench::Args;
use std::hint::black_box;
use std::time::Instant;

/// The median of `v` (the upper one of an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Median wall time of `f` over `reps` runs, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// An interleaved (new, reference) timing: each side's median time, in
/// seconds, and the median over reps of the rep's reference/new ratio.
struct Pair {
    new_s: f64,
    ref_s: f64,
    speedup: f64,
}

impl Pair {
    /// Summarizes per-rep (new, reference) times.
    fn of(reps: Vec<(f64, f64)>) -> Self {
        Pair {
            new_s: median(reps.iter().map(|r| r.0).collect()),
            ref_s: median(reps.iter().map(|r| r.1).collect()),
            speedup: median(reps.iter().map(|&(n, r)| r / n).collect()),
        }
    }
}

/// Interleaved timing of a (new, reference) pair: the two sides alternate
/// within a single rep loop, so frequency drift and noisy neighbours
/// perturb both sides of each rep's ratio alike. On a 1-core CI host,
/// back-to-back block timing of the same binary varies by 25%+ run to run;
/// interleaving keeps the *ratio* stable within a few percent, and its
/// median over reps keeps one odd window from deciding it.
fn time_pair<A, B>(
    reps: usize,
    mut new_f: impl FnMut() -> A,
    mut ref_f: impl FnMut() -> B,
) -> Pair {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(new_f());
        let new_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        black_box(ref_f());
        times.push((new_s, t0.elapsed().as_secs_f64()));
    }
    Pair::of(times)
}

/// Whether two buffers hold the same f32 bits.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Geometric-ish quantization-symbol stream: mostly small bins with a long
/// tail, the shape the predictor actually hands the entropy stage.
fn symbol_stream(n: usize) -> Vec<u32> {
    let mut state = 0x2545F491_4F6CDD1Du64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = ((state >> 40) as u32) | 1;
        // leading_zeros of a 24-bit draw: geometric with ratio ~1/2.
        out.push((r.leading_zeros() - 8).min(40));
    }
    // Singletons deepen the tree past the LUT so the slow path is exercised.
    out.extend(100..108);
    out
}

/// Byte stream shaped like a Huffman-coded residual payload: long
/// low-entropy runs with sparse punctuation (LZ matches + literals).
fn residual_bytes(n: usize) -> Vec<u8> {
    let mut state = 0x9E3779B9_7F4A7C15u64;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let run = 3 + ((state >> 48) as usize & 31);
        let byte = ((state >> 32) & 0x7) as u8;
        for _ in 0..run.min(n - out.len()) {
            out.push(byte);
        }
        if out.len() < n {
            out.push((state >> 56) as u8);
        }
    }
    out
}

/// Smooth 3-D field, the predictor's intended input.
fn smooth_field(dims: &[usize]) -> Vec<f32> {
    let (a, b, c) = (dims[0], dims[1], dims[2]);
    let mut v = Vec::with_capacity(a * b * c);
    for i in 0..a {
        for j in 0..b {
            for k in 0..c {
                let x = i as f64 / a as f64;
                let y = j as f64 / b as f64;
                let z = k as f64 / c as f64;
                v.push((12.0 * (x * 2.9).sin() + 6.0 * (y * 2.1).cos() + 3.0 * z * z) as f32);
            }
        }
    }
    v
}

/// Land block over the two trailing axes, the same at every index of the
/// leading one (a masked ocean field's time steps share one land mask):
/// about 42% of each plane, the archive workload's share, with a ragged
/// coastline so the masked walk meets every validity pattern.
fn land_mask(dims: &[usize]) -> Vec<bool> {
    let (a, b, c) = (dims[0], dims[1], dims[2]);
    let plane: Vec<bool> = (0..b * c)
        .map(|p| {
            let (y, x) = ((p / c) as f64 / b as f64, (p % c) as f64 / c as f64);
            (6.0 * x).sin() + (4.0 * y + 2.0 * x).cos() + 0.3 * (40.0 * x * y).sin() < -0.15
        })
        .collect();
    plane.iter().copied().cycle().take(a * b * c).collect()
}

/// Interleaved timing of the encode walk against the frozen reference.
/// Timed by hand rather than through `time_pair`: the input buffer must be
/// re-seeded between calls (the walk reconstructs in place), and that copy
/// has to happen *outside* the timed region — it is identical absolute cost
/// on both sides, so leaving it inside dilutes the ratio toward 1× and
/// drowns the gate in its own noise.
fn time_predict_pair(
    field: &[f32],
    dims: &[usize],
    params: &InterpParams,
    q: &LinearQuantizer,
    reps: usize,
) -> Pair {
    let mut times = Vec::with_capacity(reps);
    let mut b = vec![0.0f32; field.len()];
    let mut sg = vec![0u32; field.len()];
    for _ in 0..reps {
        b.copy_from_slice(field);
        sg.fill(0);
        let t0 = Instant::now();
        black_box(predict_quantize(&mut b, dims, params, q, &mut sg));
        let new_s = t0.elapsed().as_secs_f64();
        b.copy_from_slice(field);
        sg.fill(0);
        let t0 = Instant::now();
        black_box(ref_predict_quantize(&mut b, dims, params, q, &mut sg));
        times.push((new_s, t0.elapsed().as_secs_f64()));
    }
    Pair::of(times)
}

/// Runs the encode walk once and diffs it against the frozen reference:
/// escape count, symbol grid and reconstruction bits. Returns the
/// encoder's symbols and in-place buffer, and whether all three matched.
fn predict_identity(
    field: &[f32],
    dims: &[usize],
    params: &InterpParams,
    q: &LinearQuantizer,
) -> (Vec<u32>, Vec<f32>, bool) {
    let mut b_ref = field.to_vec();
    let mut s_ref = vec![0u32; field.len()];
    let esc_ref = ref_predict_quantize(&mut b_ref, dims, params, q, &mut s_ref);
    let mut b_new = field.to_vec();
    let mut s_new = vec![0u32; field.len()];
    let esc_new = predict_quantize(&mut b_new, dims, params, q, &mut s_new);
    let ok = esc_new == esc_ref
        && s_new == s_ref
        && b_new
            .iter()
            .zip(&b_ref)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    (s_new, b_new, ok)
}

/// One stage's row: its median time, and its reference's median time and
/// the median speedup when it has a reference.
struct Stage {
    name: &'static str,
    input_mb: f64,
    new_s: f64,
    reference: Option<(f64, f64)>,
    identical: bool,
}

impl Stage {
    /// A stage timed against its reference.
    fn paired(name: &'static str, input_mb: f64, pair: &Pair, identical: bool) -> Self {
        Stage {
            name,
            input_mb,
            new_s: pair.new_s,
            reference: Some((pair.ref_s, pair.speedup)),
            identical,
        }
    }

    fn print(&self) {
        let new_tp = self.input_mb / self.new_s;
        match self.reference {
            Some((ref_s, speedup)) => println!(
                "  {:<26} {:>8.1} MB/s   (reference {:>7.1} MB/s, {:>5.2}x)   identical: {}",
                self.name,
                new_tp,
                self.input_mb / ref_s,
                speedup,
                self.identical
            ),
            None => println!(
                "  {:<26} {:>8.1} MB/s   identical: {}",
                self.name, new_tp, self.identical
            ),
        }
    }

    fn json(&self) -> String {
        let ref_s = self.reference.map(|r| r.0);
        let speedup = self.reference.map(|r| r.1);
        format!(
            "{{\"stage\":\"{}\",\"input_mb\":{},\"new_s\":{},\"new_mb_s\":{},\
             \"ref_s\":{},\"ref_mb_s\":{},\"speedup\":{},\"identical\":{}}}",
            self.name,
            json_f64(self.input_mb),
            json_f64(self.new_s),
            json_f64(self.input_mb / self.new_s),
            ref_s.map_or("null".into(), json_f64),
            ref_s.map_or("null".into(), |r| json_f64(self.input_mb / r)),
            speedup.map_or("null".into(), json_f64),
            self.identical,
        )
    }
}

fn main() {
    let args = Args::parse();
    let (tier, n_syms, n_bytes, dims, reps) = if args.quick {
        ("quick", 200_000usize, 1usize << 20, vec![16, 48, 48], 3usize)
    } else if args.full {
        ("full", 16_000_000, 48 << 20, vec![64, 384, 384], 5)
    } else {
        ("scaled", 4_000_000, 16 << 20, vec![32, 192, 192], 5)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "stage_bench ({tier}): {n_syms} symbols, {} MB bytes, {dims:?} field, {host_cores} host core(s)",
        n_bytes >> 20
    );

    let mut stages: Vec<Stage> = Vec::new();
    let mut diverged = false;
    let mut check = |name: &str, ok: bool| {
        if !ok {
            eprintln!("DIVERGENCE: {name}");
            diverged = true;
        }
    };

    // --- entropy: canonical Huffman stream coding ---
    let symbols = symbol_stream(n_syms);
    let sym_mb = (symbols.len() * 4) as f64 / 1e6;

    let enc = time_pair(
        reps,
        || encode_stream(&symbols),
        || ref_encode_stream(&symbols),
    );
    let bytes = encode_stream(&symbols);
    let enc_ok = bytes == ref_encode_stream(&symbols);
    check("entropy encode bytes != reference", enc_ok);
    stages.push(Stage::paired("entropy_encode", sym_mb, &enc, enc_ok));

    let dec = time_pair(reps, || decode_stream(&bytes), || ref_decode_stream(&bytes));
    let decoded = decode_stream(&bytes);
    let dec_ok = decoded.as_deref() == Some(&symbols[..]) && decoded == ref_decode_stream(&bytes);
    check("entropy decode != original symbols / reference", dec_ok);
    stages.push(Stage::paired("entropy_decode", sym_mb, &dec, dec_ok));

    // --- lossless: zlite container ---
    let payload = residual_bytes(n_bytes);
    let mb = payload.len() as f64 / 1e6;

    let comp = time_pair(reps, || compress(&payload), || ref_compress(&payload));
    let packed = compress(&payload);
    let comp_ok = packed == ref_compress(&payload);
    check("zlite compress bytes != reference", comp_ok);
    stages.push(Stage::paired("zlite_compress", mb, &comp, comp_ok));

    // Adaptive path on the Huffman-coded stream the entropy stages built:
    // near-uniform bytes with no repeats, the shape of the pipeline's
    // residual sections, where `compress` skips the match finder. Gated on
    // a roundtrip through both decoders; the speedup over the reference's
    // full LZ parse is reported, not gated.
    let coded = time_pair(reps, || compress(&bytes), || ref_compress(&bytes));
    let coded_packed = compress(&bytes);
    let coded_ok = decompress(&coded_packed).as_deref().ok() == Some(&bytes[..])
        && ref_decompress(&coded_packed).as_deref().ok() == Some(&bytes[..]);
    check(
        "zlite adaptive compress roundtrip on the coded stream",
        coded_ok,
    );
    let coded_mb = bytes.len() as f64 / 1e6;
    stages.push(Stage::paired(
        "zlite_compress_coded",
        coded_mb,
        &coded,
        coded_ok,
    ));

    let unp = time_pair(reps, || decompress(&packed), || ref_decompress(&packed));
    let unpacked = decompress(&packed);
    let unp_ok = unpacked.as_deref().ok() == Some(&payload[..])
        && unpacked.as_deref().ok() == ref_decompress(&packed).as_deref().ok();
    check("zlite decompress != original / reference", unp_ok);
    stages.push(Stage::paired("zlite_decompress", mb, &unp, unp_ok));

    // --- store: chunk CRC32 over zlite-packed bytes ---
    let crc = time_pair(reps, || crc32(&packed), || ref_crc32(&packed));
    let crc_ok = crc32(&packed) == ref_crc32(&packed);
    check("store crc32 != byte-wise reference", crc_ok);
    let packed_mb = packed.len() as f64 / 1e6;
    stages.push(Stage::paired("store_crc32", packed_mb, &crc, crc_ok));

    // --- quant: classification + shift transforms ---
    let field = smooth_field(&dims);
    let field_mb = (field.len() * 4) as f64 / 1e6;
    let h_len = dims[1] * dims[2];
    let q = LinearQuantizer::new(1e-3);
    let params = InterpParams::new(Fitting::Cubic);
    let mut buf = field.clone();
    let mut symbols_grid = vec![0u32; field.len()];
    predict_quantize(&mut buf, &dims, &params, &q, &mut symbols_grid);

    let class = classify(&symbols_grid, h_len, None, ClassifySpec::default());
    let classify_s = time_median(reps, || {
        classify(&symbols_grid, h_len, None, ClassifySpec::default())
    });
    let mut shifted = symbols_grid.clone();
    let shift_s = time_median(reps, || {
        apply_shifts(&mut shifted, &class, None);
        unapply_shifts(&mut shifted, &class, None);
    });
    let shift_ok = shifted == symbols_grid;
    check("quant shift/unshift not an identity", shift_ok);
    stages.push(Stage {
        name: "quant_classify",
        input_mb: field_mb,
        new_s: classify_s,
        reference: None,
        identical: true,
    });
    stages.push(Stage {
        name: "quant_shift_roundtrip",
        input_mb: field_mb,
        new_s: shift_s,
        reference: None,
        identical: shift_ok,
    });

    // --- predict: interpolation walk, both directions ---
    // Encode side diffed against the frozen single-loop reference: the
    // run-kernel walk must reproduce the exact escape count, symbol grid,
    // and reconstruction bits, and beat the reference by the encode gate.
    // More reps than the other pairs: the walk's ratios sat closest to
    // their gates.
    let walk_reps = reps.max(7);
    let pq = time_predict_pair(&field, &dims, &params, &q, walk_reps);
    let (_, _, pq_ok) = predict_identity(&field, &dims, &params, &q);
    check("predict quantize != frozen reference", pq_ok);
    let literals: Vec<f32> = symbols_grid
        .iter()
        .zip(&field)
        .filter(|&(&s, _)| s == ESCAPE)
        .map(|(_, &v)| v)
        .collect();
    // Decode side: timed interleaved against the frozen per-point decoder,
    // and diffed against both the encoder's buffer and that decoder.
    let rec = |out: &mut [f32]| reconstruct(out, &dims, &params, &q, &symbols_grid, &literals, 0.0);
    let ref_rec =
        |out: &mut [f32]| ref_reconstruct(out, &dims, &params, &q, &symbols_grid, &literals, 0.0);
    let mut out = vec![0.0f32; field.len()];
    let mut ref_out = vec![0.0f32; field.len()];
    let rc = time_pair(walk_reps, || rec(&mut out), || ref_rec(&mut ref_out));
    rec(&mut out).expect("reconstruct");
    ref_rec(&mut ref_out).expect("ref_reconstruct");
    let rec_ok = out == buf && same_bits(&out, &ref_out);
    check(
        "predict reconstruct != encoder reconstruction / frozen decoder",
        rec_ok,
    );
    stages.push(Stage::paired("predict_quantize", field_mb, &pq, pq_ok));
    stages.push(Stage::paired("predict_reconstruct", field_mb, &rc, rec_ok));

    // --- predict, masked: the same walk over a field with a land mask ---
    // The stretch-driven masked walk on both sides, with the same identity
    // gates: the encoder against the frozen reference, and the decoder
    // against the encoder's buffer at valid points and the fill at masked
    // ones, and against the frozen decoder everywhere. Both are gated on
    // their speedups over the references too.
    let land = land_mask(&dims);
    let fill = 1.0e35f32;
    let masked_field: Vec<f32> = field
        .iter()
        .zip(&land)
        .map(|(&v, &ocean)| if ocean { v } else { fill })
        .collect();
    let mparams = InterpParams::with_mask(Fitting::Cubic, &land);
    let mpq = time_predict_pair(&masked_field, &dims, &mparams, &q, walk_reps);
    let (msyms, mbuf, mpq_ok) = predict_identity(&masked_field, &dims, &mparams, &q);
    check("masked predict quantize != frozen reference", mpq_ok);
    let mliterals: Vec<f32> = msyms
        .iter()
        .zip(&masked_field)
        .zip(&land)
        .filter(|&((&s, _), &ocean)| ocean && s == ESCAPE)
        .map(|((_, &v), _)| v)
        .collect();
    let mrec = |out: &mut [f32]| reconstruct(out, &dims, &mparams, &q, &msyms, &mliterals, fill);
    let ref_mrec =
        |out: &mut [f32]| ref_reconstruct(out, &dims, &mparams, &q, &msyms, &mliterals, fill);
    let mrc = time_pair(walk_reps, || mrec(&mut out), || ref_mrec(&mut ref_out));
    mrec(&mut out).expect("reconstruct");
    ref_mrec(&mut ref_out).expect("ref_reconstruct");
    let mrec_ok = same_bits(&out, &ref_out)
        && out.iter().zip(&mbuf).zip(&land).all(|((o, e), &ocean)| {
            o.to_bits() == if ocean { e.to_bits() } else { fill.to_bits() }
        });
    check(
        "masked predict reconstruct != encoder reconstruction / frozen decoder",
        mrec_ok,
    );
    stages.push(Stage::paired(
        "predict_quantize_masked",
        field_mb,
        &mpq,
        mpq_ok,
    ));
    stages.push(Stage::paired(
        "predict_reconstruct_masked",
        field_mb,
        &mrc,
        mrec_ok,
    ));

    for s in &stages {
        s.print();
    }

    // Speedup gates over the frozen pre-rewrite references, each the
    // median of its per-rep ratios. Quick-tier inputs are too small to time
    // reliably, so the gates apply to the tiers whose JSON gets committed.
    // Levels are honest floors below the *minimum* observed over repeated
    // runs on a 1-core CI-class host — run-to-run ratios swing several
    // percent even interleaved, so each gate sits under its observed range
    // while staying far above what any real regression to the reference
    // kernel would score (see docs/PERFORMANCE.md for the measurements
    // behind each):
    //
    // * entropy decode ≥ 3×      — the decode-kernel overhaul's headline
    //   (observed 3.16–3.50×);
    // * zlite compress ≥ 1.4×    — bucket-ring match finder, byte-identical
    //   stream (observed 1.87–1.99×; identity pinning caps how much the
    //   parse may change);
    // * predict quantize ≥ 1.02× — branch-hoisted walk (observed
    //   1.04–1.17×; a regression to the reference's in-place single loop
    //   scores ~0.9× or worse, well below the floor). Bit-identity plus
    //   the walk's strided-stencil memory traffic bound the ceiling here:
    //   the win is real but modest, and the gate says so.
    // * predict reconstruct ≥ 1.6× — run-kernel decode walk over the
    //   frozen per-point decoder (observed 1.86–2.75× over ten runs on
    //   the 2-core host; the scratch-and-commit walk it replaced scored
    //   1.27–1.48× against the same decoder).
    // * predict quantize, masked ≥ 1.65× and predict reconstruct, masked
    //   ≥ 2.2× — the stretch-driven masked walk (observed 1.78–2.17× and
    //   2.52–2.95× over twelve scaled runs on the 2-core host; the
    //   per-point masked walk it replaced scored 1.55–1.70× and
    //   1.42–1.60× over six).
    let gated = !args.quick;
    let gates: [(&str, f64, f64); 6] = [
        ("entropy_decode", dec.speedup, 3.0),
        ("zlite_compress", comp.speedup, 1.4),
        ("predict_quantize", pq.speedup, 1.02),
        ("predict_reconstruct", rc.speedup, 1.6),
        ("predict_quantize_masked", mpq.speedup, 1.65),
        ("predict_reconstruct_masked", mrc.speedup, 2.2),
    ];
    println!();
    for (name, got, min) in gates {
        println!(
            "{name:<26} speedup over pre-rewrite reference: {got:.2}x (gate {min}x, {})",
            if gated { "enforced" } else { "quick tier: not enforced" }
        );
        if gated && got < min {
            eprintln!("FAIL: {name} speedup {got:.2}x below the {min}x gate");
            diverged = true;
        }
    }

    let gates_json = gates
        .iter()
        .map(|(name, got, min)| {
            format!(
                "{{\"stage\":\"{name}\",\"speedup\":{},\"gate\":{},\"enforced\":{gated}}}",
                json_f64(*got),
                json_f64(*min)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"schema\":\"cliz-stage-bench-v2\",\"tier\":\"{tier}\",\"host_cores\":{host_cores},\
         \"symbols\":{n_syms},\"payload_bytes\":{n_bytes},\"field_dims\":{dims:?},\
         \"gates\":[{gates_json}],\
         \"stages\":[{}]}}\n",
        stages.iter().map(Stage::json).collect::<Vec<_>>().join(","),
    );
    std::fs::write("BENCH_stages.json", &json).expect("write BENCH_stages.json");
    println!("wrote BENCH_stages.json");

    if diverged {
        eprintln!("FAIL: stage identity/performance gates violated");
        std::process::exit(1);
    }
}
