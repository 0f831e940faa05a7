//! Compression-enabled WAN transfer (the paper's Fig. 13 scenario).
//!
//! Each simulated core compresses one climate file; the compressed batch
//! then ships over a Bebop→Anvil-like Globus link. Higher compression ratio
//! means less to ship — the paper reports CliZ cutting total transfer cost
//! by 32–38% vs SZ3/ZFP at matched reconstruction quality.
//!
//! ```sh
//! cargo run --release --example transfer_pipeline
//! ```

use cliz::transfer::{schedule_lpt, WanLink};

fn main() {
    let n_files = 16usize;
    let cores = 256usize;
    let dims = [96usize, 80, 240];
    // Slower academic-WAN share so the transfer leg dominates, as in Fig. 13.
    let link = WanLink {
        bandwidth_bps: 50.0e6,
        ..WanLink::bebop_to_anvil()
    };
    let original = dims.iter().product::<usize>() * 4;

    println!(
        "batch: {n_files} SSH files of {} bytes each; {cores} simulated cores; \
         link {:.1} Gb/s, {:.0} ms RTT\n",
        original,
        link.bandwidth_bps * 8.0 / 1e9,
        link.rtt_s * 1e3
    );

    // Pre-generate the batch (one ensemble member per file).
    let files: Vec<_> = (0..n_files)
        .map(|i| cliz::data::ssh(&dims, 1000 + i as u64))
        .collect();

    for compressor in cliz::all_compressors(None) {
        // Time each file on its own, then schedule the measured times onto
        // the simulated cores, as the Fig. 13 harness does.
        let mut times = Vec::with_capacity(n_files);
        let mut sizes = Vec::with_capacity(n_files);
        for f in &files {
            // Same fidelity target for everyone: relative tolerance resolved
            // on the valid value range.
            let bound = cliz::rel_bound_on_valid(&f.data, f.mask.as_ref(), 1e-3);
            let t0 = std::time::Instant::now();
            let size = compressor
                .compress(&f.data, f.mask.as_ref(), bound)
                .map(|b| b.len() as u64)
                .unwrap_or(original as u64);
            times.push(t0.elapsed().as_secs_f64());
            sizes.push(size);
        }
        let compress_s = schedule_lpt(&times, cores);
        let transfer = link.transfer(&sizes);
        let total_bytes: u64 = sizes.iter().sum();
        println!(
            "{:8}  compress {:7.3}s  transfer {:7.3}s  total {:7.3}s  ({:6.1}x, {} B shipped)",
            compressor.name(),
            compress_s,
            transfer.seconds,
            compress_s + transfer.seconds,
            (original * n_files) as f64 / total_bytes as f64,
            total_bytes,
        );
    }

    // Reference: shipping uncompressed.
    let raw = link.transfer(&vec![original as u64; n_files]);
    println!(
        "{:8}  compress {:7.3}s  transfer {:7.3}s  total {:7.3}s  (   1.0x, {} B shipped)",
        "raw", 0.0, raw.seconds, raw.seconds, raw.total_bytes
    );
}
