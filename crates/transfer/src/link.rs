//! The WAN link model.

/// A point-to-point WAN path between two data-transfer nodes.
#[derive(Clone, Copy, Debug)]
pub struct WanLink {
    /// Aggregate achievable bandwidth in bytes/second (all streams share it).
    pub bandwidth_bps: f64,
    /// Round-trip latency in seconds.
    pub rtt_s: f64,
    /// Concurrent streams the transfer tool opens (Globus default: 4–8 per
    /// endpoint pair, more for many-file batches).
    pub max_streams: usize,
    /// Per-file control-channel overhead in seconds (directory listing,
    /// checksum negotiation…).
    pub per_file_overhead_s: f64,
}

impl WanLink {
    /// A Bebop→Anvil-like path: ~1 GB/s aggregate, 30 ms RTT, 8 streams.
    /// Per-file overhead is small because GridFTP pipelines batched files.
    pub fn bebop_to_anvil() -> Self {
        Self {
            bandwidth_bps: 1.0e9,
            rtt_s: 0.030,
            max_streams: 8,
            per_file_overhead_s: 0.001,
        }
    }
}

/// Outcome of a simulated batch transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferReport {
    pub files: usize,
    pub total_bytes: u64,
    /// Wall-clock seconds for the whole batch.
    pub seconds: f64,
}

impl WanLink {
    /// Simulates transferring `file_sizes` (bytes each) as one batch.
    ///
    /// Files are greedily balanced across `max_streams` lanes (largest file
    /// to the least-loaded lane); each lane proceeds sequentially at the
    /// per-stream share of the aggregate bandwidth; the batch finishes when
    /// the slowest lane does.
    pub fn transfer(&self, file_sizes: &[u64]) -> TransferReport {
        let total_bytes: u64 = file_sizes.iter().sum();
        if file_sizes.is_empty() {
            return TransferReport {
                files: 0,
                total_bytes: 0,
                seconds: 0.0,
            };
        }
        let streams = self.max_streams.max(1).min(file_sizes.len());
        let per_stream_bw = self.bandwidth_bps / streams as f64;

        // Longest-processing-time-first bin packing over lanes.
        let mut sizes: Vec<u64> = file_sizes.to_vec();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut lane_bytes = vec![0u64; streams];
        let mut lane_files = vec![0usize; streams];
        for s in sizes {
            let i = (0..streams).min_by_key(|&i| lane_bytes[i]).unwrap_or(0);
            lane_bytes[i] += s;
            lane_files[i] += 1;
        }
        let seconds = (0..streams)
            .map(|i| {
                self.rtt_s
                    + lane_files[i] as f64 * self.per_file_overhead_s
                    + lane_bytes[i] as f64 / per_stream_bw
            })
            .fold(0.0f64, f64::max);
        TransferReport {
            files: file_sizes.len(),
            total_bytes,
            seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> WanLink {
        WanLink {
            bandwidth_bps: 1.0e9,
            rtt_s: 0.03,
            max_streams: 4,
            per_file_overhead_s: 0.01,
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let r = link().transfer(&[]);
        assert_eq!(r.seconds, 0.0);
        assert_eq!(r.files, 0);
    }

    #[test]
    fn single_file_time() {
        // 1 GB over a 1 GB/s link with 1 active stream (the whole bandwidth
        // is split across max_streams only when multiple lanes are used —
        // with one file there is one lane but per-stream share still applies:
        // streams = min(max, files) = 1 -> full bandwidth).
        let r = link().transfer(&[1_000_000_000]);
        assert!(
            (r.seconds - (0.03 + 0.01 + 1.0)).abs() < 1e-9,
            "{}",
            r.seconds
        );
    }

    #[test]
    fn smaller_payload_is_faster() {
        let sizes_big: Vec<u64> = vec![100_000_000; 64];
        let sizes_small: Vec<u64> = vec![25_000_000; 64];
        let l = link();
        assert!(l.transfer(&sizes_small).seconds < l.transfer(&sizes_big).seconds);
    }

    #[test]
    fn time_scales_with_compression_ratio() {
        // 4x smaller files => near-4x faster once bandwidth-bound.
        let l = link();
        let t1 = l.transfer(&vec![400_000_000u64; 32]).seconds;
        let t4 = l.transfer(&vec![100_000_000u64; 32]).seconds;
        let speedup = t1 / t4;
        assert!(speedup > 3.0 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn balanced_lanes_beat_serial() {
        // 4 equal files across 4 streams: ≈ one file's bandwidth-time at
        // quarter rate, i.e. equal to serial time at full rate — but with 8
        // files the pipeline parallelism shows.
        let l = link();
        let quad = l.transfer(&[250_000_000u64; 4]);
        // Each lane: 0.03 + 0.01 + 0.25e9/(0.25e9) = 1.04
        assert!((quad.seconds - 1.04).abs() < 1e-6, "{}", quad.seconds);
    }

    #[test]
    fn uneven_files_balanced_lpt() {
        let l = WanLink {
            max_streams: 2,
            per_file_overhead_s: 0.0,
            rtt_s: 0.0,
            bandwidth_bps: 1e6,
        };
        // LPT: lanes get {6,3} and {5,4} -> 9e5 bytes each at 5e5 B/s = 1.8 s.
        let r = l.transfer(&[600_000, 500_000, 400_000, 300_000]);
        assert!((r.seconds - 1.8).abs() < 1e-9, "{}", r.seconds);
    }
}
