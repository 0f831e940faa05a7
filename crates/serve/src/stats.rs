//! Per-server tracing counters.
//!
//! All counters are relaxed atomics: they are monotonic telemetry, never
//! synchronization, so torn cross-counter snapshots are acceptable and no
//! request ever blocks on another's bookkeeping.

use cliz_store::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters the server accumulates across all connections and workers.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests parsed (well-formed or not).
    pub requests: AtomicU64,
    /// Requests answered with an `ERR` frame.
    pub errors: AtomicU64,
    /// `REGION` requests served successfully.
    pub regions: AtomicU64,
    /// Body bytes streamed to clients.
    pub bytes_streamed: AtomicU64,
    /// Nanoseconds connections spent queued before a worker picked them up.
    pub queue_wait_ns: AtomicU64,
    /// Nanoseconds spent serving requests (parse through last body byte).
    pub serve_ns: AtomicU64,
}

impl ServeStats {
    pub fn count(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// One-line JSON snapshot of the server counters merged with the
    /// shared reader's counters (decode work, backend traffic, cache).
    /// Hand-rolled: the protocol promises a single line, and every value
    /// is an unsigned integer.
    pub fn to_json(&self, reader: &StoreStats) -> String {
        let fields: [(&str, u64); 14] = [
            ("connections", self.connections.load(Ordering::Relaxed)),
            ("requests", self.requests.load(Ordering::Relaxed)),
            ("errors", self.errors.load(Ordering::Relaxed)),
            ("regions", self.regions.load(Ordering::Relaxed)),
            (
                "bytes_streamed",
                self.bytes_streamed.load(Ordering::Relaxed),
            ),
            ("queue_wait_ns", self.queue_wait_ns.load(Ordering::Relaxed)),
            ("serve_ns", self.serve_ns.load(Ordering::Relaxed)),
            ("decodes", reader.decodes),
            ("decode_ns", reader.decode_ns),
            ("backend_gets", reader.backend_gets),
            ("backend_bytes", reader.backend_bytes),
            ("cache_hits", reader.cache.hits),
            ("cache_misses", reader.cache.misses),
            ("cache_evictions", reader.cache.evictions),
        ];
        let mut json = String::from("{\"schema\":\"cliz-serve-stats-v1\"");
        for (key, value) in fields {
            json.push_str(",\"");
            json.push_str(key);
            json.push_str("\":");
            json.push_str(&value.to_string());
        }
        json.push('}');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_store::CacheStats;

    #[test]
    fn json_snapshot_is_one_line_with_every_counter() {
        let stats = ServeStats::default();
        ServeStats::count(&stats.requests, 3);
        ServeStats::count(&stats.regions, 2);
        let reader = StoreStats {
            decodes: 5,
            decode_ns: 1200,
            backend_gets: 4,
            backend_bytes: 8192,
            cache: CacheStats {
                hits: 7,
                misses: 5,
                evictions: 2,
                ..CacheStats::default()
            },
        };
        let json = stats.to_json(&reader);
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"schema\":\"cliz-serve-stats-v1\""));
        for needle in [
            "\"requests\":3",
            "\"regions\":2",
            "\"decodes\":5",
            "\"backend_gets\":4",
            "\"backend_bytes\":8192",
            "\"cache_hits\":7",
            "\"cache_evictions\":2",
            "\"queue_wait_ns\":0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.ends_with('}'));
    }
}
