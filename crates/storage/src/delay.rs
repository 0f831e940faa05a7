//! Simulated-latency wrapper for load benches.
//!
//! `DelayBackend` charges a fixed per-call cost plus a per-byte cost on
//! every `get`, modelling a remote object store without needing a network
//! in the bench loop. Determinism matters more than realism: the same
//! request sequence always pays the same simulated cost.

use crate::{ReadableStorage, StorageError};
use std::ops::Range;
use std::time::Duration;

/// A [`ReadableStorage`] wrapper that sleeps `per_call + per_kib × size`
/// before each `get`.
pub struct DelayBackend<S> {
    inner: S,
    per_call: Duration,
    per_kib: Duration,
}

impl<S: ReadableStorage> DelayBackend<S> {
    /// Wrap `inner`, charging `per_call` per request plus `per_kib` per
    /// 1024 bytes transferred.
    pub fn new(inner: S, per_call: Duration, per_kib: Duration) -> Self {
        DelayBackend {
            inner,
            per_call,
            per_kib,
        }
    }

    fn charge(&self, len: u64) {
        let kib = len.div_ceil(1024) as u32;
        let cost = self.per_call + self.per_kib.saturating_mul(kib);
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
    }
}

impl<S: ReadableStorage> ReadableStorage for DelayBackend<S> {
    fn size(&self) -> Result<u64, StorageError> {
        self.inner.size()
    }

    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
        self.charge(range.end.saturating_sub(range.start));
        self.inner.get(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBackend;

    #[test]
    fn zero_cost_delay_is_passthrough() {
        let b = DelayBackend::new(
            MemBackend::new((0u8..8).collect()),
            Duration::ZERO,
            Duration::ZERO,
        );
        assert_eq!(b.get(2..5).unwrap(), vec![2, 3, 4]);
        assert_eq!(b.size().unwrap(), 8);
    }

    #[test]
    fn per_call_cost_is_observable() {
        let b = DelayBackend::new(
            MemBackend::new(vec![0u8; 4]),
            Duration::from_millis(5),
            Duration::ZERO,
        );
        let t0 = std::time::Instant::now();
        b.get(0..4).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
