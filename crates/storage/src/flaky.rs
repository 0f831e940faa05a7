//! Deterministic fault injection for robustness tests.
//!
//! `FlakyBackend` wraps any backend and replays a scripted sequence of
//! faults, one per `get`/`read_exact_at` call: transient errors, short
//! reads (contract violations), or hard EOF truncation. Tests use it to
//! prove that every failure mode surfaces as a typed [`StorageError`]
//! through the whole reader stack — never a panic, never silent garbage.

use crate::{ReadableStorage, StorageError};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One scripted outcome for a backend call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Pass the call through to the inner backend unchanged.
    Ok,
    /// Fail with [`StorageError::Transient`] (retryable).
    Transient,
    /// Return only the first `n` bytes of the requested range — a backend
    /// contract violation the caller must detect, not trust.
    ShortRead(usize),
    /// Behave as if the object ends at byte `at`: ranges beyond it come
    /// back truncated, like a file cut off mid-chunk.
    TruncateAt(u64),
}

/// Fault-injecting wrapper around any [`ReadableStorage`].
///
/// The script is consumed one entry per call (in order); once it runs dry
/// every call passes through. Counters are plain monotonic telemetry
/// (all-`Relaxed`).
pub struct FlakyBackend<S> {
    inner: S,
    script: Mutex<VecDeque<Fault>>,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl<S: ReadableStorage> FlakyBackend<S> {
    /// Wrap `inner`, replaying `script` one fault per call.
    pub fn new(inner: S, script: Vec<Fault>) -> Self {
        FlakyBackend {
            inner,
            script: Mutex::new(script.into()),
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total backend calls observed (both passthrough and faulted).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls that had a non-`Ok` fault injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn next_fault(&self) -> Fault {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let fault = match self.script.lock() {
            Ok(mut s) => s.pop_front().unwrap_or(Fault::Ok),
            // The script is a plain queue; a poisoned lock just means a
            // test thread panicked — keep serving passthrough.
            Err(poisoned) => poisoned.into_inner().pop_front().unwrap_or(Fault::Ok),
        };
        if fault != Fault::Ok {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }
}

impl<S: ReadableStorage> ReadableStorage for FlakyBackend<S> {
    fn size(&self) -> Result<u64, StorageError> {
        self.inner.size()
    }

    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
        match self.next_fault() {
            Fault::Ok => self.inner.get(range),
            Fault::Transient => Err(StorageError::Transient("injected fault")),
            Fault::ShortRead(n) => {
                let mut body = self.inner.get(range)?;
                body.truncate(n);
                Ok(body)
            }
            Fault::TruncateAt(at) => {
                if range.start >= at {
                    return Ok(Vec::new());
                }
                let clipped = range.start..range.end.min(at);
                self.inner.get(clipped)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBackend;

    #[test]
    fn script_replays_in_order_then_passes_through() {
        let b = FlakyBackend::new(
            MemBackend::new((0u8..16).collect()),
            vec![Fault::Transient, Fault::ShortRead(2)],
        );
        assert!(matches!(b.get(0..4), Err(StorageError::Transient(_))));
        assert_eq!(b.get(0..4).unwrap(), vec![0, 1]); // short: 2 of 4 bytes
        assert_eq!(b.get(0..4).unwrap(), vec![0, 1, 2, 3]); // script dry
        assert_eq!(b.calls(), 3);
        assert_eq!(b.injected(), 2);
    }

    #[test]
    fn truncate_fault_clips_like_a_cut_file() {
        let b = FlakyBackend::new(
            MemBackend::new((0u8..32).collect()),
            vec![Fault::TruncateAt(8), Fault::TruncateAt(8)],
        );
        assert_eq!(b.get(4..16).unwrap(), vec![4, 5, 6, 7]); // clipped at 8
        assert_eq!(b.get(8..16).unwrap(), Vec::<u8>::new()); // fully beyond
    }

    #[test]
    fn short_read_surfaces_via_default_read_exact_at() {
        let b = FlakyBackend::new(MemBackend::new(vec![0u8; 64]), vec![Fault::ShortRead(3)]);
        let mut out = [0u8; 8];
        let err = b.read_exact_at(0, &mut out).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ShortRead {
                expected: 8,
                got: 3
            }
        ));
    }
}
