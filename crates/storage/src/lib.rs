//! Pluggable read-only storage backends for the CZS chunk store.
//!
//! The CliZ paper's compression pipeline produces a chunked container;
//! serving region queries out of it requires byte-range reads against
//! wherever those bytes live — a local file, a memory buffer, or an HTTP
//! endpoint that honours `Range:` requests. This crate defines the seam:
//!
//! * [`ReadableStorage`] — the backend trait: `size()`, ranged `get()`,
//!   and positional `read_exact_at()`. Implementations must be `Send +
//!   Sync`; one backend instance is shared by every concurrent reader.
//! * [`FileBackend`] — positional reads (`pread`) against a local file.
//! * [`MemBackend`] — an in-memory byte buffer (tests, benches, packing).
//! * [`HttpRangeBackend`] — a hand-rolled blocking HTTP/1.1 client issuing
//!   `Range: bytes=` requests, with bounded retry/backoff on transient
//!   failures and 5xx answers. No external dependencies.
//! * [`FlakyBackend`] / [`DelayBackend`] — deterministic fault-injection
//!   and simulated-latency wrappers for robustness tests and load benches.
//! * [`coalesce`] — the range-coalescing planner that merges adjacent or
//!   near-adjacent chunk ranges (gap threshold) into single backend gets,
//!   so a multi-chunk `read_region` costs one round trip, not one per
//!   chunk.
//!
//! ## Contract
//!
//! `get(a..b)` returns **exactly** `b - a` bytes or a typed
//! [`StorageError`] — never a silent short read. Objects are immutable for
//! the lifetime of a backend: `size()` is stable, and a file shrinking
//! underneath a [`FileBackend`] surfaces as [`StorageError::ShortRead`],
//! not garbage. See `docs/SERVING.md` for the full contract.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented
    )
)]

mod delay;
mod error;
mod file;
mod flaky;
mod http;
mod mem;
mod plan;
mod testserver;

pub use delay::DelayBackend;
pub use error::StorageError;
pub use file::FileBackend;
pub use flaky::{Fault, FlakyBackend};
pub use http::{HttpConfig, HttpRangeBackend};
pub use mem::MemBackend;
pub use plan::{coalesce, CoalescedGet, RangeItem};
pub use testserver::{BlobHttpServer, Misbehaviour};

use std::ops::Range;

/// A read-only byte object addressable by absolute byte ranges.
///
/// Implementations are shared across threads (`Send + Sync`) — the chunk
/// store holds one `Arc<dyn ReadableStorage>` per open store and every
/// concurrent region query reads through it.
pub trait ReadableStorage: Send + Sync {
    /// Total size of the object in bytes. Stable for the lifetime of the
    /// backend (objects are immutable once opened).
    fn size(&self) -> Result<u64, StorageError>;

    /// Fetch `range.start..range.end` and return exactly
    /// `range.end - range.start` bytes.
    ///
    /// An inverted or out-of-bounds range is [`StorageError::OutOfRange`];
    /// a backend that produces fewer bytes than it acknowledged is a
    /// contract violation surfaced by callers as
    /// [`StorageError::ShortRead`]. The empty range yields an empty vec.
    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError>;

    /// Fill `out` with the bytes at `offset..offset + out.len()`.
    ///
    /// The default routes through [`ReadableStorage::get`]; positional
    /// backends (files) override it to read straight into the caller's
    /// buffer.
    fn read_exact_at(&self, offset: u64, out: &mut [u8]) -> Result<(), StorageError> {
        // Saturate rather than wrap: an offset near u64::MAX pushes the
        // range end past any real object size, so the backend's own bounds
        // check reports the accurate OutOfRange.
        let end = offset.saturating_add(out.len() as u64);
        let got = self.get(offset..end)?;
        if got.len() != out.len() {
            return Err(StorageError::ShortRead {
                expected: out.len(),
                got: got.len(),
            });
        }
        out.copy_from_slice(&got);
        Ok(())
    }
}

/// Blanket impl so `Arc<B>` (and plain references) satisfy the trait
/// bound wherever a backend is consumed generically.
impl<S: ReadableStorage + ?Sized> ReadableStorage for std::sync::Arc<S> {
    fn size(&self) -> Result<u64, StorageError> {
        (**self).size()
    }
    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
        (**self).get(range)
    }
    fn read_exact_at(&self, offset: u64, out: &mut [u8]) -> Result<(), StorageError> {
        (**self).read_exact_at(offset, out)
    }
}

/// Validate `range` against an object of `size` bytes.
///
/// Shared by the concrete backends so they agree on what "out of range"
/// means: inverted ranges and ends past the object are rejected; the
/// empty range anywhere inside `0..=size` is fine.
pub(crate) fn check_range(range: &Range<u64>, size: u64) -> Result<(), StorageError> {
    if range.start > range.end || range.end > size {
        return Err(StorageError::OutOfRange {
            start: range.start,
            end: range.end,
            size,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_range_accepts_and_rejects() {
        assert!(check_range(&(0..10), 10).is_ok());
        assert!(check_range(&(10..10), 10).is_ok());
        assert!(check_range(&(3..3), 10).is_ok());
        assert!(matches!(
            check_range(&(5..11), 10),
            Err(StorageError::OutOfRange {
                start: 5,
                end: 11,
                size: 10
            })
        ));
        assert!(matches!(
            check_range(&std::ops::Range { start: 7, end: 3 }, 10),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn default_read_exact_at_detects_short_backends() {
        /// A backend that violates the contract by returning half the range.
        struct Half;
        impl ReadableStorage for Half {
            fn size(&self) -> Result<u64, StorageError> {
                Ok(100)
            }
            fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
                let want = (range.end - range.start) as usize;
                Ok(vec![0u8; want / 2])
            }
        }
        let mut out = [0u8; 8];
        let err = Half.read_exact_at(0, &mut out).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ShortRead {
                expected: 8,
                got: 4
            }
        ));
    }

    #[test]
    fn read_exact_at_near_u64_max_is_out_of_range_not_overflow() {
        let mem = MemBackend::new(vec![1, 2, 3]);
        let mut out = [0u8; 4];
        let err = mem.read_exact_at(u64::MAX - 1, &mut out).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { .. }));
    }

    #[test]
    fn arc_dyn_backend_reads_through() {
        let backend: std::sync::Arc<dyn ReadableStorage> =
            std::sync::Arc::new(MemBackend::new(vec![9, 8, 7, 6]));
        assert_eq!(backend.size().unwrap(), 4);
        assert_eq!(backend.get(1..3).unwrap(), vec![8, 7]);
        let mut out = [0u8; 2];
        backend.read_exact_at(2, &mut out).unwrap();
        assert_eq!(out, [7, 6]);
    }
}
