//! Storage layer for CliZ: self-describing array files and a random-access
//! chunk store.
//!
//! Two on-disk formats live here:
//!
//! * **CAF** ([`caf`]) — the uncompressed NetCDF-flavoured substrate the
//!   `cliz` CLI reads and writes: named dimensions, string attributes, one
//!   f32 variable, and an optional bit-packed validity mask.
//! * **CZS** ([`format`]) — the *indexed chunk store*: the same dataset
//!   metadata plus a per-slab index (offset, length, CRC32) over a CLZC
//!   chunked-compression payload, so any slab is seekable without scanning
//!   the stream. [`pack_store`] builds one; [`ChunkStoreReader`] serves
//!   region queries against it, decoding only the chunks a query touches
//!   and sharing decoded slabs between concurrent readers through a
//!   byte-budgeted cache that evicts by lookup count, then recency
//!   ([`ChunkCache`]).
//!
//! See `docs/STORE.md` for the format layout, the index invariants, and the
//! cache/concurrency model.
//!
//! ```
//! use cliz_store::{pack_store, ChunkStoreReader, Dataset};
//! use cliz_core::config::PipelineConfig;
//! use cliz_grid::{Grid, Shape};
//! use cliz_quant::ErrorBound;
//!
//! let data = Grid::from_fn(Shape::new(&[16, 12]), |c| (c[0] + c[1]) as f32);
//! let ds = Dataset::new("T", data, None);
//! let bytes = pack_store(
//!     &ds, ErrorBound::Abs(1e-3), &PipelineConfig::default_for(2), 4, 1,
//! ).unwrap();
//! let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
//! // Rows 5..7 live in chunk 1 only: one chunk decoded, not four.
//! let region = reader.read_region(&[5..7, 0..12]).unwrap();
//! assert_eq!(region.shape().dims(), &[2, 12]);
//! assert_eq!(reader.decode_count(), 1);
//! ```

// Decode paths must never panic on untrusted input (see docs/STATIC_ANALYSIS.md).
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

pub mod atomic;
pub mod cache;
pub mod caf;
pub mod checksum;
pub mod error;
pub mod format;
pub mod pack;
pub mod reader;
pub(crate) mod sync;

pub use atomic::write_atomic;
pub use cache::{CacheStats, ChunkCache};
pub use caf::{load, read_caf, save, write_caf, Dataset};
pub use error::StoreError;
pub use format::{IndexEntry, StoreIndex};
pub use pack::{pack_store, pack_store_to, save_store};
pub use reader::{ChunkStoreReader, StoreStats, DEFAULT_CACHE_BUDGET, DEFAULT_COALESCE_GAP};

/// The pluggable byte-range backends the reader reads through
/// (re-exported from `cliz-storage` so store users need one import path).
pub mod storage {
    pub use cliz_storage::*;
}
