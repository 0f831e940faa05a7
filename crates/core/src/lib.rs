//! CliZ — an error-bounded lossy compressor optimized for climate datasets.
//!
//! This crate is the paper's primary contribution: an SZ3-framework
//! compressor (interpolation prediction → linear-scale quantization →
//! Huffman → lossless backend) extended with four climate-specific
//! optimizations, each individually toggleable for the ablation studies:
//!
//! 1. **mask-map-aware prediction** ([`cliz_predict`], Theorem 1) — invalid
//!    points are neither encoded nor used as references;
//! 2. **dimension permutation & fusion** ([`config::PipelineConfig`]) —
//!    more predictions along smoother dimensions;
//! 3. **periodic component extraction** ([`periodic`]) — FFT-detected period,
//!    template/residual split (MDZ-style bound accounting: the residual is
//!    taken against the *reconstructed* template, so the user bound holds);
//! 4. **quantization-bin classification** ([`cliz_quant::classify()`](cliz_quant::classify()) +
//!    multi-Huffman) — per-horizontal-position shifting and dispersion
//!    grouping with two Huffman trees.
//!
//! The [`autotune`](autotune/index.html) module implements the paper's offline stage: 2^n-block
//! sampling (Sec. VI-A) and exhaustive pipeline search, producing a
//! [`config::PipelineConfig`] reusable across fields/snapshots of the same
//! climate model.
//!
//! # Quick start
//!
//! ```
//! use cliz_core::{compress, decompress, config::PipelineConfig};
//! use cliz_grid::{Grid, Shape};
//! use cliz_quant::ErrorBound;
//!
//! let data = Grid::from_fn(Shape::new(&[16, 32]), |c| (c[0] + c[1]) as f32);
//! let bytes = compress(&data, None, ErrorBound::Abs(1e-3), &PipelineConfig::default_for(2)).unwrap();
//! let recon = decompress(&bytes, None).unwrap();
//! for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
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

pub mod autotune;
pub mod chunked;
pub mod compressor;
pub mod config;
pub mod error;
pub mod periodic;
pub mod pipeline;
pub mod scratch;

pub use autotune::{autotune, autotune_fast, TuneResult, TuneSpec};
pub use chunked::{
    compress_chunked_with_threads, decompress_chunk_blob_arena, decompress_chunked,
    decompress_chunked_with_threads, read_header, read_header_prefix, run_pool, ChunkIndex,
    ChunkedHeader,
};
pub use cliz_grid::cast;
/// The zlite lossless backend, for containers built on cliz-core (the
/// store frames its mask with it).
pub use cliz_lossless as lossless;
pub use compressor::{
    compress, compress_with_stats_arena, decompress, decompress_arena, valid_min_max, CompressStats,
};
pub use config::{Periodicity, PipelineConfig};
pub use error::ClizError;
pub use scratch::ScratchArena;
