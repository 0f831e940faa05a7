//! Entropy coding for CliZ: bit-level I/O, canonical Huffman, and the
//! paper's multi-Huffman group coder (Sec. VI-E).
//!
//! SZ3-family compressors Huffman-encode the quantization-bin stream before
//! handing it to a byte-level lossless backend. CliZ extends this with
//! *quantization-bin classification*: bins are partitioned into groups by
//! horizontal position (shifting/dispersion patterns), and each group gets
//! its own Huffman tree — clustering similar bin distributions sharpens each
//! tree's histogram and shortens the expected code length.
//!
//! Everything here is self-contained (no std `HashMap` in hot paths, MSB-first
//! bit order, canonical codes) so encode and decode are bit-exact across
//! platforms.

// Decode paths must never panic on untrusted input, and truncating or
// wrapping casts go through the `cliz_grid::cast` helpers (see
// docs/STATIC_ANALYSIS.md).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap
    )
)]

pub mod bitio;
pub mod huffman;
pub mod multi;
pub mod reference;

/// Decode-side cap on symbol-alphabet sizes read from untrusted headers.
/// Honest streams in this workspace stay at or below `2·radius + 2 ≈ 2^16`;
/// the cap keeps a corrupt header from forcing a multi-GiB table allocation
/// before any payload byte is validated.
pub(crate) const MAX_DECODE_ALPHABET: usize = 1 << 24;

pub use bitio::{BitReader, BitWriter};
pub use huffman::{HuffmanDecoder, HuffmanEncoder};
pub use multi::{multi_decode, multi_encode};
