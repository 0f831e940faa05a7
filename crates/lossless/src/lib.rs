//! `zlite` — a from-scratch LZ77 + canonical-Huffman lossless codec.
//!
//! SZ3 (and therefore CliZ) finishes its pipeline with a byte-level lossless
//! pass over the Huffman-coded quantization stream; the reference
//! implementation uses Zstd. This crate is the offline substitute: a
//! deflate-class coder with a 32 KiB sliding window, hash-chain match
//! finding, and separate literal/length and distance Huffman alphabets.
//! It is not Zstd — but it removes the same residual byte-level redundancy,
//! which is all the compression-ratio comparisons in the paper need.
//!
//! Format (`ZLT1`): `magic u32 | raw_len u64 | mode u8 | payload`.
//! `mode 0` stores bytes verbatim (used when compression does not pay);
//! `mode 1` is the LZ+Huffman bitstream.

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

pub mod codes;
pub mod format;
pub mod lz;
pub mod reference;

pub use format::{compress, compress_lz, declared_len, decompress, Error};
