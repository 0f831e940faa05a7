//! Error-bounded linear-scale quantization and quantization-bin
//! classification for CliZ.
//!
//! The SZ3 framework turns prediction errors into integer *bins* with a
//! fixed step of `2·eb`, guaranteeing `|x − x̂| ≤ eb` pointwise; errors too
//! large for the bin range escape to a literal channel. CliZ adds the
//! Sec. VI-E classification stage: per-horizontal-position bin *shifting*
//! (recentering each location's dominant bin at zero, `j = 1`) and
//! *dispersion* grouping with threshold `λ = 0.4` (Theorem 2), which feeds
//! the multi-Huffman coder.

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

pub mod bound;
pub mod classify;
pub mod quantizer;
pub mod symbol;

pub use bound::ErrorBound;
pub use classify::{classify, Classification, ClassifySpec};
pub use quantizer::{LinearQuantizer, Quantized};
pub use symbol::{bin_to_symbol, symbol_to_bin, ESCAPE};
