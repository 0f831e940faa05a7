//! Multilevel interpolation prediction for CliZ.
//!
//! This implements the SZ3 "dynamic spline interpolation" decomposition
//! (Zhao et al., ICDE'21) that CliZ builds on, extended with the paper's
//! mask-map-aware fitting (Sec. VI-B, Theorem 1):
//!
//! * data is traversed level by level with strides `s = 2^L, …, 4, 2, 1`;
//!   at each level every dimension is swept in order, predicting the points
//!   at odd multiples of `s` along that dimension from already-reconstructed
//!   neighbours at `±s` and `±3s`;
//! * **cubic fitting** uses the four neighbours with the classic
//!   `(−1/16, 9/16, 9/16, −1/16)` weights; **linear fitting** averages the
//!   two nearest;
//! * neighbours that are out of bounds **or masked invalid** are excluded by
//!   recomputing the fit coefficients with Theorem 1's `M`/`B` product
//!   formula, which degrades cubic → quadratic → linear → constant → zero
//!   exactly as the paper prescribes;
//! * each predicted point is quantized immediately (compression) or
//!   reconstructed from its bin (decompression), so later predictions always
//!   see decoder-identical values.
//!
//! The symbol stream is materialized as a *grid* in raster order (one symbol
//! per point), which makes the downstream classification and multi-Huffman
//! stages order-independent of the interpolation traversal.

// Truncating or wrapping casts go through the `cliz_grid::cast` helpers (see
// docs/STATIC_ANALYSIS.md).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

pub mod fitting;
pub mod interp;
pub mod reference;
pub mod stretches;

pub use fitting::{cubic_coeffs, linear_coeffs, Fitting};
pub use interp::{
    predict_quantize, predict_quantize_leveled, reconstruct, reconstruct_leveled, InterpParams,
    ReconstructError,
};
pub use reference::{
    ref_predict_quantize, ref_predict_quantize_leveled, ref_reconstruct, ref_reconstruct_leveled,
};
pub use stretches::Stretches;
