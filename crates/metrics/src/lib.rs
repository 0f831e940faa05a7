//! Reconstruction-quality and rate metrics for CliZ experiments.
//!
//! Implements the distortion metrics of Sec. VII-B — PSNR (Eq. 3) and
//! windowed SSIM (Eq. 4–5) — plus the rate bookkeeping (compression ratio,
//! bit-rate) used on every rate-distortion axis in the paper, and the PGM
//! dumps behind the Fig. 14 visual comparison. All metrics are mask-aware:
//! invalid points are excluded exactly as the climate community excludes
//! fill values.

// Truncating or wrapping casts go through the `cliz_grid::cast` helpers (see
// docs/STATIC_ANALYSIS.md).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

pub mod analysis;
pub mod error;
pub mod rate;
pub mod ssim;
pub mod vis;

pub use analysis::{analyze_errors, ErrorAnalysis};
pub use error::{max_abs_error, psnr, rmse, verify_bound, ErrorStats};
pub use rate::{bit_rate, compression_ratio, RateStats};
pub use ssim::{ssim, SsimSpec};
pub use vis::{slice_to_pgm, write_pgm};
