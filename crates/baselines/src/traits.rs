//! The compressor interface shared by all baselines (and adapted by CliZ in
//! the facade crate), so rate-distortion harnesses can sweep uniformly.

use cliz_grid::{Grid, MaskMap};
use cliz_quant::ErrorBound;

/// Decode/encode failure for baseline codecs.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    BadMagic,
    Truncated,
    UnsupportedVersion(u8),
    Corrupt(&'static str),
    Backend(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::BadMagic => write!(f, "baseline: bad magic"),
            BaselineError::Truncated => write!(f, "baseline: truncated stream"),
            BaselineError::UnsupportedVersion(v) => {
                write!(f, "baseline: unsupported container version {v}")
            }
            BaselineError::Corrupt(w) => write!(f, "baseline: corrupt stream ({w})"),
            BaselineError::Backend(w) => write!(f, "baseline backend: {w}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<cliz_format::FormatError> for BaselineError {
    fn from(e: cliz_format::FormatError) -> Self {
        match e {
            cliz_format::FormatError::Truncated => BaselineError::Truncated,
            cliz_format::FormatError::BadMagic => BaselineError::BadMagic,
            cliz_format::FormatError::UnsupportedVersion(v) => BaselineError::UnsupportedVersion(v),
            cliz_format::FormatError::Corrupt(what) => BaselineError::Corrupt(what),
        }
    }
}

impl From<cliz_lossless::Error> for BaselineError {
    fn from(e: cliz_lossless::Error) -> Self {
        BaselineError::Backend(e.to_string())
    }
}

/// A uniform error-bounded compressor interface.
///
/// `mask` is advisory: CliZ exploits it, the baselines ignore it (they
/// compress fill values as ordinary data, as their real counterparts do).
/// `Send + Sync` so harnesses can fan compressors across worker threads.
pub trait Compressor: Send + Sync {
    /// Display name used in experiment tables ("SZ3", "ZFP", …).
    fn name(&self) -> &'static str;

    fn compress(
        &self,
        data: &Grid<f32>,
        mask: Option<&MaskMap>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, BaselineError>;

    fn decompress(&self, bytes: &[u8], mask: Option<&MaskMap>) -> Result<Grid<f32>, BaselineError>;
}
