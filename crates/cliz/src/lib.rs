//! # CliZ
//!
//! Error-bounded lossy compression optimized for climate datasets — a Rust
//! reproduction of *"CliZ: Optimizing Lossy Compression for Climate Datasets
//! with Adaptive Fine-tuned Data Prediction"* (IPDPS 2024).
//!
//! This facade re-exports the whole workspace under one roof:
//!
//! * [`compress`] / [`decompress`] / [`autotune()`](autotune()) — the CliZ compressor;
//! * [`Cliz`] — an adapter implementing the same [`Compressor`] trait as the
//!   bundled SZ3 / ZFP / SPERR / QoZ baselines, for uniform sweeps;
//! * [`grid`], [`data`], [`metrics`], [`transfer`] — substrates: containers,
//!   synthetic CESM-like datasets, quality metrics, WAN simulation.
//!
//! ```
//! use cliz::prelude::*;
//!
//! // A small synthetic sea-surface-height field (land is masked).
//! let field = cliz::data::ssh(&[48, 40, 60], 42);
//! let config = PipelineConfig::default_for(3);
//! let bytes = cliz::compress(
//!     &field.data,
//!     field.mask.as_ref(),
//!     ErrorBound::Rel(1e-3),
//!     &config,
//! )
//! .unwrap();
//! let recon = cliz::decompress(&bytes, field.mask.as_ref()).unwrap();
//! let psnr = cliz::metrics::psnr(
//!     field.data.as_slice(),
//!     recon.as_slice(),
//!     field.mask.as_ref(),
//! );
//! assert!(psnr > 50.0);
//! ```

pub use cliz_core::{
    autotune, autotune_fast, compress, compress_chunked_with_threads, compress_with_stats_arena,
    decompress, decompress_arena, decompress_chunked, decompress_chunked_with_threads,
    valid_min_max, ClizError, CompressStats, Periodicity, PipelineConfig, ScratchArena, TuneResult,
    TuneSpec,
};

// Frozen pre-optimization reference implementations, re-exported for the
// differential tests only (see their docs in cliz-core).
#[doc(hidden)]
pub use cliz_core::chunked::compress_chunked_alloc_baseline;
#[doc(hidden)]
pub use cliz_core::compressor::compress_alloc_baseline;

/// Resolves a value-range-relative tolerance against the *valid* (unmasked,
/// finite) range — the fair way to drive mask-blind baselines at the same
/// fidelity target as CliZ on masked datasets.
pub fn rel_bound_on_valid(
    data: &cliz_grid::Grid<f32>,
    mask: Option<&cliz_grid::MaskMap>,
    ratio: f64,
) -> cliz_quant::ErrorBound {
    let (mn, mx) = valid_min_max(data, mask);
    cliz_quant::ErrorBound::Abs(cliz_quant::ErrorBound::Rel(ratio).resolve(mn, mx))
}

pub use cliz_baselines::{BaselineError, Compressor, Qoz, Sperr, Sz2Lorenzo, SzInterp, Zfp};

/// Grid containers and shape algebra.
pub mod grid {
    pub use cliz_grid::*;
}

/// Synthetic climate dataset generators.
pub mod data {
    pub use cliz_climate_data::*;
}

/// Quality and rate metrics.
pub mod metrics {
    pub use cliz_metrics::*;
}

/// WAN transfer simulation.
pub mod transfer {
    pub use cliz_transfer::*;
}

/// Entropy coding building blocks.
pub mod entropy {
    pub use cliz_entropy::*;
}

/// The `zlite` lossless backend.
pub mod lossless {
    pub use cliz_lossless::*;
}

/// Quantization and bin classification.
pub mod quant {
    pub use cliz_quant::*;
}

/// Interpolation predictors.
pub mod predict {
    pub use cliz_predict::*;
}

/// FFT / periodicity detection.
pub mod fft {
    pub use cliz_fft::*;
}

/// The auto-tuning module (pipeline enumeration etc.).
pub mod tuning {
    pub use cliz_core::autotune::*;
}

/// Periodic template/residual machinery (exposed for analysis harnesses).
pub mod periodic {
    pub use cliz_core::periodic::*;
}

/// Storage layer: CAF dataset files and the CZS random-access chunk store
/// (region queries, decoded-chunk cache evicting by lookup count, then
/// recency, concurrent readers).
pub mod store {
    pub use cliz_store::*;
}

pub use cliz_core::{
    decompress_chunk_blob_arena, read_header, read_header_prefix, ChunkIndex, ChunkedHeader,
};
pub use cliz_store::{pack_store, ChunkStoreReader};

/// Common imports for applications.
pub mod prelude {
    pub use crate::{
        autotune, autotune_fast, compress, decompress, Cliz, Compressor, Periodicity,
        PipelineConfig, Qoz, Sperr, Sz2Lorenzo, SzInterp, TuneSpec, Zfp,
    };
    pub use cliz_grid::{Grid, MaskMap, Shape};
    pub use cliz_quant::ErrorBound;
}

use cliz_grid::{Grid, MaskMap};
use cliz_quant::ErrorBound;

/// CliZ behind the uniform [`Compressor`] trait, so rate-distortion sweeps
/// can treat it like the baselines.
///
/// Holds an optional tuned [`PipelineConfig`]; without one, compression uses
/// [`PipelineConfig::default_for`] (identity permutation, cubic fitting,
/// mask-aware, no classification/periodicity) — i.e. untuned CliZ.
#[derive(Clone, Debug, Default)]
pub struct Cliz {
    pub config: Option<PipelineConfig>,
}

impl Cliz {
    /// Untuned CliZ (per-rank default pipeline).
    pub fn new() -> Self {
        Self { config: None }
    }

    /// CliZ with an offline-tuned pipeline (the paper's intended usage).
    pub fn tuned(config: PipelineConfig) -> Self {
        Self {
            config: Some(config),
        }
    }
}

impl Compressor for Cliz {
    fn name(&self) -> &'static str {
        "CliZ"
    }

    fn compress(
        &self,
        data: &Grid<f32>,
        mask: Option<&MaskMap>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, BaselineError> {
        let config = self
            .config
            .clone()
            .unwrap_or_else(|| PipelineConfig::default_for(data.shape().ndim()));
        compress(data, mask, bound, &config).map_err(|e| BaselineError::Backend(e.to_string()))
    }

    fn decompress(&self, bytes: &[u8], mask: Option<&MaskMap>) -> Result<Grid<f32>, BaselineError> {
        decompress(bytes, mask).map_err(|e| BaselineError::Backend(e.to_string()))
    }
}

/// Every compressor the paper's Fig. 10 sweeps, in display order.
/// CliZ is last so tables print baselines first.
pub fn all_compressors(tuned: Option<PipelineConfig>) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzInterp),
        Box::new(Zfp),
        Box::new(Sperr),
        Box::new(Qoz),
        Box::new(match tuned {
            Some(c) => Cliz::tuned(c),
            None => Cliz::new(),
        }),
    ]
}

/// [`all_compressors`] plus the SZ2-style Lorenzo comparator (cited by the
/// paper as CliZ's lineage but not part of its Fig. 10 sweep).
pub fn all_compressors_extended(tuned: Option<PipelineConfig>) -> Vec<Box<dyn Compressor>> {
    let mut v = all_compressors(tuned);
    v.insert(0, Box::new(Sz2Lorenzo));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::Shape;

    #[test]
    fn trait_adapter_roundtrip() {
        let g = Grid::from_fn(Shape::new(&[20, 30]), |c| {
            ((c[0] as f32 * 0.3).sin() + (c[1] as f32 * 0.2).cos()) * 5.0
        });
        let cliz = Cliz::new();
        let bytes = cliz.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        let out = cliz.decompress(&bytes, None).unwrap();
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() <= 1e-3);
        }
    }

    #[test]
    fn all_compressors_listed() {
        let cs = all_compressors(None);
        let names: Vec<&str> = cs.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["SZ3", "ZFP", "SPERR", "QoZ1.1", "CliZ"]);
    }
}
