//! Rate-distortion measurement shared by the figure harnesses.

use cliz::data::ClimateDataset;
use cliz::metrics::{psnr, ssim, SsimSpec};
use cliz::prelude::*;

/// One point on a rate-distortion curve.
#[derive(Clone, Debug)]
pub struct RdPoint {
    pub compressor: &'static str,
    pub rel_eb: f64,
    pub compressed_bytes: usize,
    pub ratio: f64,
    pub bit_rate: f64,
    pub psnr_db: f64,
    pub ssim: f64,
    pub compress_s: f64,
    pub decompress_s: f64,
}

/// Runs one compressor at one relative tolerance on one dataset. The
/// tolerance is resolved on the valid value range for every compressor so
/// mask-blind baselines are held to the same fidelity target (distortion is
/// likewise measured on valid points only, as climate evaluations do).
pub fn rd_point(compressor: &dyn Compressor, dataset: &ClimateDataset, rel_eb: f64) -> RdPoint {
    let bound = cliz::rel_bound_on_valid(&dataset.data, dataset.mask.as_ref(), rel_eb);

    let t0 = std::time::Instant::now();
    let bytes = compressor
        .compress(&dataset.data, dataset.mask.as_ref(), bound)
        .unwrap_or_else(|e| panic!("{} failed: {e}", compressor.name()));
    let compress_s = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let recon = compressor
        .decompress(&bytes, dataset.mask.as_ref())
        .unwrap_or_else(|e| panic!("{} decode failed: {e}", compressor.name()));
    let decompress_s = t0.elapsed().as_secs_f64();

    let original = dataset.data.len() * std::mem::size_of::<f32>();
    RdPoint {
        compressor: compressor.name(),
        rel_eb,
        compressed_bytes: bytes.len(),
        ratio: original as f64 / bytes.len() as f64,
        bit_rate: bytes.len() as f64 * 8.0 / dataset.data.len() as f64,
        psnr_db: psnr(
            dataset.data.as_slice(),
            recon.as_slice(),
            dataset.mask.as_ref(),
        ),
        ssim: ssim(
            &dataset.data,
            &recon,
            dataset.mask.as_ref(),
            SsimSpec::default(),
        ),
        compress_s,
        decompress_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rd_point_sane() {
        let d = cliz::data::ssh(&[32, 24, 48], 3);
        let p = rd_point(&Cliz::new(), &d, 1e-3);
        assert!(p.ratio > 1.0);
        assert!(p.psnr_db > 40.0);
        assert!(p.ssim > 0.8);
        assert!((p.bit_rate - 32.0 / p.ratio).abs() < 1e-9);
    }
}
