//! Cross-crate integration: every compressor honours the error bound on
//! every (scaled-down) Table III dataset.

use cliz::data::ClimateDataset;
use cliz::prelude::*;

fn small_datasets() -> Vec<ClimateDataset> {
    vec![
        cliz::data::ssh(&[32, 28, 48], 1),
        cliz::data::cesm_t(&[8, 36, 60], 1),
        cliz::data::relhum(&[6, 30, 48], 1),
        cliz::data::soilliq(&[24, 4, 24, 32], 1),
        cliz::data::tsfc(&[36, 30, 24], 1),
        cliz::data::hurricane_t(&[10, 40, 40], 1),
    ]
}

/// Resolves the absolute bound the same way the compressors do: relative to
/// the valid (unmasked) value range.
fn resolve_eb_valid(d: &ClimateDataset, rel: f64) -> f64 {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for (i, &v) in d.data.as_slice().iter().enumerate() {
        let valid = d.mask.as_ref().is_none_or(|m| m.is_valid(i));
        if valid && v.is_finite() {
            mn = mn.min(v);
            mx = mx.max(v);
        }
    }
    rel * (mx - mn) as f64
}

/// Baselines are mask-blind: they resolve Rel bounds against the full data
/// range including fills, which makes their effective bound huge on masked
/// datasets (exactly the paper's point). To assert a *meaningful* contract
/// for everyone, drive every compressor with an absolute bound computed from
/// the valid range.
#[test]
fn error_bound_contract_all_compressors_all_datasets() {
    for dataset in small_datasets() {
        let eb = resolve_eb_valid(&dataset, 1e-3);
        let bound = ErrorBound::Abs(eb);
        for compressor in cliz::all_compressors_extended(None) {
            let bytes = compressor
                .compress(&dataset.data, dataset.mask.as_ref(), bound)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} failed on {}: {e}",
                        compressor.name(),
                        dataset.kind.name()
                    )
                });
            let recon = compressor
                .decompress(&bytes, dataset.mask.as_ref())
                .unwrap_or_else(|e| {
                    panic!(
                        "{} decode failed on {}: {e}",
                        compressor.name(),
                        dataset.kind.name()
                    )
                });
            assert_eq!(recon.shape(), dataset.data.shape());
            // CliZ guarantees the bound on valid points; the mask-blind
            // baselines guarantee it everywhere. Check valid points for all.
            let max_err = cliz::metrics::max_abs_error(
                dataset.data.as_slice(),
                recon.as_slice(),
                dataset.mask.as_ref(),
            );
            assert!(
                max_err <= eb * (1.0 + 1e-9),
                "{} on {}: max err {max_err} > eb {eb}",
                compressor.name(),
                dataset.kind.name()
            );
        }
    }
}

#[test]
fn all_compressors_actually_compress_climate_data() {
    let dataset = cliz::data::cesm_t(&[10, 48, 80], 3);
    let eb = resolve_eb_valid(&dataset, 1e-3);
    let original = dataset.data.len() * 4;
    for compressor in cliz::all_compressors(None) {
        let bytes = compressor
            .compress(&dataset.data, None, ErrorBound::Abs(eb))
            .unwrap();
        let ratio = original as f64 / bytes.len() as f64;
        assert!(
            ratio > 2.0,
            "{} ratio only {ratio:.2} on smooth atmosphere data",
            compressor.name()
        );
    }
}

#[test]
fn cliz_beats_mask_blind_baselines_on_masked_data() {
    // The headline qualitative claim (Table V "Mask" row / SOILLIQ note):
    // on heavily masked variables CliZ's ratio advantage is large.
    let dataset = cliz::data::soilliq(&[24, 4, 32, 48], 9);
    let eb = resolve_eb_valid(&dataset, 1e-2);
    let bound = ErrorBound::Abs(eb);
    let original = dataset.data.len() * 4;

    let cliz_bytes = Cliz::new()
        .compress(&dataset.data, dataset.mask.as_ref(), bound)
        .unwrap();
    let cliz_ratio = original as f64 / cliz_bytes.len() as f64;

    for baseline in [
        &cliz::all_compressors(None)[0],
        &cliz::all_compressors(None)[1],
    ] {
        let b = baseline
            .compress(&dataset.data, dataset.mask.as_ref(), bound)
            .unwrap();
        let r = original as f64 / b.len() as f64;
        assert!(
            cliz_ratio > 1.5 * r,
            "CliZ {cliz_ratio:.1}x should dominate {} {r:.1}x on 70%-masked data",
            baseline.name()
        );
    }
}

#[test]
fn psnr_improves_with_tighter_bounds() {
    let dataset = cliz::data::ssh(&[32, 28, 48], 4);
    let mut last_psnr = 0.0f64;
    for rel in [1e-1, 1e-2, 1e-3, 1e-4] {
        let eb = resolve_eb_valid(&dataset, rel);
        let bytes = cliz::compress(
            &dataset.data,
            dataset.mask.as_ref(),
            ErrorBound::Abs(eb),
            &PipelineConfig::default_for(3),
        )
        .unwrap();
        let recon = cliz::decompress(&bytes, dataset.mask.as_ref()).unwrap();
        let psnr = cliz::metrics::psnr(
            dataset.data.as_slice(),
            recon.as_slice(),
            dataset.mask.as_ref(),
        );
        assert!(
            psnr > last_psnr,
            "PSNR should rise as eb tightens: {psnr} after {last_psnr}"
        );
        last_psnr = psnr;
    }
    assert!(last_psnr > 80.0, "1e-4 rel bound should exceed 80 dB");
}

#[test]
fn ssim_near_one_for_tight_bounds() {
    let dataset = cliz::data::tsfc(&[40, 32, 24], 8);
    let eb = resolve_eb_valid(&dataset, 1e-4);
    let bytes = cliz::compress(
        &dataset.data,
        dataset.mask.as_ref(),
        ErrorBound::Abs(eb),
        &PipelineConfig::default_for(3),
    )
    .unwrap();
    let recon = cliz::decompress(&bytes, dataset.mask.as_ref()).unwrap();
    let ssim = cliz::metrics::ssim(
        &dataset.data,
        &recon,
        dataset.mask.as_ref(),
        cliz::metrics::SsimSpec::default(),
    );
    assert!(ssim > 0.99, "SSIM {ssim}");
}
