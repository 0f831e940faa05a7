//! Directional integration tests for CliZ's four optimizations: each feature
//! must pay off on data exhibiting the property it targets (the qualitative
//! content of the paper's Tables V/VI).

use cliz::grid::FusionSpec;
use cliz::prelude::*;

fn ratio(bytes: &[u8], original_points: usize) -> f64 {
    (original_points * 4) as f64 / bytes.len() as f64
}

#[test]
fn mask_awareness_pays_on_masked_data() {
    let d = cliz::data::ssh(&[40, 32, 60], 17);
    let bound = ErrorBound::Rel(1e-3);
    let on = PipelineConfig::default_for(3);
    let off = PipelineConfig {
        use_mask: false,
        ..on.clone()
    };
    let b_on = cliz::compress(&d.data, d.mask.as_ref(), bound, &on).unwrap();
    let b_off = cliz::compress(&d.data, d.mask.as_ref(), bound, &off).unwrap();
    assert!(
        b_on.len() < b_off.len(),
        "mask on {} !< off {}",
        b_on.len(),
        b_off.len()
    );
}

#[test]
fn periodicity_pays_on_annual_cycle_data() {
    let d = cliz::data::ssh(&[32, 24, 240], 23);
    let bound = ErrorBound::Rel(1e-3);
    let plain = PipelineConfig::default_for(3);
    let periodic = PipelineConfig {
        periodicity: Periodicity::Extract {
            time_axis: 2,
            period: 12,
        },
        ..plain.clone()
    };
    let b_plain = cliz::compress(&d.data, d.mask.as_ref(), bound, &plain).unwrap();
    let b_per = cliz::compress(&d.data, d.mask.as_ref(), bound, &periodic).unwrap();
    assert!(
        b_per.len() < b_plain.len(),
        "periodic {} !< plain {}",
        b_per.len(),
        b_plain.len()
    );
}

#[test]
fn permutation_matters_on_anisotropic_data() {
    // CESM-T-like: rough height axis first. Prediction should improve when
    // the rough axis is fused/permuted away from the fine-grained role.
    let d = cliz::data::cesm_t(&[12, 64, 96], 31);
    let bound = ErrorBound::Rel(1e-3);
    let mut ratios = Vec::new();
    for perm in [vec![0usize, 1, 2], vec![1, 2, 0], vec![2, 0, 1]] {
        let cfg = PipelineConfig {
            permutation: perm.clone(),
            ..PipelineConfig::default_for(3)
        };
        let b = cliz::compress(&d.data, None, bound, &cfg).unwrap();
        ratios.push((perm, ratio(&b, d.data.len())));
    }
    let best = ratios.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
    let worst = ratios.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    assert!(
        best / worst > 1.02,
        "permutation should matter on anisotropic data: {ratios:?}"
    );
}

#[test]
fn fusion_changes_results_and_roundtrips() {
    let d = cliz::data::cesm_t(&[8, 40, 64], 37);
    let bound = ErrorBound::Rel(1e-3);
    for fusion in FusionSpec::candidates(3) {
        let cfg = PipelineConfig {
            fusion,
            ..PipelineConfig::default_for(3)
        };
        let b = cliz::compress(&d.data, None, bound, &cfg).unwrap();
        let out = cliz::decompress(&b, None).unwrap();
        let max_err = cliz::metrics::max_abs_error(d.data.as_slice(), out.as_slice(), None);
        let (mn, mx) = d.data.finite_min_max(None).unwrap();
        assert!(max_err <= 1e-3 * (mx - mn) as f64 * (1.0 + 1e-9));
    }
}

#[test]
fn classification_pays_on_topographic_bin_patterns() {
    // Build a field whose quantization bins shift per horizontal position:
    // per-position linear drift along the slice axis with position-dependent
    // slope — the shifting pattern of Sec. VI-E.
    let shape = cliz::grid::Shape::new(&[64, 24, 24]);
    let eb = 1e-3f64;
    let g = cliz::grid::Grid::from_fn(shape, |c| {
        let pos = c[1] * 24 + c[2];
        // Slope multiples of the quantization step so bins are biased.
        let slope = ((pos % 5) as f64 - 2.0) * 2.0 * eb;
        (c[0] as f64 * slope + (pos as f64 * 0.37).sin() * 0.01) as f32
    });
    let base = PipelineConfig {
        classification: false,
        ..PipelineConfig::default_for(3)
    };
    let with = PipelineConfig {
        classification: true,
        ..base.clone()
    };
    let b0 = cliz::compress(&g, None, ErrorBound::Abs(eb), &base).unwrap();
    let b1 = cliz::compress(&g, None, ErrorBound::Abs(eb), &with).unwrap();
    assert!(
        b1.len() < b0.len(),
        "classification {} !< plain {}",
        b1.len(),
        b0.len()
    );
    // And it must round-trip.
    let out = cliz::decompress(&b1, None).unwrap();
    let max_err = cliz::metrics::max_abs_error(g.as_slice(), out.as_slice(), None);
    assert!(max_err <= eb * (1.0 + 1e-9));
}

#[test]
fn autotuned_pipeline_not_worse_than_default() {
    let d = cliz::data::ssh(&[48, 40, 120], 41);
    let bound = ErrorBound::Rel(1e-3);
    let tuned = cliz::autotune(
        &d.data,
        d.mask.as_ref(),
        TuneSpec {
            sampling_rate: 0.05,
            time_axis: d.time_axis,
            bound,
        },
    )
    .unwrap();
    let b_tuned = cliz::compress(&d.data, d.mask.as_ref(), bound, &tuned.best).unwrap();
    let b_default = cliz::compress(
        &d.data,
        d.mask.as_ref(),
        bound,
        &PipelineConfig::default_for(3),
    )
    .unwrap();
    // Sampling noise allows small regressions; large ones mean the tuner is
    // broken.
    assert!(
        (b_tuned.len() as f64) < 1.15 * b_default.len() as f64,
        "tuned {} much worse than default {}",
        b_tuned.len(),
        b_default.len()
    );
}

#[test]
fn tuned_config_transfers_across_fields_of_same_model() {
    // Paper claim: one offline tuning per climate model, reused across
    // fields/snapshots. Tune on one member, apply to another.
    let train = cliz::data::ssh(&[40, 32, 120], 50);
    let bound = ErrorBound::Rel(1e-3);
    let tuned = cliz::autotune(
        &train.data,
        train.mask.as_ref(),
        TuneSpec {
            sampling_rate: 0.05,
            time_axis: train.time_axis,
            bound,
        },
    )
    .unwrap();

    let other = cliz::data::ssh(&[40, 32, 120], 51);
    let b = cliz::compress(&other.data, other.mask.as_ref(), bound, &tuned.best).unwrap();
    let out = cliz::decompress(&b, other.mask.as_ref()).unwrap();
    let psnr = cliz::metrics::psnr(other.data.as_slice(), out.as_slice(), other.mask.as_ref());
    assert!(psnr > 55.0, "transferred config gives poor quality: {psnr}");
}

/// The fast tuner ranks axes by their mean first difference alone, through
/// the mean-only kernel. Its orientation must be the one the full
/// smoothness statistics give (roughest axis first), for the winner and
/// every ranked candidate, on every generator of cliz-climate-data at two
/// seeds, masked and periodic fields included.
#[test]
fn fast_tuner_orientation_follows_full_smoothness_statistics() {
    use cliz::data::{cesm_t, hurricane_t, relhum, salt, soilliq, ssh, tsfc};
    for seed in [5u64, 31] {
        let fields = [
            ssh(&[20, 24, 48], seed),
            cesm_t(&[8, 20, 24], seed),
            relhum(&[8, 20, 24], seed),
            soilliq(&[36, 3, 10, 12], seed),
            salt(&[3, 10, 12, 36], seed),
            tsfc(&[20, 24, 48], seed),
            hurricane_t(&[10, 20, 20], seed),
        ];
        for d in &fields {
            let all_valid = MaskMap::all_valid(d.data.shape().clone());
            let mask = d.mask.as_ref().unwrap_or(&all_valid);
            let stats = cliz::grid::dimension_smoothness(&d.data, mask);
            let mut rough_first: Vec<usize> = (0..stats.len()).collect();
            rough_first.sort_by(|&a, &b| stats[a].mean_abs_diff.total_cmp(&stats[b].mean_abs_diff));
            rough_first.reverse();
            let spec = TuneSpec {
                sampling_rate: 0.05,
                time_axis: d.time_axis,
                ..TuneSpec::new(ErrorBound::Rel(1e-3))
            };
            let fast = autotune_fast(&d.data, d.mask.as_ref(), spec).unwrap();
            let name = format!("{} seed {seed}", d.kind.name());
            assert_eq!(fast.best.permutation, rough_first, "{name}: winner");
            assert!(!fast.ranking.is_empty(), "{name}");
            for c in &fast.ranking {
                assert_eq!(c.config.permutation, rough_first, "{name}: ranking");
            }
        }
    }
}
