//! Offline auto-tuning (Sec. VI-A, Fig. 2).
//!
//! The tuner samples 2^n blocks (⅓/⅔ anchors) of the training field, then
//! compresses the sample under **every** candidate pipeline — all
//! permutations × fusions × fitting families × classification on/off ×
//! periodic extraction on/off (when a period is detected) — and ranks them by
//! estimated compression ratio. For a 3-D periodic dataset that is the
//! paper's 192 pipelines; without periodicity, 96.
//!
//! The chosen [`PipelineConfig`] is the per-climate-model artifact users
//! reuse for every field/snapshot of the same model.
//!
//! Both tuners compress their candidates on cliz-core's one worker pool
//! ([`run_pool`]) at the host's parallelism, as the chunked codec does. The
//! pool returns results in candidate order, so the ranking, the winner and
//! the error returned do not depend on the number of cores.

use crate::chunked::run_pool;
use crate::compressor::compress_with_stats_arena;
use crate::config::{Periodicity, PipelineConfig};
use crate::error::ClizError;
use cliz_fft::{estimate_period, PeriodSpec};
use cliz_grid::{sample_blocks, FusionSpec, Grid, MaskMap, SampleSpec, Shape};
use cliz_predict::Fitting;
use cliz_quant::ErrorBound;

/// Auto-tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct TuneSpec {
    /// Sample volume / full volume, in (0, 1]. The paper uses 1% by default
    /// and shows 0.1% loses only ~3% compression ratio (Table IV).
    pub sampling_rate: f64,
    /// Which axis carries time, if any (dataset metadata). Periodic
    /// candidates are only generated when this is set *and* the FFT detector
    /// finds a significant period.
    pub time_axis: Option<usize>,
    /// Error bound the pipelines are evaluated under.
    pub bound: ErrorBound,
}

impl TuneSpec {
    pub fn new(bound: ErrorBound) -> Self {
        Self {
            sampling_rate: 0.01,
            time_axis: None,
            bound,
        }
    }
}

/// One evaluated candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub config: PipelineConfig,
    /// Compression ratio measured on the sample.
    pub est_ratio: f64,
    /// Sample compression wall time in seconds.
    pub seconds: f64,
}

/// Auto-tuning outcome.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The winning pipeline.
    pub best: PipelineConfig,
    /// Every candidate, sorted by descending estimated ratio.
    pub ranking: Vec<Candidate>,
    /// FFT-detected period along `time_axis`, if any.
    pub period_detected: Option<usize>,
    /// Points in the sampled grid.
    pub sample_points: usize,
    /// Total tuning wall time in seconds.
    pub seconds: f64,
}

/// Enumerates every candidate pipeline for a shape (paper Sec. VII-C2).
pub fn enumerate_pipelines(
    ndim: usize,
    period: Option<(usize, usize)>,
    use_mask: bool,
) -> Vec<PipelineConfig> {
    let mut periodicities = vec![Periodicity::None];
    if let Some((axis, p)) = period {
        periodicities.push(Periodicity::Extract {
            time_axis: axis,
            period: p,
        });
    }
    let mut out = Vec::new();
    for &periodicity in &periodicities {
        for &classification in &[false, true] {
            for perm in Shape::all_permutations(ndim) {
                for fusion in FusionSpec::candidates(ndim) {
                    for &fitting in &[Fitting::Linear, Fitting::Cubic] {
                        out.push(PipelineConfig {
                            permutation: perm.clone(),
                            fusion,
                            fitting,
                            classification,
                            lambda: cliz_quant::classify::optimal_lambda(),
                            periodicity,
                            template_eb_factor: 1.0,
                            use_mask,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Heuristic "fast tune": instead of the exhaustive pipeline sweep, pick the
/// permutation directly from measured per-axis smoothness (roughest axis
/// first, so fine-grained prediction lands on the smoothest axes — the
/// Sec. V-B insight applied greedily), then test only the small candidate
/// set {fitting × classification × periodicity} on the sample.
///
/// Use when the paper's "strict requirement on the total running time"
/// applies: 8 sample compressions instead of up to 192. Period detection,
/// the per-axis smoothness passes and the candidates run on the host's
/// parallelism.
pub fn autotune_fast(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    spec: TuneSpec,
) -> Result<TuneResult, ClizError> {
    let t0 = std::time::Instant::now();
    check_time_axis(data.shape(), spec)?;
    check_mask_shape(data.shape(), mask)?;
    // Only a maskless call needs the full-size all-valid stand-in.
    let all_valid;
    let mask_ref = match mask {
        Some(m) => m,
        None => {
            all_valid = MaskMap::all_valid(data.shape().clone());
            &all_valid
        }
    };
    let use_mask = mask.is_some_and(|m| !m.is_all_valid());

    // Roughest axis first: the interpolation sweep makes ~2^i / (2^n − 1) of
    // its predictions along the i-th processed dimension, so later = more,
    // and later should be smoother.
    let (period_detected, means) = first_phase(data, mask_ref, spec.time_axis)?;
    let mut permutation = cliz_grid::smoothness_order(&means);
    permutation.reverse();

    let sample_spec = match (spec.time_axis, period_detected) {
        (Some(axis), Some(p)) => {
            SampleSpec::with_axis_floor(spec.sampling_rate, axis, p.saturating_mul(3))
        }
        _ => SampleSpec::new(spec.sampling_rate),
    };
    let sampled = sample_blocks(data, mask_ref, sample_spec);
    let sample_points = sampled.data.len();

    let mut candidates = Vec::new();
    let mut periodicities = vec![Periodicity::None];
    if let (Some(axis), Some(p)) = (spec.time_axis, period_detected) {
        if p <= sampled.data.shape().dim(axis) / 2 {
            periodicities.push(Periodicity::Extract {
                time_axis: axis,
                period: p,
            });
        }
    }
    for &periodicity in &periodicities {
        for &classification in &[false, true] {
            for &fitting in &[Fitting::Linear, Fitting::Cubic] {
                candidates.push(PipelineConfig {
                    permutation: permutation.clone(),
                    fusion: FusionSpec::none(),
                    fitting,
                    classification,
                    lambda: cliz_quant::classify::optimal_lambda(),
                    periodicity,
                    template_eb_factor: 1.0,
                    use_mask,
                });
            }
        }
    }

    let ranking = rank_candidates(&sampled.data, &sampled.mask, spec.bound, candidates)?;
    Ok(TuneResult {
        best: winner(&ranking, spec, period_detected)?,
        ranking,
        period_detected,
        sample_points,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// A job of [`autotune_fast`]'s first phase.
enum Probe {
    /// Period detection along the time axis.
    Period(usize),
    /// One lane group of one axis's smoothness pass.
    Axis { axis: usize, group: usize },
}

/// A first-phase job's outcome.
enum Found {
    Period(Option<usize>),
    Sums(usize, cliz_grid::LaneSums),
}

/// [`autotune_fast`]'s first phase, on cliz-core's pool at the host's
/// parallelism: the period detected along `time_axis`, and each axis's
/// mean first difference, which the permutation is read from. Period
/// detection is one job beside the axis passes, and each axis pass is its
/// lane groups ([`cliz_grid::axis_lane_sums`]), one job each: three axes
/// and the period make seven jobs, which balance on two workers where the
/// three whole axes did not. The groups merge into the whole pass's mean
/// bit for bit ([`cliz_grid::axis_mean_abs_diff`] is the same merge), so
/// the order does not depend on the worker count.
fn first_phase(
    data: &Grid<f32>,
    mask: &MaskMap,
    time_axis: Option<usize>,
) -> Result<(Option<usize>, Vec<f64>), ClizError> {
    let ndim = data.shape().ndim();
    let mut jobs: Vec<Probe> = time_axis.map(Probe::Period).into_iter().collect();
    for axis in 0..ndim {
        jobs.extend((0..cliz_grid::LANE_GROUPS).map(|group| Probe::Axis { axis, group }));
    }
    // Relative costs on the archive workload's field, one thread: period
    // detection 0.4 ms, a lane group 1.1 ms.
    let cost = |job: &Probe| match job {
        Probe::Period(_) => 0.4,
        Probe::Axis { .. } => 1.1,
    };
    let found = run_pool(jobs, cost, 0, |job, _| {
        Ok::<_, ClizError>(match job {
            Probe::Period(axis) => {
                Found::Period(estimate_period(data, mask, axis, PeriodSpec::default()).period)
            }
            Probe::Axis { axis, group } => {
                Found::Sums(axis, cliz_grid::axis_lane_sums(data, mask, axis, group))
            }
        })
    })?;
    let mut period = None;
    let mut sums: Vec<Option<cliz_grid::LaneSums>> = vec![None; ndim];
    for f in found {
        match f {
            Found::Period(p) => period = p,
            Found::Sums(axis, s) => sums[axis] = Some(sums[axis].map_or(s, |acc| acc.merge(&s))),
        }
    }
    let means = sums.iter().map(|s| s.map_or(0.0, |s| s.mean().0)).collect();
    Ok((period, means))
}

/// Runs the offline auto-tuning stage.
pub fn autotune(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    spec: TuneSpec,
) -> Result<TuneResult, ClizError> {
    let t0 = std::time::Instant::now();
    check_time_axis(data.shape(), spec)?;
    check_mask_shape(data.shape(), mask)?;
    // Only a maskless call needs the full-size all-valid stand-in.
    let all_valid;
    let mask_ref = match mask {
        Some(m) => m,
        None => {
            all_valid = MaskMap::all_valid(data.shape().clone());
            &all_valid
        }
    };

    // Period detection runs on the full data (cheap: a few FFT rows); the
    // paper reports exactly this as the "constant increase in sampling time".
    let period_detected = spec
        .time_axis
        .and_then(|axis| estimate_period(data, mask_ref, axis, PeriodSpec::default()).period);

    // Block sampling. When a period was detected, floor the time axis at
    // three periods so periodic candidates stay evaluable at low rates
    // (the paper's Table IV keeps periodicity=12 down to 0.001% sampling).
    let sample_spec = match (spec.time_axis, period_detected) {
        (Some(axis), Some(p)) => {
            SampleSpec::with_axis_floor(spec.sampling_rate, axis, p.saturating_mul(3))
        }
        _ => SampleSpec::new(spec.sampling_rate),
    };
    let sampled = sample_blocks(data, mask_ref, sample_spec);
    let sample_points = sampled.data.len();
    let use_mask = mask.is_some_and(|m| !m.is_all_valid());

    // Candidate set. Periodic candidates need the period to fit inside the
    // sample's (possibly truncated) time axis.
    let period_for_sample = match (spec.time_axis, period_detected) {
        (Some(axis), Some(p)) if p <= sampled.data.shape().dim(axis) / 2 => Some((axis, p)),
        _ => None,
    };
    let candidates = enumerate_pipelines(data.shape().ndim(), period_for_sample, use_mask);

    let ranking = rank_candidates(&sampled.data, &sampled.mask, spec.bound, candidates)?;
    Ok(TuneResult {
        best: winner(&ranking, spec, period_detected)?,
        ranking,
        period_detected,
        sample_points,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// `spec.time_axis` comes from dataset metadata (`cliz tune` reads a CAF
/// attribute), so an axis past the rank is a configuration error, caught
/// before period detection indexes the shape with it.
fn check_time_axis(shape: &Shape, spec: TuneSpec) -> Result<(), ClizError> {
    match spec.time_axis {
        Some(axis) if axis >= shape.ndim() => Err(ClizError::BadConfig("time axis out of range")),
        _ => Ok(()),
    }
}

/// A mask of another shape is an input error, as it is for `compress`,
/// caught before period detection, the smoothness pass and the sampler
/// index the field with it.
fn check_mask_shape(shape: &Shape, mask: Option<&MaskMap>) -> Result<(), ClizError> {
    match mask {
        Some(m) if m.shape() != shape => Err(ClizError::BadConfig("mask shape mismatch")),
        _ => Ok(()),
    }
}

/// Compresses the sample under every candidate and ranks the candidates by
/// descending estimated ratio. Candidates are independent compressions of
/// the same sample, so each is one job on cliz-core's pool at the host's
/// parallelism, compressed on its worker's arena. The pool returns results
/// in job order and the sort is stable, so the ranking (ties included) and
/// the error returned (the first in candidate order) are a serial loop's.
fn rank_candidates(
    sample: &Grid<f32>,
    mask: &MaskMap,
    bound: ErrorBound,
    candidates: Vec<PipelineConfig>,
) -> Result<Vec<Candidate>, ClizError> {
    let original_bytes = sample.len() * std::mem::size_of::<f32>();
    // A periodic candidate also builds, compresses and subtracts a template:
    // on the archive workload's sample it takes about 1.5× a plain one.
    let cost = |config: &PipelineConfig| match config.periodicity {
        Periodicity::None => 1.0,
        Periodicity::Extract { .. } => 1.5,
    };
    let mut ranking = run_pool(candidates, cost, 0, |config, arena| {
        let c0 = std::time::Instant::now();
        let (bytes, _) = compress_with_stats_arena(sample, Some(mask), bound, &config, arena)?;
        Ok::<_, ClizError>(Candidate {
            config,
            est_ratio: original_bytes as f64 / bytes.len() as f64,
            seconds: c0.elapsed().as_secs_f64(),
        })
    })?;
    ranking.sort_by(|a, b| b.est_ratio.total_cmp(&a.est_ratio));
    Ok(ranking)
}

/// The top-ranked pipeline, with its periodicity promoted to the full-data
/// period (the sample gate only affected evaluation feasibility).
fn winner(
    ranking: &[Candidate],
    spec: TuneSpec,
    period_detected: Option<usize>,
) -> Result<PipelineConfig, ClizError> {
    let mut best = ranking
        .first()
        .ok_or(ClizError::BadConfig("autotune: no candidate pipelines"))?
        .config
        .clone();
    if let (Periodicity::Extract { .. }, Some(axis), Some(p)) =
        (best.periodicity, spec.time_axis, period_detected)
    {
        best.periodicity = Periodicity::Extract {
            time_axis: axis,
            period: p,
        };
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_counts_match_paper() {
        // 3-D with periodicity: 2 × 2 × 6 × 4 × 2 = 192 (paper Sec. VII-C2).
        assert_eq!(enumerate_pipelines(3, Some((2, 12)), true).len(), 192);
        // Without periodicity: 96.
        assert_eq!(enumerate_pipelines(3, None, false).len(), 96);
        // 2-D: 1 × 2 × 2 × 2 × 2 = 16 / 32.
        assert_eq!(enumerate_pipelines(2, None, false).len(), 16);
        assert_eq!(enumerate_pipelines(2, Some((1, 4)), false).len(), 32);
    }

    /// Strongly anisotropic data: the tuner must prefer an orientation that
    /// runs fine-grained prediction along the smooth axis.
    #[test]
    fn tuner_picks_a_working_pipeline_on_anisotropic_data() {
        let g = Grid::from_fn(Shape::new(&[20, 40, 48]), |c| {
            // axis 0 rough (big jumps), axes 1/2 smooth.
            (c[0] as f32 * 13.7).sin() * 50.0
                + (c[1] as f32 * 0.05).sin()
                + (c[2] as f32 * 0.04).cos()
        });
        let spec = TuneSpec {
            sampling_rate: 0.2,
            time_axis: None,
            bound: ErrorBound::Abs(1e-3),
        };
        let result = autotune(&g, None, spec).unwrap();
        assert_eq!(result.ranking.len(), 96);
        assert!(result.ranking[0].est_ratio >= result.ranking.last().unwrap().est_ratio);
        // The chosen pipeline must actually compress the full data correctly.
        let bytes = crate::compress(&g, None, ErrorBound::Abs(1e-3), &result.best).unwrap();
        let out = crate::decompress(&bytes, None).unwrap();
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn periodic_data_generates_periodic_candidates() {
        let g = Grid::from_fn(Shape::new(&[12, 144]), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[1] % 12) as f64 / 12.0;
            (c[0] as f64 + 10.0 * phase.sin()) as f32
        });
        let spec = TuneSpec {
            sampling_rate: 1.0,
            time_axis: Some(1),
            bound: ErrorBound::Abs(1e-3),
        };
        let result = autotune(&g, None, spec).unwrap();
        assert_eq!(result.period_detected, Some(12));
        assert_eq!(result.ranking.len(), 32); // periodic candidates present
                                              // On strongly periodic data the winner should use extraction.
        assert!(
            matches!(
                result.best.periodicity,
                Periodicity::Extract { period: 12, .. }
            ),
            "winner: {}",
            result.best.describe()
        );
    }

    #[test]
    fn aperiodic_data_skips_periodic_candidates() {
        let mut state = 5u64;
        let g = Grid::from_fn(Shape::new(&[8, 64]), |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f32 / 1e6
        });
        let spec = TuneSpec {
            sampling_rate: 1.0,
            time_axis: Some(1),
            bound: ErrorBound::Abs(1e-4),
        };
        let result = autotune(&g, None, spec).unwrap();
        assert_eq!(result.period_detected, None);
        assert_eq!(result.ranking.len(), 16);
    }

    #[test]
    fn fast_tune_orients_anisotropic_data() {
        // Rough axis 0 must be processed first (fewest predictions).
        let g = Grid::from_fn(Shape::new(&[16, 32, 40]), |c| {
            (c[0] as f32 * 9.7).sin() * 40.0 + c[1] as f32 * 0.01 + c[2] as f32 * 0.02
        });
        let spec = TuneSpec {
            sampling_rate: 0.2,
            time_axis: None,
            bound: ErrorBound::Abs(1e-3),
        };
        let fast = autotune_fast(&g, None, spec).unwrap();
        assert_eq!(fast.best.permutation[0], 0, "rough axis must lead");
        assert!(fast.ranking.len() <= 8);
        // And the result must round-trip within bound on the full data.
        let bytes = crate::compress(&g, None, ErrorBound::Abs(1e-3), &fast.best).unwrap();
        let out = crate::decompress(&bytes, None).unwrap();
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn fast_tune_much_cheaper_than_full() {
        let g = Grid::from_fn(Shape::new(&[24, 24, 96]), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[2] % 12) as f64 / 12.0;
            (c[0] as f64 + phase.sin() * 4.0 + c[1] as f64 * 0.2) as f32
        });
        let spec = TuneSpec {
            sampling_rate: 0.05,
            time_axis: Some(2),
            bound: ErrorBound::Abs(1e-3),
        };
        let fast = autotune_fast(&g, None, spec).unwrap();
        let full = autotune(&g, None, spec).unwrap();
        assert!(fast.ranking.len() * 10 <= full.ranking.len());
        // Fast should land within 25% of the exhaustive winner's estimate.
        assert!(
            fast.ranking[0].est_ratio > 0.75 * full.ranking[0].est_ratio,
            "fast {} vs full {}",
            fast.ranking[0].est_ratio,
            full.ranking[0].est_ratio
        );
    }

    /// `time_axis` is dataset metadata (a CAF attribute), so an axis past
    /// the rank is an input error, not a panic in period detection.
    fn out_of_range_time_axis() -> (Grid<f32>, TuneSpec) {
        let g = Grid::from_fn(Shape::new(&[8, 10, 24]), |c| {
            (c[0] as f32 * 0.5 + c[1] as f32 * 0.25 + (c[2] % 12) as f32).sin()
        });
        let spec = TuneSpec {
            sampling_rate: 0.5,
            time_axis: Some(3),
            bound: ErrorBound::Abs(1e-3),
        };
        (g, spec)
    }

    #[test]
    fn autotune_rejects_out_of_range_time_axis() {
        let (g, spec) = out_of_range_time_axis();
        assert_eq!(
            autotune(&g, None, spec).map(|r| r.best),
            Err(ClizError::BadConfig("time axis out of range"))
        );
    }

    #[test]
    fn autotune_fast_rejects_out_of_range_time_axis() {
        let (g, spec) = out_of_range_time_axis();
        assert_eq!(
            autotune_fast(&g, None, spec).map(|r| r.best),
            Err(ClizError::BadConfig("time axis out of range"))
        );
    }

    /// A mask whose shape differs from the field's, with and without a
    /// time axis: both tuners return `compress`'s error instead of
    /// panicking in period detection, the smoothness pass or the sampler.
    #[test]
    fn tuners_reject_a_mask_of_another_shape() {
        let (g, spec) = out_of_range_time_axis();
        let mask = MaskMap::all_valid(Shape::new(&[8, 10, 12]));
        for time_axis in [Some(2), None] {
            let spec = TuneSpec { time_axis, ..spec };
            let want = Err(ClizError::BadConfig("mask shape mismatch"));
            assert_eq!(autotune(&g, Some(&mask), spec).map(|r| r.best), want);
            assert_eq!(autotune_fast(&g, Some(&mask), spec).map(|r| r.best), want);
        }
    }

    #[test]
    fn lower_rate_samples_fewer_points() {
        let g = Grid::from_fn(Shape::new(&[40, 40]), |c| (c[0] + c[1]) as f32);
        let hi = autotune(
            &g,
            None,
            TuneSpec {
                sampling_rate: 1.0,
                time_axis: None,
                bound: ErrorBound::Abs(1e-2),
            },
        )
        .unwrap();
        let lo = autotune(
            &g,
            None,
            TuneSpec {
                sampling_rate: 0.05,
                time_axis: None,
                bound: ErrorBound::Abs(1e-2),
            },
        )
        .unwrap();
        assert!(lo.sample_points < hi.sample_points);
    }
}
