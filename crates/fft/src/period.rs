//! Period estimation along the time axis (Sec. VI-D).
//!
//! CliZ samples a handful of rows along the time dimension, transforms each,
//! averages the one-sided amplitude spectra, and looks for a dominant peak.
//! Multiple harmonics appear at integer multiples of the fundamental
//! frequency; the paper adopts "the peak with the smallest frequency, which
//! means the largest period". A significance test rejects aperiodic data.

use crate::transform::real_fft_magnitudes;
use cliz_grid::{Grid, LineIter, MaskMap};

/// Tuning knobs for the estimator.
#[derive(Clone, Copy, Debug)]
pub struct PeriodSpec {
    /// How many rows (lines along the time axis) to sample. The paper's
    /// walkthrough uses 10.
    pub rows: usize,
    /// A frequency bin counts as a "high peak" when its averaged amplitude is
    /// at least this fraction of the global maximum.
    pub peak_fraction: f64,
    /// The global peak must exceed `significance × median amplitude` for the
    /// data to be declared periodic at all.
    pub significance: f64,
    /// Deterministic row-selection seed (rows are taken at evenly spaced
    /// offsets scrambled by this value).
    pub seed: u64,
}

impl Default for PeriodSpec {
    fn default() -> Self {
        Self {
            rows: 10,
            peak_fraction: 0.7,
            significance: 8.0,
            seed: 0x5eed_c11f,
        }
    }
}

/// Outcome of period detection.
#[derive(Clone, Debug, PartialEq)]
pub struct PeriodEstimate {
    /// Detected period length in samples (e.g. 12 for monthly data with an
    /// annual cycle), or `None` when no significant peak exists.
    pub period: Option<usize>,
    /// Frequency bin of the adopted peak (0 when aperiodic).
    pub peak_frequency: usize,
    /// Averaged one-sided amplitude spectrum (index = frequency bin), kept so
    /// the Fig. 8 harness can plot it.
    pub spectrum: Vec<f64>,
}

/// Estimates the dominant period of `data` along `time_axis`.
///
/// Rows containing any masked point are skipped (fill values would otherwise
/// dominate the spectrum); if every sampled row is masked the data is
/// reported aperiodic.
pub fn estimate_period(
    data: &Grid<f32>,
    mask: &MaskMap,
    time_axis: usize,
    spec: PeriodSpec,
) -> PeriodEstimate {
    let n = data.shape().dim(time_axis);
    if n < 4 {
        return PeriodEstimate {
            period: None,
            peak_frequency: 0,
            spectrum: Vec::new(),
        };
    }

    let lines: Vec<_> = LineIter::new(data.shape(), time_axis).collect();
    let total = lines.len();
    let want = spec.rows.max(1).min(total);

    // Deterministic low-discrepancy row choice: golden-ratio stepping.
    // A plain `total/want` stride aliases with structured grids (e.g. on a
    // [depth, lat, lon, time] ocean variable it lands on one (lat, lon)
    // column at every depth — all land or all water), so masked rows could
    // systematically exhaust the sample. The irrational step spreads
    // candidates across the grid, and we allow extra attempts so invalid
    // rows are skipped without starving the spectrum.
    let step = (((total as f64) * 0.618_033_988_749_895) as usize).max(1) | 1;
    let offset = (spec.seed as usize) % total;

    let buf = data.as_slice();
    let flags = mask.as_slice();
    let mut spectrum = vec![0.0f64; n / 2 + 1];
    let mut used = 0usize;
    let mut attempts = 0usize;
    let max_attempts = total.min(want * 64);
    while used < want && attempts < max_attempts {
        let line = lines[(offset + attempts * step) % total];
        attempts += 1;
        let all_valid = (0..line.len).all(|k| flags[line.base + k * line.stride]);
        if !all_valid {
            continue;
        }
        let row: Vec<f64> = line.gather(buf).into_iter().map(f64::from).collect();
        // Remove the mean so the DC bin doesn't dwarf the cycle.
        let mean = row.iter().sum::<f64>() / row.len() as f64;
        let centered: Vec<f64> = row.iter().map(|v| v - mean).collect();
        let mags = real_fft_magnitudes(&centered);
        for (s, m) in spectrum.iter_mut().zip(mags) {
            *s += m;
        }
        used += 1;
    }

    if used == 0 {
        return PeriodEstimate {
            period: None,
            peak_frequency: 0,
            spectrum,
        };
    }
    for s in spectrum.iter_mut() {
        *s /= used as f64;
    }

    // Peak picking over non-DC bins.
    let body = &spectrum[1..];
    let max_amp = body.iter().cloned().fold(0.0f64, f64::max);
    let mut sorted: Vec<f64> = body.to_vec();
    sorted.sort_by(f64::total_cmp);
    // An empty body (n < 2) falls through to the `max_amp <= 0.0` bail-out.
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);

    if max_amp <= 0.0 || max_amp < spec.significance * median.max(f64::MIN_POSITIVE) {
        return PeriodEstimate {
            period: None,
            peak_frequency: 0,
            spectrum,
        };
    }

    // Smallest frequency among high peaks = fundamental = largest period.
    let threshold = spec.peak_fraction * max_amp;
    let fundamental = body
        .iter()
        .position(|&a| a >= threshold)
        .map(|p| p + 1)
        .unwrap_or(0);

    if fundamental == 0 {
        return PeriodEstimate {
            period: None,
            peak_frequency: 0,
            spectrum,
        };
    }
    let period = ((n as f64 / fundamental as f64).round() as usize).max(2);
    // A "period" as long as the axis is no period at all.
    if period >= n {
        return PeriodEstimate {
            period: None,
            peak_frequency: fundamental,
            spectrum,
        };
    }
    PeriodEstimate {
        period: Some(period),
        peak_frequency: fundamental,
        spectrum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::Shape;

    /// 2-D grid: axis 1 is time with an exact 12-sample cycle.
    fn periodic_grid(rows: usize, n: usize, period: usize) -> Grid<f32> {
        Grid::from_fn(Shape::new(&[rows, n]), |c| {
            let phase = 2.0 * std::f64::consts::PI * c[1] as f64 / period as f64;
            (10.0 + c[0] as f64 + 3.0 * phase.sin()) as f32
        })
    }

    #[test]
    fn detects_annual_cycle_like_paper() {
        // 1032 monthly snapshots, period 12 => fundamental frequency 86.
        let g = periodic_grid(16, 1032, 12);
        let m = MaskMap::all_valid(g.shape().clone());
        let est = estimate_period(&g, &m, 1, PeriodSpec::default());
        assert_eq!(est.peak_frequency, 86);
        assert_eq!(est.period, Some(12));
    }

    #[test]
    fn detects_cycle_on_non_power_of_two() {
        let g = periodic_grid(8, 360, 12);
        let m = MaskMap::all_valid(g.shape().clone());
        let est = estimate_period(&g, &m, 1, PeriodSpec::default());
        assert_eq!(est.period, Some(12));
    }

    #[test]
    fn white_noise_is_aperiodic() {
        // Deterministic pseudo-noise via an LCG.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let shape = Shape::new(&[12, 512]);
        let n = shape.len();
        let g = Grid::from_vec(shape, (0..n).map(|_| next() as f32).collect());
        let m = MaskMap::all_valid(g.shape().clone());
        let est = estimate_period(&g, &m, 1, PeriodSpec::default());
        assert_eq!(est.period, None);
    }

    #[test]
    fn constant_data_is_aperiodic() {
        let g = Grid::filled(Shape::new(&[4, 256]), 7.0f32);
        let m = MaskMap::all_valid(g.shape().clone());
        let est = estimate_period(&g, &m, 1, PeriodSpec::default());
        assert_eq!(est.period, None);
    }

    #[test]
    fn masked_rows_are_skipped() {
        let g = periodic_grid(16, 240, 12);
        // Invalidate half the rows entirely; estimator must still find 12.
        let valid: Vec<bool> = (0..g.len()).map(|i| (i / 240) % 2 == 0).collect();
        let m = MaskMap::from_flags(g.shape().clone(), valid);
        let est = estimate_period(&g, &m, 1, PeriodSpec::default());
        assert_eq!(est.period, Some(12));
    }

    #[test]
    fn fully_masked_reports_aperiodic() {
        let g = periodic_grid(4, 120, 12);
        let m = MaskMap::from_flags(g.shape().clone(), vec![false; g.len()]);
        let est = estimate_period(&g, &m, 1, PeriodSpec::default());
        assert_eq!(est.period, None);
    }

    #[test]
    fn short_axis_rejected() {
        let g = Grid::filled(Shape::new(&[5, 3]), 1.0f32);
        let m = MaskMap::all_valid(g.shape().clone());
        assert_eq!(
            estimate_period(&g, &m, 1, PeriodSpec::default()).period,
            None
        );
    }
}
