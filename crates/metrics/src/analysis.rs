//! Z-checker-style compression-error analysis.
//!
//! PSNR alone can hide structured artifacts (Poppick et al.'s critique,
//! Sec. II). This module adds the distribution-level checks climate
//! evaluations rely on: Pearson correlation between original and
//! reconstruction, an error histogram (is the error uniform over the bound,
//! as a healthy quantizer produces, or lumpy?), and the lag-k error
//! autocorrelation that exposes spatially correlated artifacts.

use cliz_grid::{cast, MaskMap};

/// Distribution-level error report.
#[derive(Clone, Debug)]
pub struct ErrorAnalysis {
    /// Pearson correlation coefficient between original and reconstruction
    /// over valid points (1.0 = perfect linear agreement).
    pub pearson: f64,
    /// Error histogram over `bins` equal-width buckets spanning
    /// `[-max_abs, +max_abs]`.
    pub histogram: Vec<usize>,
    /// Histogram bucket width.
    pub bucket_width: f64,
    /// Largest |error| observed (histogram range).
    pub max_abs: f64,
    /// Lag-1..=K autocorrelation of the error sequence (raster order over
    /// valid points). Near-zero = white error; large = structured artifacts.
    pub autocorrelation: Vec<f64>,
    /// Mean error (bias) — should be ~0 for a symmetric quantizer.
    pub mean_error: f64,
    pub points: usize,
}

/// Computes the full analysis. `lags` bounds the autocorrelation depth.
pub fn analyze_errors(
    original: &[f32],
    recon: &[f32],
    mask: Option<&MaskMap>,
    bins: usize,
    lags: usize,
) -> ErrorAnalysis {
    assert_eq!(original.len(), recon.len());
    assert!(bins >= 1);

    // Collect the valid error sequence and running stats.
    let mut errors = Vec::with_capacity(original.len());
    let mut sx = 0.0f64;
    let mut sy = 0.0f64;
    let mut sxx = 0.0f64;
    let mut syy = 0.0f64;
    let mut sxy = 0.0f64;
    for i in 0..original.len() {
        if mask.is_some_and(|m| !m.is_valid(i)) {
            continue;
        }
        let (a, b) = (original[i] as f64, recon[i] as f64);
        errors.push(a - b);
        sx += a;
        sy += b;
        sxx += a * a;
        syy += b * b;
        sxy += a * b;
    }
    let n = errors.len();
    if n == 0 {
        return ErrorAnalysis {
            pearson: 1.0,
            histogram: vec![0; bins],
            bucket_width: 0.0,
            max_abs: 0.0,
            autocorrelation: vec![0.0; lags],
            mean_error: 0.0,
            points: 0,
        };
    }
    let nf = n as f64;
    let cov = sxy / nf - (sx / nf) * (sy / nf);
    let vx = (sxx / nf - (sx / nf).powi(2)).max(0.0);
    let vy = (syy / nf - (sy / nf).powi(2)).max(0.0);
    let pearson = if vx > 0.0 && vy > 0.0 {
        cov / (vx.sqrt() * vy.sqrt())
    } else {
        1.0 // constant fields: vacuously perfect
    };

    let max_abs = errors.iter().fold(0.0f64, |m, &e| m.max(e.abs()));
    let mean_error = errors.iter().sum::<f64>() / nf;

    // Histogram over [-max_abs, max_abs].
    let mut histogram = vec![0usize; bins];
    let bucket_width = if max_abs > 0.0 {
        2.0 * max_abs / bins as f64
    } else {
        0.0
    };
    if max_abs > 0.0 {
        for &e in &errors {
            let b = cast::float_to_index((e + max_abs) / bucket_width, bins);
            histogram[b] += 1;
        }
    } else {
        histogram[bins / 2] = n;
    }

    // Autocorrelation of the (mean-removed) error sequence.
    let var: f64 = errors.iter().map(|e| (e - mean_error).powi(2)).sum::<f64>() / nf;
    let mut autocorrelation = Vec::with_capacity(lags);
    for lag in 1..=lags {
        if lag >= n || var <= 0.0 {
            autocorrelation.push(0.0);
            continue;
        }
        let mut acc = 0.0f64;
        for i in lag..n {
            acc += (errors[i] - mean_error) * (errors[i - lag] - mean_error);
        }
        autocorrelation.push(acc / ((n - lag) as f64 * var));
    }

    ErrorAnalysis {
        pearson,
        histogram,
        bucket_width,
        max_abs,
        autocorrelation,
        mean_error,
        points: n,
    }
}

impl ErrorAnalysis {
    /// Fraction of errors in the central `frac` of the histogram range —
    /// a uniformity probe (uniform errors put ~frac of mass there).
    pub fn central_mass(&self, frac: f64) -> f64 {
        if self.points == 0 {
            return 1.0;
        }
        let bins = self.histogram.len();
        let keep = cast::float_to_index((bins as f64 * frac / 2.0).ceil(), bins + 1);
        let mid = bins / 2;
        let lo = mid.saturating_sub(keep);
        let hi = (mid + keep).min(bins);
        let central: usize = self.histogram[lo..hi].iter().sum();
        central as f64 / self.points as f64
    }

    /// Largest |autocorrelation| over the measured lags.
    pub fn max_autocorrelation(&self) -> f64 {
        self.autocorrelation
            .iter()
            .fold(0.0f64, |m, &a| m.max(a.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_reconstruction_is_clean() {
        let x: Vec<f32> = (0..500).map(|i| (i as f32 * 0.1).sin()).collect();
        let a = analyze_errors(&x, &x, None, 32, 8);
        assert_eq!(a.max_abs, 0.0);
        assert!((a.pearson - 1.0).abs() < 1e-12);
        assert_eq!(a.mean_error, 0.0);
        assert!(a.max_autocorrelation() < 1e-12);
    }

    #[test]
    fn uniform_noise_has_flat_histogram_and_low_autocorr() {
        let x: Vec<f32> = (0..20_000)
            .map(|i| (i as f32 * 0.01).sin() * 10.0)
            .collect();
        // Deterministic pseudo-uniform error in [-0.5, 0.5].
        let mut state = 17u64;
        let y: Vec<f32> = x
            .iter()
            .map(|&v| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                v + ((state >> 40) as f32 / 2.0f32.powi(24) - 0.5)
            })
            .collect();
        let a = analyze_errors(&x, &y, None, 20, 8);
        assert!(a.pearson > 0.99);
        assert!(a.max_autocorrelation() < 0.05, "{:?}", a.autocorrelation);
        // Flat histogram: central 50% of the range holds ~50% of mass.
        let cm = a.central_mass(0.5);
        assert!((cm - 0.5).abs() < 0.08, "central mass {cm}");
    }

    #[test]
    fn correlated_error_is_detected() {
        let x: Vec<f32> = vec![0.0; 5000];
        // Slowly oscillating error -> strong lag-1 autocorrelation.
        let y: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.05).sin() * 0.1).collect();
        let a = analyze_errors(&x, &y, None, 16, 4);
        assert!(
            a.autocorrelation[0] > 0.9,
            "lag-1 {} should be near 1",
            a.autocorrelation[0]
        );
    }

    #[test]
    fn biased_error_shows_in_mean() {
        let x = vec![1.0f32; 1000];
        let y = vec![0.9f32; 1000];
        let a = analyze_errors(&x, &y, None, 8, 2);
        assert!((a.mean_error - 0.1).abs() < 1e-6);
    }

    #[test]
    fn mask_excludes_points() {
        let x = vec![0.0f32, 100.0, 0.0, 0.0];
        let y = vec![0.0f32, 0.0, 0.0, 0.0];
        let mask = MaskMap::from_flags(cliz_grid::Shape::new(&[4]), vec![true, false, true, true]);
        let a = analyze_errors(&x, &y, Some(&mask), 8, 2);
        assert_eq!(a.points, 3);
        assert_eq!(a.max_abs, 0.0);
    }

    #[test]
    fn empty_valid_set_is_vacuous() {
        let x = vec![1.0f32; 4];
        let mask = MaskMap::from_flags(cliz_grid::Shape::new(&[4]), vec![false; 4]);
        let a = analyze_errors(&x, &x, Some(&mask), 8, 2);
        assert_eq!(a.points, 0);
        assert_eq!(a.central_mass(0.5), 1.0);
    }
}
