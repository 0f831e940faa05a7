//! Error-bounded linear-scale quantizer (the SZ3 quantizer CliZ inherits).

use crate::symbol::{bin_to_symbol, symbol_to_bin, ESCAPE};
use cliz_grid::cast;

/// Outcome of quantizing one value against its prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Quantized {
    /// Value representable as `pred + 2·eb·bin`; `recon` is the decoder-side
    /// reconstruction (bit-identical on both sides).
    Bin { symbol: u32, recon: f32 },
    /// Prediction too far off — the exact value is stored literally.
    Escape,
}

/// Fixed-step linear quantizer with an escape channel.
///
/// `radius` bounds |bin|; SZ3's default of 32768 (capacity 2^16) is kept.
/// Every reconstruction satisfies `|x − recon| ≤ eb` — verified post-hoc with
/// the exact f32 arithmetic the decoder will use, so float rounding can never
/// silently break the bound.
#[derive(Clone, Copy, Debug)]
pub struct LinearQuantizer {
    eb: f64,
    radius: i32,
}

impl LinearQuantizer {
    pub fn new(eb: f64) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive");
        Self {
            eb,
            radius: 1 << 15,
        }
    }

    pub fn with_radius(eb: f64, radius: i32) -> Self {
        assert!(radius > 0);
        let mut q = Self::new(eb);
        q.radius = radius;
        q
    }

    #[inline]
    pub fn eb(&self) -> f64 {
        self.eb
    }

    /// Maximum |bin| this quantizer emits (the escape threshold).
    #[inline]
    pub fn radius(&self) -> i32 {
        self.radius
    }

    /// Quantization step: the bin width `2·eb`. The only place the error
    /// bound is scaled — encoder and decoder both go through this helper so
    /// the two sides can never disagree on the step (xtask rule R8).
    #[inline]
    fn eb_step(&self) -> f64 {
        2.0 * self.eb
    }

    /// Largest symbol this quantizer can emit (for alphabet sizing).
    /// Zigzag maps `+radius` above `-radius`, so that is the extreme.
    pub fn max_symbol(&self) -> u32 {
        bin_to_symbol(self.radius)
    }

    /// Quantizes `value` against `pred`.
    // xtask-allow-fn: R4 -- thin wrapper over quantize_select, which asserts the error-bound invariant on every emitted bin
    #[inline]
    pub fn quantize(&self, value: f32, pred: f64) -> Quantized {
        let (symbol, recon, ok) = self.quantize_select(value, pred);
        if ok {
            Quantized::Bin { symbol, recon }
        } else {
            Quantized::Escape
        }
    }

    /// Branch-free form of [`Self::quantize`] for hot encode loops: returns
    /// `(symbol, recon, ok)` where `ok == false` means escape, in which case
    /// `symbol` is [`ESCAPE`] and `recon` is `value` unchanged (so callers
    /// may unconditionally store both without altering buffer contents on
    /// the escape path). Decision-identical to `quantize` — same rounding,
    /// same radius/overflow/exactness rejections — but every rejection is a
    /// flag folded into one select instead of an early return, so the loop
    /// body compiles to straight-line code with conditional moves.
    #[inline]
    pub fn quantize_select(&self, value: f32, pred: f64) -> (u32, f32, bool) {
        let err = f64::from(value) - pred;
        let step = self.eb_step();
        // quantize_round_index_select folds the `.round()` into the radius
        // check (bit-identical to `quantize_index((err / step).round(), r)`,
        // pinned by a differential sweep in cliz-grid); `in_radius` is false
        // for NaN/inf bin estimates, so neither can wrap into a bogus index.
        let (bin, in_radius) = cast::quantize_round_index_select(err / step, self.radius);
        // Checked narrowing: a correction that overflows f32 escapes instead
        // of silently reconstructing ±∞. (When `in_radius` is false `bin` is
        // garbage and `recon` with it — harmless, the select discards both.)
        let (recon, finite) = cast::f64_to_f32_select(pred + step * f64::from(bin));
        // Exactness check in decoder arithmetic: reject on any rounding slip.
        // A NaN difference compares false, so it also escapes.
        let in_bound = (f64::from(recon) - f64::from(value)).abs() <= self.eb;
        // Non-short-circuiting `&`: all three flags are already computed, a
        // single combined flag keeps the path branch-free.
        let ok = in_radius & finite & in_bound;
        // Error-bound invariant at the encode boundary: every emitted bin's
        // reconstruction is within eb of the input (xtask rule R4).
        debug_assert!(
            !ok || (f64::from(recon) - f64::from(value)).abs() <= self.eb,
            "quantize emitted a bin violating |x - recon| <= eb"
        );
        // Per-field selects (not a branch over two tuples) so each lowers to
        // a conditional move feeding an unconditional store in the caller.
        let symbol = if ok { bin_to_symbol(bin) } else { ESCAPE };
        let out = if ok { recon } else { value };
        (symbol, out, ok)
    }

    /// Decoder-side reconstruction for a non-escape symbol.
    #[inline]
    pub fn recover(&self, symbol: u32, pred: f64) -> f32 {
        debug_assert_ne!(symbol, ESCAPE);
        let bin = symbol_to_bin(symbol);
        // Error-bound invariant at the decode boundary: a well-formed stream
        // never carries a bin beyond the quantizer radius (xtask rule R4).
        debug_assert!(
            bin.unsigned_abs() <= self.radius.unsigned_abs(),
            "decoded bin {bin} exceeds quantizer radius {}",
            self.radius
        );
        // Checked narrowing: encoders never emit a bin whose reconstruction
        // overflows f32 (quantize escapes first), so an overflow here means a
        // corrupt stream — surface NaN rather than a silent ±∞.
        cast::f64_to_f32_checked(pred + self.eb_step() * f64::from(bin)).unwrap_or(f32::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_gives_zero_bin() {
        let q = LinearQuantizer::new(0.1);
        match q.quantize(5.0, 5.0) {
            Quantized::Bin { symbol, recon } => {
                assert_eq!(symbol, bin_to_symbol(0));
                assert_eq!(recon, 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bound_holds_across_error_magnitudes() {
        let q = LinearQuantizer::new(0.01);
        let pred = 1.0f64;
        let mut escapes = 0usize;
        for i in -5000..5000 {
            let value = (pred + i as f64 * 0.0137) as f32;
            match q.quantize(value, pred) {
                Quantized::Bin { symbol, recon } => {
                    assert!(
                        ((recon as f64) - (value as f64)).abs() <= 0.01,
                        "bound violated at {value}"
                    );
                    // Decoder path must agree bit-for-bit.
                    assert_eq!(q.recover(symbol, pred), recon);
                }
                // Exact half-step boundaries may conservatively escape when
                // f32 rounding nudges the reconstruction past the bound;
                // that is correct behaviour but must stay rare.
                Quantized::Escape => escapes += 1,
            }
        }
        assert!(escapes < 100, "{escapes} escapes out of 10000");
    }

    #[test]
    fn huge_error_escapes() {
        let q = LinearQuantizer::new(1e-6);
        assert_eq!(q.quantize(1e9, 0.0), Quantized::Escape);
    }

    #[test]
    fn nan_input_escapes() {
        let q = LinearQuantizer::new(0.1);
        assert_eq!(q.quantize(f32::NAN, 0.0), Quantized::Escape);
    }

    #[test]
    fn nonfinite_prediction_escapes() {
        let q = LinearQuantizer::new(0.1);
        // A wild prediction whose correction would overflow f32.
        assert_eq!(q.quantize(1.0, f64::MAX), Quantized::Escape);
    }

    #[test]
    fn small_radius_escapes_sooner() {
        let q = LinearQuantizer::with_radius(0.5, 4);
        assert!(matches!(q.quantize(3.9, 0.0), Quantized::Bin { .. }));
        assert_eq!(q.quantize(20.0, 0.0), Quantized::Escape);
    }

    #[test]
    fn max_symbol_covers_radius() {
        let q = LinearQuantizer::with_radius(0.5, 4);
        // All emittable symbols fit below max_symbol()+1.
        for v in [-4.0f32, -2.0, 0.0, 2.0, 4.0] {
            if let Quantized::Bin { symbol, .. } = q.quantize(v, 0.0) {
                assert!(symbol <= q.max_symbol());
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_eb() {
        LinearQuantizer::new(-1.0);
    }

    #[test]
    fn select_form_is_decision_identical() {
        // quantize_select must agree with quantize on every input, including
        // the escape contract: symbol == ESCAPE and recon bit-equal to the
        // input value, so stores through the select path are no-ops there.
        let quantizers = [
            LinearQuantizer::new(1e-3),
            LinearQuantizer::new(1e-6),
            LinearQuantizer::with_radius(0.5, 4),
        ];
        let mut state = 0x5151_d00d_cafe_f00du64;
        let mut probes: Vec<(f32, f64)> = vec![
            (f32::NAN, 0.0),
            (1.0, f64::MAX),
            (1e9, 0.0),
            (0.0, 0.0),
            (-0.0, 0.0),
            (f32::INFINITY, 1.0),
        ];
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (f64::from(cliz_grid::cast::low_u32(state >> 32)) / 4096.0 - 524288.0) as f32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = f64::from(cliz_grid::cast::low_u32(state >> 32)) / 4096.0 - 524288.0;
            probes.push((v, p));
            probes.push((v, f64::from(v) + p / 1e7));
        }
        for q in &quantizers {
            for &(value, pred) in &probes {
                let (sym, recon, ok) = q.quantize_select(value, pred);
                match q.quantize(value, pred) {
                    Quantized::Bin { symbol, recon: r } => {
                        assert!(ok, "value {value} pred {pred}");
                        assert_eq!(sym, symbol);
                        assert_eq!(recon.to_bits(), r.to_bits());
                    }
                    Quantized::Escape => {
                        assert!(!ok, "value {value} pred {pred}");
                        assert_eq!(sym, ESCAPE);
                        assert_eq!(recon.to_bits(), value.to_bits());
                    }
                }
            }
        }
    }
}
