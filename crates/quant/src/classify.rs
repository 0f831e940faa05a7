//! Quantization-bin classification (Sec. VI-E).
//!
//! Topography leaves two patterns in the bin field at each *horizontal
//! position* (lat × lon coordinate, aggregated over time/height slices):
//!
//! * **shifting** — the position's bins peak at a nonzero value; with `j = 1`
//!   CliZ records a per-position shift in {−1, 0, +1} and recenters the peak
//!   at bin 0;
//! * **dispersion** — no bin at the position reaches relative frequency
//!   `λ = 0.4` (Theorem 2); such positions get their own Huffman tree.
//!
//! The per-position marker has `(2j+1)(k+1) = 6` states and is stored
//! base-6-packed (≈2.64 bits/position, matching the paper's `log2 6` cost).
//! Markers depend only on terrain, so one map is shared across heights and
//! timesteps (Sec. VII-C3).

use crate::symbol::{bin_to_symbol, symbol_to_bin, ESCAPE};
use cliz_grid::cast;

/// Histogram half-width used to find per-position modes. Bins beyond ±8 are
/// lumped together; a position whose true mode lies outside this window is
/// necessarily dispersed, so the classification is unaffected.
const HIST_HALF: i32 = 8;
const HIST_W: usize = 2 * (HIST_HALF as usize) + 1;

/// Classification tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClassifySpec {
    /// Dispersion threshold: a position is "peaked" when its dominant bin's
    /// relative frequency exceeds `lambda`.
    pub lambda: f64,
    /// Maximum |shift| (the paper's `j`; more than 1 was found not to pay).
    pub max_shift: i32,
    /// Enables the shifting half of the scheme.
    pub shift_enabled: bool,
}

impl Default for ClassifySpec {
    fn default() -> Self {
        Self {
            lambda: optimal_lambda(),
            max_shift: 1,
            shift_enabled: true,
        }
    }
}

/// The Theorem 2 threshold: λ must exceed 0.4 ≥ (3−√5)/2 for the peaked
/// position's dominant bin to be guaranteed cheapest in its Huffman tree
/// under both merge situations analysed in the proof.
pub const fn optimal_lambda() -> f64 {
    0.4
}

/// Per-horizontal-position classification result.
#[derive(Clone, Debug, PartialEq)]
pub struct Classification {
    /// Horizontal plane size (product of the last two dims).
    pub h_len: usize,
    /// Per-position bin shift in `[-max_shift, max_shift]`.
    pub shifts: Vec<i8>,
    /// Per-position Huffman group: 0 = peaked, 1 = dispersed.
    pub groups: Vec<u8>,
}

impl Classification {
    /// Neutral classification (no shifts, everything in group 0).
    pub fn identity(h_len: usize) -> Self {
        Self {
            h_len,
            shifts: vec![0; h_len],
            groups: vec![0; h_len],
        }
    }

    #[inline]
    pub fn position_of(&self, linear_idx: usize) -> usize {
        linear_idx % self.h_len
    }

    #[inline]
    pub fn group_of(&self, linear_idx: usize) -> u8 {
        self.groups[linear_idx % self.h_len]
    }

    #[inline]
    pub fn shift_of(&self, linear_idx: usize) -> i8 {
        self.shifts[linear_idx % self.h_len]
    }

    /// Expands the per-position groups into a per-element group sequence for
    /// `multi_encode` (in `cliz-entropy`), honouring the encode-order convention
    /// (raster order, masked elements skipped).
    ///
    /// Walks plane by plane so the `% h_len` position math and the mask
    /// `Option` test are hoisted out of the per-element loop.
    pub fn group_sequence(&self, total_len: usize, mask: Option<&[bool]>) -> Vec<u8> {
        let mut out = Vec::with_capacity(total_len);
        match mask {
            None => {
                while out.len() + self.h_len <= total_len {
                    out.extend_from_slice(&self.groups);
                }
                let rem = total_len - out.len();
                out.extend_from_slice(&self.groups[..rem.min(self.groups.len())]);
            }
            Some(m) => {
                for mplane in m.chunks(self.h_len).take(total_len.div_ceil(self.h_len)) {
                    for (&g, &keep) in self.groups.iter().zip(mplane) {
                        if keep {
                            out.push(g);
                        }
                    }
                }
            }
        }
        out
    }

    /// True when classification would change nothing (lets the pipeline fall
    /// back to single-tree Huffman with zero marker cost).
    pub fn is_trivial(&self) -> bool {
        self.shifts.iter().all(|&s| s == 0) && self.groups.iter().all(|&g| g == 0)
    }

    /// Packs markers base-6: digit = `(shift + 1) * 2 + group`, 11 digits per
    /// 29-bit word (6^11 < 2^29), ≈2.64 bits/position.
    pub fn marker_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.h_len * 3 / 8 + 8);
        out.extend_from_slice(&(self.h_len as u64).to_le_bytes());
        let mut word: u32 = 0;
        let mut digits = 0u32;
        for p in 0..self.h_len {
            // shift ∈ [-1, 1] by construction, so shift + 1 is non-negative.
            let digit =
                (i32::from(self.shifts[p]) + 1).unsigned_abs() * 2 + u32::from(self.groups[p]);
            debug_assert!(digit < 6);
            word = word * 6 + digit;
            digits += 1;
            if digits == 11 {
                out.extend_from_slice(&word.to_le_bytes());
                word = 0;
                digits = 0;
            }
        }
        if digits > 0 {
            // Left-pad the final group to 11 digits so unpacking is uniform.
            for _ in digits..11 {
                word *= 6;
            }
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Classification::marker_bytes`].
    pub fn from_marker_bytes(bytes: &[u8]) -> Option<Self> {
        let h_len = cast::to_usize_checked(cast::u64_le(bytes)?)?;
        let n_words = h_len.div_ceil(11);
        // Checked arithmetic: a corrupt h_len must not overflow the length
        // bound below (and the allocations stay behind this check).
        if bytes.len() < n_words.checked_mul(4)?.checked_add(8)? {
            return None;
        }
        let mut shifts = Vec::with_capacity(h_len);
        let mut groups = Vec::with_capacity(h_len);
        for w in 0..n_words {
            let off = 8 + w * 4;
            let mut word = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?);
            let mut digits = [0u32; 11];
            for d in (0..11).rev() {
                digits[d] = word % 6;
                word /= 6;
            }
            for (d, &digit) in digits.iter().enumerate() {
                let p = w * 11 + d;
                if p >= h_len {
                    break;
                }
                // digit < 6, so digit/2 ∈ {0, 1, 2} and the conversions hold.
                shifts.push(cast::to_i8_checked(digit / 2)? - 1);
                groups.push(cast::low_u8(digit % 2));
            }
        }
        Some(Self {
            h_len,
            shifts,
            groups,
        })
    }
}

/// Classifies a raster-order symbol grid. `h_len` is the horizontal plane
/// size; element `i` belongs to position `i % h_len`. Masked elements and
/// escapes are excluded from histograms.
pub fn classify(
    symbols: &[u32],
    h_len: usize,
    mask: Option<&[bool]>,
    spec: ClassifySpec,
) -> Classification {
    assert!(
        h_len > 0 && symbols.len().is_multiple_of(h_len),
        "bad h_len"
    );
    if let Some(m) = mask {
        assert_eq!(m.len(), symbols.len());
    }

    // Flat per-position histograms over bins in [-HIST_HALF, HIST_HALF].
    // Plane-by-plane chunking replaces the per-element `i % h_len` and
    // hoists the mask `Option` test out of the inner loop.
    let mut hist = vec![0u32; h_len * HIST_W];
    let mut totals = vec![0u32; h_len];
    {
        let mut tally = |p: usize, s: u32| {
            totals[p] += 1;
            let bin = symbol_to_bin(s);
            if bin.abs() <= HIST_HALF {
                // In range by the check above, so the conversion never fails.
                if let Some(off) = cast::to_usize_checked(bin + HIST_HALF) {
                    hist[p * HIST_W + off] += 1;
                }
            }
        };
        match mask {
            None => {
                for plane in symbols.chunks(h_len) {
                    for (p, &s) in plane.iter().enumerate() {
                        if s != ESCAPE {
                            tally(p, s);
                        }
                    }
                }
            }
            Some(m) => {
                for (plane, mplane) in symbols.chunks(h_len).zip(m.chunks(h_len)) {
                    for (p, (&s, &keep)) in plane.iter().zip(mplane).enumerate() {
                        if keep && s != ESCAPE {
                            tally(p, s);
                        }
                    }
                }
            }
        }
    }

    let mut shifts = vec![0i8; h_len];
    let mut groups = vec![0u8; h_len];
    for p in 0..h_len {
        let total = totals[p];
        if total == 0 {
            // Fully masked / all-escape column: neutral markers.
            continue;
        }
        let row = &hist[p * HIST_W..(p + 1) * HIST_W];
        let Some((mode_off, &mode_cnt)) = row.iter().enumerate().max_by_key(|&(_, &c)| c) else {
            continue; // unreachable: HIST_W > 0
        };
        // mode_off < HIST_W = 17, so the i32 conversion cannot fail.
        let mode_bin = cast::to_i32_checked(mode_off).unwrap_or(i32::MAX) - HIST_HALF;
        let peak_frac = f64::from(mode_cnt) / f64::from(total);

        if spec.shift_enabled && mode_bin != 0 && mode_bin.abs() <= spec.max_shift {
            shifts[p] = cast::to_i8_checked(mode_bin).unwrap_or(0);
        }
        // Dispersion test uses the peak *after* shifting, which is the same
        // count — shifting relocates the mode to 0 without changing its mass.
        groups[p] = u8::from(peak_frac <= spec.lambda);
    }

    Classification {
        h_len,
        shifts,
        groups,
    }
}

/// Applies per-position shifts to a symbol grid in place (encode side).
/// Escapes and masked elements pass through untouched.
pub fn apply_shifts(symbols: &mut [u32], class: &Classification, mask: Option<&[bool]>) {
    transform_shifts(symbols, class, mask, false);
}

/// Inverse of [`apply_shifts`] (decode side).
pub fn unapply_shifts(symbols: &mut [u32], class: &Classification, mask: Option<&[bool]>) {
    transform_shifts(symbols, class, mask, true);
}

fn transform_shifts(
    symbols: &mut [u32],
    class: &Classification,
    mask: Option<&[bool]>,
    invert: bool,
) {
    // Sign instead of a per-element `invert` branch; plane chunks instead of
    // the per-element `i % h_len`; the mask `Option` resolved once.
    let sgn: i32 = if invert { 1 } else { -1 };
    match mask {
        None => {
            for plane in symbols.chunks_mut(class.h_len) {
                for (s, &shift) in plane.iter_mut().zip(&class.shifts) {
                    shift_one(s, shift, sgn);
                }
            }
        }
        Some(m) => {
            for (plane, mplane) in symbols.chunks_mut(class.h_len).zip(m.chunks(class.h_len)) {
                for ((s, &shift), &keep) in plane.iter_mut().zip(&class.shifts).zip(mplane) {
                    if keep {
                        shift_one(s, shift, sgn);
                    }
                }
            }
        }
    }
}

#[inline]
fn shift_one(s: &mut u32, shift: i8, sgn: i32) {
    if *s == ESCAPE || shift == 0 {
        return;
    }
    let new_bin = symbol_to_bin(*s) + sgn * i32::from(shift);
    *s = bin_to_symbol(new_bin);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClassifySpec {
        ClassifySpec::default()
    }

    #[test]
    fn lambda_satisfies_theorem2_constraints() {
        let golden = (3.0 - 5.0f64.sqrt()) / 2.0; // ≈ 0.381966
        assert!(optimal_lambda() > golden);
        assert!(optimal_lambda() >= 0.4);
    }

    #[test]
    fn shifted_column_detected_and_recentred() {
        // 2 positions × 10 slices: position 0 peaks at bin +1, position 1 at 0.
        let h_len = 2;
        let mut symbols = Vec::new();
        for _slice in 0..10 {
            symbols.push(bin_to_symbol(1)); // position 0
            symbols.push(bin_to_symbol(0)); // position 1
        }
        let class = classify(&symbols, h_len, None, spec());
        assert_eq!(class.shifts, vec![1, 0]);
        assert_eq!(class.groups, vec![0, 0]); // both sharply peaked

        let mut shifted = symbols.clone();
        apply_shifts(&mut shifted, &class, None);
        // Position 0's bins all became 0.
        for slice in 0..10 {
            assert_eq!(symbol_to_bin(shifted[slice * 2]), 0);
        }
        unapply_shifts(&mut shifted, &class, None);
        assert_eq!(shifted, symbols);
    }

    #[test]
    fn dispersed_column_goes_to_group1() {
        // Position 0: uniform over 5 bins (peak frac 0.2 < 0.4) -> dispersed.
        // Position 1: all zeros -> peaked.
        let h_len = 2;
        let mut symbols = Vec::new();
        for slice in 0..10 {
            symbols.push(bin_to_symbol(slice % 5 - 2));
            symbols.push(bin_to_symbol(0));
        }
        let class = classify(&symbols, h_len, None, spec());
        assert_eq!(class.groups, vec![1, 0]);
    }

    #[test]
    fn large_mode_not_shifted_but_dispersed_check_still_runs() {
        // Mode at +5 exceeds j=1: no shift recorded.
        let h_len = 1;
        let symbols: Vec<u32> = (0..10).map(|_| bin_to_symbol(5)).collect();
        let class = classify(&symbols, h_len, None, spec());
        assert_eq!(class.shifts, vec![0]);
        assert_eq!(class.groups, vec![0]); // still sharply peaked
    }

    #[test]
    fn escapes_and_mask_excluded() {
        let h_len = 1;
        // 3 escapes + 2 masked(-1 bins) + 5 bins of +1 => mode +1 from 5 valid.
        let symbols = vec![
            ESCAPE,
            ESCAPE,
            ESCAPE,
            bin_to_symbol(-1),
            bin_to_symbol(-1),
            bin_to_symbol(1),
            bin_to_symbol(1),
            bin_to_symbol(1),
            bin_to_symbol(1),
            bin_to_symbol(1),
        ];
        let mask = vec![true, true, true, false, false, true, true, true, true, true];
        let class = classify(&symbols, h_len, Some(&mask), spec());
        assert_eq!(class.shifts, vec![1]);
        let mut shifted = symbols.clone();
        apply_shifts(&mut shifted, &class, Some(&mask));
        assert_eq!(shifted[0], ESCAPE); // escapes untouched
        assert_eq!(shifted[3], bin_to_symbol(-1)); // masked untouched
        assert_eq!(symbol_to_bin(shifted[5]), 0);
        unapply_shifts(&mut shifted, &class, Some(&mask));
        assert_eq!(shifted, symbols);
    }

    #[test]
    fn fully_masked_position_neutral() {
        let h_len = 2;
        let symbols: Vec<u32> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    bin_to_symbol(3)
                } else {
                    bin_to_symbol(0)
                }
            })
            .collect();
        let mask = vec![false, true, false, true, false, true, false, true];
        let class = classify(&symbols, h_len, Some(&mask), spec());
        assert_eq!(class.shifts[0], 0);
        assert_eq!(class.groups[0], 0);
    }

    #[test]
    fn marker_roundtrip() {
        for h_len in [1usize, 5, 11, 12, 23, 1000] {
            let shifts: Vec<i8> = (0..h_len).map(|p| (p % 3) as i8 - 1).collect();
            let groups: Vec<u8> = (0..h_len).map(|p| (p % 2) as u8).collect();
            let class = Classification {
                h_len,
                shifts,
                groups,
            };
            let bytes = class.marker_bytes();
            // ~2.9 bits/position + 8-byte header.
            assert!(bytes.len() <= 8 + (h_len.div_ceil(11)) * 4);
            let back = Classification::from_marker_bytes(&bytes).unwrap();
            assert_eq!(back, class);
        }
    }

    #[test]
    fn group_sequence_skips_masked() {
        let class = Classification {
            h_len: 2,
            shifts: vec![0, 0],
            groups: vec![0, 1],
        };
        let mask = vec![true, false, true, true];
        let seq = class.group_sequence(4, Some(&mask));
        assert_eq!(seq, vec![0, 0, 1]);
    }

    #[test]
    fn identity_is_trivial() {
        assert!(Classification::identity(7).is_trivial());
    }

    #[test]
    fn truncated_markers_rejected() {
        let class = Classification::identity(100);
        let bytes = class.marker_bytes();
        assert!(Classification::from_marker_bytes(&bytes[..10]).is_none());
    }
}
