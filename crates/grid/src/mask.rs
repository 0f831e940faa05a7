//! Validity mask maps (Sec. V-A).
//!
//! CESM ocean/land variables mark uninteresting grid points with huge fill
//! values (on the order of 2^122). The dataset ships a *mask map* — an integer
//! field whose zero entries are invalid positions (e.g. land for an ocean
//! variable). [`MaskMap`] is CliZ's boolean distillation of that map: one
//! validity flag per grid point, with bit-packed (de)serialization so the
//! classification/ablation harnesses can account for its storage cost.

use crate::grid::{permute_values, Grid};
use crate::shape::Shape;

/// Per-point validity: `true` = real data, `false` = fill/missing.
#[derive(Clone, Debug, PartialEq)]
pub struct MaskMap {
    shape: Shape,
    valid: Vec<bool>,
}

impl MaskMap {
    /// All points valid.
    pub fn all_valid(shape: Shape) -> Self {
        let n = shape.len();
        Self {
            shape,
            valid: vec![true; n],
        }
    }

    pub fn from_flags(shape: Shape, valid: Vec<bool>) -> Self {
        assert_eq!(valid.len(), shape.len(), "mask length mismatch");
        Self { shape, valid }
    }

    /// Derives a mask from the data itself: points whose magnitude reaches
    /// `fill_threshold`, or that are non-finite, are invalid. CESM fill values
    /// (~2^122) dwarf any physical quantity, so a generous threshold such as
    /// `1e30` is safe for every variable in Table III.
    pub fn from_fill_value(data: &Grid<f32>, fill_threshold: f32) -> Self {
        let valid = data
            .as_slice()
            .iter()
            .map(|&v| v.is_finite() && v.abs() < fill_threshold)
            .collect();
        Self {
            shape: data.shape().clone(),
            valid,
        }
    }

    /// Derives a mask from a CESM-style integer region map: zero entries are
    /// invalid, non-zero (positive ocean basins, negative inland seas) valid.
    pub fn from_region_map(regions: &Grid<i32>) -> Self {
        let valid = regions.as_slice().iter().map(|&r| r != 0).collect();
        Self {
            shape: regions.shape().clone(),
            valid,
        }
    }

    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Validity of the point at linear index `i`.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.valid[i]
    }

    #[inline]
    pub fn as_slice(&self) -> &[bool] {
        &self.valid
    }

    /// Number of valid points.
    pub fn valid_count(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Fraction of invalid points (0.0 when fully valid).
    pub fn invalid_fraction(&self) -> f64 {
        1.0 - self.valid_count() as f64 / self.len() as f64
    }

    /// True when every point is valid — lets callers skip mask-aware paths.
    pub fn is_all_valid(&self) -> bool {
        self.valid.iter().all(|&v| v)
    }

    /// Reinterprets the mask under a permuted axis order (matching
    /// [`Grid::permuted`]).
    pub fn permuted(&self, perm: &[usize]) -> MaskMap {
        MaskMap {
            shape: self.shape.permuted(perm),
            valid: permute_values(&self.shape, &self.valid, perm),
        }
    }

    /// Bit-packs the mask (8 flags per byte, little-endian within the byte).
    pub fn pack_bits(&self) -> Vec<u8> {
        pack_flags(&self.valid)
    }

    /// Inverse of [`MaskMap::pack_bits`]. Callers pass a buffer sized from
    /// the shape (`len().div_ceil(8)`); a short buffer is a programmer
    /// error, and bits past the last flag are ignored.
    pub fn unpack_bits(shape: Shape, bytes: &[u8]) -> Self {
        let n = shape.len();
        assert!(bytes.len() * 8 >= n, "packed mask too short");
        Self {
            shape,
            valid: unpack_flags(bytes, n),
        }
    }
}

/// [`MaskMap::pack_bits`]: each full byte comes from one 8-flag word
/// ([`pack_word`]), the tail from a fold.
fn pack_flags(valid: &[bool]) -> Vec<u8> {
    let (words, tail) = valid.as_chunks::<8>();
    let mut out = Vec::with_capacity(valid.len().div_ceil(8));
    out.extend(words.iter().map(pack_word));
    if !tail.is_empty() {
        out.push(tail.iter().rev().fold(0, |b, &v| b << 1 | u8::from(v)));
    }
    out
}

/// 8 flags as one byte, the first in the lowest bit. The flags load as one
/// little-endian word of 0/1 bytes; the multiply moves byte `k`'s bit to
/// bit `56 + k`, and every other partial product lands on a distinct bit,
/// so nothing carries into the top byte.
fn pack_word(flags: &[bool; 8]) -> u8 {
    let word = u64::from_le_bytes(flags.map(u8::from));
    (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// The first `n` flags of `bytes`, 8 written per byte read.
fn unpack_flags(bytes: &[u8], n: usize) -> Vec<bool> {
    let mut valid = vec![false; n];
    for (flags, &b) in valid.chunks_mut(8).zip(bytes) {
        for (k, v) in flags.iter_mut().enumerate() {
            *v = b & (1 << k) != 0;
        }
    }
    valid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_value_detection() {
        let g = Grid::from_vec(
            Shape::new(&[5]),
            vec![1.0f32, 1.0e31, -3.0, f32::NAN, 2.0f32.powi(122)],
        );
        let m = MaskMap::from_fill_value(&g, 1e30);
        assert_eq!(m.as_slice(), &[true, false, true, false, false]);
        assert_eq!(m.valid_count(), 2);
        assert!((m.invalid_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn region_map_signs() {
        let r = Grid::from_vec(Shape::new(&[4]), vec![0, 3, -2, 0]);
        let m = MaskMap::from_region_map(&r);
        assert_eq!(m.as_slice(), &[false, true, true, false]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let shape = Shape::new(&[3, 7]);
        let valid: Vec<bool> = (0..21).map(|i| i % 3 != 0).collect();
        let m = MaskMap::from_flags(shape.clone(), valid);
        let packed = m.pack_bits();
        assert_eq!(packed.len(), 3); // ceil(21/8)
        let back = MaskMap::unpack_bits(shape, &packed);
        assert_eq!(back, m);
    }

    /// The per-flag loops the word-at-a-time kernels replaced.
    fn oracle_pack(valid: &[bool]) -> Vec<u8> {
        let mut out = vec![0u8; valid.len().div_ceil(8)];
        for (i, &v) in valid.iter().enumerate() {
            if v {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    fn oracle_unpack(bytes: &[u8], n: usize) -> Vec<bool> {
        (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect()
    }

    /// xorshift64*: seeded, so a failing case reproduces.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn check_kernels(valid: &[bool], what: &str) {
        let packed = pack_flags(valid);
        assert_eq!(packed, oracle_pack(valid), "pack: {what}");
        assert_eq!(unpack_flags(&packed, valid.len()), valid, "unpack: {what}");
        // Bits past the last flag are ignored, whatever they hold.
        let mut padded = packed;
        let used = valid.len() % 8;
        if let (Some(last), true) = (padded.last_mut(), used != 0) {
            *last |= !0u8 << used;
        }
        assert_eq!(unpack_flags(&padded, valid.len()), valid, "padding: {what}");
    }

    #[test]
    fn bit_kernels_match_the_per_flag_loops() {
        // All valid, all invalid, alternating, every third, runs of 5.
        let patterns: [fn(usize) -> bool; 5] = [
            |_| true,
            |_| false,
            |i| i % 2 == 0,
            |i| i % 3 == 1,
            |i| i / 5 % 2 == 1,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=130 {
            for (p, f) in patterns.iter().enumerate() {
                let valid: Vec<bool> = (0..len).map(f).collect();
                check_kernels(&valid, &format!("pattern {p}, length {len}"));
            }
            let valid: Vec<bool> = (0..len).map(|_| next(&mut state) & 1 == 1).collect();
            check_kernels(&valid, &format!("random, length {len}"));
        }
        for seed in 1..=64u64 {
            let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            let len = (next(&mut state) % 4096) as usize;
            let density = next(&mut state) % 100;
            let valid: Vec<bool> = (0..len).map(|_| next(&mut state) % 100 < density).collect();
            check_kernels(&valid, &format!("seed {seed}, length {len}"));
            let bytes: Vec<u8> = (0..len.div_ceil(8))
                .map(|_| next(&mut state) as u8)
                .collect();
            assert_eq!(
                unpack_flags(&bytes, len),
                oracle_unpack(&bytes, len),
                "unpack of random bytes: seed {seed}"
            );
        }
    }

    #[test]
    fn all_valid_shortcut() {
        let m = MaskMap::all_valid(Shape::new(&[2, 2]));
        assert!(m.is_all_valid());
        assert_eq!(m.invalid_fraction(), 0.0);
    }

    #[test]
    fn permuted_mask_follows_data() {
        let shape = Shape::new(&[2, 3]);
        let valid = vec![true, false, true, false, true, false];
        let m = MaskMap::from_flags(shape, valid);
        let p = m.permuted(&[1, 0]);
        assert_eq!(p.shape().dims(), &[3, 2]);
        // (i,j) valid in m <=> (j,i) valid in p
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m.is_valid(i * 3 + j), p.is_valid(j * 2 + i), "({i},{j})");
            }
        }
    }
}
