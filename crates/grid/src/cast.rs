//! Checked numeric conversions for the compression hot paths.
//!
//! The quantizer, entropy, predictor and metrics crates deny clippy's
//! `cast_possible_truncation` and `cast_possible_wrap` outside tests, so a
//! bare narrowing `as` cast does not compile there: a silently wrapping
//! cast on a corrupt bitstream turns a decode error into wrong output.
//! These helpers make every conversion's intent explicit:
//!
//! * `to_*_checked` — fallible range-checked conversions (`None` on
//!   overflow), for values derived from untrusted input;
//! * `low_u8`/`low_u16`/`low_u32` — deliberate truncation to the low bits,
//!   for bit-packing where masking is the point;
//! * [`u32_len`] — encode-side length narrowing that must hold by
//!   construction (containers cap payloads well below `u32::MAX`);
//! * [`quantize_index`] — float→bin conversion that folds the quantizer's
//!   radius check into the cast, so out-of-range bins become escapes
//!   instead of wrapped indices;
//! * [`f64_to_f32_checked`] / [`float_to_index`] — the float-side
//!   counterparts: narrowing to `f32` must surface overflow, and
//!   float→index conversions must clamp, not wrap;
//! * `u32_le`/`u64_le`/`f32_le`/`f64_le` — bounds-checked little-endian
//!   field readers for container decoders (`None` on short input).
//!
//! Everything is `#[inline]`: each helper reduces to the same machine code
//! as the cast it replaces (plus the explicit check, where one exists).

/// Range-checked conversion to `u32`; `None` when the value does not fit.
#[inline]
pub fn to_u32_checked<T: TryInto<u32>>(v: T) -> Option<u32> {
    v.try_into().ok()
}

/// Range-checked conversion to `u16`; `None` when the value does not fit.
#[inline]
pub fn to_u16_checked<T: TryInto<u16>>(v: T) -> Option<u16> {
    v.try_into().ok()
}

/// Range-checked conversion to `u8`; `None` when the value does not fit.
#[inline]
pub fn to_u8_checked<T: TryInto<u8>>(v: T) -> Option<u8> {
    v.try_into().ok()
}

/// Range-checked conversion to `i32`; `None` when the value does not fit.
#[inline]
pub fn to_i32_checked<T: TryInto<i32>>(v: T) -> Option<i32> {
    v.try_into().ok()
}

/// Range-checked conversion to `i8`; `None` when the value does not fit.
#[inline]
pub fn to_i8_checked<T: TryInto<i8>>(v: T) -> Option<i8> {
    v.try_into().ok()
}

/// Range-checked conversion to `usize`; `None` when the value does not fit.
#[inline]
pub fn to_usize_checked<T: TryInto<usize>>(v: T) -> Option<usize> {
    v.try_into().ok()
}

/// Narrows `f64` to `f32`, refusing conversions that lose the value
/// entirely: `None` when the input is non-finite or overflows `f32` range
/// (the rounded result is ±∞). Plain precision rounding still happens —
/// that is the point of storing `f32` — but silent overflow does not.
#[inline]
pub fn f64_to_f32_checked(v: f64) -> Option<f32> {
    let f = v as f32;
    if f.is_finite() {
        Some(f)
    } else {
        None
    }
}

/// Branch-free form of [`f64_to_f32_checked`]: returns `(f, ok)` where `ok`
/// mirrors the `Option` (`f` is the raw narrowed value either way, ±∞ or NaN
/// when `ok` is false). Lets hot loops fold the overflow check into a wider
/// select instead of an early exit.
#[inline]
pub fn f64_to_f32_select(v: f64) -> (f32, bool) {
    let f = v as f32;
    (f, f.is_finite())
}

/// Converts a float estimate to a slot index clamped to `0..len`:
/// non-finite or negative inputs map to 0, anything past the end maps to
/// the last slot. Replaces bare `as usize` on float expressions, whose
/// NaN→0 / overflow saturation semantics are easy to invoke by accident on
/// corrupt statistics.
#[inline]
pub fn float_to_index(v: f64, len: usize) -> usize {
    debug_assert!(len > 0, "float_to_index: empty range");
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    // `as` saturates for out-of-range floats, so the min() is the only
    // clamp needed on the high side.
    (v as usize).min(len.saturating_sub(1))
}

/// Reads a little-endian `u32` from the front of `b`; `None` on short input.
#[inline]
pub fn u32_le(b: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

/// Reads a little-endian `u64` from the front of `b`; `None` on short input.
#[inline]
pub fn u64_le(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

/// Reads a little-endian `f32` from the front of `b`; `None` on short input.
#[inline]
pub fn f32_le(b: &[u8]) -> Option<f32> {
    Some(f32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

/// Reads a little-endian `f64` from the front of `b`; `None` on short input.
#[inline]
pub fn f64_le(b: &[u8]) -> Option<f64> {
    Some(f64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

/// Deliberate truncation to the low 8 bits (bit-packing only).
#[inline]
pub fn low_u8(v: impl Into<u64>) -> u8 {
    (v.into() & 0xFF) as u8
}

/// Deliberate truncation to the low 16 bits (bit-packing only).
#[inline]
pub fn low_u16(v: impl Into<u64>) -> u16 {
    (v.into() & 0xFFFF) as u16
}

/// Deliberate truncation to the low 32 bits (bit-packing only).
#[inline]
pub fn low_u32(v: impl Into<u64>) -> u32 {
    (v.into() & 0xFFFF_FFFF) as u32
}

/// Narrows an encode-side length to `u32` for container headers.
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX`. This is an encoder invariant (all
/// CliZ container formats cap section payloads at 4 GiB), not an input
/// validation path — decoders never call this.
#[inline]
pub fn u32_len(len: usize) -> u32 {
    // xtask-allow: R5 -- encoder-only length narrowing (see doc above); decoders never call this
    u32::try_from(len).expect("encoder section length exceeds u32 range")
}

/// Converts a quantizer bin estimate to its `i32` index, folding in the
/// radius check: `None` means the value quantizes outside `±radius` and
/// must be escaped (stored losslessly), never wrapped.
#[inline]
pub fn quantize_index(bin_f: f64, radius: i32) -> Option<i32> {
    if !bin_f.is_finite() {
        return None;
    }
    let r = f64::from(radius);
    if bin_f < -r || bin_f > r {
        return None;
    }
    // In range by the check above, so the cast is exact for integral bin_f.
    Some(bin_f as i32)
}

/// [`quantize_index`] fused with the encoder's rounding step: for every
/// input this returns exactly `quantize_index(bin_f.round(), radius)`, but
/// without the `round()` call (`f64::round` is a library call at the SSE2
/// baseline and dominates otherwise-branchless quantization loops).
///
/// Round-half-away-from-zero is rebuilt from truncation: `trunc(|x| + 0.5)`
/// overshoots by one only when the `+ 0.5` addition rounds upward across an
/// integer, and that case is detected exactly because `k − 0.5` is
/// representable for every admissible `k` (`k ≤ radius + 1 < 2^31`).
#[inline]
pub fn quantize_round_index(bin_f: f64, radius: i32) -> Option<i32> {
    let (bin, ok) = quantize_round_index_select(bin_f, radius);
    if ok {
        Some(bin)
    } else {
        None
    }
}

/// Branch-free core of [`quantize_round_index`]: returns `(bin, ok)` where
/// `bin` equals `bin_f.round() as i32` whenever `ok` is true and is
/// meaningless otherwise. Every operation is a straight-line select, so hot
/// quantization loops carry no data-dependent branches (`ok` combines into
/// the caller's own selects instead of an early exit).
#[inline]
pub fn quantize_round_index_select(bin_f: f64, radius: i32) -> (i32, bool) {
    let a = bin_f.abs();
    // round(|x|) > radius  ⇔  |x| ≥ radius + 0.5 (exact: radius + 0.5 is
    // representable for every i32). The comparison is false for NaN.
    let ok = a < f64::from(radius) + 0.5;
    let mut k = (a + 0.5) as i32;
    k -= i32::from(f64::from(k) - 0.5 > a);
    let bin = if bin_f < 0.0 { -k } else { k };
    (bin, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_conversions() {
        assert_eq!(to_u32_checked(5usize), Some(5));
        assert_eq!(to_u32_checked(u64::MAX), None);
        assert_eq!(to_u16_checked(65_535u32), Some(65_535));
        assert_eq!(to_u16_checked(65_536u32), None);
        assert_eq!(to_u8_checked(255u32), Some(255));
        assert_eq!(to_u8_checked(256u32), None);
        assert_eq!(to_i32_checked(u32::MAX), None);
        assert_eq!(to_i8_checked(-128i32), Some(-128));
        assert_eq!(to_i8_checked(128i32), None);
    }

    #[test]
    fn truncating_helpers() {
        assert_eq!(low_u8(0x1234u32), 0x34);
        assert_eq!(low_u16(0xABCD_EF01u32), 0xEF01);
        assert_eq!(low_u32(0x1_0000_0002u64), 2);
    }

    #[test]
    fn quantize_index_bounds() {
        assert_eq!(quantize_index(5.0, 10), Some(5));
        assert_eq!(quantize_index(-10.0, 10), Some(-10));
        assert_eq!(quantize_index(11.0, 10), None);
        assert_eq!(quantize_index(-11.0, 10), None);
        assert_eq!(quantize_index(f64::NAN, 10), None);
        assert_eq!(quantize_index(f64::INFINITY, 10), None);
    }

    #[test]
    fn quantize_round_index_matches_round_exactly() {
        // Differential sweep against the specification
        // `quantize_index(v.round(), r)`, hammering the half-step boundaries
        // where truncation-based rounding goes wrong first.
        let mut probes: Vec<f64> = vec![
            0.0,
            -0.0,
            0.49999999999999994, // largest f64 < 0.5: + 0.5 rounds to 1.0
            -0.49999999999999994,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            10.499999999999998,
            10.5,
            32767.5,
            32768.0,
            32768.49,
            32768.5,
            -32768.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ];
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mag = f64::from(low_u32(state >> 32)) / 65536.0; // 0 .. 65536
            probes.push(if state & 1 == 0 { mag } else { -mag });
        }
        for radius in [1, 4, 255, 32768, i32::MAX] {
            for &v in &probes {
                assert_eq!(
                    quantize_round_index(v, radius),
                    quantize_index(v.round(), radius),
                    "v = {v:?}, radius = {radius}"
                );
                // The select form must agree with the Option form on `ok`,
                // and on the bin whenever `ok` holds.
                let (bin, ok) = quantize_round_index_select(v, radius);
                assert_eq!(ok, quantize_round_index(v, radius).is_some());
                if ok {
                    assert_eq!(Some(bin), quantize_round_index(v, radius));
                }
            }
        }
    }

    #[test]
    fn f32_select_mirrors_checked() {
        for v in [
            1.5,
            1e-300,
            1e300,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.0,
            3.25e38,
        ] {
            let (f, ok) = f64_to_f32_select(v);
            match f64_to_f32_checked(v) {
                Some(c) => {
                    assert!(ok, "v = {v:?}");
                    assert_eq!(f.to_bits(), c.to_bits(), "v = {v:?}");
                }
                None => assert!(!ok, "v = {v:?}"),
            }
        }
    }

    #[test]
    fn u32_len_roundtrip() {
        assert_eq!(u32_len(0), 0);
        assert_eq!(u32_len(1 << 20), 1 << 20);
    }

    #[test]
    fn f32_narrowing_is_checked() {
        assert_eq!(f64_to_f32_checked(1.5), Some(1.5f32));
        // Precision rounding is allowed…
        assert_eq!(f64_to_f32_checked(1e-300), Some(0.0f32));
        // …but overflow to ±∞ and non-finite inputs are not.
        assert_eq!(f64_to_f32_checked(1e300), None);
        assert_eq!(f64_to_f32_checked(f64::NEG_INFINITY), None);
        assert_eq!(f64_to_f32_checked(f64::NAN), None);
    }

    #[test]
    fn float_to_index_clamps() {
        assert_eq!(float_to_index(3.7, 10), 3);
        assert_eq!(float_to_index(-2.0, 10), 0);
        assert_eq!(float_to_index(f64::NAN, 10), 0);
        assert_eq!(float_to_index(1e30, 10), 9);
        assert_eq!(float_to_index(9.999, 10), 9);
    }

    #[test]
    fn le_readers_check_bounds() {
        let b = 0xDEAD_BEEFu32.to_le_bytes();
        assert_eq!(u32_le(&b), Some(0xDEAD_BEEF));
        assert_eq!(u32_le(&b[..3]), None);
        let b = 42u64.to_le_bytes();
        assert_eq!(u64_le(&b), Some(42));
        assert_eq!(u64_le(&[]), None);
        let b = 1.25f32.to_le_bytes();
        assert_eq!(f32_le(&b), Some(1.25));
        assert_eq!(f32_le(&b[..2]), None);
        let b = (-3.5f64).to_le_bytes();
        assert_eq!(f64_le(&b), Some(-3.5));
        assert_eq!(f64_le(&b[..7]), None);
    }
}
