//! Order-0 static range coder (LZMA-style carry handling).
//!
//! An arithmetic-family alternative to the Huffman stage: symbols cost their
//! true fractional entropy instead of whole bits, which matters for the
//! heavily peaked quantization-bin histograms CliZ produces (a 95%-probable
//! zero bin costs ~0.07 bits here vs a full bit under Huffman). It is a
//! comparison point, not part of the codec: the `ablation_entropy` harness
//! uses it to quantify what the paper's multi-Huffman design leaves on the
//! table relative to (slower) arithmetic coding.

use cliz::grid::cast;

/// Total frequency scale (power of two so division is exact and cheap).
const TOTAL_BITS: u32 = 16;
const TOTAL: u32 = 1 << TOTAL_BITS;
const TOP: u32 = 1 << 24;
/// Decode-side cap on the alphabet a stream header may claim.
const MAX_ALPHABET: usize = 1 << 24;

/// Scales a histogram to sum exactly [`TOTAL`], keeping every used symbol's
/// frequency ≥ 1.
fn scale_frequencies(freqs: &[u64]) -> Vec<u32> {
    let sum: u64 = freqs.iter().sum();
    assert!(sum > 0, "empty histogram");
    let used = freqs.iter().filter(|&&f| f > 0).count() as u64;
    assert!(
        used <= u64::from(TOTAL),
        "alphabet too large for the frequency scale"
    );
    let mut scaled: Vec<u32> = freqs
        .iter()
        .map(|&f| {
            if f == 0 {
                0
            } else {
                // u128 so extreme counts (≫ 2^48) cannot overflow the scale;
                // the quotient is ≤ TOTAL because f ≤ sum.
                let v = (u128::from(f) * u128::from(TOTAL) / u128::from(sum)).max(1);
                cast::to_u32_checked(v).unwrap_or(TOTAL)
            }
        })
        .collect();
    // Exact-sum repair: drain or add from/to the largest buckets.
    let mut total: i64 = scaled.iter().map(|&f| i64::from(f)).sum();
    while total != i64::from(TOTAL) {
        let found = if total > i64::from(TOTAL) {
            // Shrink the largest shrinkable bucket. One always exists: if
            // every bucket were 1, total = used ≤ TOTAL and we would not be
            // in this branch.
            (0..scaled.len())
                .filter(|&i| scaled[i] > 1)
                .max_by_key(|&i| scaled[i])
        } else {
            (0..scaled.len())
                .filter(|&i| scaled[i] > 0)
                .max_by_key(|&i| scaled[i])
        };
        let Some(idx) = found else {
            // Unreachable given the `used` bound asserted above; bail rather
            // than spin forever if the invariant is ever broken.
            break;
        };
        if total > i64::from(TOTAL) {
            scaled[idx] -= 1;
            total -= 1;
        } else {
            scaled[idx] += 1;
            total += 1;
        }
    }
    scaled
}

struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    /// Pending bytes: 1 cache byte + (cache_size − 1) 0xFF bytes awaiting a
    /// possible carry.
    cache_size: u64,
    out: Vec<u8>,
    first: bool,
}

impl RangeEncoder {
    fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
            first: true,
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if cast::low_u32(self.low) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = cast::low_u8(self.low >> 32);
            if !self.first {
                self.out.push(self.cache.wrapping_add(carry));
            }
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.first = false;
            self.cache = cast::low_u8(self.low >> 24);
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    #[inline]
    fn encode(&mut self, cum: u32, freq: u32) {
        debug_assert!(freq > 0 && cum + freq <= TOTAL);
        let r = self.range >> TOTAL_BITS;
        self.low += u64::from(r) * u64::from(cum);
        self.range = r * freq;
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

struct RangeDecoder<'a> {
    range: u32,
    code: u32,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut d = Self {
            range: u32::MAX,
            code: 0,
            bytes,
            pos: 0,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Returns the cumulative-frequency position of the next symbol.
    #[inline]
    fn decode_position(&mut self) -> u32 {
        let r = self.range >> TOTAL_BITS;
        (self.code / r).min(TOTAL - 1)
    }

    /// Consumes the symbol whose slot is `[cum, cum+freq)`.
    #[inline]
    fn consume(&mut self, cum: u32, freq: u32) {
        let r = self.range >> TOTAL_BITS;
        self.code -= r * cum;
        self.range = r * freq;
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
    }
}

/// Encodes a symbol stream with a static order-0 model.
/// Layout: `count u32 | alphabet u32 | used u32 | used×(symbol u32, freq u16)
/// | range-coder bytes`.
///
/// ```
/// use cliz_bench::range::{range_decode_stream, range_encode_stream};
/// let symbols: Vec<u32> = (0..1000).map(|i| if i % 9 == 0 { 2 } else { 1 }).collect();
/// let bytes = range_encode_stream(&symbols);
/// assert_eq!(range_decode_stream(&bytes), Some(symbols));
/// assert!(bytes.len() < 150); // ~0.5 bits/symbol on this skewed stream
/// ```
pub fn range_encode_stream(symbols: &[u32]) -> Vec<u8> {
    let alphabet = symbols.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut out = Vec::new();
    out.extend_from_slice(&cast::u32_len(symbols.len()).to_le_bytes());
    out.extend_from_slice(&cast::u32_len(alphabet).to_le_bytes());
    if symbols.is_empty() {
        out.extend_from_slice(&0u32.to_le_bytes());
        return out;
    }
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let scaled = scale_frequencies(&freqs);
    let used: Vec<u32> = (0..cast::u32_len(alphabet))
        .filter(|&s| scaled[s as usize] > 0)
        .collect();
    out.extend_from_slice(&cast::u32_len(used.len()).to_le_bytes());
    for &s in &used {
        out.extend_from_slice(&s.to_le_bytes());
        // TOTAL itself (single-symbol stream) is stored as 0.
        out.extend_from_slice(&cast::low_u16(scaled[s as usize] % TOTAL).to_le_bytes());
    }

    // Cumulative table.
    let mut cum = vec![0u32; alphabet + 1];
    for s in 0..alphabet {
        cum[s + 1] = cum[s] + scaled[s];
    }
    let mut enc = RangeEncoder::new();
    for &s in symbols {
        enc.encode(cum[s as usize], scaled[s as usize]);
    }
    out.extend_from_slice(&enc.finish());
    out
}

/// Inverse of [`range_encode_stream`].
pub fn range_decode_stream(bytes: &[u8]) -> Option<Vec<u32>> {
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let end = pos.checked_add(n)?;
        let s = bytes.get(*pos..end)?;
        *pos = end;
        Some(s)
    };
    let mut pos = 0usize;
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let alphabet = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let used = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    if count == 0 {
        return Some(Vec::new());
    }
    if used == 0 || used > alphabet || alphabet > MAX_ALPHABET {
        return None;
    }
    // Each used entry occupies 6 bytes; reject a count the stream cannot
    // possibly back before looping over it.
    if used.checked_mul(6)? > bytes.len().saturating_sub(pos) {
        return None;
    }
    let mut scaled = vec![0u32; alphabet];
    for _ in 0..used {
        let s = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let f = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?);
        if s >= alphabet {
            return None;
        }
        scaled[s] = if f == 0 { TOTAL } else { u32::from(f) };
    }
    let mut cum = vec![0u32; alphabet + 1];
    for s in 0..alphabet {
        cum[s + 1] = cum[s].checked_add(scaled[s])?;
    }
    if cum[alphabet] != TOTAL {
        return None;
    }
    // Symbol lookup by cumulative position: binary search over `cum`.
    let mut dec = RangeDecoder::new(bytes.get(pos..)?);
    // `count` is an untrusted header field: cap the pre-allocation.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let p = dec.decode_position();
        // Largest s with cum[s] <= p.
        let s = cum.partition_point(|&c| c <= p) - 1;
        if s >= alphabet || scaled[s] == 0 {
            return None;
        }
        dec.consume(cum[s], scaled[s]);
        out.push(cast::to_u32_checked(s)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) -> usize {
        let bytes = range_encode_stream(symbols);
        let back = range_decode_stream(&bytes).expect("decode");
        assert_eq!(back, symbols);
        bytes.len()
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[5; 1000]);
        roundtrip(&[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn roundtrip_peaked_stream() {
        let symbols: Vec<u32> = (0..50_000)
            .map(|i| match i % 100 {
                0..=94 => 1u32,
                95..=97 => 2,
                _ => 3 + (i % 7) as u32,
            })
            .collect();
        let n = roundtrip(&symbols);
        // ~0.4 bits/symbol entropy; must land well under 1 bit/symbol
        // (where Huffman is pinned).
        let bits_per_symbol = (n * 8) as f64 / symbols.len() as f64;
        assert!(
            bits_per_symbol < 0.7,
            "{bits_per_symbol} bits/symbol ({n} bytes for {})",
            symbols.len()
        );
    }

    #[test]
    fn beats_huffman_on_skewed_bins() {
        let symbols: Vec<u32> = (0..40_000)
            .map(|i| if i % 20 == 0 { 2 } else { 1 })
            .collect();
        let rc = range_encode_stream(&symbols).len();
        let hf = cliz::entropy::huffman::encode_stream(&symbols).len();
        assert!(rc < hf / 2, "range {rc} vs huffman {hf}");
    }

    #[test]
    fn roundtrip_large_alphabet() {
        let symbols: Vec<u32> = (0..30_000u32).map(|i| (i * i) % 4096).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn roundtrip_adversarial_patterns() {
        // Runs, alternations, and ramps stress the carry logic.
        let mut v = vec![0u32; 500];
        v.extend([1u32, 0].repeat(500));
        v.extend(0..2000u32);
        v.extend(std::iter::repeat_n(1999u32, 700));
        roundtrip(&v);
    }

    #[test]
    fn scaled_frequencies_sum_exactly() {
        for freqs in [
            vec![1u64, 1, 1],
            vec![1_000_000, 1, 1, 1],
            vec![3, 0, 0, 9, 0, 27],
            vec![u64::MAX / 4, 1],
        ] {
            let scaled = scale_frequencies(&freqs);
            assert_eq!(
                scaled.iter().map(|&f| u64::from(f)).sum::<u64>(),
                u64::from(TOTAL)
            );
            for (s, f) in scaled.iter().zip(&freqs) {
                assert_eq!(*s == 0, *f == 0, "zero preservation");
            }
        }
    }

    #[test]
    fn corrupt_input_rejected_or_detected() {
        let symbols: Vec<u32> = (0..100u32).map(|i| i % 3).collect();
        let bytes = range_encode_stream(&symbols);
        assert!(range_decode_stream(&bytes[..6]).is_none());
        // Header corruption (frequency table) must not panic.
        let mut b = bytes.clone();
        b[8] ^= 0xFF;
        let _ = range_decode_stream(&b);
    }

    /// 64 seeded streams of up to 1500 symbols over a 3000-symbol
    /// alphabet; a failing case names its seed.
    #[test]
    fn range_coder_roundtrips_arbitrary_symbols() {
        for case in 0..64u64 {
            let seed = case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut state = seed;
            let mut draw = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % n
            };
            let len = draw(1500);
            let symbols: Vec<u32> = (0..len).map(|_| draw(3000) as u32).collect();
            let bytes = range_encode_stream(&symbols);
            assert_eq!(
                range_decode_stream(&bytes),
                Some(symbols),
                "case {case} (seed {seed:#x})"
            );
        }
    }
}
