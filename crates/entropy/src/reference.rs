//! Frozen pre-rewrite reference implementations of the bit I/O and Huffman
//! kernels, kept verbatim from before the word-at-a-time rewrite.
//!
//! These exist for two reasons and must **never** be "optimized":
//!
//! * **Differential oracles.** The rewritten [`crate::BitWriter`] /
//!   [`crate::BitReader`] / [`crate::HuffmanDecoder`] must produce and
//!   consume byte-identical streams. The differential tests sweep seeded
//!   symbol distributions through both implementations and assert equality
//!   of every byte and every decoded symbol, including tail-bit and
//!   empty-stream edge cases.
//! * **Same-host performance baseline.** `stage_bench` measures these
//!   kernels in the same process as the rewritten ones, so the committed
//!   `BENCH_stages.json` proves the throughput delta on one host instead of
//!   comparing numbers captured on different machines.
//!
//! The module deliberately keeps the byte-at-a-time accumulators and the
//! bit-by-bit canonical walk that rules R11/R12 exist to reject, so the
//! offending sites carry argued suppressions.

use cliz_grid::cast;

/// Byte-at-a-time MSB-first bit writer (pre-rewrite `BitWriter`).
#[derive(Debug, Default)]
pub struct RefBitWriter {
    out: Vec<u8>,
    acc: u8,
    nbits: u32,
}

impl RefBitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `len` bits of `code`, most significant first.
    // xtask-allow-fn: R12 -- frozen pre-rewrite reference: the byte-at-a-time
    // accumulator loop is the behaviour the differential oracle pins.
    #[inline]
    pub fn write_bits(&mut self, code: u32, len: u32) {
        debug_assert!(len <= 32);
        let mut remaining = len;
        while remaining > 0 {
            let free = 8 - self.nbits;
            let take = free.min(remaining);
            let shift = remaining - take;
            let chunk = cast::low_u8((code >> shift) & ((1u32 << take) - 1));
            self.acc = cast::low_u8((u16::from(self.acc) << take) | u16::from(chunk));
            self.nbits += take;
            remaining -= take;
            if self.nbits == 8 {
                self.out.push(self.acc);
                self.acc = 0;
                self.nbits = 0;
            }
        }
    }

    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_bits(v, 32);
    }

    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Flushes (zero-padding the final byte) and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.acc <<= 8 - self.nbits;
            self.out.push(self.acc);
        }
        self.out
    }
}

/// Byte-at-a-time MSB-first bit reader (pre-rewrite `BitReader`).
#[derive(Debug)]
pub struct RefBitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u8,
    nbits: u32,
}

impl<'a> RefBitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Reads `len` bits MSB-first; `None` when the stream is exhausted.
    // xtask-allow-fn: R12 -- frozen pre-rewrite reference: loads one byte per
    // loop pass on purpose; the rewrite's refill buffer is diffed against it.
    #[inline]
    pub fn read_bits(&mut self, len: u32) -> Option<u32> {
        debug_assert!(len <= 32);
        let mut v: u32 = 0;
        let mut remaining = len;
        while remaining > 0 {
            if self.nbits == 0 {
                self.acc = *self.data.get(self.pos)?;
                self.pos += 1;
                self.nbits = 8;
            }
            let take = self.nbits.min(remaining);
            let shift = self.nbits - take;
            let chunk = (self.acc >> shift) & cast::low_u8((1u16 << take) - 1);
            v = (v << take) | u32::from(chunk);
            self.nbits -= take;
            remaining -= take;
        }
        Some(v)
    }

    /// Peeks `len ≤ 16` bits, zero-padding past the end of the stream.
    // xtask-allow-fn: R12 -- frozen pre-rewrite reference: byte-at-a-time
    // peek assembly is the pinned behaviour.
    #[inline]
    pub fn peek_bits(&self, len: u32) -> u32 {
        debug_assert!(len <= 16);
        let mut acc: u32 = u32::from(self.acc & cast::low_u8((1u16 << self.nbits) - 1));
        let mut have = self.nbits;
        let mut pos = self.pos;
        while have < len {
            let byte = self.data.get(pos).copied().unwrap_or(0);
            acc = (acc << 8) | u32::from(byte);
            have += 8;
            pos += 1;
        }
        (acc >> (have - len)) & ((1u32 << len) - 1)
    }

    #[inline]
    pub fn skip_bits(&mut self, len: u32) -> Option<()> {
        self.read_bits(len).map(|_| ())
    }

    #[inline]
    pub fn read_u32(&mut self) -> Option<u32> {
        self.read_bits(32)
    }

    pub fn bit_pos(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }
}

const MAX_CODE_LEN: u32 = 32;
const LUT_BITS: u32 = 11;

/// Pre-rewrite single-symbol-LUT canonical Huffman decoder.
#[derive(Clone, Debug)]
pub struct RefHuffmanDecoder {
    sorted_symbols: Vec<u32>,
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    max_len: u32,
    /// Prefix → (symbol, code length); length 0 = fall back to the walk.
    lut: Vec<(u32, u8)>,
}

impl RefHuffmanDecoder {
    /// Reads a table serialized by [`crate::HuffmanEncoder::write_table`].
    pub fn read_table(r: &mut RefBitReader) -> Option<Self> {
        let alphabet = r.read_u32()? as usize;
        let used = r.read_u32()? as usize;
        if used > alphabet || alphabet > crate::MAX_DECODE_ALPHABET {
            return None;
        }
        let mut pairs: Vec<(u32, u8)> = Vec::with_capacity(used.min(1 << 16));
        for _ in 0..used {
            let s = r.read_u32()?;
            let l = cast::low_u8(r.read_bits(6)?);
            if s as usize >= alphabet || l == 0 {
                return None;
            }
            pairs.push((s, l));
        }
        let mut lens = vec![0u8; alphabet];
        for &(s, l) in &pairs {
            lens[s as usize] = l;
        }
        Self::from_lengths(&lens)
    }

    /// Builds decode tables from code lengths (Kraft-checked).
    pub fn from_lengths(lens: &[u8]) -> Option<Self> {
        let max_len = u32::from(lens.iter().copied().max().unwrap_or(0));
        if max_len > MAX_CODE_LEN {
            return None;
        }
        let kraft = lens.iter().filter(|&&l| l > 0).try_fold(0u64, |a, &l| {
            a.checked_add(1u64 << (MAX_CODE_LEN - u32::from(l)))
        })?;
        if kraft > 1u64 << MAX_CODE_LEN {
            return None;
        }
        let mut order: Vec<u32> = lens
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .filter_map(|(s, _)| cast::to_u32_checked(s))
            .collect();
        order.sort_by_key(|&s| (lens[s as usize], s));

        let mut count = vec![0u32; max_len as usize + 1];
        for &s in &order {
            count[lens[s as usize] as usize] += 1;
        }
        let mut first_code = vec![0u32; max_len as usize + 2];
        let mut first_index = vec![0u32; max_len as usize + 2];
        let mut code = 0u64;
        let mut index = 0u32;
        for l in 1..=max_len as usize {
            code = (code + u64::from(count[l - 1])) << 1;
            first_code[l] = cast::low_u32(code);
            first_index[l] = index;
            index += count[l];
        }
        let mut lut = vec![(0u32, 0u8); 1 << LUT_BITS];
        {
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &s in &order {
                let len = u32::from(lens[s as usize]);
                code <<= len - prev_len;
                prev_len = len;
                if len <= LUT_BITS {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "frozen reference, kept verbatim; code < 2^LUT_BITS here, so the cast is exact"
                    )]
                    let base = (code << (LUT_BITS - len)) as usize;
                    for slot in &mut lut[base..base + (1usize << (LUT_BITS - len))] {
                        *slot = (s, cast::low_u8(len));
                    }
                }
                code += 1;
            }
        }
        Some(Self {
            sorted_symbols: order,
            first_code,
            first_index,
            count,
            max_len,
            lut,
        })
    }

    /// Decodes one symbol: single-symbol LUT, then bit-by-bit canonical walk.
    // xtask-allow-fn: R12 -- frozen pre-rewrite reference: the read_bits(1)
    // walk is exactly what the multi-symbol rewrite is measured against.
    #[inline]
    pub fn decode_symbol(&self, r: &mut RefBitReader) -> Option<u32> {
        let (symbol, len) = self.lut[r.peek_bits(LUT_BITS) as usize];
        if len != 0 {
            r.skip_bits(u32::from(len))?;
            return Some(symbol);
        }
        let mut code = 0u32;
        for l in 1..=self.max_len as usize {
            code = (code << 1) | r.read_bits(1)?;
            let delta = code.wrapping_sub(self.first_code[l]);
            if delta < self.count[l] {
                return Some(self.sorted_symbols[(self.first_index[l] + delta) as usize]);
            }
        }
        None
    }

    /// Decodes exactly `n` symbols, one [`Self::decode_symbol`] per symbol.
    pub fn decode_all(&self, r: &mut RefBitReader, n: usize) -> Option<Vec<u32>> {
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(self.decode_symbol(r)?);
        }
        Some(out)
    }
}

/// Writes `enc`'s code-length table through the reference writer — the same
/// layout as [`crate::HuffmanEncoder::write_table`], frozen against the
/// byte-at-a-time writer so reference streams are built end-to-end on the
/// pre-rewrite path.
pub fn ref_write_table(enc: &crate::HuffmanEncoder, w: &mut RefBitWriter) {
    let lens = enc.lens();
    let used: Vec<u32> = (0..cast::u32_len(lens.len()))
        .filter(|&s| lens[s as usize] > 0)
        .collect();
    w.write_u32(cast::u32_len(lens.len()));
    w.write_u32(cast::u32_len(used.len()));
    for &s in &used {
        w.write_u32(s);
        w.write_bits(u32::from(lens[s as usize]), 6);
    }
}

/// Encodes one symbol through the reference writer.
///
/// # Panics
/// Panics if the symbol had zero frequency at build time (caller bug).
#[inline]
pub fn ref_encode_symbol(enc: &crate::HuffmanEncoder, symbol: u32, w: &mut RefBitWriter) {
    let len = enc.lens()[symbol as usize];
    assert!(len > 0, "encoding symbol {symbol} absent from the codebook");
    w.write_bits(enc.codes()[symbol as usize], u32::from(len));
}

/// Pre-rewrite [`crate::huffman::encode_stream`]: identical codebook
/// construction routed through the byte-at-a-time writer.
pub fn ref_encode_stream(symbols: &[u32]) -> Vec<u8> {
    let enc = crate::HuffmanEncoder::from_symbols(symbols);
    let mut w = RefBitWriter::new();
    w.write_u32(cast::u32_len(symbols.len()));
    ref_write_table(&enc, &mut w);
    for &s in symbols {
        ref_encode_symbol(&enc, s, &mut w);
    }
    w.finish()
}

/// Pre-rewrite [`crate::huffman::decode_stream`].
pub fn ref_decode_stream(bytes: &[u8]) -> Option<Vec<u32>> {
    let mut r = RefBitReader::new(bytes);
    let n = r.read_u32()? as usize;
    let dec = RefHuffmanDecoder::read_table(&mut r)?;
    dec.decode_all(&mut r, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream_roundtrips() {
        let symbols: Vec<u32> = (0..5000u32).map(|i| (i * i) % 700).collect();
        let bytes = ref_encode_stream(&symbols);
        assert_eq!(ref_decode_stream(&bytes), Some(symbols));
    }

    #[test]
    fn reference_reader_matches_writer() {
        let mut w = RefBitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b00001, 5);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0001]);
        let mut r = RefBitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(5), Some(0b00001));
        assert_eq!(r.read_bits(1), None);
    }
}
