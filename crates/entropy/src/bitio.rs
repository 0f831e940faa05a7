//! MSB-first bit-level writer and reader, word-at-a-time.
//!
//! MSB-first order lets canonical Huffman decoders compare accumulated code
//! values numerically against per-length first-code tables.
//!
//! Both sides buffer in a 64-bit accumulator so a `write_bits`/`read_bits`
//! call touches memory at most once per 8 bits instead of once per bit:
//! the writer drains whole bytes only when ≥ 8 bits are pending, and the
//! reader refills the accumulator to ≥ 56 bits before extracting, so any
//! `len ≤ 32` read is a single shift+mask. The refill itself is one
//! big-endian word load away from the end of the stream and a byte loop
//! over the last 7 bytes; both take the same bytes, so the bits read never
//! depend on which path ran. The byte streams are identical
//! to the pre-rewrite byte-at-a-time implementation (frozen in
//! [`crate::reference`] and pinned by differential tests).

use cliz_grid::cast;

/// Accumulates bits MSB-first into a byte vector.
///
/// The low `nbits` bits of `acc` are live (most recently written = least
/// significant); bits above them are stale and masked out on drain.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    /// Live bit count, kept in [0, 8) between calls.
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Writes the low `len` bits of `code`, most significant first.
    /// `len` must be ≤ 32.
    #[inline]
    pub fn write_bits(&mut self, code: u32, len: u32) {
        debug_assert!(len <= 32);
        debug_assert!(u64::from(code) < (1u64 << len) || len == 32);
        // At most 7 live bits + 32 new = 39, comfortably inside u64.
        self.acc = (self.acc << len) | u64::from(code);
        self.nbits += len;
        while self.nbits >= 8 {
            self.nbits -= 8;
            // Keeps exactly the 8 live bits below the stale region.
            self.out.push(cast::low_u8(self.acc >> self.nbits));
        }
    }

    /// Writes the low `len` bits of `code`, most significant first, in one
    /// accumulator pass. `len` must be ≤ 57 (7 live carry bits + 57 fit the
    /// u64 accumulator), which lets callers pre-merge several short codes
    /// and pay the drain once. Byte-identical to the same sequence of
    /// [`BitWriter::write_bits`] calls.
    // xtask-allow-fn: R1, R5 -- encoder-side drain of a local 8-byte array; drain <= 64 always, so drain/8 <= 8 stays inside `bytes`
    #[inline]
    pub fn write_bits64(&mut self, code: u64, len: u32) {
        debug_assert!(len <= 57);
        debug_assert!(code < (1u64 << len) || len >= 57);
        self.acc = (self.acc << len) | code;
        self.nbits += len;
        let drain = self.nbits & !7;
        if drain > 0 {
            self.nbits -= drain;
            // Whole live bytes, MSB-aligned, appended in one slice copy.
            let bytes = ((self.acc >> self.nbits) << (64 - drain)).to_be_bytes();
            self.out.extend_from_slice(&bytes[..(drain / 8) as usize]);
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u32::from(bit), 1);
    }

    /// Writes a full little-endian u32 (byte-aligned values; still packed at
    /// the current bit position).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_bits(v, 32);
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Flushes (zero-padding the final byte) and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(cast::low_u8(self.acc << (8 - self.nbits)));
        }
        self.out
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// The low `nbits` bits of `acc` are live; [`BitReader::refill`] tops the
/// accumulator up to ≥ 56 live bits (or end of data) so every extraction of
/// up to 32 bits is branch-light.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    acc: u64,
    /// Live (loaded but unconsumed) bit count, ≤ 63.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the accumulator up to ≥ 56 live bits or end of data. With at
    /// least 8 bytes left, one big-endian `u64` load shifts in
    /// `(63 − nbits) / 8` whole bytes — exactly the count the byte loop
    /// would take, so the state after a refill is the same either way. The
    /// byte loop handles the last 7 bytes of the stream.
    #[inline]
    fn refill(&mut self) {
        if self.nbits >= 56 {
            return;
        }
        if let Some(word) = self.data.get(self.pos..).and_then(<[u8]>::first_chunk::<8>) {
            // nbits < 56, so 1 ≤ take ≤ 7 and both shifts stay below 64.
            let take = (63 - self.nbits) / 8;
            let bits = take * 8;
            self.acc = (self.acc << bits) | (u64::from_be_bytes(*word) >> (64 - bits));
            self.pos += take as usize;
            self.nbits += bits;
            return;
        }
        while self.nbits < 56 {
            let Some(&b) = self.data.get(self.pos) else {
                return;
            };
            self.acc = (self.acc << 8) | u64::from(b);
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `len` bits MSB-first. Returns `None` when the stream holds
    /// fewer than `len` bits (nothing is consumed in that case).
    #[inline]
    pub fn read_bits(&mut self, len: u32) -> Option<u32> {
        debug_assert!(len <= 32);
        self.refill();
        if self.nbits < len {
            return None;
        }
        self.nbits -= len;
        Some(cast::low_u32(
            (self.acc >> self.nbits) & ((1u64 << len) - 1),
        ))
    }

    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Peeks `len ≤ 32` bits without consuming, zero-padding past the end of
    /// the stream. Used by table-driven Huffman decoding; a padded lookup
    /// must be followed by [`BitReader::skip_bits`], which *does* fail on a
    /// truncated stream.
    #[inline]
    pub fn peek_bits(&self, len: u32) -> u32 {
        debug_assert!(len <= 32);
        if self.nbits >= len {
            // Fast path after a refill: one shift+mask.
            return cast::low_u32((self.acc >> (self.nbits - len)) & ((1u64 << len) - 1));
        }
        // Cold path (drained accumulator or near end of stream): assemble
        // the live bits plus upcoming bytes, zero-padding past the end.
        let mut acc = self.acc & ((1u64 << self.nbits) - 1);
        let mut have = self.nbits;
        let mut pos = self.pos;
        while have < len {
            let byte = self.data.get(pos).copied().unwrap_or(0);
            acc = (acc << 8) | u64::from(byte);
            have += 8;
            pos += 1;
        }
        cast::low_u32((acc >> (have - len)) & ((1u64 << len) - 1))
    }

    /// Consumes `len` bits (already inspected via [`BitReader::peek_bits`]).
    /// Fails when the stream holds fewer than `len` bits.
    #[inline]
    pub fn skip_bits(&mut self, len: u32) -> Option<()> {
        self.read_bits(len).map(|_| ())
    }

    /// Bits still available in the stream.
    #[inline]
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() - self.pos) * 8 + self.nbits as usize
    }

    #[inline]
    pub fn read_u32(&mut self) -> Option<u32> {
        self.read_bits(32)
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.pos * 8 - self.nbits as usize
    }

    /// The whole stream, for a decoder that reads words at
    /// [`BitReader::bit_pos`] itself and then [`BitReader::seek`]s past
    /// what it consumed.
    #[inline]
    pub(crate) fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Moves the cursor to bit `bit` of the stream (at most its length in
    /// bits), as if that many bits had been read: the next read refills
    /// from the byte holding it.
    #[inline]
    pub(crate) fn seek(&mut self, bit: usize) {
        debug_assert!(bit <= self.data.len() * 8);
        self.pos = bit / 8;
        self.acc = 0;
        self.nbits = 0;
        // In range, so the byte holding `bit` is there to step into.
        let _ = self.read_bits(cast::low_u32(bit as u64 & 7));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b00001, 5);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0001]);
    }

    #[test]
    fn varied_widths_roundtrip() {
        let values: Vec<(u32, u32)> = vec![
            (0, 1),
            (1, 1),
            (5, 3),
            (255, 8),
            (256, 9),
            (0xDEAD_BEEF, 32),
            (0x7FFF, 15),
            (1, 17),
        ];
        let mut w = BitWriter::new();
        for &(v, l) in &values {
            w.write_bits(v, l);
        }
        let total: u32 = values.iter().map(|&(_, l)| l).sum();
        assert_eq!(w.bit_len(), total as usize);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, l) in &values {
            assert_eq!(r.read_bits(l), Some(v), "width {l}");
        }
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish(); // one padded byte
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0b1000_0000));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn u32_roundtrip_unaligned() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.write_u32(0x1234_5678);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_u32(), Some(0x1234_5678));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b101_1011_0101, 11);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(11), 0b101_1011_0101);
        assert_eq!(r.peek_bits(5), 0b10110);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.read_bits(11), Some(0b101_1011_0101));
    }

    #[test]
    fn peek_zero_pads_past_end() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish(); // one byte: 1100_0000
        let mut r = BitReader::new(&bytes);
        r.read_bits(8).unwrap();
        // Stream exhausted: peek returns zeros, skip fails.
        assert_eq!(r.peek_bits(11), 0);
        assert!(r.skip_bits(1).is_none());
    }

    #[test]
    fn peek_mid_byte() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.read_bits(3).unwrap(); // consume "101"
        assert_eq!(r.peek_bits(13), 0xABCD & 0x1FFF);
        assert_eq!(r.bits_remaining(), 13);
    }

    #[test]
    fn bit_pos_tracks_consumption() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        w.write_bits(0x3, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.read_bits(5);
        assert_eq!(r.bit_pos(), 5);
        r.read_bits(5);
        assert_eq!(r.bit_pos(), 10);
    }

    #[test]
    fn wide_peek_matches_reads() {
        // peek_bits now admits the full 32-bit width the reader supports.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_u32(0xCAFE_F00D);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.read_bits(3).unwrap();
        assert_eq!(r.peek_bits(32), 0xCAFE_F00D);
        assert_eq!(r.read_u32(), Some(0xCAFE_F00D));
    }

    #[test]
    fn long_stream_matches_reference() {
        // Differential pin against the frozen byte-at-a-time implementation:
        // identical bytes out, identical values and positions back in.
        let widths = [1u32, 3, 7, 8, 11, 13, 16, 21, 27, 32];
        let mut w = BitWriter::new();
        let mut rw = crate::reference::RefBitWriter::new();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut expect = Vec::new();
        for i in 0..10_000usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = widths[i % widths.len()];
            let v = ((state >> 32) as u32) & (((1u64 << len) - 1) as u32);
            w.write_bits(v, len);
            rw.write_bits(v, len);
            expect.push((v, len));
        }
        let bytes = w.finish();
        assert_eq!(bytes, rw.finish(), "writer streams diverge");
        let mut r = BitReader::new(&bytes);
        let mut rr = crate::reference::RefBitReader::new(&bytes);
        for &(v, len) in &expect {
            assert_eq!(r.read_bits(len), Some(v));
            assert_eq!(rr.read_bits(len), Some(v));
            assert_eq!(r.bit_pos(), rr.bit_pos());
        }
    }

    #[test]
    fn failed_read_near_end_then_smaller_read() {
        // 12 bits in the stream: a 16-bit read must fail without losing the
        // ability to read the 12 real bits afterwards.
        let mut w = BitWriter::new();
        w.write_bits(0xABC, 12);
        let bytes = w.finish(); // two bytes, 4 pad bits
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(17), None);
        assert_eq!(r.read_bits(12), Some(0xABC));
    }
}
