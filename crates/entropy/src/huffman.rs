//! Canonical Huffman coding over a dense `u32` alphabet.
//!
//! Symbols are quantization-bin codes (zigzag-mapped, so small magnitudes get
//! small symbol ids). Codes are canonical: only the code *lengths* are
//! serialized, and both sides derive identical codebooks, which keeps the
//! table small and the format platform-independent.

use crate::bitio::{BitReader, BitWriter};
use cliz_grid::cast;

/// Longest admissible code. 32 bits fits the `BitWriter` word and is far
/// beyond what any realistic bin histogram produces.
const MAX_CODE_LEN: u32 = 32;

/// Builds optimal code lengths from symbol frequencies (heap-based Huffman).
/// If the depth exceeds `MAX_CODE_LEN` (pathological, near-Fibonacci
/// histograms), frequencies are halved and the tree rebuilt — the classic
/// zlib-style fallback, costing a negligible fraction of optimality.
fn build_lengths(freqs: &[u64]) -> Vec<u8> {
    let used: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    let mut lens = vec![0u8; freqs.len()];
    match used.len() {
        0 => return lens,
        1 => {
            // A degenerate alphabet still needs 1 bit so the decoder can
            // count symbols.
            lens[used[0]] = 1;
            return lens;
        }
        _ => {}
    }

    let mut scaled: Vec<u64> = freqs.to_vec();
    loop {
        let depths = huffman_depths(&scaled, &used);
        let max = depths.iter().copied().max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            for (&s, &d) in used.iter().zip(&depths) {
                // max ≤ MAX_CODE_LEN = 32 just verified, so d fits a u8.
                lens[s] = cast::low_u8(d);
            }
            return lens;
        }
        for f in scaled.iter_mut() {
            if *f > 0 {
                *f = f.div_ceil(2);
            }
        }
    }
}

/// Depth of each used symbol in a Huffman tree built over `used`'s
/// frequencies. Flat arrays instead of pointer nodes: parents are encoded as
/// indices into a growing array, then depths are propagated root-to-leaf.
fn huffman_depths(freqs: &[u64], used: &[usize]) -> Vec<u32> {
    let n = used.len();
    debug_assert!(n >= 2);
    // Node arrays: 0..n are leaves, n.. are internal.
    let mut weight: Vec<u64> = used.iter().map(|&s| freqs[s]).collect();
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    // Min-heap of (weight, node). BinaryHeap is a max-heap, so invert with Reverse.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((weight[i], i))).collect();
    while heap.len() > 1 {
        // The loop guard guarantees two entries, so the pops cannot fail.
        let (Some(Reverse((wa, a))), Some(Reverse((wb, b)))) = (heap.pop(), heap.pop()) else {
            break;
        };
        let node = weight.len();
        weight.push(wa + wb);
        parent.push(usize::MAX);
        parent[a] = node;
        parent[b] = node;
        heap.push(Reverse((wa + wb, node)));
    }
    // Depth of each leaf = #parent hops to the root.
    (0..n)
        .map(|leaf| {
            let mut d = 0u32;
            let mut node = leaf;
            while parent[node] != usize::MAX {
                node = parent[node];
                d += 1;
            }
            d
        })
        .collect()
}

/// Assigns canonical codes given code lengths. Returns codes indexed by
/// symbol; unused symbols keep code 0 with length 0.
fn canonical_codes(lens: &[u8]) -> Vec<u32> {
    let max_len = u32::from(lens.iter().copied().max().unwrap_or(0));
    let mut bl_count = vec![0u32; max_len as usize + 1];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max_len as usize + 2];
    let mut code = 0u32;
    for bits in 1..=max_len as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    let mut codes = vec![0u32; lens.len()];
    for (s, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[s] = next_code[l as usize];
            next_code[l as usize] += 1;
        }
    }
    codes
}

/// Canonical Huffman encoder.
#[derive(Clone, Debug)]
pub struct HuffmanEncoder {
    lens: Vec<u8>,
    codes: Vec<u32>,
    /// Per-symbol `(code << 8) | len` — one load resolves both halves on the
    /// batched emission path. Length 0 marks a symbol absent from the book.
    entries: Vec<u64>,
}

impl HuffmanEncoder {
    /// Builds an encoder from per-symbol frequencies (index = symbol).
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lens = build_lengths(freqs);
        let codes = canonical_codes(&lens);
        let entries = lens
            .iter()
            .zip(&codes)
            .map(|(&l, &c)| (u64::from(c) << 8) | u64::from(l))
            .collect();
        Self {
            lens,
            codes,
            entries,
        }
    }

    /// Convenience: histogram `symbols` (alphabet = max symbol + 1) and build.
    pub fn from_symbols(symbols: &[u32]) -> Self {
        let alphabet = symbols.iter().copied().max().map_or(0, |m| m as usize + 1);
        // Lane-split histogram: four counter banks break the
        // load-increment-store dependency on runs of equal symbols (the
        // common shape for quantization bins), then fold.
        let mut lanes = vec![0u64; alphabet * 4];
        let (l01, l23) = lanes.split_at_mut(alphabet * 2);
        let (l0, l1) = l01.split_at_mut(alphabet);
        let (l2, l3) = l23.split_at_mut(alphabet);
        let mut chunks = symbols.chunks_exact(4);
        for c in &mut chunks {
            l0[c[0] as usize] += 1;
            l1[c[1] as usize] += 1;
            l2[c[2] as usize] += 1;
            l3[c[3] as usize] += 1;
        }
        for &s in chunks.remainder() {
            l0[s as usize] += 1;
        }
        let mut freqs = vec![0u64; alphabet];
        for (s, f) in freqs.iter_mut().enumerate() {
            *f = l0[s] + l1[s] + l2[s] + l3[s];
        }
        Self::from_frequencies(&freqs)
    }

    /// Per-symbol code lengths (frozen-reference plumbing).
    #[inline]
    pub(crate) fn lens(&self) -> &[u8] {
        &self.lens
    }

    /// Per-symbol canonical codes (frozen-reference plumbing).
    #[inline]
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Code length (bits) for `symbol`, 0 when the symbol is unused.
    #[inline]
    pub fn code_len(&self, symbol: u32) -> u32 {
        self.lens.get(symbol as usize).map_or(0, |&l| u32::from(l))
    }

    /// `(code, len)` for `symbol` — `(0, 0)` when the symbol is unused.
    /// Callers batching their own emission (e.g. the zlite token loop) merge
    /// these into a u64 accumulator and flush through
    /// [`BitWriter::write_bits64`].
    #[inline]
    pub fn symbol_code(&self, symbol: u32) -> (u32, u32) {
        let e = self.entries.get(symbol as usize).copied().unwrap_or(0);
        (cast::low_u32(e >> 8), cast::low_u32(e & 0xFF))
    }

    /// Total encoded size in bits for a frequency histogram — used by the
    /// auto-tuner to estimate pipeline output without materializing streams.
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * u64::from(self.code_len(cast::u32_len(s))))
            .sum()
    }

    /// Size in bits of the table [`HuffmanEncoder::write_table`] writes.
    pub fn table_bits(&self) -> u64 {
        let used = self.lens.iter().filter(|&&l| l > 0).count() as u64;
        64 + used * (32 + 6)
    }

    /// Serializes the code-length table.
    ///
    /// Layout: `alphabet:u32, used:u32, then used × (symbol:u32, len:6 bits)`.
    /// Sparse pair form beats a dense length array because bin histograms are
    /// sharply peaked (few used symbols out of a 2^16 alphabet).
    pub fn write_table(&self, w: &mut BitWriter) {
        let used: Vec<u32> = (0..cast::u32_len(self.lens.len()))
            .filter(|&s| self.lens[s as usize] > 0)
            .collect();
        w.write_u32(cast::u32_len(self.lens.len()));
        w.write_u32(cast::u32_len(used.len()));
        for &s in &used {
            w.write_u32(s);
            w.write_bits(u32::from(self.lens[s as usize]), 6);
        }
    }

    /// Encodes one symbol.
    ///
    /// # Panics
    /// Panics if the symbol had zero frequency at build time — that is a
    /// caller bug, not a data condition.
    #[inline]
    pub fn encode_symbol(&self, symbol: u32, w: &mut BitWriter) {
        let len = self.lens[symbol as usize];
        assert!(len > 0, "encoding symbol {symbol} absent from the codebook");
        w.write_bits(self.codes[symbol as usize], u32::from(len));
    }

    /// Encodes a whole stream: codes are merged into a 64-bit accumulator
    /// and flushed through [`BitWriter::write_bits64`] only when the next
    /// code would not fit under 57 bits, so short codes (the quantization-bin
    /// common case) cost a shift+or instead of a writer call each.
    /// Byte-identical to symbol-at-a-time [`HuffmanEncoder::encode_symbol`].
    ///
    /// # Panics
    /// Panics if any symbol had zero frequency at build time.
    pub fn encode_all(&self, symbols: &[u32], w: &mut BitWriter) {
        let mut acc = 0u64;
        let mut bits = 0u32;
        for &s in symbols {
            let e = self.entries[s as usize];
            let len = cast::low_u32(e & 0xFF);
            assert!(len > 0, "encoding symbol {s} absent from the codebook");
            if bits + len > 57 {
                w.write_bits64(acc, bits);
                acc = 0;
                bits = 0;
            }
            acc = (acc << len) | (e >> 8);
            bits += len;
        }
        if bits > 0 {
            w.write_bits64(acc, bits);
        }
    }
}

/// Decode-table width: one lookup resolves the complete codes at the start
/// of an 11-bit window; a longer code falls back to the canonical
/// peek-based walk.
const LUT_BITS: u32 = 11;

/// Symbols per table entry. Quantization bins average about 4 bits per
/// symbol (scan's streams: 3.95, mostly 3–5-bit codes), so an 11-bit
/// window holds two or three complete codes.
const ENTRY_SYMS: u32 = 3;

/// Where a table entry keeps its count and its ends. One `u64` per window:
/// symbol `k` (a `u16`) in bits `16k..16k + 16`, the count of complete
/// codes in bits `COUNT_SHIFT..+2`, and the window offset just past code
/// `k` in bits `END_SHIFT + 4k..+4` — 62 bits in all. The last end sits in
/// the top bits, so the stream loop's advance is one shift.
const COUNT_SHIFT: u32 = 48;
const END_SHIFT: u32 = 52;

/// Table lookups the stream loop makes from one 64-bit load: a load at a
/// byte boundary shifted by the bit offset holds ≥ 57 real bits, and four
/// windows take at most 3 × 11 + 11 = 44 of them.
const WORD_LOOKUPS: usize = 4;

/// Output slots one load may write: every lookup stores all
/// [`ENTRY_SYMS`] lanes, used or not.
const WORD_SLOTS: usize = WORD_LOOKUPS * ENTRY_SYMS as usize;

/// Complete codes in a table entry; 0 sends the window to
/// [`HuffmanDecoder::decode_symbol`]'s walk.
#[inline]
fn entry_count(e: u64) -> u32 {
    cast::low_u32(e >> COUNT_SHIFT) & 3
}

/// Symbol `k` of a table entry.
#[inline]
fn entry_symbol(e: u64, k: u32) -> u32 {
    cast::low_u32(e >> (16 * k)) & 0xFFFF
}

/// Window offset just past code `k` of a table entry. Ends past the last
/// code repeat its end, so end `ENTRY_SYMS − 1` is the entry's advance. In
/// an entry with no complete code, end 0 is the code length the walk
/// starts at.
#[inline]
fn entry_end(e: u64, k: u32) -> u32 {
    cast::low_u32(e >> (END_SHIFT + 4 * k)) & 0xF
}

/// Packs the complete codes of one window, `(symbol, end)` in order, into
/// a table entry (at most [`ENTRY_SYMS`]).
fn pack_entry(codes: &[(u16, u32)]) -> u64 {
    let last = codes.last().map_or(0, |c| c.1);
    let mut e = (codes.len() as u64) << COUNT_SHIFT;
    for k in 0..ENTRY_SYMS {
        let (symbol, end) = codes.get(k as usize).copied().unwrap_or((0, last));
        e |= u64::from(symbol) << (16 * k) | u64::from(end) << (END_SHIFT + 4 * k);
    }
    e
}

/// Canonical Huffman decoder, reconstructed from a serialized table.
#[derive(Clone, Debug)]
pub struct HuffmanDecoder {
    /// Symbols sorted by (length, symbol) — canonical order.
    sorted_symbols: Vec<u32>,
    /// `first_code[l]` = canonical code of the first length-`l` symbol.
    first_code: Vec<u32>,
    /// `first_index[l]` = index into `sorted_symbols` of that symbol.
    first_index: Vec<u32>,
    /// `count[l]` = number of length-`l` symbols.
    count: Vec<u32>,
    max_len: u32,
    /// One entry per [`LUT_BITS`]-bit window: the complete codes at its
    /// start, up to [`ENTRY_SYMS`] (see [`COUNT_SHIFT`] for the layout). A
    /// window whose first code is longer than the window, or whose
    /// symbol does not fit a `u16`, holds none. A fixed-size array, so a
    /// window index needs no bounds check.
    table: Box<[u64; 1 << LUT_BITS]>,
}

impl HuffmanDecoder {
    /// Reads a table serialized by [`HuffmanEncoder::write_table`].
    pub fn read_table(r: &mut BitReader) -> Option<Self> {
        let alphabet = r.read_u32()? as usize;
        let used = r.read_u32()? as usize;
        if used > alphabet || alphabet > crate::MAX_DECODE_ALPHABET {
            return None;
        }
        // `used` is untrusted: cap the pre-allocation (each entry consumes
        // ≥ 38 payload bits, so truncation errors out long before growth
        // becomes a problem).
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

    /// Builds decode tables from code lengths. Returns `None` when the
    /// lengths do not form a prefix code (too long, or over-subscribed by
    /// the Kraft inequality) — a corrupt table, not a usable decoder.
    pub fn from_lengths(lens: &[u8]) -> Option<Self> {
        let max_len = u32::from(lens.iter().copied().max().unwrap_or(0));
        if max_len > MAX_CODE_LEN {
            return None;
        }
        // Kraft check: Σ 2^(MAX_CODE_LEN − len) must fit the unit budget.
        // Over-subscribed sets would overflow the canonical construction.
        let kraft = lens.iter().filter(|&&l| l > 0).try_fold(0u64, |a, &l| {
            a.checked_add(1u64 << (MAX_CODE_LEN - u32::from(l)))
        })?;
        if kraft > 1u64 << MAX_CODE_LEN {
            return None;
        }
        // Symbol ids are u32 by format; larger arrays cannot round-trip
        // through a table anyway, so out-of-range indices are dropped.
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
        // Canonical codes are computed in u64: a Kraft-valid set keeps every
        // length-l code below 2^l ≤ 2^32, but the *first unused* code after
        // a complete level can equal 2^l, which only fits the wider type.
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
        // First pass: every code of length ≤ LUT_BITS owns the block of
        // windows that start with it, as a one-code entry. A symbol past
        // u16 gets an empty entry whose walk starts at its own length;
        // windows no short code starts get one whose walk starts past the
        // table.
        let mut table = Box::new([u64::from(LUT_BITS + 1) << END_SHIFT; 1 << LUT_BITS]);
        {
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &s in &order {
                let len = u32::from(lens[s as usize]);
                code <<= len - prev_len;
                prev_len = len;
                if len <= LUT_BITS {
                    let entry = match cast::to_u16_checked(s) {
                        Some(s) => pack_entry(&[(s, len)]),
                        None => u64::from(len) << END_SHIFT,
                    };
                    let base = cast::to_usize_checked(code << (LUT_BITS - len))?;
                    table[base..base + (1usize << (LUT_BITS - len))].fill(entry);
                }
                code += 1;
            }
        }
        // Second pass: extend each entry greedily with the codes that
        // follow its first one. The code after offset `end` is the first
        // code of the window `p << end`, whose first code the second pass
        // never changes; it is taken only when it lies entirely inside the
        // window's real bits, so every packed symbol comes from real (never
        // padded) input.
        for p in 0..table.len() {
            let mut next = table[p];
            if entry_count(next) == 0 {
                continue;
            }
            let mut codes = [(0u16, 0u32); ENTRY_SYMS as usize];
            let mut n = 0;
            let mut end = 0;
            while n < codes.len() && entry_count(next) != 0 {
                let len = entry_end(next, 0);
                if len > LUT_BITS - end {
                    break;
                }
                end += len;
                codes[n] = (cast::low_u16(entry_symbol(next, 0)), end);
                n += 1;
                next = table[(p << end) & ((1 << LUT_BITS) - 1)];
            }
            table[p] = pack_entry(&codes[..n]);
        }
        Some(Self {
            sorted_symbols: order,
            first_code,
            first_index,
            count,
            max_len,
            table,
        })
    }

    /// Every symbol this decoder can emit, in canonical order: the
    /// codebook. No decoded stream holds a symbol outside it.
    pub fn symbols(&self) -> &[u32] {
        &self.sorted_symbols
    }

    /// Decodes one symbol; `None` on truncated or corrupt input.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader) -> Option<u32> {
        // Fast path: one table lookup resolves codes ≤ LUT_BITS. The peek
        // zero-pads past end-of-stream; skip_bits rejects over-reads, so a
        // fabricated match on padding still errors out correctly.
        let e = self.table[r.peek_bits(LUT_BITS) as usize];
        let len = entry_end(e, 0);
        if entry_count(e) != 0 {
            r.skip_bits(len)?;
            return Some(entry_symbol(e, 0));
        }
        // Slow path: peek the whole max-length window once and walk the
        // per-length first-code tables without touching the stream, then
        // consume exactly the matched length. The entry says where the walk
        // starts: past the table, or at the length of a short code whose
        // symbol the table cannot hold. A match fabricated from
        // zero-padding fails in skip_bits, exactly like the fast path.
        let window = r.peek_bits(self.max_len);
        for l in len..=self.max_len {
            let code = window >> (self.max_len - l);
            let delta = code.wrapping_sub(self.first_code[l as usize]);
            if delta < self.count[l as usize] {
                r.skip_bits(l)?;
                return Some(self.sorted_symbols[(self.first_index[l as usize] + delta) as usize]);
            }
        }
        None
    }

    /// Decodes exactly `n` symbols. `n` may come from an untrusted header:
    /// every symbol consumes ≥ 1 payload bit, so an honest `n` can never
    /// exceed the bits left in the stream — lying counts are rejected up
    /// front, which also bounds the output allocation at 32× the input.
    ///
    /// Hot loop: while 8 input bytes and [`WORD_SLOTS`] output slots
    /// remain, one big-endian `u64` load at the cursor feeds up to
    /// [`WORD_LOOKUPS`] table lookups, each storing all [`ENTRY_SYMS`]
    /// lanes unconditionally (lanes past the entry's count are rewritten by
    /// the next lookup, which is why the loop keeps a full load of slack
    /// below `n`) and advancing by the entry's last end. Every bit it
    /// reads is real input, so it consumes exactly the complete codes
    /// symbol-at-a-time decoding would. A window with no complete code in
    /// the table, the last bytes and the tail go through
    /// [`HuffmanDecoder::decode_symbol`], so the bits consumed and every
    /// `None` match the frozen decoder in [`crate::reference`] — pinned by
    /// the differential tests.
    pub fn decode_all(&self, r: &mut BitReader, n: usize) -> Option<Vec<u32>> {
        if n > r.bits_remaining() {
            return None;
        }
        let mut out = vec![0u32; n];
        let mut pos = 0usize;
        let data = r.data();
        let mut bit = r.bit_pos();
        while pos + WORD_SLOTS <= n {
            let Some(word) = data.get(bit / 8..).and_then(<[u8]>::first_chunk::<8>) else {
                break;
            };
            let mut window = u64::from_be_bytes(*word) << (bit % 8);
            let mut used = 0u32;
            let mut stalled = false;
            for _ in 0..WORD_LOOKUPS {
                let e = self.table[(window >> (64 - LUT_BITS)) as usize];
                let count = entry_count(e);
                if count == 0 {
                    stalled = true;
                    break;
                }
                out[pos] = entry_symbol(e, 0);
                out[pos + 1] = entry_symbol(e, 1);
                out[pos + 2] = entry_symbol(e, 2);
                pos += count as usize;
                let advance = entry_end(e, ENTRY_SYMS - 1);
                window <<= advance;
                used += advance;
            }
            bit += used as usize;
            if stalled {
                // A long code (or a corrupt prefix): one symbol through
                // the walk, then back to the word loop.
                r.seek(bit);
                out[pos] = self.decode_symbol(r)?;
                pos += 1;
                bit = r.bit_pos();
            }
        }
        r.seek(bit);
        while pos < n {
            out[pos] = self.decode_symbol(r)?;
            pos += 1;
        }
        Some(out)
    }

    /// Decodes symbols, appending each to `out` as a raw byte while it is
    /// `< stop` (so `stop` must be ≤ 256); returns the first symbol ≥
    /// `stop`, which is also consumed. `None` on truncated/corrupt input.
    ///
    /// This is the deflate-style literal-run hot path: table entries emit
    /// several literal bytes per lookup, and the in-entry scan stops
    /// exactly at the first non-literal so length/distance extra bits that
    /// follow it stay aligned.
    pub fn decode_literal_run(
        &self,
        r: &mut BitReader,
        stop: u32,
        out: &mut Vec<u8>,
    ) -> Option<u32> {
        debug_assert!(stop <= 256);
        loop {
            if r.bits_remaining() >= LUT_BITS as usize {
                let e = self.table[r.peek_bits(LUT_BITS) as usize];
                let count = entry_count(e);
                if count > 0 {
                    for k in 0..count {
                        let sym = entry_symbol(e, k);
                        if sym >= stop {
                            // Non-literal inside the entry: consume through it.
                            r.skip_bits(entry_end(e, k))?;
                            return Some(sym);
                        }
                        out.push(cast::low_u8(sym));
                    }
                    r.skip_bits(entry_end(e, ENTRY_SYMS - 1))?;
                    continue;
                }
            }
            let sym = self.decode_symbol(r)?;
            if sym >= stop {
                return Some(sym);
            }
            out.push(cast::low_u8(sym));
        }
    }
}

/// One-call convenience: Huffman-encode `symbols` (table + payload).
pub fn encode_stream(symbols: &[u32]) -> Vec<u8> {
    let enc = HuffmanEncoder::from_symbols(symbols);
    let mut w = BitWriter::new();
    w.write_u32(cast::u32_len(symbols.len()));
    enc.write_table(&mut w);
    enc.encode_all(symbols, &mut w);
    w.finish()
}

/// Inverse of [`encode_stream`].
pub fn decode_stream(bytes: &[u8]) -> Option<Vec<u32>> {
    decode_stream_with_decoder(bytes).map(|(symbols, _)| symbols)
}

/// [`decode_stream`] that also hands back the stream's decoder, whose
/// codebook ([`HuffmanDecoder::symbols`]) holds every decoded symbol.
pub fn decode_stream_with_decoder(bytes: &[u8]) -> Option<(Vec<u32>, HuffmanDecoder)> {
    let mut r = BitReader::new(bytes);
    let n = r.read_u32()? as usize;
    let dec = HuffmanDecoder::read_table(&mut r)?;
    let symbols = dec.decode_all(&mut r, n)?;
    Some((symbols, dec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) {
        let bytes = encode_stream(symbols);
        let back = decode_stream(&bytes).expect("decode");
        assert_eq!(back, symbols);
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(&[0, 1, 2, 1, 0, 0, 0, 3]);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[7; 100]);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(&[5, 9, 5, 5, 9]);
    }

    #[test]
    fn roundtrip_large_alphabet() {
        let symbols: Vec<u32> = (0..5000u32).map(|i| (i * i) % 700).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros: a fixed-width coding of the 0..=8 alphabet needs 4 bits
        // per symbol; Huffman should be close to the ~0.5-bit entropy.
        let mut symbols = vec![0u32; 9500];
        symbols.extend((0..500u32).map(|i| 1 + i % 8));
        let bytes = encode_stream(&symbols);
        let bits_per_symbol = (bytes.len() * 8) as f64 / symbols.len() as f64;
        assert!(
            bits_per_symbol < 2.0,
            "expected < 2 bits/symbol, got {bits_per_symbol}"
        );
        assert_eq!(decode_stream(&bytes).unwrap(), symbols);
    }

    #[test]
    fn table_bits_is_what_write_table_writes() {
        let tables = [
            vec![],
            vec![0u64; 30],
            vec![0, 4],
            vec![5, 9, 0, 12, 13, 16, 45],
        ];
        for freqs in tables {
            let enc = HuffmanEncoder::from_frequencies(&freqs);
            let mut w = BitWriter::new();
            enc.write_table(&mut w);
            assert_eq!(enc.table_bits(), w.bit_len() as u64, "{freqs:?}");
        }
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = [5u64, 9, 12, 13, 16, 45];
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        // Kraft inequality must hold with equality for a complete code.
        let kraft: f64 = (0..freqs.len())
            .map(|s| 2f64.powi(-(enc.code_len(s as u32) as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft sum {kraft}");
        // No code is a prefix of another.
        for a in 0..freqs.len() {
            for b in 0..freqs.len() {
                if a == b {
                    continue;
                }
                let (la, lb) = (enc.code_len(a as u32), enc.code_len(b as u32));
                if la <= lb {
                    let prefix = enc.codes[b] >> (lb - la);
                    assert_ne!(prefix, enc.codes[a], "code {a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn optimality_on_classic_example() {
        // Frequencies 45,16,13,12,9,5 — the textbook example; expected total
        // cost = 45*1 + 16*3 + 13*3 + 12*3 + 9*4 + 5*4 = 224 bits.
        let freqs = [45u64, 16, 13, 12, 9, 5];
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        assert_eq!(enc.encoded_bits(&freqs), 224);
    }

    #[test]
    fn encoded_bits_matches_actual_stream() {
        let symbols: Vec<u32> = (0..2000u32).map(|i| i % 17).collect();
        let mut freqs = vec![0u64; 17];
        for &s in &symbols {
            freqs[s as usize] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        enc.encode_all(&symbols, &mut w);
        assert_eq!(w.bit_len() as u64, enc.encoded_bits(&freqs));
    }

    #[test]
    #[should_panic(expected = "absent from the codebook")]
    fn encoding_unknown_symbol_panics() {
        let enc = HuffmanEncoder::from_frequencies(&[10, 0, 10]);
        let mut w = BitWriter::new();
        enc.encode_symbol(1, &mut w);
    }

    #[test]
    fn corrupt_table_rejected() {
        let symbols = vec![1u32, 2, 3];
        let mut bytes = encode_stream(&symbols);
        // Truncate mid-table.
        bytes.truncate(4);
        assert_eq!(decode_stream(&bytes), None);
    }

    /// A geometric symbol distribution plus a handful of once-only symbols
    /// forces code lengths past LUT_BITS, so long streams exercise the
    /// word loop, `decode_symbol`'s one-lookup path, *and* the peek-based
    /// slow path.
    fn deep_tree_symbols() -> Vec<u32> {
        let mut out = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 24-bit draw → geometric via leading zeros: P(sym = k) ≈ 2^-(k+1).
            let r = ((state >> 40) as u32) | 1;
            out.push((r.leading_zeros() - 8).min(23));
        }
        // Singleton symbols: frequency 1 in a 20k stream ⇒ ~15-bit codes.
        out.extend(40..48u32);
        let enc = HuffmanEncoder::from_symbols(&out);
        assert!(
            (0..48).any(|s| enc.code_len(s) > LUT_BITS),
            "fixture must produce codes longer than LUT_BITS"
        );
        out
    }

    #[test]
    fn packed_decode_matches_reference_on_deep_tree() {
        let symbols = deep_tree_symbols();
        let bytes = encode_stream(&symbols);
        assert_eq!(bytes, crate::reference::ref_encode_stream(&symbols));
        assert_eq!(decode_stream(&bytes).expect("decode"), symbols);
        assert_eq!(
            crate::reference::ref_decode_stream(&bytes).expect("ref decode"),
            symbols
        );
    }

    #[test]
    fn packed_decode_consumes_same_bits_as_single_symbol() {
        let symbols = deep_tree_symbols();
        let enc = HuffmanEncoder::from_symbols(&symbols);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        enc.encode_all(&symbols, &mut w);
        // Trailing sentinel after the payload: only reachable if the packed
        // loop left the cursor exactly where symbol-at-a-time decode would.
        w.write_bits(0x2A5, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let dec = HuffmanDecoder::read_table(&mut r).expect("table");
        let back = dec.decode_all(&mut r, symbols.len()).expect("payload");
        assert_eq!(back, symbols);
        assert_eq!(r.read_bits(10), Some(0x2A5));
    }

    #[test]
    fn literal_run_stops_at_marker() {
        // Alphabet: bytes 0..=9 are "literals", 300 is the stop marker.
        let mut symbols: Vec<u32> = (0..500u32).map(|i| i % 10).collect();
        symbols.push(300);
        symbols.extend((0..37u32).map(|i| i % 3));
        symbols.push(300);
        let enc = HuffmanEncoder::from_symbols(&symbols);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        enc.encode_all(&symbols, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let dec = HuffmanDecoder::read_table(&mut r).expect("table");

        let mut run = Vec::new();
        assert_eq!(dec.decode_literal_run(&mut r, 256, &mut run), Some(300));
        assert_eq!(run.len(), 500);
        assert!(run
            .iter()
            .enumerate()
            .all(|(i, &b)| u32::from(b) == (i as u32) % 10));
        run.clear();
        assert_eq!(dec.decode_literal_run(&mut r, 256, &mut run), Some(300));
        assert_eq!(run.len(), 37);
        // Stream exhausted: the next run hits truncation.
        assert_eq!(dec.decode_literal_run(&mut r, 256, &mut run), None);
    }

    #[test]
    fn truncated_payload_rejected_by_packed_path() {
        let symbols = deep_tree_symbols();
        let bytes = encode_stream(&symbols);
        for cut in [bytes.len() - 1, bytes.len() - 7, bytes.len() / 2] {
            // Truncation must never silently reproduce the original stream;
            // and the word loop must agree with the frozen reference even
            // on damaged input.
            let got = decode_stream(&bytes[..cut]);
            assert_ne!(got.as_deref(), Some(&symbols[..]), "cut at {cut}");
            assert_eq!(
                got,
                crate::reference::ref_decode_stream(&bytes[..cut]),
                "cut at {cut}"
            );
        }
    }
}
