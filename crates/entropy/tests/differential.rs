//! Differential tests pinning the rewritten entropy kernels against the
//! frozen pre-rewrite references in `cliz_entropy::reference`.
//!
//! The word-at-a-time `BitWriter`/`BitReader` and the table-driven
//! multi-symbol Huffman decoder are *rewrites*, not re-specifications: they
//! must produce bit-identical streams and decode bit-identical symbols.
//! Every case here checks all four directions (new→new, ref→ref, new→ref,
//! ref→new) so a compensating pair of bugs can't hide. The decoder's
//! stream loop is also held to the frozen decoder's bit position after the
//! symbols it decodes, and to its every `None`.

use cliz_entropy::huffman::{decode_stream, encode_stream};
use cliz_entropy::reference::{
    ref_decode_stream, ref_encode_stream, RefBitReader, RefBitWriter, RefHuffmanDecoder,
};
use cliz_entropy::{BitReader, BitWriter, HuffmanDecoder, HuffmanEncoder};

/// Deterministic 64-bit LCG (same constants as the bench harness).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 16) % n
    }
}

/// Geometric-ish symbol stream like the quantization bins the codec emits.
fn geometric(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let r = (rng.next() >> 40) as u32 | 1;
            (r.leading_zeros() - 8).min(48)
        })
        .collect()
}

/// Uniform draw over a configurable alphabet: flat trees, long codes.
fn uniform(seed: u64, n: usize, alphabet: u64) -> Vec<u32> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| rng.below(alphabet) as u32).collect()
}

/// Asserts the full 4-way identity square for one symbol stream.
fn assert_stream_identity(symbols: &[u32]) {
    let new_bytes = encode_stream(symbols);
    let ref_bytes = ref_encode_stream(symbols);
    assert_eq!(
        new_bytes,
        ref_bytes,
        "encoded bytes diverge ({} syms)",
        symbols.len()
    );
    assert_eq!(decode_stream(&new_bytes).as_deref(), Some(symbols));
    assert_eq!(ref_decode_stream(&new_bytes).as_deref(), Some(symbols));
    assert_eq!(decode_stream(&ref_bytes).as_deref(), Some(symbols));
}

#[test]
fn huffman_streams_are_byte_identical_across_seeded_sweep() {
    for seed in 1..=8u64 {
        assert_stream_identity(&geometric(seed, 4096));
        assert_stream_identity(&uniform(seed, 2048, 500));
        // Tiny alphabet: 1-bit codes, maximal multi-symbol packing.
        assert_stream_identity(&uniform(seed, 2048, 2));
    }
}

#[test]
fn huffman_streams_handle_degenerate_shapes() {
    // Empty stream, single symbol, single repeated symbol (zero-bit codes).
    assert_stream_identity(&[]);
    assert_stream_identity(&[7]);
    assert_stream_identity(&vec![42u32; 1000]);
    // Every length from 0..64: exercises tails shorter than one pack entry.
    for n in 0..64usize {
        assert_stream_identity(&geometric(99, n));
    }
}

#[test]
fn huffman_deep_tree_exercises_past_the_lut() {
    // Geometric counts force code lengths past the 11-bit LUT: symbol k
    // appears ~2^(26-k) times, driving ~k-bit codes up to depth ~26.
    let mut symbols = Vec::new();
    for k in 0..26u32 {
        let reps = 1usize << (26 - k).min(12);
        symbols.extend(std::iter::repeat_n(k, reps));
    }
    for k in 26..40u32 {
        symbols.push(k); // singletons: the deepest codes
    }
    // Deterministic shuffle so deep codes land mid-stream, not just at ends.
    let mut rng = Lcg(0xDEAD_BEEF);
    for i in (1..symbols.len()).rev() {
        symbols.swap(i, rng.below(i as u64 + 1) as usize);
    }
    assert_stream_identity(&symbols);
}

#[test]
fn bit_writers_agree_on_mixed_width_sequences() {
    for seed in 1..=8u64 {
        let mut rng = Lcg(seed);
        let mut new_w = BitWriter::new();
        let mut ref_w = RefBitWriter::new();
        for _ in 0..2000 {
            let len = 1 + rng.below(32) as u32;
            let code = (rng.next() as u32) & (((1u64 << len) - 1) as u32);
            new_w.write_bits(code, len);
            ref_w.write_bits(code, len);
        }
        assert_eq!(new_w.bit_len(), ref_w.bit_len());
        assert_eq!(new_w.finish(), ref_w.finish(), "seed {seed}");
    }
}

#[test]
fn bit_readers_agree_in_lockstep_including_tail_bits() {
    for seed in 1..=8u64 {
        // A stream ending mid-byte: total bits ≢ 0 (mod 8).
        let mut rng = Lcg(seed);
        let mut w = RefBitWriter::new();
        let mut script = Vec::new();
        for _ in 0..500 {
            let len = 1 + rng.below(32) as u32;
            let code = (rng.next() as u32) & (((1u64 << len) - 1) as u32);
            w.write_bits(code, len);
            script.push(len);
        }
        w.write_bits(1, 3); // force a ragged tail
        script.push(3);
        let bytes = w.finish();

        let mut new_r = BitReader::new(&bytes);
        let mut ref_r = RefBitReader::new(&bytes);
        for (i, &len) in script.iter().enumerate() {
            // The reference peek is contracted to ≤ 16 bits (the rewrite
            // widened it to 32); compare only the shared range.
            let peek_len = len.min(16);
            assert_eq!(
                new_r.peek_bits(peek_len),
                ref_r.peek_bits(peek_len),
                "peek {i} (seed {seed})"
            );
            assert_eq!(
                new_r.read_bits(len),
                ref_r.read_bits(len),
                "read {i} (seed {seed})"
            );
            assert_eq!(new_r.bit_pos(), ref_r.bit_pos(), "pos {i} (seed {seed})");
        }
        // Whatever finish() padded must read as zero bits for both, and
        // over-reading past the final byte must fail for both.
        let left = bytes.len() * 8 - new_r.bit_pos();
        if left > 0 {
            let left32 = u32::try_from(left).expect("tail fits in u32");
            assert_eq!(new_r.read_bits(left32), ref_r.read_bits(left32));
        }
        assert_eq!(new_r.read_bits(1), None);
        assert_eq!(ref_r.read_bits(1), None);
    }
}

#[test]
fn bit_readers_agree_in_lockstep_near_the_end_of_the_stream() {
    // The refill loads one big-endian word while ≥ 8 bytes are left to load
    // and falls back to a byte loop for the last 7, so the switch sits at
    // a byte distance of 8 from the end. For every stream length 0–26
    // bytes, a warm-up of 0–63 bits sets the accumulator's fill level, then
    // probes of every width 1–16 (the reference peek's limit) peek and read
    // in lockstep until the stream runs out. Probes therefore start at
    // every bit of every stream, so at every byte distance 0–9 from its end,
    // and (by a model of the refill) in every state the public API can
    // reach there: live-bit counts 0–62 once everything is loaded, and 0
    // plus 24–62 with bytes still to load (a word refill leaves ≥ 56 live
    // bits, and no read takes more than 32).
    let mut rng = Lcg(0xB17_5EED);
    let data: Vec<u8> = (0..26).map(|_| (rng.next() >> 56) as u8).collect();
    for n in 0..=data.len() {
        let bytes = &data[..n];
        for warm in (0..64u32).take_while(|&w| w as usize <= n * 8) {
            for width in 1..=16u32 {
                let mut new_r = BitReader::new(bytes);
                let mut ref_r = RefBitReader::new(bytes);
                let mut left = warm;
                while left > 0 {
                    let len = left.min(32);
                    assert_eq!(new_r.read_bits(len), ref_r.read_bits(len), "warm-up, n {n}");
                    left -= len;
                }
                loop {
                    let at = new_r.bit_pos();
                    let (peeked, got) = (new_r.peek_bits(width), new_r.read_bits(width));
                    assert_eq!(
                        (peeked, got),
                        (ref_r.peek_bits(width), ref_r.read_bits(width)),
                        "n {n}, warm-up {warm}, width {width}, at {at}"
                    );
                    if got.is_none() {
                        break;
                    }
                    assert_eq!(
                        new_r.bit_pos(),
                        ref_r.bit_pos(),
                        "n {n}, width {width}, at {at}"
                    );
                }
                // A failed read consumes nothing: the bits left still read.
                let rest = n * 8 - new_r.bit_pos();
                assert!(rest < width as usize, "n {n}, width {width}");
                if rest > 0 {
                    let rest = u32::try_from(rest).expect("tail fits in u32");
                    assert!(
                        new_r.read_bits(rest).is_some(),
                        "tail: n {n}, width {width}"
                    );
                }
            }
        }
    }
}

#[test]
fn bit_reader_edge_cases_match_reference() {
    // Empty stream: every read fails, peek zero-pads.
    let empty: &[u8] = &[];
    let mut new_r = BitReader::new(empty);
    let mut ref_r = RefBitReader::new(empty);
    assert_eq!(new_r.peek_bits(11), ref_r.peek_bits(11));
    assert_eq!(new_r.read_bits(1), None);
    assert_eq!(ref_r.read_bits(1), None);

    // Both fail a 9-bit read on a 1-byte stream. (Post-failure state is
    // *not* compared: the reference consumes partially on a failed read,
    // while the rewrite is all-or-nothing — a deliberate strengthening.
    // No decode path reads again after a failure, so only the None
    // outcome is contracted.)
    let one = [0b1010_1101u8];
    let mut new_r = BitReader::new(&one);
    let mut ref_r = RefBitReader::new(&one);
    assert_eq!(new_r.read_bits(9), None);
    assert_eq!(ref_r.read_bits(9), None);
    // The rewrite still has the full byte available afterwards.
    assert_eq!(new_r.read_bits(8), Some(0b1010_1101));
}

#[test]
fn decoder_rejects_truncated_and_oversized_counts_like_reference() {
    let symbols = geometric(3, 2000);
    let bytes = encode_stream(&symbols);
    // Truncation anywhere must fail (or, for payload-tail truncation that
    // still leaves n symbols decodable, agree) in both decoders.
    for cut in [0, 1, 3, 4, 7, bytes.len() / 2, bytes.len() - 1] {
        assert_eq!(
            decode_stream(&bytes[..cut]),
            ref_decode_stream(&bytes[..cut]),
            "cut {cut}"
        );
    }
    // A count header promising more symbols than the payload can hold.
    let mut lying = bytes.clone();
    lying[..4].copy_from_slice(&[0xFF; 4]);
    assert_eq!(decode_stream(&lying), None);
    assert_eq!(ref_decode_stream(&lying), None);
}

/// A table-first stream, laid out as zlite frames and group streams lay
/// theirs out: `symbols`' code-length table, their codes, then the
/// `(value, len)` sentinel fields.
fn table_stream(symbols: &[u32], sentinel: &[(u32, u32)]) -> Vec<u8> {
    let enc = HuffmanEncoder::from_symbols(symbols);
    let mut w = BitWriter::new();
    enc.write_table(&mut w);
    enc.encode_all(symbols, &mut w);
    for &(v, len) in sentinel {
        w.write_bits(v, len);
    }
    w.finish()
}

/// Decodes the table and then `n` symbols of a [`table_stream`] with the
/// rewritten decoder: the symbols and the bit position after them, or
/// `None`.
fn decode_new(bytes: &[u8], n: usize) -> Option<(Vec<u32>, usize)> {
    let mut r = BitReader::new(bytes);
    let symbols = HuffmanDecoder::read_table(&mut r)?.decode_all(&mut r, n)?;
    Some((symbols, r.bit_pos()))
}

/// [`decode_new`] through the frozen decoder.
fn decode_ref(bytes: &[u8], n: usize) -> Option<(Vec<u32>, usize)> {
    let mut r = RefBitReader::new(bytes);
    let symbols = RefHuffmanDecoder::read_table(&mut r)?.decode_all(&mut r, n)?;
    Some((symbols, r.bit_pos()))
}

/// Both decoders agree on the first `n` symbols of `bytes`: the same
/// symbols and end position, or both `None`.
fn assert_decoders_agree(bytes: &[u8], n: usize, what: &str) {
    assert_eq!(decode_new(bytes, n), decode_ref(bytes, n), "{what}, n {n}");
}

/// The sentinel every sentinel-carrying stream below ends with: 67 bits,
/// so that after the payload 8 more bytes always remain to load.
const SENTINEL: [(u32, u32); 3] = [(0x2A5, 10), (0xDEAD_BEEF, 32), (0x1AB_CDEF, 25)];

/// Decodes all of `symbols` from their [`table_stream`] with
/// [`SENTINEL`] after them, checks the symbols and the end position
/// against the frozen decoder, and reads the sentinel back.
fn assert_sentinel_follows(symbols: &[u32], what: &str) {
    let bytes = table_stream(symbols, &SENTINEL);
    let (got, end) = decode_new(&bytes, symbols.len()).expect(what);
    assert_eq!(got, symbols, "{what}");
    let want = Some((got, end));
    assert_eq!(decode_ref(&bytes, symbols.len()), want, "{what}");
    // Skip to the end of the payload, then read the sentinel field by field.
    let mut rest = BitReader::new(&bytes);
    let mut left = end;
    while left > 0 {
        let step = left.min(32);
        let step32 = u32::try_from(step).expect("step fits");
        rest.read_bits(step32).expect(what);
        left -= step;
    }
    for &(v, len) in &SENTINEL {
        assert_eq!(rest.read_bits(len), Some(v), "{what}: sentinel");
    }
}

/// Shuffles `symbols` deterministically, so rare codes land mid-stream.
fn shuffled(mut symbols: Vec<u32>, seed: u64) -> Vec<u32> {
    let mut rng = Lcg(seed);
    for i in (1..symbols.len()).rev() {
        symbols.swap(i, rng.below(i as u64 + 1) as usize);
    }
    symbols
}

/// Codes of 12–20 bits: symbol `k` appears about `2^(20 − k)` times, and
/// the rarest few take codes longer than the 11-bit window.
fn long_code_symbols(seed: u64) -> Vec<u32> {
    let mut symbols = Vec::new();
    for k in 0..20u32 {
        symbols.extend(std::iter::repeat_n(k, 1usize << (20 - k).min(10)));
    }
    symbols.extend(20..40u32);
    shuffled(symbols, seed)
}

/// Short codes for symbols past `u16::MAX`: `65_536` and `70_000` are
/// the two commonest symbols, next to `u16::MAX` itself (the largest
/// symbol a table entry holds) and small bins.
fn wide_symbols(seed: u64) -> Vec<u32> {
    let mut symbols = Vec::new();
    let counts = [
        (65_536u32, 400usize),
        (70_000, 300),
        (65_535, 200),
        (1, 150),
        (2, 60),
    ];
    for (s, reps) in counts {
        symbols.extend(std::iter::repeat_n(s, reps));
    }
    shuffled(symbols, seed)
}

#[test]
fn codes_longer_than_the_window_match_reference() {
    for seed in 1..=4u64 {
        let symbols = long_code_symbols(seed);
        let enc = HuffmanEncoder::from_symbols(&symbols);
        let longest = (0..40).map(|s| enc.code_len(s)).max();
        assert!(longest > Some(11), "no code past the window");
        assert_stream_identity(&symbols);
        assert_sentinel_follows(&symbols, "long codes");
    }
}

#[test]
fn short_codes_for_symbols_past_u16_match_reference() {
    for seed in 1..=4u64 {
        let symbols = wide_symbols(seed);
        let enc = HuffmanEncoder::from_symbols(&symbols);
        assert!(enc.code_len(65_536) <= 3 && enc.code_len(70_000) <= 3);
        assert_stream_identity(&symbols);
        assert_sentinel_follows(&symbols, "wide symbols");
        // Every prefix: the wide symbols fall at every slot of a window.
        let bytes = table_stream(&symbols, &SENTINEL);
        for n in 0..=64 {
            assert_decoders_agree(&bytes, n, "wide symbols");
        }
    }
}

#[test]
fn stream_loop_ending_at_its_slot_limit_matches_reference() {
    // A long payload decoded only `n` symbols deep: 8 bytes always remain
    // past the cursor, so the word loop ends where fewer than 12 output
    // slots are left, at every offset, and the tail decodes the rest.
    let streams = [
        geometric(5, 4096),
        uniform(5, 4096, 2),
        uniform(6, 4096, 5),
        long_code_symbols(5),
        wide_symbols(5),
    ];
    for symbols in &streams {
        let bytes = table_stream(symbols, &SENTINEL);
        for n in (0..=80).chain([1000, 1001, 1002, symbols.len()]) {
            assert_decoders_agree(&bytes, n, "slot limit");
        }
    }
}

#[test]
fn stream_loop_ending_at_its_byte_limit_matches_reference() {
    // 1-bit and 2-bit codes, decoded to the end of a stream with nothing
    // after it: 8 bytes hold 32 or more symbols, so the word loop runs out
    // of bytes while slots remain, at every bit offset of the last bytes.
    for len in 0..=300usize {
        for symbols in [uniform(len as u64, len, 2), uniform(len as u64, len, 4)] {
            let bytes = table_stream(&symbols, &[]);
            assert_decoders_agree(&bytes, symbols.len(), "byte limit");
            let got = decode_new(&bytes, symbols.len()).map(|d| d.0);
            assert_eq!(got, Some(symbols));
        }
    }
    // Long codes in the last bytes, too.
    let mut symbols = uniform(9, 2000, 2);
    symbols.extend(long_code_symbols(9).iter().filter(|&&s| s >= 30));
    assert_decoders_agree(&table_stream(&symbols, &[]), symbols.len(), "long tail");
}

#[test]
fn truncation_at_each_of_the_last_16_bytes_matches_reference() {
    let streams = [
        geometric(11, 3000),
        uniform(11, 3000, 2),
        long_code_symbols(11),
        wide_symbols(11),
    ];
    for symbols in &streams {
        let bytes = encode_stream(symbols);
        let table_first = table_stream(symbols, &[]);
        for back in 1..=16usize {
            let cut = bytes.len().saturating_sub(back);
            assert_eq!(
                decode_stream(&bytes[..cut]),
                ref_decode_stream(&bytes[..cut]),
                "cut {back} from the end"
            );
            let cut = table_first.len().saturating_sub(back);
            let got = decode_new(&table_first[..cut], symbols.len());
            assert!(got.is_none(), "cut {back} from the end decoded");
            assert_eq!(got, decode_ref(&table_first[..cut], symbols.len()));
        }
    }
}
