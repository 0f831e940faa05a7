//! `zlite` container: header, entropy stage, and the public API.

use crate::codes::{
    dist_code, dist_decode, length_code, length_decode, DIST_ALPHABET, EOB, LEN_SYM_BASE,
    LITLEN_ALPHABET,
};
use crate::lz::{load4, load8, tokenize, Token};
use cliz_entropy::{BitReader, BitWriter, HuffmanDecoder, HuffmanEncoder};
use cliz_format::{spec::ZLT1, FormatError, HeaderReader, HeaderWriter};

pub(crate) const MODE_STORED: u8 = 0;
pub(crate) const MODE_LZ: u8 = 1;

/// Decode failure taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    BadMagic,
    Truncated,
    UnsupportedVersion(u8),
    Corrupt(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadMagic => write!(f, "zlite: bad magic"),
            Error::Truncated => write!(f, "zlite: truncated stream"),
            Error::UnsupportedVersion(v) => write!(f, "zlite: unsupported version {v}"),
            Error::Corrupt(what) => write!(f, "zlite: corrupt stream ({what})"),
        }
    }
}

impl std::error::Error for Error {}

impl From<FormatError> for Error {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Truncated => Error::Truncated,
            FormatError::BadMagic => Error::BadMagic,
            FormatError::UnsupportedVersion(v) => Error::UnsupportedVersion(v),
            FormatError::Corrupt(what) => Error::Corrupt(what),
        }
    }
}

/// Frame header bytes: magic and version, `raw_len:u64`, `mode:u8`.
const HEADER_LEN: usize = 14;

/// Repeat probe table: `1 << PROBE_BITS` direct-mapped slots of 4-byte
/// words, small enough to stay in L1.
const PROBE_BITS: u32 = 12;

/// [`compress`] runs the match finder when at least this many positions
/// per thousand repeat a recent 4-byte word. Over the fields and bounds
/// measured, the frames below it read at most 2.2 and gain at most 0.14%
/// from LZ; the frames where LZ gains more read 5 and up
/// (docs/PERFORMANCE.md, "Archive encode path, round 3").
const MIN_REPEATS_PER_MILLE: usize = 3;

/// Compresses `data` into the smallest of the three frames the decoder
/// reads: stored, literal-only (an LZ-mode stream with no matches) and the
/// LZ parse of [`compress_lz`].
///
/// One pass over `data` counts its bytes and probes it for repeats. The
/// literal-only size follows exactly from the byte counts, without
/// encoding. The match finder, most of the cost, runs only when the
/// repeat share says matches may exist ([`MIN_REPEATS_PER_MILLE`]);
/// otherwise the frame is the smaller of literal-only and stored. A tie
/// keeps the LZ/stored frame [`compress_lz`] would write, so the output
/// is never larger than it whenever the match finder runs, and never
/// larger than stored (the 14-byte header) in any case.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let (freqs, repeats) = survey(data);
    let lit_enc = HuffmanEncoder::from_frequencies(&freqs);
    let dist_enc = HuffmanEncoder::from_frequencies(&[0; DIST_ALPHABET]);
    let literal_bits = lit_enc.table_bits() + dist_enc.table_bits() + lit_enc.encoded_bits(&freqs);
    let literal_len = HEADER_LEN as u64 + literal_bits.div_ceil(8);

    let positions = data.len().saturating_sub(3);
    let lz = (repeats * 1000 >= positions * MIN_REPEATS_PER_MILLE).then(|| compress_lz(data));
    let best_len = lz.as_ref().map_or(HEADER_LEN + data.len(), Vec::len);
    if literal_len < best_len as u64 {
        let payload = coded_stream(&lit_enc, &dist_enc, literal_len as usize, |emit, w| {
            for &b in data {
                let (c, l) = lit_enc.symbol_code(u32::from(b));
                emit.push(w, c, l);
            }
        });
        return frame(data, MODE_LZ, &payload);
    }
    lz.unwrap_or_else(|| frame(data, MODE_STORED, data))
}

/// [`compress`]'s one pass: the literal/length histogram of a match-free
/// token stream (every byte, then one EOB) and the repeat count, the
/// number of positions whose 4-byte word is already in a direct-mapped
/// table of recent words. One 8-byte load serves four positions, each
/// counted in its own bank so a run of one byte does not serialize on
/// one counter. A slot starts as the word 0, so a first all-zero word may
/// count once.
fn survey(data: &[u8]) -> (Vec<u64>, usize) {
    let mut counts = [[0u64; 256]; 4];
    let mut table = [0u32; 1 << PROBE_BITS];
    let mut repeats = 0usize;
    let mut probe = |w: u32| {
        let slot = &mut table[(w.wrapping_mul(0x9E37_79B1) >> (32 - PROBE_BITS)) as usize];
        let hit = *slot == w;
        *slot = w;
        usize::from(hit)
    };
    let n = data.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = load8(data, i);
        for (k, bank) in counts.iter_mut().enumerate() {
            let w = (v >> (8 * k)) as u32;
            bank[usize::from(w as u8)] += 1;
            repeats += probe(w);
        }
        i += 4;
    }
    for (j, &b) in data.iter().enumerate().skip(i) {
        if j + 4 <= n {
            repeats += probe(load4(data, j));
        }
        counts[0][usize::from(b)] += 1;
    }
    let mut freqs = vec![0u64; LITLEN_ALPHABET];
    for (b, f) in freqs.iter_mut().take(256).enumerate() {
        *f = counts.iter().map(|bank| bank[b]).sum();
    }
    freqs[EOB as usize] = 1;
    (freqs, repeats)
}

/// The forced LZ frame: a full match-finder parse, Huffman-coded, or the
/// stored frame when that is not smaller. Its bytes are the frozen
/// `reference::ref_compress`'s; [`compress`] calls it when the repeat
/// probe says matches may pay.
pub fn compress_lz(data: &[u8]) -> Vec<u8> {
    let tokens = tokenize(data);

    // Histogram both alphabets (EOB terminates the stream for the decoder).
    let mut litlen_freq = vec![0u64; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u64; DIST_ALPHABET];
    for &t in &tokens {
        match t {
            Token::Literal(b) => litlen_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (lsym, _, _) = length_code(len as usize);
                litlen_freq[(LEN_SYM_BASE + lsym) as usize] += 1;
                let (dsym, _, _) = dist_code(dist as usize);
                dist_freq[dsym as usize] += 1;
            }
        }
    }
    litlen_freq[EOB as usize] += 1;

    let lit_enc = HuffmanEncoder::from_frequencies(&litlen_freq);
    let dist_enc = HuffmanEncoder::from_frequencies(&dist_freq);
    let payload = coded_stream(&lit_enc, &dist_enc, data.len() / 2 + 64, |emit, w| {
        for &t in &tokens {
            match t {
                Token::Literal(b) => {
                    let (c, l) = lit_enc.symbol_code(u32::from(b));
                    emit.push(w, c, l);
                }
                Token::Match { len, dist } => {
                    let (lsym, lextra, lval) = length_code(len as usize);
                    let (c, l) = lit_enc.symbol_code(LEN_SYM_BASE + lsym);
                    emit.push(w, c, l);
                    emit.push(w, lval, u32::from(lextra));
                    let (dsym, dextra, dval) = dist_code(dist as usize);
                    let (c, l) = dist_enc.symbol_code(dsym);
                    emit.push(w, c, l);
                    emit.push(w, dval, u32::from(dextra));
                }
            }
        }
    });
    if payload.len() < data.len() {
        frame(data, MODE_LZ, &payload)
    } else {
        frame(data, MODE_STORED, data)
    }
}

/// An LZ-mode body: both code tables, the tokens `body` emits, then EOB.
/// Emission is batched: each token's fragments (symbol codes + extra
/// bits) merge into [`Emit`]'s 64-bit accumulator, drained through
/// `write_bits64` only when the next fragment would not fit, typically one
/// writer call per several tokens instead of 2-4 calls per match.
/// Byte-identical to symbol-at-a-time emission (flushing early only splits
/// where the accumulator drains, not what it holds).
fn coded_stream(
    lit_enc: &HuffmanEncoder,
    dist_enc: &HuffmanEncoder,
    capacity: usize,
    body: impl FnOnce(&mut Emit, &mut BitWriter),
) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(capacity);
    lit_enc.write_table(&mut w);
    dist_enc.write_table(&mut w);
    let mut emit = Emit::default();
    body(&mut emit, &mut w);
    emit.flush(&mut w);
    lit_enc.encode_symbol(EOB, &mut w);
    w.finish()
}

/// A ZLT1 frame of `data` whose body is `body`, in `mode`.
fn frame(data: &[u8], mode: u8, body: &[u8]) -> Vec<u8> {
    let mut w = HeaderWriter::with_capacity(HEADER_LEN + body.len());
    w.magic(&ZLT1);
    w.u64(data.len() as u64);
    w.u8(mode);
    w.raw(body);
    w.finish()
}

/// Code-fragment accumulator for batched entropy emission: fragments pile
/// into a u64 (every fragment is ≤ 32 bits, flushed before 57 live bits)
/// so the bit writer is called once per drain instead of once per fragment.
/// Zero-length fragments (absent extra bits) are free.
#[derive(Default)]
struct Emit {
    acc: u64,
    bits: u32,
}

impl Emit {
    #[inline]
    fn push(&mut self, w: &mut BitWriter, code: u32, len: u32) {
        if self.bits + len > 57 {
            w.write_bits64(self.acc, self.bits);
            self.acc = 0;
            self.bits = 0;
        }
        self.acc = (self.acc << len) | u64::from(code);
        self.bits += len;
    }

    #[inline]
    fn flush(self, w: &mut BitWriter) {
        if self.bits > 0 {
            w.write_bits64(self.acc, self.bits);
        }
    }
}

/// The length a frame declares it decodes to, read from its header alone.
/// A container that knows how long the bytes it framed must be checks
/// this before [`decompress`] allocates or decodes anything.
pub fn declared_len(data: &[u8]) -> Result<usize, Error> {
    let mut r = HeaderReader::new(data);
    r.expect_magic(&ZLT1)?;
    Ok(r.len64()?)
}

/// Decompresses a [`compress`] stream.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    let mut r = HeaderReader::new(data);
    r.expect_magic(&ZLT1)?;
    let raw_len = r.len64()?;
    let mode = r.u8()?;
    let body = r.rest();
    match mode {
        MODE_STORED => {
            if body.len() < raw_len {
                return Err(Error::Truncated);
            }
            Ok(body[..raw_len].to_vec())
        }
        MODE_LZ => {
            let mut r = BitReader::new(body);
            let lit_dec = HuffmanDecoder::read_table(&mut r).ok_or(Error::Truncated)?;
            let dist_dec = HuffmanDecoder::read_table(&mut r).ok_or(Error::Truncated)?;
            // Decode straight into the output buffer: literal runs arrive
            // packed (several bytes per Huffman-table lookup) and match
            // copies happen in place, replacing the intermediate token
            // vector and its second detokenize pass. `raw_len` is untrusted,
            // so the pre-allocation is capped and the buffer is checked
            // against it at every token boundary, bounding memory before a
            // lying header can force growth.
            let mut out: Vec<u8> = Vec::with_capacity(raw_len.min(1 << 20));
            loop {
                let sym = lit_dec
                    .decode_literal_run(&mut r, EOB, &mut out)
                    .ok_or(Error::Truncated)?;
                if out.len() > raw_len {
                    return Err(Error::Corrupt("length mismatch"));
                }
                if sym == EOB {
                    break;
                }
                let lsym = sym - LEN_SYM_BASE;
                if lsym as usize >= crate::codes::LENGTH_TABLE.len() {
                    return Err(Error::Corrupt("length symbol out of range"));
                }
                let (lbase, lextra) = length_decode(lsym);
                let lval = if lextra > 0 {
                    r.read_bits(u32::from(lextra)).ok_or(Error::Truncated)?
                } else {
                    0
                };
                let dsym = dist_dec.decode_symbol(&mut r).ok_or(Error::Truncated)?;
                if dsym as usize >= DIST_ALPHABET {
                    return Err(Error::Corrupt("distance symbol out of range"));
                }
                let (dbase, dextra) = dist_decode(dsym);
                let dval = if dextra > 0 {
                    r.read_bits(u32::from(dextra)).ok_or(Error::Truncated)?
                } else {
                    0
                };
                let len = lbase + lval as usize;
                let dist = dbase + dval as usize;
                if dist == 0 || dist > out.len() {
                    return Err(Error::Corrupt("bad back-reference"));
                }
                let start = out.len() - dist;
                if dist >= len {
                    // Disjoint source: one memcpy-class copy.
                    out.extend_from_within(start..start + len);
                } else if dist == 1 {
                    // Run-length: repeat the last byte.
                    let b = out[start];
                    out.resize(out.len() + len, b);
                } else {
                    // Overlapping copy is the semantics (period-`dist` fill).
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
                if out.len() > raw_len {
                    return Err(Error::Corrupt("length mismatch"));
                }
            }
            if out.len() != raw_len {
                return Err(Error::Corrupt("length mismatch"));
            }
            Ok(out)
        }
        _ => Err(Error::Corrupt("unknown mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).expect("decompress"), data);
        c.len()
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn short_strings() {
        roundtrip(b"a");
        roundtrip(b"hello");
        roundtrip(b"hello hello hello hello");
    }

    #[test]
    fn compresses_redundant_data() {
        let data: Vec<u8> = b"climate data climate data climate data "
            .iter()
            .cycle()
            .take(40_000)
            .copied()
            .collect();
        let n = roundtrip(&data);
        assert!(n < data.len() / 10, "only shrank to {n} of {}", data.len());
    }

    #[test]
    fn stored_mode_for_noise() {
        let mut state = 99u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 56) as u8
            })
            .collect();
        let n = roundtrip(&data);
        // Either stored (len + 14) or marginally compressed; never blown up.
        assert!(n <= data.len() + 14);
    }

    #[test]
    fn zeros_compress_extremely() {
        let data = vec![0u8; 100_000];
        let n = roundtrip(&data);
        assert!(n < 400, "zero run compressed to {n}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut c = compress(b"payload");
        c[0] ^= 0xFF;
        assert_eq!(decompress(&c), Err(Error::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut c = compress(b"payload");
        c[4] = 0xEE;
        assert_eq!(decompress(&c), Err(Error::UnsupportedVersion(0xEE)));
    }

    #[test]
    fn declared_len_reads_the_header_alone() {
        for data in [&b""[..], b"payload", &[7u8; 5000]] {
            let c = compress(data);
            assert_eq!(declared_len(&c), Ok(data.len()));
            // The body plays no part: a header on its own answers too.
            assert_eq!(declared_len(&c[..13]), Ok(data.len()));
        }
        let c = compress(b"payload");
        assert_eq!(declared_len(&c[..12]), Err(Error::Truncated));
        let mut bad = c.clone();
        bad[0] ^= 0xFF;
        assert_eq!(declared_len(&bad), Err(Error::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let c = compress(b"some reasonably long payload with repetition repetition");
        for cut in [5, 12, 14, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn structured_floats_shrink() {
        // Byte stream resembling a Huffman-coded bin sequence: long runs with
        // sparse punctuation.
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(&[0, 0, 0, (i % 17) as u8]);
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 3);
    }
}
