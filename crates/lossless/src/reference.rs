//! Frozen pre-rewrite reference of the zlite container, routed end-to-end
//! through the byte-at-a-time entropy reference kernels.
//!
//! [`ref_compress_with`] and [`ref_decompress`] are verbatim copies of the
//! pre-rewrite [`crate::compress`]/[`crate::decompress`]: the encoder runs
//! the byte-at-a-time tokenizer ([`ref_tokenize`]) and writes through
//! [`RefBitWriter`], and the decoder materializes a `Vec<Token>` before
//! replaying it with the byte-wise [`ref_detokenize`] — exactly the
//! behaviours the word-at-a-time/batched rewrites replace. Differential
//! tests assert byte-identical compressed streams and identical decode
//! results; `stage_bench` uses this pair as the same-host pre-rewrite
//! baseline. Do not optimize this module.

use crate::codes::{
    dist_code, dist_decode, length_code, length_decode, DIST_ALPHABET, EOB, LEN_SYM_BASE,
    LITLEN_ALPHABET, MAX_MATCH, MIN_MATCH, WINDOW,
};
use crate::format::Error;
use crate::lz::Token;
use cliz_entropy::reference::{
    ref_encode_symbol, ref_write_table, RefBitReader, RefBitWriter, RefHuffmanDecoder,
};
use cliz_entropy::HuffmanEncoder;
use cliz_format::spec::ZLT1;

// The kernels are frozen, not the container prefix: the header must stay
// byte-identical with the live `crate::format` path (the differential
// suites compare whole streams), so the magic/version pair tracks the
// registry and the mode bytes are shared with the live module.
use crate::format::{MODE_LZ, MODE_STORED};

/// Match-finder effort: how many chain links to inspect per position.
/// The live encoder runs at the default, its private `MAX_CHAIN` and
/// `GOOD_ENOUGH`; other efforts exist only here, for the oracle.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    pub max_chain: usize,
    /// Stop searching once a match of this length is found.
    pub good_enough: usize,
}

impl Default for Effort {
    fn default() -> Self {
        Self {
            max_chain: 64,
            good_enough: 96,
        }
    }
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

// xtask-allow-fn: R1, R5 -- frozen pre-rewrite copy of the encoder-side hash; every call site guarantees i+2 < data.len()
#[inline]
fn ref_hash3(data: &[u8], i: usize) -> usize {
    // Multiplicative hash of a 3-byte little-endian load.
    let v = u32::from(data[i]) | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Frozen pre-rewrite [`crate::lz::tokenize`]: byte-wise match extension,
/// one-byte quick reject, per-position scalar chain insertion over
/// `usize`-wide head/prev tables. The live tokenizer must reproduce this
/// token stream exactly at the default effort; the differential and
/// adversarial suites enforce it.
// xtask-allow-fn: R1, R5 -- frozen pre-rewrite match finder over caller data; indices are bounded by the scan invariants (cand < i, best_len < max_len <= n - i), not by untrusted input
pub fn ref_tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    // head[h] = most recent position with hash h; prev[i & (WINDOW-1)] = the
    // previous position in i's chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW];

    let insert = |head: &mut [usize], prev: &mut [usize], data: &[u8], i: usize| {
        let h = ref_hash3(data, i);
        prev[i & (WINDOW - 1)] = head[h];
        head[h] = i;
    };

    let find_best = |head: &[usize], prev: &[usize], data: &[u8], i: usize| -> (usize, usize) {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let max_len = MAX_MATCH.min(n - i);
        if max_len < MIN_MATCH {
            return (0, 0);
        }
        let mut cand = head[ref_hash3(data, i)];
        let mut chains = effort.max_chain;
        while cand != usize::MAX && chains > 0 {
            let dist = i - cand;
            if dist > WINDOW {
                break;
            }
            if best_len == max_len {
                break;
            }
            // Quick reject: check the byte where we must improve (in-bounds
            // because best_len < max_len <= n - i, and cand < i).
            if best_len == 0 || data[cand + best_len] == data[i + best_len] {
                let mut l = 0usize;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= effort.good_enough {
                        break;
                    }
                }
            }
            cand = prev[cand & (WINDOW - 1)];
            chains -= 1;
        }
        (best_len, best_dist)
    };

    let mut i = 0usize;
    while i < n {
        if i + MIN_MATCH > n {
            tokens.push(Token::Literal(data[i]));
            i += 1;
            continue;
        }
        let (len, dist) = find_best(&head, &prev, data, i);
        if len >= MIN_MATCH {
            // Lazy heuristic: literal + longer match at i+1 beats match at i.
            let take_match = if i + 1 + MIN_MATCH <= n && len < effort.good_enough {
                insert(&mut head, &mut prev, data, i);
                let (len2, _) = find_best(&head, &prev, data, i + 1);
                if len2 > len {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                    false
                } else {
                    true
                }
            } else {
                insert(&mut head, &mut prev, data, i);
                true
            };
            if take_match {
                tokens.push(Token::Match {
                    len: len as u32,
                    dist: dist as u32,
                });
                // Index the covered positions (skip some on long matches to
                // bound cost; deflate does the same above `good_enough`).
                let end = (i + len).min(n - MIN_MATCH);
                let step = if len > 64 { 4 } else { 1 };
                let mut j = i + 1;
                while j < end {
                    insert(&mut head, &mut prev, data, j);
                    j += step;
                }
                i += len;
            }
        } else {
            insert(&mut head, &mut prev, data, i);
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Frozen pre-rewrite [`crate::lz::detokenize`]: every match copy is
/// byte-wise, including the non-overlapping `dist >= len` case the live
/// replayer now serves with `extend_from_within`.
pub fn ref_detokenize(tokens: &[Token], expected_len: usize) -> Option<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                // Overlapping copies are the point (run-length encoding via
                // dist < len), so copy byte-wise.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Some(out)
}

/// Pre-rewrite [`crate::compress`] (default effort).
pub fn ref_compress(data: &[u8]) -> Vec<u8> {
    ref_compress_with(data, Effort::default())
}

/// Pre-rewrite [`crate::compress_lz`]: identical tokenization and codebook
/// construction, bit stream assembled by the byte-at-a-time writer.
pub fn ref_compress_with(data: &[u8], effort: Effort) -> Vec<u8> {
    let tokens = ref_tokenize(data, effort);

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

    let mut w = RefBitWriter::new();
    ref_write_table(&lit_enc, &mut w);
    ref_write_table(&dist_enc, &mut w);
    for &t in &tokens {
        match t {
            Token::Literal(b) => ref_encode_symbol(&lit_enc, u32::from(b), &mut w),
            Token::Match { len, dist } => {
                let (lsym, lextra, lval) = length_code(len as usize);
                ref_encode_symbol(&lit_enc, LEN_SYM_BASE + lsym, &mut w);
                if lextra > 0 {
                    w.write_bits(lval, u32::from(lextra));
                }
                let (dsym, dextra, dval) = dist_code(dist as usize);
                ref_encode_symbol(&dist_enc, dsym, &mut w);
                if dextra > 0 {
                    w.write_bits(dval, u32::from(dextra));
                }
            }
        }
    }
    ref_encode_symbol(&lit_enc, EOB, &mut w);
    let payload = w.finish();

    let mut out = Vec::with_capacity(payload.len().min(data.len()) + 14);
    out.extend_from_slice(&ZLT1.magic.to_le_bytes());
    out.push(ZLT1.version);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    if payload.len() < data.len() {
        out.push(MODE_LZ);
        out.extend_from_slice(&payload);
    } else {
        out.push(MODE_STORED);
        out.extend_from_slice(data);
    }
    out
}

/// Pre-rewrite [`crate::decompress`]: per-symbol decode into an intermediate
/// `Vec<Token>`, then a second detokenize pass.
pub fn ref_decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    let header = |range: std::ops::Range<usize>| data.get(range).ok_or(Error::Truncated);
    let magic = u32::from_le_bytes(header(0..4)?.try_into().map_err(|_| Error::Truncated)?);
    if magic != ZLT1.magic {
        return Err(Error::BadMagic);
    }
    let version = *data.get(4).ok_or(Error::Truncated)?;
    if version == 0 || version > ZLT1.version {
        return Err(Error::UnsupportedVersion(version));
    }
    let raw_len =
        u64::from_le_bytes(header(5..13)?.try_into().map_err(|_| Error::Truncated)?) as usize;
    let mode = *data.get(13).ok_or(Error::Truncated)?;
    let body = data.get(14..).ok_or(Error::Truncated)?;
    match mode {
        MODE_STORED => {
            if body.len() < raw_len {
                return Err(Error::Truncated);
            }
            Ok(body[..raw_len].to_vec())
        }
        MODE_LZ => {
            let mut r = RefBitReader::new(body);
            let lit_dec = RefHuffmanDecoder::read_table(&mut r).ok_or(Error::Truncated)?;
            let dist_dec = RefHuffmanDecoder::read_table(&mut r).ok_or(Error::Truncated)?;
            // xtask-allow: R11 -- frozen pre-rewrite reference: the
            // intermediate token vector is the allocation pattern the batched
            // rewrite removes; the differential oracle pins its behaviour.
            let mut tokens: Vec<Token> = Vec::with_capacity(raw_len / 4);
            loop {
                let sym = lit_dec.decode_symbol(&mut r).ok_or(Error::Truncated)?;
                if sym == EOB {
                    break;
                }
                if sym < EOB {
                    tokens.push(Token::Literal(sym as u8));
                    continue;
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
                tokens.push(Token::Match {
                    len: (lbase + lval as usize) as u32,
                    dist: (dbase + dval as usize) as u32,
                });
            }
            let out =
                ref_detokenize(&tokens, raw_len).ok_or(Error::Corrupt("bad back-reference"))?;
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

    #[test]
    fn reference_pair_roundtrips() {
        let data: Vec<u8> = b"climate data climate data climate data "
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect();
        let c = ref_compress(&data);
        assert_eq!(ref_decompress(&c).expect("ref decompress"), data);
    }
}
