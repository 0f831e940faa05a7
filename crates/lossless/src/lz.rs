//! LZ77 match finder.
//!
//! Greedy parse with one-byte lazy evaluation (deflate's classic heuristic):
//! before emitting a match at `i`, peek whether `i+1` offers a strictly
//! longer one; if so, emit a literal and advance. Candidates are indexed by
//! 3-byte prefix hash; walks are capped so worst-case inputs stay linear.
//!
//! The kernel is word-oriented. Match extension compares 8 bytes per step
//! (u64 XOR + `trailing_zeros`), run insertion derives six 3-byte hashes
//! from one u64 load, and candidates are pre-filtered with an 8-byte (or
//! 4-byte, below `best_len == 7`) reject probe at the current best length.
//!
//! Candidates live in a [`BucketIndex`]: each hash bucket is a ring of its
//! newest positions, so a walk is a bounds-free array scan (newest first)
//! instead of a pointer chase. Because chain order *is* insertion order,
//! the ring enumerates exactly the candidates a chain walk of depth
//! [`MAX_CHAIN`] would visit, and positions along it are strictly
//! decreasing, so the window cut can be located once up front instead of
//! being re-checked per candidate.
//!
//! The rings are sized to the input. A bucket holds [`SLOTS`] positions,
//! or exactly as many as there are insertable positions hashing to it
//! when that is fewer; one hashing pass before the parse counts them. The
//! ring-capacity invariant: the parser inserts each position at most once,
//! so a short ring is never filled past its capacity and never wraps, and
//! a walk over it visits the same newest-first entries a full [`SLOTS`]
//! ring would. The table is then at most 4 bytes per input byte and never
//! more than `HASH_SIZE * SLOTS` slots, where a fixed layout is 8 MiB per
//! call whatever the input: for the 2–50 KB payloads the codec hands
//! zlite, zeroing and scattering into that table cost more than the parse.
//!
//! The parse reproduces the byte-wise scan in
//! [`crate::reference::ref_tokenize`] at the reference's default effort
//! token-for-token; the differential and adversarial suites pin that. See
//! docs/PERFORMANCE.md ("Encode kernel architecture") for the equivalence
//! arguments and the measured speedups.

use crate::codes::{MAX_MATCH, MIN_MATCH, WINDOW};

/// One parsed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    Literal(u8),
    /// Back-reference: copy `len` bytes starting `dist` bytes back.
    Match {
        len: u32,
        dist: u32,
    },
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Chain links inspected per position: the reference's default effort.
const MAX_CHAIN: usize = 64;

/// Stop searching once a match of this length is found.
const GOOD_ENOUGH: usize = 96;

/// Ring capacity per [`BucketIndex`] bucket. Walks enumerate the newest
/// `min(count, SLOTS)` entries, so the ring is an exact stand-in for a
/// chain walk of depth [`MAX_CHAIN`].
const SLOTS: usize = MAX_CHAIN;

// xtask-allow-fn: R1, R5 -- encoder-side hashing; every call site guarantees i+2 < data.len()
#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    // Multiplicative hash of a 3-byte little-endian load.
    let v = u32::from(data[i]) | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Same multiplicative hash, applied to a 24-bit lane of a wider load.
#[inline]
fn hash3_word(v: u32) -> usize {
    ((v & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

// xtask-allow-fn: R1, R5 -- encoder-side unaligned load; callers guarantee i + 4 <= data.len()
#[inline]
pub(crate) fn load4(data: &[u8], i: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[i..i + 4]);
    u32::from_le_bytes(b)
}

// xtask-allow-fn: R1, R5 -- encoder-side unaligned load; callers guarantee i + 8 <= data.len()
#[inline]
pub(crate) fn load8(data: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[i..i + 8]);
    u64::from_le_bytes(b)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`: 8 bytes per step via XOR + `trailing_zeros` (the first set bit
/// of the LE word difference sits in the first differing byte).
// xtask-allow-fn: R1, R5 -- encoder-side comparison; callers guarantee b + max_len <= data.len() and a < b
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max_len {
        let x = load8(data, a + l) ^ load8(data, b + l);
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max_len && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// One hash bucket of a [`BucketIndex`]: where its ring starts in the slot
/// table, and how many positions have been inserted into it.
#[derive(Clone, Copy, Default)]
struct Bucket {
    start: u32,
    count: u32,
}

/// Per-hash ring of the newest positions. Entry `count - 1 - k` (mod
/// [`SLOTS`]) is the `k`-th newest, so a walk reads the ring newest-first —
/// the same order a hash-chain walk visits, with no pointer chase and no
/// per-entry link loads. Only `min(count, SLOTS)` entries are ever read, so
/// the slot table needs no initialization beyond the zeroed counters.
///
/// The table is sized to its input (see [`BucketIndex::new`]): bucket `h`
/// gets `min(SLOTS, n_h)` slots, where `n_h` is the number of insertable
/// positions hashing to `h`. The parser inserts each position at most once,
/// so a ring shorter than [`SLOTS`] is never filled past its capacity and
/// never wraps: for it the masked index `c & (SLOTS - 1)` is just `c`. Every
/// bucket reads and writes only its own slots; the table carries [`SLOTS`]
/// slots of tail padding so each bucket's `SLOTS`-wide window is in bounds
/// and the masked index needs no bounds check.
struct BucketIndex {
    buf: Vec<u32>,
    heads: Vec<Bucket>,
}

impl BucketIndex {
    /// Sizes the slot table for `data`. Positions `j` with `j + 2 < n` are
    /// the only ones the parser can insert, so one hashing pass over them
    /// (six hashes per u64 load, as in [`BucketIndex::insert_run`]) counts
    /// each bucket's insertions and a prefix sum lays the rings out back to
    /// back: at most 4 bytes of slots per input byte, against 8 MiB for a
    /// fixed layout of [`SLOTS`] slots per bucket.
    // xtask-allow-fn: R1 -- encoder-side table sizing; the word loop keeps j + 8 <= n and the tail loop j + 2 < n, and h < HASH_SIZE from hash3
    fn new(data: &[u8]) -> Self {
        let n = data.len();
        let mut heads = vec![Bucket::default(); HASH_SIZE];
        let mut j = 0usize;
        while j + 8 <= n {
            let w = load8(data, j);
            for k in 0..6 {
                heads[hash3_word((w >> (8 * k)) as u32)].count += 1;
            }
            j += 6;
        }
        while j + 2 < n {
            heads[hash3(data, j)].count += 1;
            j += 1;
        }
        let mut total = 0u32;
        for b in &mut heads {
            b.start = total;
            total += b.count.min(SLOTS as u32);
            b.count = 0;
        }
        Self {
            buf: vec![0u32; total as usize + SLOTS],
            heads,
        }
    }

    /// Bucket `h`'s ring window and insertion count.
    // xtask-allow-fn: R1 -- h < HASH_SIZE from hash3, and start + SLOTS <= buf.len() by the tail padding laid out in new()
    #[inline]
    fn ring(&self, h: usize) -> (&[u32], usize) {
        let b = self.heads[h];
        let start = b.start as usize;
        (&self.buf[start..start + SLOTS], b.count as usize)
    }

    /// Inserts position `pos`, whose 3-byte prefix hashes to `h`.
    // xtask-allow-fn: R1 -- h < HASH_SIZE from hash3; the slot index is masked to SLOTS and start + SLOTS <= buf.len() by the tail padding laid out in new()
    #[inline]
    fn insert_hash(&mut self, h: usize, pos: usize) {
        let Bucket { start, count } = self.heads[h];
        self.buf[start as usize + (count as usize & (SLOTS - 1))] = pos as u32;
        self.heads[h].count = count + 1;
    }

    // xtask-allow-fn: R1 -- encoder-side table update; callers guarantee i + 2 < data.len()
    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) {
        self.insert_hash(hash3(data, i), i);
    }

    /// Inserts every position in `j..end`, deriving six 3-byte hashes per
    /// u64 load on the interior (the lanes of one little-endian word are
    /// exactly the successive 3-byte windows `hash3` reads).
    // xtask-allow-fn: R1 -- encoder-side batched table update; the loop guards keep every lane load inside data
    #[inline]
    fn insert_run(&mut self, data: &[u8], mut j: usize, end: usize) {
        let n = data.len();
        while j + 6 <= end && j + 8 <= n {
            let w = load8(data, j);
            for k in 0..6 {
                self.insert_hash(hash3_word((w >> (8 * k)) as u32), j + k);
            }
            j += 6;
        }
        while j < end {
            self.insert(data, j);
            j += 1;
        }
    }

    /// Returns `(len, dist)` of the best match at `i`, or `(0, 0)` when no
    /// candidate beats `floor` (see [`parse`] for why a raised floor is
    /// exact).
    ///
    /// The walk enumerates ring entries newest-first. A candidate can only
    /// beat `best_len` by matching bytes `0..=best_len`, so a mismatch on
    /// the probed suffix window (`[best_len-7, best_len]` once
    /// `best_len >= 7`, `[best_len-3, best_len]` from 3, the single byte at
    /// `best_len` below that) is fatal — survivors are fully re-extended
    /// from offset 0 just like the reference's byte-wise scan. The walk is
    /// split per probe regime so the steady state (`best_len >= 7`, where
    /// nearly all candidates die on one 8-byte compare) is a minimal loop.
    // xtask-allow-fn: R1, R5 -- encoder-side match finder over caller data; indices are bounded by the scan invariants (cand < i, best_len < max_len <= n - i), not by untrusted input
    #[inline]
    fn find_best(&self, data: &[u8], i: usize, floor: usize) -> (usize, usize) {
        let n = data.len();
        let max_len = MAX_MATCH.min(n - i);
        if max_len < MIN_MATCH || floor >= max_len {
            return (0, 0);
        }
        let (bucket, c) = self.ring(hash3(data, i));
        let mut avail = c.min(SLOTS);
        if avail == 0 {
            return (0, 0);
        }
        let idx0 = (c - 1) & (SLOTS - 1);
        // Ring positions are strictly decreasing newest-first, so the window
        // boundary is a prefix cut: locate it once (rare — a few percent of
        // calls) instead of distance-checking every candidate.
        let limit = i.saturating_sub(WINDOW) as u32;
        if bucket[idx0.wrapping_sub(avail - 1) & (SLOTS - 1)] < limit {
            let mut k = 0usize;
            while k < avail && bucket[idx0.wrapping_sub(k) & (SLOTS - 1)] >= limit {
                k += 1;
            }
            avail = k;
            if avail == 0 {
                return (0, 0);
            }
        }
        let mut best_len = floor;
        let mut best_dist = 0usize;
        let mut probe8 = 0u64;
        let mut probe4 = 0u32;
        // In-bounds: floor < max_len <= n - i.
        if best_len >= 7 {
            probe8 = load8(data, i + best_len - 7);
        } else if best_len >= MIN_MATCH {
            probe4 = load4(data, i + best_len - 3);
        }
        let mut k = 0usize;
        'walk: while k < avail {
            if best_len >= 7 {
                // Steady state: one 8-byte probe per candidate.
                let off = best_len - 7;
                while k < avail {
                    let cand = bucket[idx0.wrapping_sub(k) & (SLOTS - 1)] as usize;
                    k += 1;
                    if load8(data, cand + off) != probe8 {
                        continue;
                    }
                    let l = match_len(data, cand, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= GOOD_ENOUGH || l == max_len {
                            break 'walk;
                        }
                        probe8 = load8(data, i + l - 7);
                        // off/probe8 changed: restart the regime loop.
                        continue 'walk;
                    }
                }
            } else if best_len >= MIN_MATCH {
                while k < avail {
                    let cand = bucket[idx0.wrapping_sub(k) & (SLOTS - 1)] as usize;
                    k += 1;
                    if load4(data, cand + best_len - 3) != probe4 {
                        continue;
                    }
                    let l = match_len(data, cand, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= GOOD_ENOUGH || l == max_len {
                            break 'walk;
                        }
                        if l >= 7 {
                            probe8 = load8(data, i + l - 7);
                        } else {
                            probe4 = load4(data, i + l - 3);
                        }
                        continue 'walk;
                    }
                }
            } else {
                while k < avail {
                    let cand = bucket[idx0.wrapping_sub(k) & (SLOTS - 1)] as usize;
                    k += 1;
                    if best_len != 0 && data[cand + best_len] != data[i + best_len] {
                        continue;
                    }
                    let l = match_len(data, cand, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= GOOD_ENOUGH || l == max_len {
                            break 'walk;
                        }
                        if l >= 7 {
                            probe8 = load8(data, i + l - 7);
                        } else if l >= MIN_MATCH {
                            probe4 = load4(data, i + l - 3);
                        }
                        continue 'walk;
                    }
                }
            }
        }
        if best_dist == 0 {
            (0, 0)
        } else {
            (best_len, best_dist)
        }
    }
}

/// The greedy/lazy parse over a [`BucketIndex`].
///
/// Two exact refinements over the reference's literal restatement, both
/// pinned by the differential suites:
///
/// * **Lazy floor.** The lazy probe at `i+1` only influences the parse when
///   it strictly beats `len`, so `find_best` starts its reject threshold at
///   `len` instead of 0. Candidates at or below the floor never survive to
///   an update in the reference walk either (updates require `l > best`,
///   and `len < GOOD_ENOUGH` whenever the probe runs, so no skipped
///   candidate could have fired the `GOOD_ENOUGH` break), hence the
///   first-candidate-attaining-the-maximum result is unchanged whenever it
///   matters.
/// * **Carry memoization.** When the lazy probe wins, the reference
///   re-walks position `i+1` at the top of the next iteration with an
///   identical table state (position `i` was inserted before the probe);
///   the probe's result is carried instead of recomputed.
// xtask-allow-fn: R1, R5 -- encoder-side parse loop over caller data; every index is i < n maintained by the loop, not untrusted input
fn parse(data: &[u8], tokens: &mut Vec<Token>) {
    let mut ix = BucketIndex::new(data);
    let n = data.len();
    let mut i = 0usize;
    let mut carry: Option<(usize, usize)> = None;
    while i < n {
        if i + MIN_MATCH > n {
            tokens.push(Token::Literal(data[i]));
            i += 1;
            continue;
        }
        let (len, dist) = match carry.take() {
            Some(r) => r,
            None => ix.find_best(data, i, 0),
        };
        if len >= MIN_MATCH {
            // Lazy heuristic: literal + longer match at i+1 beats match at i.
            let take_match = if i + 1 + MIN_MATCH <= n && len < GOOD_ENOUGH {
                ix.insert(data, i);
                let r2 = ix.find_best(data, i + 1, len);
                if r2.0 > len {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                    carry = Some(r2);
                    false
                } else {
                    true
                }
            } else {
                ix.insert(data, i);
                true
            };
            if take_match {
                tokens.push(Token::Match {
                    len: len as u32,
                    dist: dist as u32,
                });
                // Index the covered positions (skip some on long matches to
                // bound cost; deflate does the same above `GOOD_ENOUGH`).
                let end = (i + len).min(n - MIN_MATCH);
                if len > 64 {
                    let mut j = i + 1;
                    while j < end {
                        ix.insert(data, j);
                        j += 4;
                    }
                } else {
                    ix.insert_run(data, i + 1, end);
                }
                i += len;
            }
        } else {
            ix.insert(data, i);
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
}

/// Parses `data` into LZ77 tokens.
///
/// Token-for-token identical to [`crate::reference::ref_tokenize`] at the
/// reference's default effort: insertion order *is* chain order, so the
/// newest `min(count, SLOTS)` ring entries of a [`BucketIndex`] bucket are
/// exactly the chain walk's candidates.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    // Positions live in u32 slots; the container chunks long before this,
    // so a >4 GiB buffer is a caller bug, not a data-dependent path.
    assert!(n <= u32::MAX as usize, "zlite: input exceeds 4 GiB");

    parse(data, &mut tokens);
    tokens
}

/// Replays tokens into the original bytes.
pub fn detokenize(tokens: &[Token], expected_len: usize) -> Option<Vec<u8>> {
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
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let tokens = tokenize(data);
        let back = detokenize(&tokens, data.len()).expect("detokenize");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repeated_text_produces_matches() {
        let data = b"the quick brown fox; the quick brown fox; the quick brown fox".to_vec();
        let tokens = tokenize(&data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one back-reference"
        );
        roundtrip(&data);
    }

    #[test]
    fn run_length_overlap() {
        // 1000 identical bytes: should compress into literal + overlapping match(es).
        let data = vec![0x42u8; 1000];
        let tokens = tokenize(&data);
        assert!(tokens.len() < 20, "got {} tokens", tokens.len());
        roundtrip(&data);
    }

    #[test]
    fn incompressible_bytes_roundtrip() {
        // Linear congruential noise — few matches, but must stay correct.
        let mut state = 1u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_range_match_within_window() {
        let mut data = vec![0u8; 0];
        let phrase: Vec<u8> = (0..64u8).collect();
        data.extend_from_slice(&phrase);
        data.extend(std::iter::repeat_n(0xEE, 20_000));
        data.extend_from_slice(&phrase); // 20 KiB back, inside the window
        roundtrip(&data);
    }

    #[test]
    fn detokenize_rejects_bad_distance() {
        let tokens = vec![Token::Literal(1), Token::Match { len: 3, dist: 5 }];
        assert_eq!(detokenize(&tokens, 4), None);
    }

    #[test]
    fn max_match_boundary() {
        let data = vec![7u8; MAX_MATCH + MIN_MATCH + 10];
        roundtrip(&data);
    }
}
