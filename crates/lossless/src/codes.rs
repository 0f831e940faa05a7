//! Length/distance symbol tables (deflate-style bucketing).
//!
//! Match lengths 3..=258 map to 29 symbols, distances 1..=32768 to 30 —
//! each symbol carries a base value plus a few literal extra bits, keeping
//! both Huffman alphabets small while covering the whole range.

/// Literal alphabet size (bytes 0..=255) plus end-of-block marker.
pub const EOB: u32 = 256;
/// First length symbol; length symbol `i` is `LEN_SYM_BASE + i`.
pub const LEN_SYM_BASE: u32 = 257;
/// Total size of the literal/length alphabet.
pub const LITLEN_ALPHABET: usize = 257 + 29;
/// Total size of the distance alphabet.
pub const DIST_ALPHABET: usize = 30;

/// Minimum/maximum match length produced by the matcher.
pub const MIN_MATCH: usize = 3;
pub const MAX_MATCH: usize = 258;
/// Sliding-window size (maximum backward distance).
pub const WINDOW: usize = 32 * 1024;

/// `(base_length, extra_bits)` for each of the 29 length codes.
pub const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for each of the 30 distance codes.
pub const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Last `LENGTH_TABLE` index whose base is ≤ `len`, for every admissible
/// length — built at compile time so the per-token hot path is one byte
/// load instead of a binary search.
const fn build_length_sym() -> [u8; MAX_MATCH - MIN_MATCH + 1] {
    let mut t = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut i = 0;
    while i < t.len() {
        let len = i + MIN_MATCH;
        let mut idx = 0;
        let mut j = 0;
        while j < LENGTH_TABLE.len() {
            if LENGTH_TABLE[j].0 as usize <= len {
                idx = j;
            }
            j += 1;
        }
        t[i] = idx as u8;
        i += 1;
    }
    t
}

static LENGTH_SYM: [u8; MAX_MATCH - MIN_MATCH + 1] = build_length_sym();

/// Distance-symbol lookup, split in two tiers: distances ≤ 256 index a
/// direct table by `dist - 1`; larger distances index by `(dist - 1) / 128`,
/// which is exact because every `DIST_TABLE` base above 256 sits on a
/// 128-aligned boundary (`base - 1` is a multiple of 128).
const fn build_dist_sym(shift: u32) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let dist = (i << shift) + 1;
        let mut idx = 0;
        let mut j = 0;
        while j < DIST_TABLE.len() {
            if DIST_TABLE[j].0 as usize <= dist {
                idx = j;
            }
            j += 1;
        }
        t[i] = idx as u8;
        i += 1;
    }
    t
}

static DIST_SYM_LO: [u8; 256] = build_dist_sym(0);
static DIST_SYM_HI: [u8; 256] = build_dist_sym(7);

/// Maps a match length (3..=258) to `(symbol_offset, extra_bits, extra_value)`.
#[inline]
pub fn length_code(len: usize) -> (u32, u8, u32) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let idx = LENGTH_SYM[len - MIN_MATCH] as usize;
    let (base, extra) = LENGTH_TABLE[idx];
    (idx as u32, extra, (len - base as usize) as u32)
}

/// Maps a distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
#[inline]
pub fn dist_code(dist: usize) -> (u32, u8, u32) {
    debug_assert!((1..=WINDOW).contains(&dist));
    let idx = if dist <= 256 {
        DIST_SYM_LO[dist - 1] as usize
    } else {
        DIST_SYM_HI[(dist - 1) >> 7] as usize
    };
    let (base, extra) = DIST_TABLE[idx];
    (idx as u32, extra, (dist - base as usize) as u32)
}

/// Inverse of [`length_code`]: base length and extra-bit count for a symbol.
#[inline]
pub fn length_decode(sym: u32) -> (usize, u8) {
    let (base, extra) = LENGTH_TABLE[sym as usize];
    (base as usize, extra)
}

/// Inverse of [`dist_code`].
#[inline]
pub fn dist_decode(sym: u32) -> (usize, u8) {
    let (base, extra) = DIST_TABLE[sym as usize];
    (base as usize, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_length_roundtrips() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (sym, extra, val) = length_code(len);
            let (base, extra2) = length_decode(sym);
            assert_eq!(extra, extra2);
            assert_eq!(base + val as usize, len, "len {len}");
            assert!(val < (1u32 << extra) || extra == 0 && val == 0);
        }
    }

    #[test]
    fn every_distance_roundtrips() {
        for dist in 1..=WINDOW {
            let (sym, extra, val) = dist_code(dist);
            let (base, extra2) = dist_decode(sym);
            assert_eq!(extra, extra2);
            assert_eq!(base + val as usize, dist, "dist {dist}");
        }
    }

    #[test]
    fn boundary_codes() {
        assert_eq!(length_code(3), (0, 0, 0));
        assert_eq!(length_code(258), (28, 0, 0));
        assert_eq!(dist_code(1), (0, 0, 0));
        let (sym, extra, val) = dist_code(WINDOW);
        assert_eq!(sym, 29);
        assert_eq!(24577 + val as usize, WINDOW);
        assert_eq!(extra, 13);
    }

    #[test]
    fn alphabets_cover_symbols() {
        assert_eq!(LITLEN_ALPHABET, LEN_SYM_BASE as usize + LENGTH_TABLE.len());
        assert_eq!(DIST_ALPHABET, DIST_TABLE.len());
    }
}
