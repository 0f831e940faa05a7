//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for the chunk
//! store index. Chosen over a fancier hash because it is table-driven, has
//! no dependencies, and matches what `cksum`/zlib report — a chunk's stored
//! checksum can be cross-checked with standard tooling.
//!
//! [`crc32`] runs slice-by-8: eight compile-time tables let one step fold
//! eight bytes, where the byte-wise loop folds one. Both compute the same
//! zlib value, so every stored checksum is unchanged; the byte-wise loop
//! stays as [`ref_crc32`], the frozen oracle the tests and `stage_bench`
//! compare against.

/// Slice-by-8 tables, built at compile time. `TABLES[0]` is the classic
/// byte-wise table; `TABLES[k][n]` is the CRC of byte `n` followed by `k`
/// zero bytes, so the eight lookups of one step can be XORed together.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0usize;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    t
};

/// One byte-wise step: folds `b` into the running (pre-complement) CRC.
#[inline]
fn byte_step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC32 of `bytes` (initial value all-ones, final complement — the zlib
/// convention), eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = byte_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// Frozen byte-wise CRC32, the loop [`crc32`] replaced: the differential
/// oracle for the tests and the `store_crc32` stage of `stage_bench`. Do not
/// optimize it.
#[doc(hidden)]
pub fn ref_crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = byte_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard zlib test vectors, through both loops.
        for f in [crc32, ref_crc32] {
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn sensitive_to_every_byte() {
        let base = crc32(b"chunk payload bytes");
        let mut v = b"chunk payload bytes".to_vec();
        for i in 0..v.len() {
            v[i] ^= 0x01;
            assert_ne!(crc32(&v), base, "flip at {i} undetected");
            v[i] ^= 0x01;
        }
    }

    /// Deterministic bytes from a 64-bit LCG.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
        // Lengths 0..=64 at each of 8 start offsets: every tail length and
        // every alignment of the 8-byte steps.
        let data = noise(0xC0FF_EE00, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), ref_crc32(s), "start {start}, len {len}");
            }
        }
        let big = noise(0x5EED, 1 << 20);
        assert_eq!(crc32(&big), ref_crc32(&big), "1 MiB input");
    }
}
