//! Differential tests pinning the rewritten zlite kernels against the
//! frozen pre-rewrite references in `cliz_lossless::reference`.
//!
//! The batched literal-run decode and the rewritten match copy are
//! throughput rewrites of a frozen container format: compressed bytes must
//! stay byte-identical and both decoders must accept both encoders'
//! output. Payload shapes cover what the codec actually feeds zlite
//! (entropy-coded residual bytes) plus the adversarial LZ edges: overlap
//! copies, long runs, incompressible noise, and ragged tails.

use cliz_lossless::reference::{ref_compress, ref_compress_with, ref_decompress, Effort};
use cliz_lossless::{compress, compress_lz, decompress};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// Run-heavy bytes with sparse punctuation — the shape Huffman-coded
/// residual payloads actually take.
fn runs(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = Lcg(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let r = rng.next();
        let run = 3 + (r >> 48) as usize % 32;
        let byte = ((r >> 32) & 0x7) as u8;
        for _ in 0..run.min(n - out.len()) {
            out.push(byte);
        }
        if out.len() < n {
            out.push((r >> 56) as u8);
        }
    }
    out
}

/// Incompressible noise: the stored/literal-heavy path.
fn noise(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| (rng.next() >> 32) as u8).collect()
}

/// Short repeating period `p` — forces matches with `dist < len`
/// (self-overlapping copies), the classic LZ decode edge.
fn periodic(p: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % p) as u8).collect()
}

/// Asserts the 4-way identity square for one payload.
fn assert_payload_identity(payload: &[u8]) {
    let new_bytes = compress(payload);
    let ref_bytes = ref_compress(payload);
    assert_eq!(
        new_bytes,
        ref_bytes,
        "compressed bytes diverge ({} bytes in)",
        payload.len()
    );
    assert_eq!(decompress(&new_bytes).as_deref(), Ok(payload));
    assert_eq!(ref_decompress(&new_bytes).as_deref(), Ok(payload));
    assert_eq!(decompress(&ref_bytes).as_deref(), Ok(payload));
}

#[test]
fn zlite_is_byte_identical_across_seeded_sweep() {
    for seed in 1..=6u64 {
        assert_payload_identity(&runs(seed, 50_000));
        assert_payload_identity(&noise(seed, 20_000));
    }
}

#[test]
fn zlite_handles_degenerate_payloads() {
    assert_payload_identity(&[]);
    assert_payload_identity(&[0]);
    assert_payload_identity(&[255]);
    assert_payload_identity(&vec![9u8; 100_000]); // one giant run
    for n in 0..48usize {
        assert_payload_identity(&runs(7, n)); // ragged tails
    }
}

#[test]
fn zlite_overlap_copies_match_reference() {
    for p in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 255] {
        assert_payload_identity(&periodic(p, 10_000));
    }
    // Period changes mid-stream: matches must re-anchor.
    let mut mixed = periodic(3, 5_000);
    mixed.extend(periodic(7, 5_000));
    mixed.extend(noise(11, 1_000));
    mixed.extend(periodic(3, 5_000)); // far back-reference to the opening
    assert_payload_identity(&mixed);
}

/// Mirror of the encoder's `hash3` (multiplicative hash of a 3-byte LE
/// load, folded to `HASH_BITS = 15`). Used to *construct* colliding
/// triples rather than hope a random stream finds them.
fn hash3(b0: u8, b1: u8, b2: u8) -> u32 {
    let v = u32::from(b0) | u32::from(b1) << 8 | u32::from(b2) << 16;
    v.wrapping_mul(0x9E37_79B1) >> 17
}

#[test]
fn zlite_hash_collision_floods_match_reference() {
    // Gather >64 distinct 3-byte triples that land in one hash bucket —
    // more than the bucket ring's SLOTS capacity — so the tokenizer's
    // chain walk is flooded with colliding-but-unequal candidates and the
    // ring wraps. Token choices under eviction must still match the
    // frozen reference exactly.
    let target = hash3(1, 2, 3);
    let mut triples: Vec<[u8; 3]> = Vec::new();
    'scan: for b0 in 0..=255u8 {
        for b1 in 0..=255u8 {
            for b2 in 0..=255u8 {
                if hash3(b0, b1, b2) == target {
                    triples.push([b0, b1, b2]);
                    if triples.len() >= 96 {
                        break 'scan;
                    }
                }
            }
        }
    }
    assert!(triples.len() >= 96, "bucket too sparse: {}", triples.len());

    // One pass of every colliding triple (all-miss chain walks), then a
    // shuffled second pass so far-back real matches hide behind dozens of
    // colliding impostors in the same bucket.
    let mut payload = Vec::new();
    for t in &triples {
        payload.extend_from_slice(t);
    }
    let mut rng = Lcg(0xC0111D);
    let mut order: Vec<usize> = (0..triples.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (rng.next() >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    for &i in &order {
        payload.extend_from_slice(&triples[i]);
    }
    // Repeat to push every bucket ring past wrap-around several times.
    let once = payload.clone();
    for _ in 0..8 {
        payload.extend_from_slice(&once);
    }
    assert_payload_identity(&payload);
}

#[test]
fn zlite_all_zero_payload_matches_reference() {
    for n in [1usize, 2, 3, 4, 257, 4_096, 100_000] {
        assert_payload_identity(&vec![0u8; n]);
    }
}

#[test]
fn zlite_rejects_truncation_like_reference() {
    let payload = runs(5, 20_000);
    let bytes = compress(&payload);
    for cut in [0, 1, 2, 5, bytes.len() / 2, bytes.len() - 1] {
        let new_r = decompress(&bytes[..cut]);
        let ref_r = ref_decompress(&bytes[..cut]);
        assert_eq!(new_r.is_err(), ref_r.is_err(), "cut {cut}");
        if let (Ok(a), Ok(b)) = (&new_r, &ref_r) {
            assert_eq!(a, b, "cut {cut}");
        }
    }
}

/// One byte repeated: every position hashes to one bucket, so its ring
/// wraps.
fn one_byte(n: usize) -> Vec<u8> {
    vec![0xA5; n]
}

/// Two bytes alternating: two buckets share every position.
fn two_byte(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| if i % 2 == 0 { 0x3C } else { 0xC3 })
        .collect()
}

#[test]
fn zlite_sized_index_sweep_matches_reference() {
    // Tiny inputs with no or few insertable positions, an
    // archive-template-sized payload, the 32 KiB window ± 1, 64 KiB, and
    // 2 MiB (`HASH_SIZE × SLOTS` in the tokenizer), where most rings fill.
    // `compress_lz` runs the match finder on every input, noise included,
    // so the sized rings stay pinned to the reference's chain walk even
    // where `compress` would skip them.
    let sizes = (0..=8usize).chain([3_000, 32_767, 32_768, 32_769, 65_536, 2 << 20]);
    for n in sizes {
        let kinds: [(&str, Vec<u8>); 4] = [
            ("random", noise(n as u64 + 1, n)),
            ("run-heavy", runs(n as u64 + 2, n)),
            ("one byte", one_byte(n)),
            ("two bytes", two_byte(n)),
        ];
        for (kind, payload) in &kinds {
            assert_payload_identity(payload);
            let new_bytes = compress_lz(payload);
            assert_eq!(new_bytes, ref_compress(payload), "{kind}, {n} bytes");
            assert_eq!(decompress(&new_bytes).as_deref(), Ok(&payload[..]));
        }
    }
}

/// The literal-only frame: the frozen encoder with the match finder off.
fn literal_only(payload: &[u8]) -> Vec<u8> {
    ref_compress_with(
        payload,
        Effort {
            max_chain: 0,
            good_enough: 0,
        },
    )
}

/// `compress`'s choice on one payload: today's LZ/stored frame
/// (`ref_compress`) or, only when strictly smaller, the literal-only
/// frame; so never larger than either, and decodable by both decoders.
/// Returns whether the literal-only frame was chosen.
fn assert_adaptive_choice(payload: &[u8]) -> bool {
    let got = compress(payload);
    let lz = ref_compress(payload);
    let literal = literal_only(payload);
    let chose_literal = got != lz;
    if chose_literal {
        assert_eq!(
            got,
            literal,
            "{} bytes: neither LZ/stored nor literal-only",
            payload.len()
        );
        assert!(literal.len() < lz.len(), "{} bytes", payload.len());
    } else {
        assert!(lz.len() <= literal.len(), "{} bytes", payload.len());
    }
    assert_eq!(decompress(&got).as_deref(), Ok(payload));
    assert_eq!(ref_decompress(&got).as_deref(), Ok(payload));
    chose_literal
}

/// Fixed payload of the golden ZLT1 fixture (`tests/golden_corpus.rs`).
fn zlt1_payload() -> Vec<u8> {
    let mut p = Vec::new();
    for i in 0..4096u32 {
        p.push((i % 251) as u8);
        p.push((i.wrapping_mul(2654435761) >> 24) as u8);
    }
    p.extend_from_slice(&[0u8; 512]);
    p
}

/// Uniform draws from the first `2^bits` byte values: `bits` of entropy
/// per byte and, for `bits` ≥ 5, almost no repeated 4-byte words. These
/// are the payloads where literal-only coding wins.
fn skewed(seed: u64, n: usize, bits: u32) -> Vec<u8> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| (rng.next() >> (64 - bits)) as u8).collect()
}

#[test]
fn adaptive_compress_keeps_lz_where_repeats_pay() {
    // Near-uniform bytes that LZ still packs: every one of these must run
    // the match finder, so the output is never larger than today's.
    let mut block = noise(31, 8 << 10);
    block = block.repeat(4);
    let mut mixed = periodic(3, 5_000);
    mixed.extend(periodic(7, 5_000));
    mixed.extend(noise(11, 1_000));
    mixed.extend(periodic(3, 5_000));
    let payloads = [
        periodic(255, 10_000),
        block,
        runs(3, 50_000),
        mixed,
        vec![0u8; 50_000],
        zlt1_payload(),
    ];
    for p in payloads {
        assert_adaptive_choice(&p);
    }
    // periodic(255) is near-uniform (7.99 bits/byte) yet packs ~6× with
    // LZ: an entropy gate would store it.
    let p = periodic(255, 10_000);
    assert!(compress(&p).len() * 5 < p.len());
}

#[test]
fn adaptive_compress_stores_noise_like_reference() {
    for seed in 1..=4u64 {
        for n in [100usize, 3_000, 20_000, 100_000] {
            let p = noise(seed, n);
            let got = compress(&p);
            assert_eq!(got, ref_compress(&p), "seed {seed}, {n} bytes");
            assert_eq!(got.len(), p.len() + 14, "noise must stay stored");
        }
    }
}

#[test]
fn adaptive_compress_literal_frames_are_the_reference_literal_encoding() {
    // Skewed repeat-free bytes pick the literal-only frame, which must be
    // the frozen encoder's match-free stream.
    let mut literal_wins = 0;
    let payloads = [
        skewed(5, 20_000, 6),
        skewed(6, 200_000, 6),
        skewed(7, 50_000, 7),
    ];
    for p in payloads {
        if assert_adaptive_choice(&p) {
            assert_eq!(compress(&p), literal_only(&p));
            literal_wins += 1;
        }
    }
    assert_eq!(literal_wins, 3, "literal-only chosen {literal_wins} times");
    // Every payload of the identity squares above, through the same check.
    for seed in 1..=3u64 {
        assert_adaptive_choice(&runs(seed, 20_000));
        assert_adaptive_choice(&noise(seed, 5_000));
        assert_adaptive_choice(&skewed(seed, 6_000, 5));
    }
    for n in 0..48usize {
        assert_adaptive_choice(&skewed(9, n, 6));
        assert_adaptive_choice(&runs(7, n));
    }
}

#[test]
fn coded_frames_with_short_literal_codes_match_reference() {
    // Literals with 1–3-bit codes between matches: a Huffman table entry
    // holds up to three literals, so the length code that ends a literal
    // run falls at every slot of one. Every frame is coded (smaller than
    // its payload), and both decoders must agree on it and on each of its
    // last 16 truncations.
    for bits in 1..=3u32 {
        for seed in 1..=3u64 {
            let mut payload = skewed(seed, 6_000, bits);
            for k in 0..40u64 {
                let at = (k as usize * 149) % 5_000;
                let piece = payload[at..at + 24].to_vec();
                payload.extend(piece);
                payload.extend(skewed(seed + k, 37, bits));
            }
            let frame = compress_lz(&payload);
            assert!(frame.len() < payload.len(), "bits {bits}: frame not coded");
            assert_eq!(decompress(&frame).as_deref(), Ok(&payload[..]));
            assert_eq!(ref_decompress(&frame).as_deref(), Ok(&payload[..]));
            for back in 1..=16 {
                let cut = &frame[..frame.len() - back];
                let (new_r, ref_r) = (decompress(cut), ref_decompress(cut));
                assert_eq!(new_r.is_err(), ref_r.is_err(), "bits {bits}, cut {back}");
                if let (Ok(a), Ok(b)) = (&new_r, &ref_r) {
                    assert_eq!(a, b, "bits {bits}, cut {back}");
                }
            }
        }
    }
}
