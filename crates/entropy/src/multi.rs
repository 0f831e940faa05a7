//! Multi-Huffman group coding (Sec. VI-E).
//!
//! The quantization-bin classifier assigns every symbol a *group* (the paper
//! uses two: high-peak positions vs dispersed positions). Each group gets its
//! own Huffman tree; symbols are encoded in stream order with their group's
//! tree. The group assignment itself is **not** stored here — the classifier
//! persists its per-horizontal-position map separately (it is shared across
//! heights/timesteps, Sec. VII-C3), and the decoder replays the same
//! assignment, so encode and decode stay in lockstep.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{HuffmanDecoder, HuffmanEncoder};
use cliz_grid::cast;

/// Encodes `symbols` where `groups[i]` selects the Huffman tree for
/// `symbols[i]`. `n_groups` trees are built (empty groups cost ~8 bytes of
/// table header each).
///
/// # Panics
/// Panics when `symbols` and `groups` lengths differ or a group id is out of
/// range.
pub fn multi_encode(symbols: &[u32], groups: &[u8], n_groups: usize) -> Vec<u8> {
    assert_eq!(
        symbols.len(),
        groups.len(),
        "symbols/groups length mismatch"
    );
    assert!(n_groups >= 1);

    // Per-group histograms.
    let alphabet = symbols.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut freqs = vec![vec![0u64; alphabet]; n_groups];
    for (&s, &g) in symbols.iter().zip(groups) {
        assert!((g as usize) < n_groups, "group id {g} out of range");
        freqs[g as usize][s as usize] += 1;
    }

    let encoders: Vec<HuffmanEncoder> = freqs
        .iter()
        .map(|f| HuffmanEncoder::from_frequencies(f))
        .collect();

    let mut w = BitWriter::new();
    w.write_u32(cast::u32_len(symbols.len()));
    w.write_u32(cast::u32_len(n_groups));
    for enc in &encoders {
        enc.write_table(&mut w);
    }
    for (&s, &g) in symbols.iter().zip(groups) {
        encoders[g as usize].encode_symbol(s, &mut w);
    }
    w.finish()
}

/// Decodes a [`multi_encode`] stream. The caller must supply the same `groups`
/// sequence used at encode time (regenerated from the classification map).
pub fn multi_decode(bytes: &[u8], groups: &[u8]) -> Option<Vec<u32>> {
    let mut r = BitReader::new(bytes);
    let n = r.read_u32()? as usize;
    if n != groups.len() {
        return None;
    }
    let n_groups = r.read_u32()? as usize;
    // Group ids are u8, so an honest stream never has more than 256 tables.
    if n_groups > 256 {
        return None;
    }
    let mut decoders = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        decoders.push(HuffmanDecoder::read_table(&mut r)?);
    }
    let mut out = Vec::with_capacity(n);
    for &g in groups {
        let dec = decoders.get(g as usize)?;
        out.push(dec.decode_symbol(&mut r)?);
    }
    Some(out)
}

/// Estimated payload bits if `symbols` were encoded as `n_groups` separate
/// Huffman streams (excludes table overhead). The auto-tuner uses the delta
/// against the single-tree estimate to decide whether classification pays.
pub fn multi_payload_bits(symbols: &[u32], groups: &[u8], n_groups: usize) -> u64 {
    assert_eq!(symbols.len(), groups.len());
    let alphabet = symbols.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut freqs = vec![vec![0u64; alphabet]; n_groups];
    for (&s, &g) in symbols.iter().zip(groups) {
        freqs[g as usize][s as usize] += 1;
    }
    freqs
        .iter()
        .map(|f| HuffmanEncoder::from_frequencies(f).encoded_bits(f))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::encode_stream;

    #[test]
    fn roundtrip_two_groups() {
        let symbols: Vec<u32> = (0..1000u32).map(|i| i % 7).collect();
        let groups: Vec<u8> = (0..1000).map(|i| (i % 3 == 0) as u8).collect();
        let bytes = multi_encode(&symbols, &groups, 2);
        assert_eq!(multi_decode(&bytes, &groups), Some(symbols));
    }

    #[test]
    fn roundtrip_single_group_degenerates_to_huffman() {
        let symbols: Vec<u32> = (0..500u32).map(|i| (i * 13) % 11).collect();
        let groups = vec![0u8; 500];
        let bytes = multi_encode(&symbols, &groups, 1);
        assert_eq!(multi_decode(&bytes, &groups), Some(symbols));
    }

    #[test]
    fn roundtrip_empty() {
        let bytes = multi_encode(&[], &[], 2);
        assert_eq!(multi_decode(&bytes, &[]), Some(vec![]));
    }

    #[test]
    fn empty_group_tolerated() {
        let symbols = vec![3u32, 3, 4];
        let groups = vec![1u8, 1, 1]; // group 0 never used
        let bytes = multi_encode(&symbols, &groups, 2);
        assert_eq!(multi_decode(&bytes, &groups), Some(symbols));
    }

    #[test]
    fn wrong_group_sequence_detected_or_differs() {
        // Distinct per-group histograms so the two trees differ: group 0 is
        // heavily skewed toward symbol 0, group 1 toward symbol 4.
        let symbols: Vec<u32> = (0..100u32)
            .map(|i| {
                if i % 2 == 0 {
                    if i % 10 == 0 {
                        i % 5
                    } else {
                        0
                    }
                } else if i % 10 == 1 {
                    i % 5
                } else {
                    4
                }
            })
            .collect();
        let groups: Vec<u8> = (0..100).map(|i| (i % 2) as u8).collect();
        let bytes = multi_encode(&symbols, &groups, 2);
        let wrong = vec![0u8; 100];
        // Either decode fails or yields different symbols — it must not
        // silently return the original.
        match multi_decode(&bytes, &wrong) {
            None => {}
            Some(out) => assert_ne!(out, symbols),
        }
    }

    #[test]
    fn mismatched_length_rejected() {
        let bytes = multi_encode(&[1, 2, 3], &[0, 0, 0], 1);
        assert_eq!(multi_decode(&bytes, &[0, 0]), None);
    }

    /// The core claim of Sec. VI-E: when two populations with shifted
    /// histograms are mixed, two trees beat one.
    #[test]
    fn classification_improves_on_bimodal_mix() {
        let mut symbols = Vec::new();
        let mut groups = Vec::new();
        // Group 0 peaks at symbol 10, group 1 peaks at symbol 20.
        for i in 0..4000u32 {
            let (center, g) = if i % 2 == 0 {
                (10u32, 0u8)
            } else {
                (20u32, 1u8)
            };
            let jitter = [0u32, 0, 0, 0, 1, 2][(i % 6) as usize];
            symbols.push(center + jitter);
            groups.push(g);
        }
        let single = encode_stream(&symbols).len();
        let multi = multi_encode(&symbols, &groups, 2).len();
        assert!(
            multi < single,
            "multi-Huffman ({multi} B) should beat single tree ({single} B)"
        );
    }

    #[test]
    fn payload_estimate_matches_actual() {
        let symbols: Vec<u32> = (0..3000u32).map(|i| (i / 100) % 9).collect();
        let groups: Vec<u8> = (0..3000).map(|i| ((i / 500) % 2) as u8).collect();
        let est = multi_payload_bits(&symbols, &groups, 2);
        // Actual stream = header + 2 tables + payload; payload dominates and
        // the estimate must match it exactly, so actual_bits >= est and the
        // difference is the fixed overhead (< 2000 bits here).
        let actual_bits = (multi_encode(&symbols, &groups, 2).len() * 8) as u64;
        assert!(actual_bits >= est);
        assert!(actual_bits - est < 2000, "overhead {}", actual_bits - est);
    }
}
