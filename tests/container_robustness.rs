//! Container-format robustness: corrupt, truncated, or cross-format streams
//! must fail cleanly (errors, never panics or wrong silent output).

use cliz::grid::{Grid, MaskMap, Shape};
use cliz::prelude::*;

fn sample_grid() -> Grid<f32> {
    Grid::from_fn(Shape::new(&[24, 32]), |c| {
        ((c[0] as f32 * 0.23).sin() + (c[1] as f32 * 0.31).cos()) * 7.0
    })
}

/// Decodes chunk `i` of a chunked container the way the store reader
/// does: header and offset table first, then that chunk's blob alone.
fn decode_chunk(bytes: &[u8], i: usize) -> Result<Grid<f32>, cliz::ClizError> {
    let header = cliz::read_header(bytes)?;
    let blob = header
        .offsets
        .get(i..i + 2)
        .and_then(|w| bytes.get(w[0]..w[1]))
        .ok_or(cliz::ClizError::Truncated)?;
    let index = header.index()?;
    cliz::decompress_chunk_blob_arena(blob, &index, None, i, &mut cliz::ScratchArena::new())
}

/// The region covering chunk `i` of a store: its rows, every extent of
/// the rest.
fn chunk_region(reader: &cliz::store::ChunkStoreReader, i: usize) -> Vec<std::ops::Range<usize>> {
    let mut region: Vec<_> = reader.dims().iter().map(|&d| 0..d).collect();
    region[0] = i * reader.chunk_len()..((i + 1) * reader.chunk_len()).min(reader.dims()[0]);
    region
}

#[test]
fn truncation_sweep_never_panics() {
    let g = sample_grid();
    let bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    // Every short prefix in the header region, then a sweep over the body
    // (step 3 keeps the test fast without losing coverage classes).
    for cut in (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(3)) {
        assert!(
            cliz::decompress(&bytes[..cut], None).is_err(),
            "prefix of {cut} bytes decoded successfully"
        );
    }
}

#[test]
fn single_byte_corruption_detected_or_bound_preserved() {
    // Flipping one byte may still decode (e.g. inside literal values), but
    // must never panic. When it decodes, dims must match.
    let g = sample_grid();
    let bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let mut corrupted = 0usize;
    for pos in (0..bytes.len()).step_by(7) {
        let mut b = bytes.clone();
        b[pos] ^= 0x5A;
        match cliz::decompress(&b, None) {
            Err(_) => corrupted += 1,
            Ok(out) => assert_eq!(out.shape().dims(), &[24, 32]),
        }
    }
    assert!(corrupted > 0, "no corruption ever detected");
}

#[test]
fn cross_format_decoding_rejected() {
    let g = sample_grid();
    let cliz_bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let sz3_bytes = SzInterp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
    let zfp_bytes = Zfp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();

    assert!(cliz::decompress(&sz3_bytes, None).is_err());
    assert!(cliz::decompress(&zfp_bytes, None).is_err());
    assert!(SzInterp.decompress(&cliz_bytes, None).is_err());
    assert!(Zfp.decompress(&cliz_bytes, None).is_err());
    assert!(Sperr.decompress(&cliz_bytes, None).is_err());
    assert!(Qoz.decompress(&sz3_bytes, None).is_err());
}

#[test]
fn empty_and_tiny_inputs_rejected() {
    assert!(cliz::decompress(&[], None).is_err());
    assert!(cliz::decompress(&[0x43], None).is_err());
    assert!(cliz::decompress(b"CLIZ", None).is_err());
}

#[test]
fn mask_shape_mismatch_rejected() {
    let g = sample_grid();
    let mut flags = vec![true; g.len()];
    flags[0] = false;
    let mask = cliz::grid::MaskMap::from_flags(g.shape().clone(), flags);
    let bytes = cliz::compress(
        &g,
        Some(&mask),
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    // Right mask works.
    assert!(cliz::decompress(&bytes, Some(&mask)).is_ok());
    // Missing or wrong-shape mask is refused.
    assert!(cliz::decompress(&bytes, None).is_err());
    let wrong = cliz::grid::MaskMap::all_valid(Shape::new(&[32, 24]));
    assert!(cliz::decompress(&bytes, Some(&wrong)).is_err());
}

#[test]
fn future_version_rejected() {
    let g = sample_grid();
    let mut bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    bytes[4] = 99; // version byte
    match cliz::decompress(&bytes, None) {
        Err(cliz::ClizError::UnsupportedVersion(99)) => {}
        other => panic!("expected version error, got {other:?}"),
    }
}

#[test]
fn max_rank_grids_roundtrip() {
    // 5-D and 6-D are legal (MAX_DIMS = 6): exercise the full pipeline there.
    for dims in [vec![3usize, 4, 2, 5, 3], vec![2usize, 3, 2, 2, 3, 4]] {
        let n: usize = dims.iter().product();
        let g = Grid::from_vec(
            Shape::new(&dims),
            (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
        );
        let cfg = PipelineConfig::default_for(dims.len());
        let bytes = cliz::compress(&g, None, ErrorBound::Abs(1e-3), &cfg).unwrap();
        let out = cliz::decompress(&bytes, None).unwrap();
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() <= 1e-3 + 1e-9, "rank {}", dims.len());
        }
    }
}

#[test]
fn nan_values_survive_without_breaking_neighbours() {
    // Unmasked NaNs must escape to literals, reconstruct bit-exact, and the
    // finite points must still honour the bound (NaN poisons its neighbours'
    // predictions into escapes, never into bound violations).
    let mut g = sample_grid();
    for &i in &[5usize, 100, 371, 640] {
        g.as_mut_slice()[i] = f32::NAN;
    }
    let bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let out = cliz::decompress(&bytes, None).unwrap();
    for (i, (&a, &b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
        if a.is_nan() {
            assert!(b.is_nan(), "NaN lost at {i}");
        } else {
            assert!((a as f64 - b as f64).abs() <= 1e-3 * (1.0 + 1e-9), "at {i}");
        }
    }
}

#[test]
fn non_finite_values_survive_periodic_extraction() {
    // Periodic twin of the test above, plain and chunked, masked and
    // unmasked: `+inf`, `-inf` and NaN at valid points must not leak into
    // the per-phase template, where they would turn every finite point of
    // their phase column into NaN on decode. Every finite valid point stays
    // within the bound, ±inf decode exactly and NaN decodes as NaN.
    let shape = Shape::new(&[6, 10, 40]);
    let mut g = Grid::from_fn(shape.clone(), |c| {
        let phase = std::f64::consts::TAU * (c[2] % 12) as f64 / 12.0;
        (0.4 * c[0] as f64 + 0.1 * c[1] as f64 + 0.5 * phase.sin() + 0.002 * c[2] as f64) as f32
    });
    let at = |c: [usize; 3]| (c[0] * 10 + c[1]) * 40 + c[2];
    let specials = [
        (at([0, 0, 5]), f32::INFINITY),
        (at([2, 7, 18]), f32::NEG_INFINITY),
        (at([5, 3, 30]), f32::NAN),
    ];
    for &(i, v) in &specials {
        g.as_mut_slice()[i] = v;
    }
    // A land block over (1..3, 4..8) at every time step, clear of the
    // special points, holding a CESM-style fill.
    let valid: Vec<bool> = (0..shape.len())
        .map(|i| {
            let (lat, lon) = (i / 400, i / 40 % 10);
            !((1..3).contains(&lat) && (4..8).contains(&lon))
        })
        .collect();
    let mask = MaskMap::from_flags(shape.clone(), valid);
    for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
        if !mask.is_valid(i) {
            *v = 1.0e35;
        }
    }
    let mut cfg = PipelineConfig::default_for(3);
    cfg.periodicity = Periodicity::Extract {
        time_axis: 2,
        period: 12,
    };
    let eb = 1e-3;
    for mask in [None, Some(&mask)] {
        for chunked in [false, true] {
            let out = if chunked {
                let bytes =
                    cliz::compress_chunked_with_threads(&g, mask, ErrorBound::Abs(eb), &cfg, 2, 0)
                        .unwrap();
                cliz::decompress_chunked(&bytes, mask).unwrap()
            } else {
                let bytes = cliz::compress(&g, mask, ErrorBound::Abs(eb), &cfg).unwrap();
                cliz::decompress(&bytes, mask).unwrap()
            };
            let case = format!("masked {}, chunked {chunked}", mask.is_some());
            for (i, (&a, &b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
                if mask.is_some_and(|m| !m.is_valid(i)) {
                    continue;
                }
                if a.is_nan() {
                    assert!(b.is_nan(), "NaN lost at {i}, {case}");
                } else if a.is_infinite() {
                    assert_eq!(a, b, "infinity changed at {i}, {case}");
                } else {
                    assert!(
                        (a as f64 - b as f64).abs() <= eb * (1.0 + 1e-9),
                        "at {i}: {a} decoded as {b}, {case}"
                    );
                }
            }
        }
    }
}

#[test]
fn compressed_stream_is_deterministic() {
    let g = sample_grid();
    let cfg = PipelineConfig::default_for(2);
    let a = cliz::compress(&g, None, ErrorBound::Abs(1e-3), &cfg).unwrap();
    let b = cliz::compress(&g, None, ErrorBound::Abs(1e-3), &cfg).unwrap();
    assert_eq!(a, b, "compression must be deterministic");
}

#[test]
fn chunked_container_corruption_never_panics() {
    let g = sample_grid();
    let bytes = cliz::compress_chunked_with_threads(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
        6,
        0,
    )
    .unwrap();

    // Truncation sweep: dense over the header, strided over the body.
    for cut in (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(3)) {
        assert!(
            cliz::decompress_chunked(&bytes[..cut], None).is_err(),
            "chunked prefix of {cut} bytes decoded successfully"
        );
    }

    // Bit-flip sweep: decoding may survive (flips inside literals) but must
    // never panic, and surviving output must keep the advertised shape.
    // One chunk's decode (the store reader's path) goes through the offset
    // table on its own, so exercise both.
    let mut corrupted = 0usize;
    for pos in (0..bytes.len()).step_by(5) {
        let mut b = bytes.clone();
        b[pos] ^= 0x81;
        match cliz::decompress_chunked(&b, None) {
            Err(_) => corrupted += 1,
            Ok(out) => assert_eq!(out.shape().dims(), &[24, 32]),
        }
        let _ = decode_chunk(&b, 1);
    }
    assert!(corrupted > 0, "no chunked corruption ever detected");
}

/// Deterministic xorshift64* PRNG for the mutation sweeps: fixed seeds keep
/// failures reproducible (print the seed on assert) without any rand dep.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Applies `count` random byte mutations (XOR, overwrite, or zero) in place.
fn mutate(bytes: &mut [u8], rng: &mut XorShift, count: usize) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..count {
        let pos = (rng.next() as usize) % bytes.len();
        match rng.next() % 3 {
            0 => bytes[pos] ^= (rng.next() >> 32) as u8 | 1,
            1 => bytes[pos] = (rng.next() >> 24) as u8,
            _ => bytes[pos] = 0,
        }
    }
}

#[test]
fn seeded_multibyte_mutation_sweep_on_plain_container() {
    // Multi-byte mutations hit interacting-field corruption (length vs
    // payload, table vs stream) that the single-byte sweep cannot reach.
    let g = sample_grid();
    let bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    for seed in 1..=200u64 {
        let mut rng = XorShift(seed);
        let mut b = bytes.clone();
        let count = 1 + (rng.next() as usize) % 8;
        mutate(&mut b, &mut rng, count);
        // Must return (Ok with the right shape, or Err) — never panic.
        if let Ok(out) = cliz::decompress(&b, None) {
            assert_eq!(out.shape().dims(), &[24, 32], "seed {seed}");
        }
    }
}

#[test]
fn seeded_multibyte_mutation_sweep_on_chunked_container() {
    let g = sample_grid();
    let bytes = cliz::compress_chunked_with_threads(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
        6,
        0,
    )
    .unwrap();
    for seed in 1..=150u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9));
        let mut b = bytes.clone();
        let count = 1 + (rng.next() as usize) % 8;
        mutate(&mut b, &mut rng, count);
        if let Ok(out) = cliz::decompress_chunked(&b, None) {
            assert_eq!(out.shape().dims(), &[24, 32], "seed {seed}");
        }
        // One chunk's decode takes the offset-table path: sweep it too.
        for chunk in 0..4 {
            let _ = decode_chunk(&b, chunk);
        }
    }
}

/// Compressed streams for every baseline codec, for the shared-header sweeps.
fn baseline_streams(g: &Grid<f32>) -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "sz3",
            SzInterp.compress(g, None, ErrorBound::Abs(1e-3)).unwrap(),
        ),
        (
            "sz2",
            Sz2Lorenzo.compress(g, None, ErrorBound::Abs(1e-3)).unwrap(),
        ),
        ("qoz", Qoz.compress(g, None, ErrorBound::Abs(1e-3)).unwrap()),
        ("zfp", Zfp.compress(g, None, ErrorBound::Abs(1e-3)).unwrap()),
        (
            "sperr",
            Sperr.compress(g, None, ErrorBound::Abs(1e-3)).unwrap(),
        ),
    ]
}

fn baseline_decompress(name: &str, bytes: &[u8]) -> Result<Grid<f32>, cliz::BaselineError> {
    match name {
        "sz3" => SzInterp.decompress(bytes, None),
        "sz2" => Sz2Lorenzo.decompress(bytes, None),
        "qoz" => Qoz.decompress(bytes, None),
        "zfp" => Zfp.decompress(bytes, None),
        _ => Sperr.decompress(bytes, None),
    }
}

/// Bytes of the shared `magic, rank, dims` prefix every baseline container
/// starts with ([`cliz_baselines::header::read_header`]): u32 + u8 + 2×u64
/// for the rank-2 sample grid.
const BASELINE_HEADER_LEN: usize = 4 + 1 + 2 * 8;

#[test]
fn seeded_mutation_sweep_on_baseline_codecs() {
    // The baseline decoders share the hardened header reader; hold them to
    // the same no-panic bar as the CLIZ containers.
    let g = sample_grid();
    for seed in 1..=60u64 {
        for (name, bytes) in baseline_streams(&g) {
            let mut rng = XorShift(seed.wrapping_mul(0x0123_4567_89AB_CDEF) | 1);
            let mut b = bytes.clone();
            let count = 1 + (rng.next() as usize) % 6;
            mutate(&mut b, &mut rng, count);
            let _ = baseline_decompress(name, &b);
        }
    }
}

#[test]
fn baseline_header_bitflip_sweep_detected_or_survived() {
    // Dense single-byte sweep confined to the shared header prefix: every
    // position, four flip patterns, all five codecs. A flipped magic, rank,
    // or dim must come back as a typed error — and whatever still decodes
    // must never panic on the way.
    let g = sample_grid();
    let mut rejected = 0usize;
    for (name, bytes) in baseline_streams(&g) {
        for pos in 0..BASELINE_HEADER_LEN.min(bytes.len()) {
            for flip in [0x01u8, 0x5A, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[pos] ^= flip;
                if baseline_decompress(name, &b).is_err() {
                    rejected += 1;
                }
            }
        }
    }
    assert!(rejected > 0, "no baseline header corruption ever detected");
}

#[test]
fn baseline_header_truncation_rejected() {
    // No prefix shorter than the header can parse: magic, rank, and every
    // dim read must fail with Truncated, not panic or fabricate a grid.
    let g = sample_grid();
    for (name, bytes) in baseline_streams(&g) {
        for cut in 0..BASELINE_HEADER_LEN.min(bytes.len()) {
            assert!(
                baseline_decompress(name, &bytes[..cut]).is_err(),
                "{name}: header prefix of {cut} bytes decoded successfully"
            );
        }
    }
}

#[test]
fn seeded_multibyte_mutation_sweep_on_baseline_headers() {
    // Multi-byte mutations confined to the header region reach the
    // interacting-field cases (rank vs dim count, dims vs payload length)
    // that the single-byte sweep cannot.
    let g = sample_grid();
    for (name, bytes) in baseline_streams(&g) {
        for seed in 1..=80u64 {
            let mut rng = XorShift(seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
            let mut b = bytes.clone();
            let header_len = BASELINE_HEADER_LEN.min(b.len());
            let count = 1 + (rng.next() as usize) % 4;
            mutate(&mut b[..header_len], &mut rng, count);
            let _ = baseline_decompress(name, &b);
        }
    }
}

/// A small CZS chunk store over the sample grid (4 chunks of 6 rows).
fn sample_store() -> Vec<u8> {
    let ds = cliz::store::Dataset::new("T", sample_grid(), None);
    cliz::store::pack_store(
        &ds,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
        6,
        1,
    )
    .unwrap()
}

/// The sample grid's land mask: a block of invalid rows and columns plus
/// scattered invalid points.
fn sample_mask() -> MaskMap {
    let flags = (0..24 * 32)
        .map(|i| {
            let land = (8..15).contains(&(i / 32)) && (5..19).contains(&(i % 32));
            !land && i % 37 != 5
        })
        .collect();
    MaskMap::from_flags(Shape::new(&[24, 32]), flags)
}

/// [`sample_store`] over the sample grid masked by `mask`.
fn masked_store(mask: MaskMap) -> Vec<u8> {
    let ds = cliz::store::Dataset::new("T", sample_grid(), Some(mask));
    cliz::store::pack_store(
        &ds,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
        6,
        1,
    )
    .unwrap()
}

/// The unmasked and the masked sample store, each with the length of its
/// front matter (metadata, index and, when masked, the mask frame) — the
/// part the sweeps cover densely.
fn sample_stores() -> [(&'static str, Vec<u8>, usize); 2] {
    let front = |b: &[u8]| cliz::store::format::parse_store(b).unwrap().payload.start;
    let (plain, masked) = (sample_store(), masked_store(sample_mask()));
    let (p, m) = (front(&plain), front(&masked));
    [("plain", plain, p), ("masked", masked, m)]
}

#[test]
fn store_truncation_sweep_never_panics() {
    // The store format ends with an exact-length payload, so *every* prefix
    // must be rejected at open — densely over the metadata/index region
    // and the mask frame, strided over the payload.
    for (name, bytes, front) in sample_stores() {
        let dense = 160.max(front + 40).min(bytes.len());
        for cut in (0..dense).chain((dense..bytes.len()).step_by(3)) {
            assert!(
                cliz::store::ChunkStoreReader::from_bytes(bytes[..cut].to_vec()).is_err(),
                "{name} store prefix of {cut} bytes opened successfully"
            );
        }
    }
}

#[test]
fn store_index_bitflip_sweep_detected_or_survived() {
    // Dense single-byte sweep over the metadata + index region (corrupt
    // offsets, lens, checksums, geometry) and the mask frame. Every flip
    // must surface as a StoreError — at open via the index invariants, the
    // mask frame's checks and the CLZC offset cross-check, or at read via
    // the per-chunk CRC — never as a panic or as silently wrong-shaped
    // output.
    for (name, bytes, front) in sample_stores() {
        let mut rejected = 0usize;
        for pos in 0..200.max(front + 40).min(bytes.len()) {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[pos] ^= flip;
                match cliz::store::ChunkStoreReader::from_bytes(b) {
                    Err(_) => rejected += 1,
                    Ok(reader) => match reader.read_all() {
                        Err(_) => rejected += 1,
                        Ok(out) => assert_eq!(out.shape().dims(), &[24, 32], "{name} pos {pos}"),
                    },
                }
            }
        }
        assert!(rejected > 0, "no {name} store corruption ever detected");
    }
}

#[test]
fn store_checksum_catches_payload_corruption_before_codec() {
    // A flip inside a chunk body leaves the index intact, so the store
    // opens — but the CRC must refuse the chunk before the codec sees it.
    let bytes = sample_store();
    let mut b = bytes.clone();
    let pos = bytes.len() - 40; // deep inside the last chunk's payload
    b[pos] ^= 0x10;
    let reader = cliz::store::ChunkStoreReader::from_bytes(b).unwrap();
    assert!(matches!(
        reader.read_all(),
        Err(cliz::store::StoreError::Checksum { .. })
    ));
    // Chunks before the corrupted one still decode.
    assert!(reader.read_region(&[0..6, 0..32]).is_ok());
}

#[test]
fn seeded_multibyte_mutation_sweep_on_store() {
    // Multi-byte mutations across the whole file hit interacting-field
    // corruption (index vs offset table, geometry vs entry count, CRC vs
    // payload, mask frame vs geometry). Open and every read path must
    // return, never panic or over-allocate.
    for (name, bytes, _) in sample_stores() {
        for seed in 1..=150u64 {
            let mut rng = XorShift(seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1);
            let mut b = bytes.clone();
            let count = 1 + (rng.next() as usize) % 8;
            mutate(&mut b, &mut rng, count);
            if let Ok(reader) = cliz::store::ChunkStoreReader::from_bytes(b) {
                if let Ok(out) = reader.read_all() {
                    assert_eq!(out.shape().dims(), &[24, 32], "{name} seed {seed}");
                }
                // A window and one whole chunk take different guards: sweep both.
                let _ = reader.read_region(&[7..13, 4..20]);
                let _ = reader.read_region(&chunk_region(&reader, 3));
            }
        }
    }
}

#[test]
fn seeded_multibyte_mutation_sweep_on_store_index_region() {
    // Mutations confined to the metadata/index region (and the mask frame,
    // when there is one) concentrate pressure on the length-provenance
    // guards (counts, extents, offsets, lens, the frame's two lengths).
    for (name, bytes, front) in sample_stores() {
        for seed in 1..=120u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut b = bytes.clone();
            let head = 200.max(front).min(b.len());
            let count = 1 + (rng.next() as usize) % 6;
            mutate(&mut b[..head], &mut rng, count);
            if let Ok(reader) = cliz::store::ChunkStoreReader::from_bytes(b) {
                if let Ok(out) = reader.read_all() {
                    assert_eq!(out.shape().dims(), &[24, 32], "{name} seed {seed}");
                }
            }
        }
    }
}

/// The version-1 layout of a masked store: the raw bitmap in place of the
/// length-prefixed mask frame, and version byte 1.
fn as_version_1(v2: &[u8], mask: &MaskMap) -> Vec<u8> {
    let (_, at, _) = czs_index(v2);
    let frame_len = u64::from_le_bytes(v2[at..at + 8].try_into().unwrap()) as usize;
    let mut v1 = v2[..at].to_vec();
    v1[4] = 1;
    v1.extend_from_slice(&mask.pack_bits());
    v1.extend_from_slice(&v2[at + 8 + frame_len..]);
    v1
}

#[test]
fn crafted_mask_frames_are_typed_errors() {
    let mask = sample_mask();
    let bytes = masked_store(mask.clone());
    let (_, at, _) = czs_index(&bytes);
    let open = |b: Vec<u8>| cliz::store::ChunkStoreReader::from_bytes(b).map(|_| ());
    let corrupt = |b: Vec<u8>| match open(b) {
        Err(cliz::store::StoreError::Corrupt(what)) => what,
        other => panic!("expected Corrupt, got {other:?}"),
    };

    // `mask_len` past the end of the object.
    for claim in [bytes.len() as u64, u64::MAX] {
        let mut b = bytes.clone();
        b[at..at + 8].copy_from_slice(&claim.to_le_bytes());
        assert_eq!(corrupt(b), "mask frame exceeds file size", "{claim}");
    }

    // A frame that declares another length than the geometry's bitmap is
    // refused on its header; 2^40 would otherwise steer the decode.
    let packed = mask.len().div_ceil(8) as u64;
    let raw_len_at = at + 8 + 5; // past the frame's magic and version
    for claim in [packed - 1, packed + 1, 1 << 40] {
        let mut b = bytes.clone();
        b[raw_len_at..raw_len_at + 8].copy_from_slice(&claim.to_le_bytes());
        assert_eq!(
            corrupt(b),
            "mask frame length disagrees with geometry",
            "frame claims {claim}"
        );
    }

    // Version 2 bytes read as version 1: the length prefix and the frame
    // are not a bitmap, and the payload no longer lines up.
    let mut b = bytes.clone();
    b[4] = 1;
    corrupt(b);

    // The version-1 layout of the same store still opens, to the same mask
    // and values; read as version 2, its bitmap is no length-prefixed frame.
    let v1_bytes = as_version_1(&bytes, &mask);
    let mut b = v1_bytes.clone();
    b[4] = 2;
    corrupt(b);
    let v1 = cliz::store::ChunkStoreReader::from_bytes(v1_bytes).unwrap();
    let v2 = cliz::store::ChunkStoreReader::from_bytes(bytes).unwrap();
    assert_eq!(v1.mask(), Some(&mask));
    assert_eq!(v1.read_all().unwrap(), v2.read_all().unwrap());
}

#[test]
fn incompressible_mask_costs_at_most_a_frame_header() {
    // A random mask leaves zlite nothing to find: the stored frame is the
    // bitmap plus its 14-byte header, and the length prefix adds 8.
    let mut rng = XorShift(0x5EED_1A4D);
    let flags = (0..24 * 32).map(|_| rng.next() & 1 == 1).collect();
    let mask = MaskMap::from_flags(Shape::new(&[24, 32]), flags);
    let v2 = masked_store(mask.clone());
    let v1 = as_version_1(&v2, &mask);
    let (v1_len, v2_len) = (v1.len(), v2.len());
    assert!(v2_len <= v1_len + 22, "{v2_len} > {v1_len} + 22");
    let reader = cliz::store::ChunkStoreReader::from_bytes(v2).unwrap();
    assert_eq!(reader.mask(), Some(&mask));
}

#[test]
fn decompression_is_idempotent_across_calls() {
    let g = sample_grid();
    let bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let a = cliz::decompress(&bytes, None).unwrap();
    let b = cliz::decompress(&bytes, None).unwrap();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Version-byte discipline: every container format places `version: u8`
// directly after its u32 magic (offset 4). A zeroed or future version must
// come back as the owning crate's typed UnsupportedVersion error — never a
// panic, never a misparse into a grid. (CZF1, the CLI's .cz wrapper, has the
// same sweep in `crates/cli/src/czfile.rs` against its string-typed error.)
// ---------------------------------------------------------------------------

/// Copy of `bytes` with the version byte (offset 4) replaced by `v`.
fn with_version(bytes: &[u8], v: u8) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[4] = v;
    b
}

#[test]
fn version_mutation_rejected_on_cliz_containers() {
    let g = sample_grid();
    let cfg = PipelineConfig::default_for(2);
    let plain = cliz::compress(&g, None, ErrorBound::Abs(1e-3), &cfg).unwrap();
    let chunked =
        cliz::compress_chunked_with_threads(&g, None, ErrorBound::Abs(1e-3), &cfg, 6, 0).unwrap();
    for v in [0u8, 0xEE] {
        assert!(matches!(
            cliz::decompress(&with_version(&plain, v), None),
            Err(cliz::ClizError::UnsupportedVersion(got)) if got == v
        ));
        assert!(matches!(
            cliz::decompress_chunked(&with_version(&chunked, v), None),
            Err(cliz::ClizError::UnsupportedVersion(got)) if got == v
        ));
    }
}

#[test]
fn version_mutation_rejected_on_lossless_store_and_caf() {
    // ZLT1 lossless frames.
    let z = cliz::lossless::compress(b"version sweep payload, long enough to code");
    for v in [0u8, 0xEE] {
        assert!(matches!(
            cliz::lossless::decompress(&with_version(&z, v)),
            Err(cliz::lossless::Error::UnsupportedVersion(got)) if got == v
        ));
    }
    // CZS1 chunk stores.
    let s = sample_store();
    for v in [0u8, 0xEE] {
        assert!(matches!(
            cliz::store::ChunkStoreReader::from_bytes(with_version(&s, v)),
            Err(cliz::store::StoreError::UnsupportedVersion(got)) if got == v
        ));
    }
    // CAF1 archives.
    let ds = cliz::store::Dataset::new("T", sample_grid(), None);
    let mut caf: Vec<u8> = Vec::new();
    cliz::store::write_caf(&mut caf, &ds).unwrap();
    for v in [0u8, 0xEE] {
        let b = with_version(&caf, v);
        assert!(matches!(
            cliz::store::read_caf(&mut &b[..]),
            Err(cliz::store::StoreError::UnsupportedVersion(got)) if got == v
        ));
    }
}

#[test]
fn version_mutation_rejected_on_baseline_containers() {
    let g = sample_grid();
    for (name, bytes) in baseline_streams(&g) {
        for v in [0u8, 0xEE] {
            match baseline_decompress(name, &with_version(&bytes, v)) {
                Err(cliz::BaselineError::UnsupportedVersion(got)) => {
                    assert_eq!(got, v, "{name}");
                }
                other => panic!("{name}: expected UnsupportedVersion({v}), got {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Error-surface coverage: each parser-facing error variant must be reachable
// from a decode entry point on a concrete corrupt input (backs lint R16).
// ---------------------------------------------------------------------------

#[test]
fn store_open_on_missing_path_is_io() {
    // The chunk store reads through the storage trait, so a missing path
    // surfaces as a typed backend error...
    let err = match cliz::store::ChunkStoreReader::open("/nonexistent/cliz-r16-probe.czs") {
        Err(e) => e,
        Ok(_) => panic!("opened a store at a nonexistent path"),
    };
    assert!(matches!(
        err,
        cliz::store::StoreError::Storage(cliz::store::storage::StorageError::Io(_))
    ));
    // ...while the CAF loader still talks to the filesystem directly.
    let err = match cliz::store::load(std::path::Path::new("/nonexistent/cliz-r16-probe.caf")) {
        Err(e) => e,
        Ok(_) => panic!("loaded a dataset from a nonexistent path"),
    };
    assert!(matches!(err, cliz::store::StoreError::Io(_)));
}

#[test]
fn baseline_cross_magic_and_truncation_are_typed() {
    let g = sample_grid();
    let sz3 = SzInterp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
    let zfp = Zfp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
    assert!(matches!(
        SzInterp.decompress(&zfp, None),
        Err(cliz::BaselineError::BadMagic)
    ));
    assert!(matches!(
        Zfp.decompress(&sz3, None),
        Err(cliz::BaselineError::BadMagic)
    ));
    // Cut mid-dims: magic and version parse, the first u64 extent cannot.
    assert!(matches!(
        SzInterp.decompress(&sz3[..7], None),
        Err(cliz::BaselineError::Truncated)
    ));
}

/// Byte offset of the first embedded ZLT1 lossless frame at or after `from`.
fn find_zlt1(bytes: &[u8], from: usize) -> Option<usize> {
    let m = 0x5A4C_5431u32.to_le_bytes();
    bytes[from..]
        .windows(4)
        .position(|w| w == m)
        .map(|p| p + from)
}

#[test]
fn corrupt_embedded_lossless_frame_is_backend_error() {
    let g = sample_grid();
    // Inside a CLIZ container: breaking the inner ZLT1 magic makes the
    // lossless backend refuse the frame, which must surface as Backend.
    let bytes = cliz::compress(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let at = find_zlt1(&bytes, 5).expect("no embedded ZLT1 frame in CLIZ container");
    let mut b = bytes.clone();
    b[at] ^= 0xFF;
    assert!(matches!(
        cliz::decompress(&b, None),
        Err(cliz::ClizError::Backend(_))
    ));
    // Same story inside a baseline container.
    let sz3 = SzInterp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
    let at = find_zlt1(&sz3, 5).expect("no embedded ZLT1 frame in SZ21 container");
    let mut b = sz3.clone();
    b[at] ^= 0xFF;
    assert!(matches!(
        SzInterp.decompress(&b, None),
        Err(cliz::BaselineError::Backend(_))
    ));
}

#[test]
fn bad_chunk_request_is_bad_config_and_wrong_mask_is_mask_required() {
    let g = sample_grid();
    let chunked = cliz::compress_chunked_with_threads(
        &g,
        None,
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
        6,
        0,
    )
    .unwrap();
    // Asking the chunk decoder for a chunk past the index is a caller
    // configuration error, not corruption.
    let header = cliz::read_header(&chunked).unwrap();
    let blob = &chunked[header.offsets[0]..header.offsets[1]];
    assert!(matches!(
        cliz::decompress_chunk_blob_arena(
            blob,
            &header.index().unwrap(),
            None,
            999,
            &mut cliz::ScratchArena::new()
        ),
        Err(cliz::ClizError::BadConfig(_))
    ));
    // A masked stream decoded with a wrong-shape mask is refused the same
    // way as with no mask at all.
    let mut flags = vec![true; g.len()];
    flags[3] = false;
    let mask = cliz::grid::MaskMap::from_flags(g.shape().clone(), flags);
    let bytes = cliz::compress(
        &g,
        Some(&mask),
        ErrorBound::Abs(1e-3),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let wrong = cliz::grid::MaskMap::all_valid(Shape::new(&[32, 24]));
    assert!(matches!(
        cliz::decompress(&bytes, Some(&wrong)),
        Err(cliz::ClizError::MaskRequired)
    ));
}

/// Parses the CZS1 front matter: returns (index_pos, end, entries) where
/// entries are (offset, len) pairs relative to the payload and `end` is
/// where the index block ends: the payload start of a maskless store (as
/// `sample_store` builds), the mask section's start otherwise.
fn czs_index(b: &[u8]) -> (usize, usize, Vec<(usize, usize)>) {
    let u16at = |p: usize| u16::from_le_bytes([b[p], b[p + 1]]) as usize;
    let u32at = |p: usize| u32::from_le_bytes(b[p..p + 4].try_into().unwrap()) as usize;
    let u64at = |p: usize| u64::from_le_bytes(b[p..p + 8].try_into().unwrap()) as usize;
    let mut p = 5; // magic + version
    p += 2 + u16at(p); // dataset name
    let nattrs = u16at(p);
    p += 2;
    for _ in 0..nattrs {
        p += 2 + u16at(p); // key
        p += 2 + u16at(p); // value
    }
    let ndim = b[p] as usize;
    p += 1;
    for _ in 0..ndim {
        p += 2 + u16at(p); // dim name
        p += 8; // extent
    }
    p += 1 + 8; // flags + chunk_len
    let n_chunks = u32at(p);
    p += 4;
    let index_pos = p;
    let entries: Vec<(usize, usize)> = (0..n_chunks)
        .map(|i| {
            let e = index_pos + i * 20;
            (u64at(e), u64at(e + 8))
        })
        .collect();
    p += n_chunks * 20;
    p += 8; // payload_len
    (index_pos, p, entries)
}

#[test]
fn chunk_corruption_behind_a_valid_crc_is_codec_error() {
    // Re-checksumming a corrupted chunk gets it past the CRC gate, so the
    // failure must surface from the codec itself as StoreError::Codec.
    let bytes = sample_store();
    let (index_pos, payload_start, entries) = czs_index(&bytes);
    let zlt =
        find_zlt1(&bytes, payload_start).expect("no ZLT1 frame in store payload") - payload_start;
    let k = entries
        .iter()
        .position(|&(off, len)| zlt >= off && zlt < off + len)
        .expect("ZLT1 frame outside every indexed chunk");
    let (off, len) = entries[k];
    let mut b = bytes.clone();
    b[payload_start + zlt] ^= 0xFF;
    let crc = cliz::store::checksum::crc32(&b[payload_start + off..payload_start + off + len]);
    let crc_pos = index_pos + k * 20 + 16;
    b[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    let reader = cliz::store::ChunkStoreReader::from_bytes(b).unwrap();
    assert!(matches!(
        reader.read_region(&chunk_region(&reader, k)),
        Err(cliz::store::StoreError::Codec(_))
    ));
}

#[test]
fn sz_interp_and_qoz_reject_symbols_beyond_the_quantizer_radius() {
    // A hand-built SZL1/QOZ1 container: an [8, 8] grid, eb 1e-3, cubic
    // fitting, no escapes, and an all-zero-bin symbol stream with symbol
    // 100 000 (bin -50 000) at index 9. The default radius allows symbols up
    // to 65 537, so the decoder must refuse the stream as Corrupt before the
    // walk reconstructs -100 at index 9 (or trips the quantizer's radius
    // assert in a debug build).
    let g = Grid::from_fn(Shape::new(&[8, 8]), |c| (c[0] + c[1]) as f32 * 0.01);
    let mut symbols = vec![cliz::quant::bin_to_symbol(0); 64];
    symbols[9] = 100_000;
    let stream = cliz::entropy::huffman::encode_stream(&symbols);
    let mut payload = (stream.len() as u64).to_le_bytes().to_vec();
    payload.extend_from_slice(&stream);
    let packed = cliz::lossless::compress(&payload);

    // magic u32, version u8, rank u8, dims 2 × u64 — then eb, fitting,
    // escapes and the packed payload.
    const PREFIX: usize = 4 + 1 + 1 + 2 * 8;
    let codecs: [(&str, &dyn Compressor); 2] = [("SZL1", &SzInterp), ("QOZ1", &Qoz)];
    for (name, codec) in codecs {
        let honest = codec.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        assert_eq!(
            honest[PREFIX..PREFIX + 8],
            1e-3f64.to_le_bytes(),
            "{name}: eb offset"
        );
        let mut bytes = honest[..PREFIX].to_vec();
        bytes.extend_from_slice(&1e-3f64.to_le_bytes());
        bytes.push(1); // cubic
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&packed);
        let got = codec.decompress(&bytes, None);
        assert!(
            matches!(got, Err(cliz::BaselineError::Corrupt(_))),
            "{name}: out-of-radius symbol decoded as {:?}",
            got.map(|out| out.as_slice()[9])
        );
    }
}
