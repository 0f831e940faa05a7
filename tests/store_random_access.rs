//! Random-access chunk store guarantees, end to end through the facade:
//!
//! * the decode counter equals the computed chunk-intersection set for
//!   interior, edge, and full-grid regions, on unmasked, masked, and
//!   periodic datasets — non-intersecting chunks are never decoded;
//! * concurrent readers get byte-identical results to serial reads, and a
//!   cold chunk raced by many threads is decoded exactly once;
//! * the decoded-chunk cache respects its byte budget under eviction
//!   pressure, and a chunk read often survives one-off reads of cold chunks
//!   and full sweeps that a recency-only cache would let evict it;
//! * full and region reads, cold, warm and under eviction, equal the serial
//!   container decode bit for bit, whether the cold chunks decode on the
//!   worker pool or on the calling thread;
//! * the first corrupt chunk in chunk order is the one reported.

use cliz::grid::{MaskMap, Shape};
use cliz::prelude::*;
use cliz::store::{pack_store, ChunkStoreReader, Dataset};
use std::ops::Range;

fn smooth(dims: &[usize]) -> Grid<f32> {
    Grid::from_fn(Shape::new(dims), |c| {
        let mut v = 0.0f64;
        for (k, &x) in c.iter().enumerate() {
            v += ((x as f64) * 0.19 * (k + 1) as f64).sin() * 5.0;
        }
        v as f32
    })
}

fn pack(ds: &Dataset, chunk: usize) -> Vec<u8> {
    let cfg = PipelineConfig::default_for(ds.data.shape().ndim());
    pack_store(ds, ErrorBound::Abs(1e-3), &cfg, chunk, 1).unwrap()
}

/// Number of chunks a row range intersects, computed independently of the
/// store's own geometry code.
fn expected_chunks(rows: &Range<usize>, chunk: usize, dim0: usize) -> u64 {
    if rows.start >= rows.end || rows.start >= dim0 {
        return 0;
    }
    let first = rows.start / chunk;
    let last = (rows.end.min(dim0) - 1) / chunk;
    (last - first + 1) as u64
}

/// Region kinds to sweep per dataset: interior within one chunk, interior
/// spanning a boundary, leading edge, trailing edge (ragged tail), full.
fn region_kinds(dim0: usize, chunk: usize) -> Vec<Range<usize>> {
    vec![
        chunk + 1..chunk + 2,            // interior, single chunk
        chunk - 1..2 * chunk + 1,        // interior, spans two boundaries
        0..chunk.min(dim0),              // leading edge
        dim0 - (chunk / 2).max(1)..dim0, // trailing edge (tail chunk)
        0..dim0,                         // full grid
    ]
}

fn check_decode_counts(ds: &Dataset, chunk: usize) {
    let bytes = pack(ds, chunk);
    let dims = ds.data.shape().dims().to_vec();
    let reference = ChunkStoreReader::from_bytes(bytes.clone())
        .unwrap()
        .read_all()
        .unwrap();
    for rows in region_kinds(dims[0], chunk) {
        let reader = ChunkStoreReader::from_bytes(bytes.clone()).unwrap();
        let mut ranges: Vec<Range<usize>> = vec![rows.clone()];
        for &d in &dims[1..] {
            ranges.push(0..d);
        }
        let region = reader.read_region(&ranges).unwrap();
        assert_eq!(
            reader.decode_count(),
            expected_chunks(&rows, chunk, dims[0]),
            "decode count for rows {rows:?} (chunk {chunk}, dim0 {})",
            dims[0]
        );
        let mut origin = vec![rows.start];
        origin.extend(std::iter::repeat_n(0, dims.len() - 1));
        let mut size = vec![rows.len()];
        size.extend_from_slice(&dims[1..]);
        assert_eq!(
            reference.block(&origin, &size),
            region,
            "region values for rows {rows:?}"
        );
    }
}

#[test]
fn decode_counter_equals_intersection_unmasked() {
    let ds = Dataset::new("T", smooth(&[40, 16, 8]), None);
    check_decode_counts(&ds, 6);
}

#[test]
fn decode_counter_equals_intersection_masked() {
    // SSH carries a land mask; the mask rides inside the store, so region
    // reads need no side channel and masked chunks still count correctly.
    let field = cliz::data::ssh(&[40, 16, 8], 3);
    assert!(field.mask.is_some(), "ssh generator should mask land");
    let ds = Dataset::new("SSH", field.data, field.mask);
    check_decode_counts(&ds, 6);
}

#[test]
fn decode_counter_equals_intersection_periodic() {
    // A strongly periodic field (period 12 along axis 0), the regime the
    // paper's periodic predictor targets.
    let g = Grid::from_fn(Shape::new(&[36, 20]), |c| {
        ((c[0] % 12) as f32 * std::f32::consts::FRAC_PI_6).sin() * 8.0 + c[1] as f32 * 0.1
    });
    let ds = Dataset::new("PERIODIC", g, None);
    check_decode_counts(&ds, 5);
}

#[test]
fn narrow_trailing_ranges_decode_only_intersected_chunks() {
    // Sub-selecting trailing dims exercises the multi-run assembly path;
    // the chunk set is still driven only by the row range.
    let ds = Dataset::new("T", smooth(&[30, 12, 10]), None);
    let bytes = pack(&ds, 7);
    let reader = ChunkStoreReader::from_bytes(bytes.clone()).unwrap();
    let region = reader.read_region(&[8..16, 3..9, 2..5]).unwrap();
    assert_eq!(reader.decode_count(), 2); // rows 8..16 hit chunks 1 and 2
    let reference = ChunkStoreReader::from_bytes(bytes)
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(reference.block(&[8, 3, 2], &[8, 6, 3]), region);
}

#[test]
fn concurrent_same_region_no_decode_stampede() {
    let ds = Dataset::new("T", smooth(&[32, 20, 12]), None);
    let bytes = pack(&ds, 4);
    let serial = {
        let r = ChunkStoreReader::from_bytes(bytes.clone()).unwrap();
        r.read_region(&[9..12, 0..20, 0..12]).unwrap()
    };
    let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reader = &reader;
                s.spawn(move || reader.read_region(&[9..12, 0..20, 0..12]).unwrap())
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(serial, got, "concurrent read diverged from serial");
        }
    });
    // Rows 9..12 live in chunk 2 only; 8 racing threads, one decode.
    assert_eq!(reader.decode_count(), 1, "decode stampede");
    let stats = reader.stats();
    assert_eq!(stats.cache.hits + stats.cache.misses, 8);
    assert!(stats.cache.hits >= 1 || stats.cache.misses == 8);
}

#[test]
fn concurrent_overlapping_regions_byte_identical_to_serial() {
    let ds = Dataset::new("T", smooth(&[48, 16, 10]), None);
    let bytes = pack(&ds, 6); // 8 chunks
    let regions: Vec<[Range<usize>; 3]> = vec![
        [0..10, 0..16, 0..10],
        [5..20, 2..14, 1..9],
        [10..30, 0..16, 0..10],
        [18..48, 4..12, 0..10],
        [0..48, 0..16, 0..10],
        [40..48, 0..16, 5..10],
        [11..13, 7..9, 3..4],
        [23..25, 0..16, 0..10],
    ];
    // Serial ground truth, one fresh reader per region.
    let serial: Vec<Grid<f32>> = regions
        .iter()
        .map(|r| {
            ChunkStoreReader::from_bytes(bytes.clone())
                .unwrap()
                .read_region(r.as_slice())
                .unwrap()
        })
        .collect();
    let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = regions
            .iter()
            .map(|r| {
                let reader = &reader;
                s.spawn(move || reader.read_region(r.as_slice()).unwrap())
            })
            .collect();
        for (h, want) in handles.into_iter().zip(&serial) {
            assert_eq!(want, &h.join().unwrap());
        }
    });
    // The union of all row ranges covers every chunk exactly once.
    assert_eq!(reader.decode_count(), 8);
}

#[test]
fn lru_cache_respects_byte_budget_under_pressure() {
    // [48, 10] rows of 10 f32s, chunks of 8 rows: 6 chunks, 320 bytes of
    // decoded data each. Budget two chunks' worth.
    let ds = Dataset::new("T", smooth(&[48, 10]), None);
    let cfg = PipelineConfig::default_for(2);
    let bytes = pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 8, 1).unwrap();
    let reader = ChunkStoreReader::with_cache_budget(bytes, 640).unwrap();
    for c in 0..6 {
        reader.read_region(&[c * 8..(c + 1) * 8, 0..10]).unwrap();
        let stats = reader.stats();
        assert!(
            stats.cache.resident_bytes <= 640,
            "budget exceeded after chunk {c}: {} bytes",
            stats.cache.resident_bytes
        );
        assert!(stats.cache.resident_entries <= 2);
    }
    let stats = reader.stats();
    assert_eq!(stats.decodes, 6);
    assert!(stats.cache.evictions >= 4, "expected eviction pressure");
    // The most recent chunk is still warm; the first was evicted long ago.
    reader.read_region(&[40..48, 0..10]).unwrap();
    assert_eq!(reader.stats().decodes, 6, "warm chunk re-decoded");
    reader.read_region(&[0..8, 0..10]).unwrap();
    assert_eq!(reader.stats().decodes, 7, "evicted chunk not re-decoded");
}

/// Reads chunk `c` of a `[rows, 10]` store cut into slabs of 8 rows.
fn read_chunk(reader: &ChunkStoreReader, c: usize) {
    reader.read_region(&[c * 8..(c + 1) * 8, 0..10]).unwrap();
}

#[test]
fn hot_chunks_survive_a_full_sweep() {
    // [48, 10] in slabs of 8 rows: 6 chunks of 320 decoded bytes. The
    // budget holds three: the two hot chunks and one slot for the sweep.
    let ds = Dataset::new("T", smooth(&[48, 10]), None);
    let reader = ChunkStoreReader::with_cache_budget(pack(&ds, 8), 960).unwrap();
    for _ in 0..4 {
        read_chunk(&reader, 0);
        read_chunk(&reader, 1);
    }
    reader.read_all().unwrap();
    let before = reader.decode_count();
    assert_eq!(before, 6);
    reader.read_region(&[0..16, 0..10]).unwrap();
    assert_eq!(
        reader.decode_count() - before,
        0,
        "the sweep evicted a chunk read four times"
    );
    assert!(reader.stats().cache.resident_bytes <= 960);
}

#[test]
fn one_off_reads_do_not_cascade_through_the_hot_set() {
    // [64, 10] in slabs of 8 rows: 8 chunks; the budget holds four.
    let ds = Dataset::new("T", smooth(&[64, 10]), None);
    let reader = ChunkStoreReader::with_cache_budget(pack(&ds, 8), 4 * 320).unwrap();
    for _ in 0..3 {
        (0..4).for_each(|c| read_chunk(&reader, c));
    }
    let warm = reader.decode_count();
    assert_eq!(warm, 4);
    // Each one-off read must evict one hot chunk (the budget is full), and
    // the pass after it re-decodes that one chunk: two decodes per round.
    // Recency alone evicts the hot chunks in the order the pass needs
    // them, so every pass re-decodes all four.
    for cold in 4..8 {
        read_chunk(&reader, cold);
        (0..4).for_each(|c| read_chunk(&reader, c));
    }
    let cost = reader.decode_count() - warm;
    assert!(
        cost <= 8,
        "one-off reads cost {cost} decodes, want at most 8"
    );
    assert!(reader.stats().cache.resident_bytes <= 4 * 320);
}

#[test]
fn masked_store_roundtrips_mask_and_attrs() {
    let field = cliz::data::ssh(&[24, 16, 8], 9);
    let mut ds = Dataset::new("SSH", field.data, field.mask);
    ds.set_attr("units", "m");
    let bytes = pack(&ds, 5);
    let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
    let mask = reader.mask().expect("mask must ride in the store");
    assert_eq!(mask.as_slice(), ds.mask.as_ref().unwrap().as_slice());
    assert!(reader.attrs().iter().any(|(k, v)| k == "units" && v == "m"));
    // Full read equals the chunked decompressor driven directly.
    let full = reader.read_all().unwrap();
    assert_eq!(full.shape().dims(), &[24, 16, 8]);
}

#[test]
fn store_read_path_preserves_error_bound() {
    // The |x - x'| <= eb contract must hold through the store surface, not
    // only through decompress(): pack, then read a boundary-spanning region
    // and the full grid, and check every value against the original.
    let eb = 1e-3f32;
    let original = smooth(&[30, 14, 10]);
    let ds = Dataset::new("T", original.clone(), None);
    let bytes = pack(&ds, 7);
    let reader = ChunkStoreReader::from_bytes(bytes).unwrap();

    let region = reader.read_region(&[5..23, 0..14, 0..10]).unwrap();
    let want = original.block(&[5, 0, 0], &[18, 14, 10]);
    for (a, b) in want.as_slice().iter().zip(region.as_slice()) {
        assert!((a - b).abs() <= eb + 1e-6, "region: |{a} - {b}| > {eb}");
    }

    let full = reader.read_all().unwrap();
    for (a, b) in original.as_slice().iter().zip(full.as_slice()) {
        assert!((a - b).abs() <= eb + 1e-6, "full: |{a} - {b}| > {eb}");
    }
}

/// The serial container decode of a store's CLZC payload: one thread, no
/// reader, no cache. The oracle every reader path is held to.
fn serial_decode(bytes: &[u8], mask: Option<&MaskMap>) -> Grid<f32> {
    let parsed = cliz::store::format::parse_store(bytes).unwrap();
    let payload = &bytes[parsed.payload];
    cliz::decompress_chunked_with_threads(payload, mask, 1).unwrap()
}

/// The region covering chunk `i`: its rows, every extent of the rest.
fn chunk_region(reader: &ChunkStoreReader, i: usize) -> Vec<Range<usize>> {
    let mut region: Vec<Range<usize>> = reader.dims().iter().map(|&d| 0..d).collect();
    region[0] = i * reader.chunk_len()..((i + 1) * reader.chunk_len()).min(reader.dims()[0]);
    region
}

fn bits(g: &Grid<f32>) -> Vec<u32> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Unmasked, masked and periodic stores, each ending in a thinner tail slab.
fn tail_slab_stores() -> Vec<(Dataset, Vec<u8>)> {
    let ssh = cliz::data::ssh(&[23, 16, 8], 4);
    let masked = Dataset::new("SSH", ssh.data, ssh.mask);
    // Period 6 along axis 1 fits inside every slab, so each chunk keeps the
    // periodic pipeline instead of degrading it.
    let periodic = Dataset::new(
        "PERIODIC",
        Grid::from_fn(Shape::new(&[23, 24, 10]), |c| {
            ((c[1] % 6) as f32 * 1.047).sin() * 6.0 + c[0] as f32 * 0.05 + c[2] as f32 * 0.1
        }),
        None,
    );
    let periodic_cfg = PipelineConfig {
        periodicity: Periodicity::Extract {
            time_axis: 1,
            period: 6,
        },
        ..PipelineConfig::default_for(3)
    };
    let periodic_bytes = pack_store(&periodic, ErrorBound::Abs(1e-3), &periodic_cfg, 6, 1).unwrap();
    let plain = Dataset::new("T", smooth(&[23, 16, 8]), None);
    let plain_bytes = pack(&plain, 6);
    let masked_bytes = pack(&masked, 6);
    vec![
        (plain, plain_bytes),
        (masked, masked_bytes),
        (periodic, periodic_bytes),
    ]
}

#[test]
fn read_all_equals_serial_container_decode_cold_and_warm() {
    for (ds, bytes) in tail_slab_stores() {
        let serial = serial_decode(&bytes, ds.mask.as_ref());
        let name = ds.name.clone();

        let cold = ChunkStoreReader::from_bytes(bytes.clone()).unwrap();
        let n = cold.n_chunks();
        assert_eq!(n, 4, "{name}: 23 rows in slabs of 6 leave a 5-row tail");
        assert_eq!(
            bits(&cold.read_all().unwrap()),
            bits(&serial),
            "{name}: cold"
        );
        assert_eq!(
            cold.decode_count(),
            n as u64,
            "{name}: one decode per chunk"
        );

        // Some chunks cached first (one interior, the tail): the read mixes
        // hits with pooled cold decodes and still decodes each chunk once.
        let warm = ChunkStoreReader::from_bytes(bytes).unwrap();
        warm.read_region(&chunk_region(&warm, 1)).unwrap();
        warm.read_region(&chunk_region(&warm, n - 1)).unwrap();
        assert_eq!(
            bits(&warm.read_all().unwrap()),
            bits(&serial),
            "{name}: partly cached"
        );
        assert_eq!(
            warm.decode_count(),
            n as u64,
            "{name}: one decode per chunk"
        );
        let stats = warm.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses), (2, 4), "{name}");
        assert_eq!(
            bits(&warm.read_all().unwrap()),
            bits(&serial),
            "{name}: all cached"
        );
        assert_eq!(warm.decode_count(), n as u64, "{name}: a hit never decodes");
    }
}

/// A small seeded generator, so the sweep is the same on every run.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % bound
    }
}

#[test]
fn seeded_region_sweep_matches_grid_block_under_eviction() {
    let mut rng = Lcg(0x5eed_2024);
    let stores: [(&[usize], usize); 4] = [
        (&[37, 29], 4),
        (&[19, 13, 11], 3),
        (&[13, 7, 6, 9], 2),
        (&[9, 5, 4, 6, 5], 2),
    ];
    for (k, &(dims, chunk)) in stores.iter().enumerate() {
        let data = smooth(dims);
        let mask = (k % 2 == 1).then(|| {
            let valid = (0..data.len()).map(|i| i % 9 != 4).collect();
            MaskMap::from_flags(data.shape().clone(), valid)
        });
        let ds = Dataset::new("T", data, mask);
        let bytes = pack(&ds, chunk);
        let full = serial_decode(&bytes, ds.mask.as_ref());
        // Room for two decoded slabs: wide regions evict, narrow ones hit.
        let slab_bytes = chunk * dims[1..].iter().product::<usize>() * 4;
        let reader = ChunkStoreReader::with_cache_budget(bytes, 2 * slab_bytes).unwrap();
        for _ in 0..60 {
            let (mut start, mut size, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
            for &d in dims {
                let s = rng.below(d);
                let n = 1 + rng.below(d - s);
                start.push(s);
                size.push(n);
                ranges.push(s..s + n);
            }
            let region = reader.read_region(&ranges).unwrap();
            assert_eq!(
                bits(&region),
                bits(&full.block(&start, &size)),
                "{dims:?}: region {ranges:?}"
            );
        }
        let stats = reader.stats();
        assert!(
            stats.cache.hits > 0 && stats.cache.misses > 0 && stats.cache.evictions > 0,
            "{dims:?}: the sweep should mix hits, misses and evictions: {stats:?}"
        );
    }
}

#[test]
fn concurrent_cold_read_all_decodes_each_chunk_once() {
    let ds = Dataset::new("T", smooth(&[40, 18, 12]), None);
    let bytes = pack(&ds, 4); // 10 chunks
    let serial = serial_decode(&bytes, None);
    let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
    // The barrier releases the four reads together, so they race for the
    // same cold chunks while each one shares the cores with the others.
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (reader, start) = (&reader, &start);
                s.spawn(move || {
                    start.wait();
                    reader.read_all().unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(bits(&h.join().unwrap()), bits(&serial));
        }
    });
    assert_eq!(reader.decode_count(), reader.n_chunks() as u64);
}

#[test]
fn first_corrupt_chunk_in_chunk_order_is_reported() {
    let ds = Dataset::new("T", smooth(&[30, 12, 8]), None);
    let bytes = pack(&ds, 5); // 6 chunks
    let parsed = cliz::store::format::parse_store(&bytes).unwrap();
    let mut bad = bytes.clone();
    for victim in [4, 2] {
        let at = parsed.payload.start + parsed.index.entries[victim].offset + 6;
        bad[at] ^= 0x20;
    }
    // Both corrupt chunks are cold in the same read; whichever worker meets
    // its chunk first, the error is the one of chunk 2.
    let reader = ChunkStoreReader::from_bytes(bad).unwrap();
    assert!(matches!(
        reader.read_all(),
        Err(cliz::store::StoreError::Checksum { chunk: 2 })
    ));
    // The good chunks still read, and nothing corrupt was published.
    assert!(reader.read_region(&[0..10, 0..12, 0..8]).is_ok());
    assert!(matches!(
        reader.read_region(&[20..30, 0..12, 0..8]),
        Err(cliz::store::StoreError::Checksum { chunk: 4 })
    ));
}
