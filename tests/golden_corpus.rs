//! Golden-file corpus: one committed container per on-disk format, plus one
//! for the archive pipeline (masked, permuted, periodic CLIZ), pinned
//! byte-for-byte.
//!
//! Two invariants, both load-bearing for a stacked format ecosystem:
//!
//! 1. **Encoder stability** — compressing the fixed sample input today must
//!    reproduce the committed bytes exactly. Any drift in a header field,
//!    field order, or entropy coding shows up as a failed byte comparison,
//!    not as a silent compatibility break three releases later.
//! 2. **Decoder compatibility** — the committed bytes (i.e. files written by
//!    *past* builds) must still decode, within the recorded error bound.
//!
//! The CZF1 CLI wrapper has its own golden fixture in
//! `crates/cli/tests/cli_workflow.rs` (the cli crate is not a dependency of
//! this facade-level suite). To regenerate after an intentional format
//! change, run the `#[ignore]`d `regenerate_golden_corpus` test and commit
//! the rewritten files together with a note in `docs/FORMATS.md`.

use cliz::grid::{Grid, MaskMap, Shape};
use cliz::prelude::*;

/// The canonical sample field (same formula as the robustness suite).
fn sample_grid() -> Grid<f32> {
    Grid::from_fn(Shape::new(&[24, 32]), |c| {
        ((c[0] as f32 * 0.23).sin() + (c[1] as f32 * 0.31).cos()) * 7.0
    })
}

const EB: f64 = 1e-3;

/// Fixed payload for the ZLT1 lossless fixture: mixed compressible and
/// near-random bytes so both coder modes stay exercised.
fn zlt1_payload() -> Vec<u8> {
    let mut p = Vec::new();
    for i in 0..4096u32 {
        p.push((i % 251) as u8);
        p.push((i.wrapping_mul(2654435761) >> 24) as u8);
    }
    p.extend_from_slice(&[0u8; 512]);
    p
}

/// CESM-style fill written at the masked points of the archive fixture.
const FILL: f32 = 9.96921e36;

/// The archive pipeline's sample field: masked 3-D `[6, 10, 40]`, time last,
/// an annual cycle of 12 steps (40 = 3 × 12 + 4 leaves a short final cycle).
/// The mask has a land block over every time step plus scattered invalid
/// points, and masked points hold `FILL`.
fn periodic_masked_field() -> (Grid<f32>, MaskMap) {
    let shape = Shape::new(&[6, 10, 40]);
    let valid = Grid::from_fn(shape.clone(), |c| {
        let land = (2..4).contains(&c[0]) && (3..7).contains(&c[1]);
        let i = (c[0] * 10 + c[1]) * 40 + c[2];
        !land && i % 29 != 11
    });
    let data = Grid::from_fn(shape.clone(), |c| {
        if !valid.get(c) {
            return FILL;
        }
        let phase = (c[2] % 12) as f32 * (std::f32::consts::TAU / 12.0);
        c[0] as f32 * 0.8
            + (c[1] as f32 * 0.37).cos() * 2.0
            + 3.0 * phase.sin()
            + 0.01 * c[2] as f32
    });
    (data, MaskMap::from_flags(shape, valid.into_vec()))
}

/// The archive workload's tuned pipeline shape: permutation `[2, 0, 1]`,
/// cubic fitting and periodic extraction along the time axis.
fn periodic_masked_config() -> PipelineConfig {
    PipelineConfig {
        permutation: vec![2, 0, 1],
        fitting: cliz::predict::Fitting::Cubic,
        periodicity: Periodicity::Extract {
            time_axis: 2,
            period: 12,
        },
        ..PipelineConfig::default_for(3)
    }
}

/// The archive pipeline's store: the periodic masked field in slabs of two
/// rows, each keeping the whole time axis.
fn periodic_masked_store() -> Vec<u8> {
    let (data, mask) = periodic_masked_field();
    let ds = cliz::store::Dataset::new("SSH", data, Some(mask));
    cliz::store::pack_store(&ds, ErrorBound::Abs(EB), &periodic_masked_config(), 2, 1).unwrap()
}

fn sample_dataset() -> cliz::store::Dataset {
    let mut ds = cliz::store::Dataset::new("T2m", sample_grid(), None);
    ds.set_attr("units", "K");
    ds
}

/// Builds every fixture container from the fixed sample input, in the order
/// they are committed. Names double as `tests/golden/<name>` file names.
fn build_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let g = sample_grid();
    let cfg = PipelineConfig::default_for(2);

    let ds = sample_dataset();
    let store = cliz::store::pack_store(&ds, ErrorBound::Abs(EB), &cfg, 6, 1).unwrap();
    let mut caf: Vec<u8> = Vec::new();
    cliz::store::write_caf(&mut caf, &ds).unwrap();
    let (pm_data, pm_mask) = periodic_masked_field();

    vec![
        (
            "cliz_plain.bin",
            cliz::compress(&g, None, ErrorBound::Abs(EB), &cfg).unwrap(),
        ),
        (
            "cliz_periodic_masked.bin",
            cliz::compress(
                &pm_data,
                Some(&pm_mask),
                ErrorBound::Abs(EB),
                &periodic_masked_config(),
            )
            .unwrap(),
        ),
        (
            "clzc_chunked.bin",
            cliz::compress_chunked_with_threads(&g, None, ErrorBound::Abs(EB), &cfg, 6, 0).unwrap(),
        ),
        ("czs1_store_v2.bin", store),
        ("czs1_masked_v2.bin", periodic_masked_store()),
        ("caf1_archive.bin", caf),
        (
            "zlt1_lossless.bin",
            cliz::lossless::compress(&zlt1_payload()),
        ),
        (
            "szl1_sz3.bin",
            SzInterp.compress(&g, None, ErrorBound::Abs(EB)).unwrap(),
        ),
        (
            "sz21_sz2.bin",
            Sz2Lorenzo.compress(&g, None, ErrorBound::Abs(EB)).unwrap(),
        ),
        (
            "zfp1_zfp.bin",
            Zfp.compress(&g, None, ErrorBound::Abs(EB)).unwrap(),
        ),
        (
            "qoz1_qoz.bin",
            Qoz.compress(&g, None, ErrorBound::Abs(EB)).unwrap(),
        ),
        (
            "spr1_sperr.bin",
            Sperr.compress(&g, None, ErrorBound::Abs(EB)).unwrap(),
        ),
    ]
}

/// Decode-only fixtures: stores written by CZS1 version 1, which kept the
/// mask as a raw bitmap. No encoder writes them any more; they pin that
/// the reader still opens them.
const CZS1_V1: [&str; 2] = ["czs1_store.bin", "czs1_masked_v1.bin"];

/// The committed bytes for each corpus entry, embedded at compile time so
/// the suite needs no runtime path discovery.
fn committed(name: &str) -> &'static [u8] {
    match name {
        "cliz_plain.bin" => include_bytes!("golden/cliz_plain.bin"),
        "cliz_periodic_masked.bin" => include_bytes!("golden/cliz_periodic_masked.bin"),
        "clzc_chunked.bin" => include_bytes!("golden/clzc_chunked.bin"),
        "czs1_store.bin" => include_bytes!("golden/czs1_store.bin"),
        "czs1_store_v2.bin" => include_bytes!("golden/czs1_store_v2.bin"),
        "czs1_masked_v1.bin" => include_bytes!("golden/czs1_masked_v1.bin"),
        "czs1_masked_v2.bin" => include_bytes!("golden/czs1_masked_v2.bin"),
        "caf1_archive.bin" => include_bytes!("golden/caf1_archive.bin"),
        "zlt1_lossless.bin" => include_bytes!("golden/zlt1_lossless.bin"),
        "szl1_sz3.bin" => include_bytes!("golden/szl1_sz3.bin"),
        "sz21_sz2.bin" => include_bytes!("golden/sz21_sz2.bin"),
        "zfp1_zfp.bin" => include_bytes!("golden/zfp1_zfp.bin"),
        "qoz1_qoz.bin" => include_bytes!("golden/qoz1_qoz.bin"),
        "spr1_sperr.bin" => include_bytes!("golden/spr1_sperr.bin"),
        other => panic!("no committed fixture named {other}"),
    }
}

#[test]
fn encoders_reproduce_committed_bytes_exactly() {
    for (name, fresh) in build_corpus() {
        let want = committed(name);
        assert_eq!(
            fresh.len(),
            want.len(),
            "{name}: container length drifted (run regenerate_golden_corpus \
             only for an intentional format change)"
        );
        if let Some(pos) = fresh.iter().zip(want).position(|(a, b)| a != b) {
            panic!(
                "{name}: byte {pos} drifted ({:#04x} != {:#04x})",
                fresh[pos], want[pos]
            );
        }
    }
}

/// Max |a-b| over a decoded grid against the sample field.
fn max_err(decoded: &Grid<f32>) -> f64 {
    let g = sample_grid();
    g.as_slice()
        .iter()
        .zip(decoded.as_slice())
        .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
        .fold(0.0, f64::max)
}

#[test]
fn committed_containers_decode_within_bound() {
    let tol = EB * (1.0 + 1e-9);

    let plain = cliz::decompress(committed("cliz_plain.bin"), None).unwrap();
    assert_eq!(plain.shape().dims(), &[24, 32]);
    assert!(max_err(&plain) <= tol);

    let (pm_data, pm_mask) = periodic_masked_field();
    let periodic = cliz::decompress(committed("cliz_periodic_masked.bin"), Some(&pm_mask)).unwrap();
    assert_eq!(periodic.shape().dims(), &[6, 10, 40]);
    let pairs = pm_data.as_slice().iter().zip(periodic.as_slice());
    for (i, (&a, &b)) in pairs.enumerate().filter(|&(i, _)| pm_mask.is_valid(i)) {
        let err = (f64::from(a) - f64::from(b)).abs();
        assert!(err <= tol, "periodic: bound violated at {i}");
    }

    let chunked = cliz::decompress_chunked(committed("clzc_chunked.bin"), None).unwrap();
    assert!(max_err(&chunked) <= tol);

    for name in ["czs1_store.bin", "czs1_store_v2.bin"] {
        let reader = cliz::store::ChunkStoreReader::from_bytes(committed(name).to_vec()).unwrap();
        assert!(reader.mask().is_none(), "{name}");
        assert!(max_err(&reader.read_all().unwrap()) <= tol, "{name}");
    }
    for name in ["czs1_masked_v1.bin", "czs1_masked_v2.bin"] {
        let reader = cliz::store::ChunkStoreReader::from_bytes(committed(name).to_vec()).unwrap();
        assert_eq!(reader.mask(), Some(&pm_mask), "{name}");
        let store = reader.read_all().unwrap();
        let pairs = pm_data.as_slice().iter().zip(store.as_slice());
        for (i, (&a, &b)) in pairs.enumerate() {
            if pm_mask.is_valid(i) {
                let err = (f64::from(a) - f64::from(b)).abs();
                assert!(err <= tol, "{name}: bound violated at {i}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: fill at {i}");
            }
        }
    }

    let ds = cliz::store::read_caf(&mut committed("caf1_archive.bin")).unwrap();
    assert_eq!(ds.name, "T2m");
    assert_eq!(ds.attr("units"), Some("K"));
    assert_eq!(ds.data.as_slice(), sample_grid().as_slice());

    assert_eq!(
        cliz::lossless::decompress(committed("zlt1_lossless.bin")).unwrap(),
        zlt1_payload()
    );

    let baselines: [(&str, Grid<f32>); 5] = [
        (
            "szl1_sz3.bin",
            SzInterp
                .decompress(committed("szl1_sz3.bin"), None)
                .unwrap(),
        ),
        (
            "sz21_sz2.bin",
            Sz2Lorenzo
                .decompress(committed("sz21_sz2.bin"), None)
                .unwrap(),
        ),
        (
            "zfp1_zfp.bin",
            Zfp.decompress(committed("zfp1_zfp.bin"), None).unwrap(),
        ),
        (
            "qoz1_qoz.bin",
            Qoz.decompress(committed("qoz1_qoz.bin"), None).unwrap(),
        ),
        (
            "spr1_sperr.bin",
            Sperr.decompress(committed("spr1_sperr.bin"), None).unwrap(),
        ),
    ];
    for (name, out) in &baselines {
        assert_eq!(out.shape().dims(), &[24, 32], "{name}");
        assert!(max_err(out) <= tol, "{name}: bound violated");
    }
}

/// A store's CLZC payload.
fn store_payload(store: &[u8]) -> &[u8] {
    &store[cliz::store::format::parse_store(store).unwrap().payload]
}

#[test]
fn czs1_version_2_changes_only_the_mask_section() {
    // An unmasked store differs from version 1 in its version byte alone.
    let (v1, v2) = (committed("czs1_store.bin"), committed("czs1_store_v2.bin"));
    assert_eq!(v1.len(), v2.len());
    let diff: Vec<usize> = (0..v1.len()).filter(|&i| v1[i] != v2[i]).collect();
    assert_eq!(diff, [4]);
    // A masked one keeps the CLZC payload byte for byte, and its framed
    // mask is far smaller than the raw bitmap.
    let (v1, v2) = (
        committed("czs1_masked_v1.bin"),
        committed("czs1_masked_v2.bin"),
    );
    assert_eq!(store_payload(v1), store_payload(v2));
    assert!(v2.len() < v1.len(), "{} >= {}", v2.len(), v1.len());
}

#[test]
fn committed_corpus_has_registry_magics() {
    // Each fixture must open with its registered little-endian magic — a
    // cheap tripwire against committing a file under the wrong name — and
    // the version byte it was written with.
    let magics: [(&str, u32, u8); 14] = [
        ("cliz_plain.bin", 0x434C_495A, 1),
        ("cliz_periodic_masked.bin", 0x434C_495A, 1),
        ("clzc_chunked.bin", 0x434C_5A43, 1),
        ("czs1_store.bin", 0x3153_5A43, 1),
        ("czs1_store_v2.bin", 0x3153_5A43, 2),
        ("czs1_masked_v1.bin", 0x3153_5A43, 1),
        ("czs1_masked_v2.bin", 0x3153_5A43, 2),
        ("caf1_archive.bin", 0x4341_4631, 1),
        ("zlt1_lossless.bin", 0x5A4C_5431, 1),
        ("szl1_sz3.bin", 0x535A_4C31, 1),
        ("sz21_sz2.bin", 0x535A_3231, 1),
        ("zfp1_zfp.bin", 0x5A46_5031, 1),
        ("qoz1_qoz.bin", 0x514F_5A31, 1),
        ("spr1_sperr.bin", 0x5350_5231, 1),
    ];
    for (name, magic, version) in magics {
        let b = committed(name);
        assert!(b.len() > 5, "{name}: implausibly small fixture");
        let got = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        assert_eq!(got, magic, "{name}: wrong leading magic");
        assert_eq!(b[4], version, "{name}: unexpected version byte");
    }
    for (name, _) in build_corpus() {
        assert!(!CZS1_V1.contains(&name), "{name}: a decode-only fixture");
    }
}

/// Rewrites `tests/golden/` from the current encoders. Run only after an
/// intentional format change:
/// `cargo test -p cliz --test golden_corpus -- --ignored regenerate_golden_corpus`.
#[test]
#[ignore]
fn regenerate_golden_corpus() {
    // The facade crate (`crates/cliz`) owns this test; the corpus is at the root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in build_corpus() {
        std::fs::write(dir.join(name), &bytes).unwrap();
        println!("wrote {name} ({} bytes)", bytes.len());
    }
}

/// The plain-mode masked path has no golden fixture (the masked one is
/// periodic, `cliz_periodic_masked.bin`); keep a decode smoke test so the
/// corpus suite still exercises it end to end.
#[test]
fn masked_roundtrip_smoke() {
    let g = sample_grid();
    let mut flags = vec![true; g.len()];
    flags[17] = false;
    let mask = MaskMap::from_flags(g.shape().clone(), flags);
    let bytes = cliz::compress(
        &g,
        Some(&mask),
        ErrorBound::Abs(EB),
        &PipelineConfig::default_for(2),
    )
    .unwrap();
    let out = cliz::decompress(&bytes, Some(&mask)).unwrap();
    assert_eq!(out.shape().dims(), &[24, 32]);
}
