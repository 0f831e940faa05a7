//! Determinism and equivalence guarantees of the parallel chunked path and
//! the zero-copy/arena pipeline (the PR's perf work must never change bytes).
//!
//! Three invariants:
//! 1. chunked containers are byte-identical across worker counts
//!    (0/1/2/3/4/8), including masked data, tail slabs, and periodic
//!    configs;
//! 2. the optimized pipeline is byte-identical to the frozen allocation
//!    baseline (`compress_alloc_baseline` / `compress_chunked_alloc_baseline`);
//! 3. a `ScratchArena` reused across back-to-back calls is observationally
//!    identical to fresh allocations per call.

use cliz::grid::{Grid, MaskMap, Shape};
use cliz::quant::ErrorBound;
use cliz::{Periodicity, PipelineConfig, ScratchArena};

fn smooth(dims: &[usize]) -> Grid<f32> {
    Grid::from_fn(Shape::new(dims), |c| {
        let mut v = 0.0f64;
        for (k, &x) in c.iter().enumerate() {
            v += ((x as f64) * 0.17 * (k + 1) as f64).sin() * 4.0;
        }
        v as f32
    })
}

fn masked(dims: &[usize]) -> (Grid<f32>, MaskMap) {
    let mut g = smooth(dims);
    let mut valid = vec![true; g.len()];
    for (i, (v, ok)) in g.as_mut_slice().iter_mut().zip(&mut valid).enumerate() {
        if i % 7 == 0 {
            *v = 9.96921e36;
            *ok = false;
        }
    }
    let mask = MaskMap::from_flags(g.shape().clone(), valid);
    (g, mask)
}

/// Invariant 1: worker count never changes the container, and the pooled
/// decode never changes the grid. 17 rows with chunk_len 5 forces a 2-row
/// tail slab — the uneven load LPT balancing exists for.
#[test]
fn chunked_bytes_identical_across_threads() {
    let g = smooth(&[17, 14, 10]);
    let cfg = PipelineConfig::default_for(3);
    let eb = ErrorBound::Abs(1e-3);
    let serial = cliz::compress_chunked_with_threads(&g, None, eb, &cfg, 5, 1).unwrap();
    for threads in [2, 3, 4, 8] {
        let par = cliz::compress_chunked_with_threads(&g, None, eb, &cfg, 5, threads).unwrap();
        assert_eq!(serial, par, "container diverged at {threads} threads");
    }
    let reference = cliz::decompress_chunked(&serial, None).unwrap();
    for threads in [1, 2, 3, 4, 8] {
        let out = cliz::decompress_chunked_with_threads(&serial, None, threads).unwrap();
        assert_eq!(out, reference, "decode diverged at {threads} threads");
    }
    // And the host-parallelism default (`0`) is the same code path.
    assert_eq!(
        serial,
        cliz::compress_chunked_with_threads(&g, None, eb, &cfg, 5, 0).unwrap()
    );
}

#[test]
fn masked_chunked_bytes_identical_across_threads() {
    let (g, mask) = masked(&[13, 12, 8]);
    let cfg = PipelineConfig::default_for(3);
    let eb = ErrorBound::Rel(1e-3);
    let serial = cliz::compress_chunked_with_threads(&g, Some(&mask), eb, &cfg, 4, 1).unwrap();
    for threads in [0, 2, 3, 4, 8] {
        let par =
            cliz::compress_chunked_with_threads(&g, Some(&mask), eb, &cfg, 4, threads).unwrap();
        assert_eq!(
            serial, par,
            "masked container diverged at {threads} threads"
        );
    }
    let reference = cliz::decompress_chunked_with_threads(&serial, Some(&mask), 1).unwrap();
    for threads in [0, 2, 3, 4, 8] {
        let out = cliz::decompress_chunked_with_threads(&serial, Some(&mask), threads).unwrap();
        assert_eq!(
            out, reference,
            "masked decode diverged at {threads} threads"
        );
    }
}

/// Periodic configs recurse (template + residual sub-containers) and degrade
/// per-slab when the period doesn't fit — both must stay deterministic
/// across worker counts.
#[test]
fn periodic_chunked_bytes_identical_across_threads() {
    let g = Grid::from_fn(Shape::new(&[26, 18]), |c| {
        let phase = 2.0 * std::f64::consts::PI * (c[0] % 12) as f64 / 12.0;
        (4.0 * phase.sin() + c[1] as f64 * 0.05) as f32
    });
    let cfg = PipelineConfig {
        periodicity: Periodicity::Extract {
            time_axis: 0,
            period: 12,
        },
        ..PipelineConfig::default_for(2)
    };
    let eb = ErrorBound::Abs(1e-3);
    // chunk_len 13 fits the period once; chunk_len 5 forces the degrade path.
    for chunk_len in [13, 5] {
        let serial = cliz::compress_chunked_with_threads(&g, None, eb, &cfg, chunk_len, 1).unwrap();
        for threads in [2, 4] {
            let par = cliz::compress_chunked_with_threads(&g, None, eb, &cfg, chunk_len, threads)
                .unwrap();
            assert_eq!(serial, par, "chunk_len {chunk_len}, {threads} threads");
        }
    }
}

/// Invariant 2: the zero-copy pipeline and the frozen allocation baseline
/// produce the same bytes, for plain, masked, and non-identity-permutation
/// configs, and the chunked container's contiguous slab slicer cuts the
/// same data and mask slabs as the baseline's `Grid::block` copy.
#[test]
fn optimized_pipeline_matches_alloc_baseline() {
    let g = smooth(&[12, 16, 10]);
    let (gm, mask) = masked(&[14, 12]);
    let eb = ErrorBound::Abs(1e-3);

    let id_cfg = PipelineConfig::default_for(3);
    assert_eq!(
        cliz::compress(&g, None, eb, &id_cfg).unwrap(),
        cliz::compress_alloc_baseline(&g, None, eb, &id_cfg).unwrap(),
        "identity permutation diverged"
    );

    let perm_cfg = PipelineConfig {
        permutation: vec![2, 0, 1],
        ..PipelineConfig::default_for(3)
    };
    assert_eq!(
        cliz::compress(&g, None, eb, &perm_cfg).unwrap(),
        cliz::compress_alloc_baseline(&g, None, eb, &perm_cfg).unwrap(),
        "permuted layout diverged"
    );

    let m_cfg = PipelineConfig::default_for(2);
    assert_eq!(
        cliz::compress(&gm, Some(&mask), eb, &m_cfg).unwrap(),
        cliz::compress_alloc_baseline(&gm, Some(&mask), eb, &m_cfg).unwrap(),
        "masked pipeline diverged"
    );

    assert_eq!(
        cliz::compress_chunked_with_threads(&g, None, eb, &id_cfg, 5, 0).unwrap(),
        cliz::compress_chunked_alloc_baseline(&g, None, eb, &id_cfg, 5).unwrap(),
        "chunked container diverged"
    );

    // 14 rows in slabs of 5 leave a 4-row tail slab.
    assert_eq!(
        cliz::compress_chunked_with_threads(&gm, Some(&mask), eb, &m_cfg, 5, 0).unwrap(),
        cliz::compress_chunked_alloc_baseline(&gm, Some(&mask), eb, &m_cfg, 5).unwrap(),
        "masked chunked container diverged"
    );
}

/// Invariant 3: reusing one arena across many calls is observationally
/// identical to a fresh arena per call, for both directions, and the arena
/// actually pools buffers between calls.
#[test]
fn arena_reuse_is_observationally_identical() {
    let fields: Vec<Grid<f32>> = vec![
        smooth(&[10, 12, 8]),
        smooth(&[9, 6, 14]),
        smooth(&[16, 5, 5]),
    ];
    let cfg = PipelineConfig::default_for(3);
    let eb = ErrorBound::Abs(1e-3);

    let mut arena = ScratchArena::new();
    for (round, g) in fields.iter().enumerate() {
        let (reused, s1) = cliz::compress_with_stats_arena(g, None, eb, &cfg, &mut arena).unwrap();
        let (fresh, s2) =
            cliz::compress_with_stats_arena(g, None, eb, &cfg, &mut ScratchArena::new()).unwrap();
        assert_eq!(reused, fresh, "compress bytes diverged on round {round}");
        assert_eq!(s1, s2, "stats diverged on round {round}");

        let via_arena = cliz::decompress_arena(&reused, None, &mut arena).unwrap();
        let via_fresh = cliz::decompress(&reused, None).unwrap();
        assert_eq!(via_arena, via_fresh, "decode diverged on round {round}");
        if round > 0 {
            let (f32s, u32s) = arena.pooled();
            assert!(
                f32s + u32s > 0,
                "arena never pooled anything — reuse is not happening"
            );
        }
    }

    // Masked round after unmasked rounds: a stale gather buffer must not
    // leak symbols between calls.
    let (gm, mask) = masked(&[11, 13]);
    let cfg2 = PipelineConfig::default_for(2);
    let (reused, _) =
        cliz::compress_with_stats_arena(&gm, Some(&mask), eb, &cfg2, &mut arena).unwrap();
    let fresh = cliz::compress(&gm, Some(&mask), eb, &cfg2).unwrap();
    assert_eq!(reused, fresh, "masked round after reuse diverged");
}
