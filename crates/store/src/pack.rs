//! Building CZS stores: compress a [`Dataset`] into a CLZC payload and wrap
//! it with the per-slab index the random-access reader needs.

use crate::caf::Dataset;
use crate::checksum::crc32;
use crate::error::StoreError;
use crate::format::{self, IndexEntry};
use cliz_core::config::PipelineConfig;
use cliz_core::{compress_chunked_with_threads, read_header};
use cliz_quant::ErrorBound;
use std::io::Write;
use std::path::Path;

/// Compresses `ds` into an in-memory CZS store.
///
/// The payload is one CLZC container (slabs of `chunk_len` rows along axis
/// 0, compressed with `threads` workers; `0` means all cores). The store
/// index is derived from the container's own offset table, with a CRC32 per
/// chunk so the reader can verify integrity before decoding.
pub fn pack_store(
    ds: &Dataset,
    bound: ErrorBound,
    config: &PipelineConfig,
    chunk_len: usize,
    threads: usize,
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    pack_store_to(&mut out, ds, bound, config, chunk_len, threads)?;
    Ok(out)
}

/// [`pack_store`] writing to an arbitrary sink.
pub fn pack_store_to(
    w: &mut impl Write,
    ds: &Dataset,
    bound: ErrorBound,
    config: &PipelineConfig,
    chunk_len: usize,
    threads: usize,
) -> Result<(), StoreError> {
    ds.validate()?;
    let blob = compress_chunked_with_threads(
        &ds.data,
        ds.mask.as_ref(),
        bound,
        config,
        chunk_len,
        threads,
    )?;
    let header = read_header(&blob)?;
    let n_chunks = header.n_chunks;
    if header.offsets.len() != n_chunks.saturating_add(1) {
        return Err(StoreError::Corrupt("offset table length mismatch"));
    }
    let mut entries = Vec::with_capacity(n_chunks);
    for i in 0..n_chunks {
        let start = header
            .offsets
            .get(i)
            .copied()
            .ok_or(StoreError::Corrupt("offset table too short"))?;
        let end = header
            .offsets
            .get(i + 1)
            .copied()
            .ok_or(StoreError::Corrupt("offset table too short"))?;
        if start > end || end > blob.len() {
            return Err(StoreError::Corrupt("offset table not monotonic"));
        }
        let chunk = blob
            .get(start..end)
            .ok_or(StoreError::Corrupt("offset past container end"))?;
        entries.push(IndexEntry {
            offset: start,
            len: end - start,
            checksum: crc32(chunk),
        });
    }
    let index = format::index_for(ds, chunk_len, entries);
    format::write_store(w, &index, ds.mask.as_ref(), &blob)
}

/// Packs `ds` and writes the store to `path`, replacing a previous file
/// only once the whole store is written ([`crate::write_atomic`]).
pub fn save_store(
    path: impl AsRef<Path>,
    ds: &Dataset,
    bound: ErrorBound,
    config: &PipelineConfig,
    chunk_len: usize,
    threads: usize,
) -> Result<(), StoreError> {
    crate::write_atomic(path.as_ref(), |w| {
        pack_store_to(w, ds, bound, config, chunk_len, threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_store;
    use cliz_grid::{Grid, MaskMap, Shape};

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.17 * (k + 1) as f64).sin() * 2.0;
            }
            v as f32
        })
    }

    /// A dataset that fails validation (one dimension name missing) must
    /// leave a previous CAF and a previous store byte-identical, and no
    /// temp file behind.
    #[test]
    fn failed_saves_keep_the_previous_files() {
        let dir = std::env::temp_dir().join(format!("cliz_failed_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (caf, czs) = (dir.join("good.caf"), dir.join("good.czs"));
        let mut good = Dataset::new("tas", smooth(&[14, 9]), None);
        good.dim_names = vec!["lat".into(), "lon".into()];
        let cfg = PipelineConfig::default_for(2);
        crate::save(&caf, &good).unwrap();
        save_store(&czs, &good, ErrorBound::Abs(1e-3), &cfg, 4, 1).unwrap();
        let (old_caf, old_czs) = (std::fs::read(&caf).unwrap(), std::fs::read(&czs).unwrap());
        assert!(!old_caf.is_empty() && !old_czs.is_empty());

        let mut bad = good.clone();
        bad.dim_names.pop();
        assert!(matches!(
            crate::save(&caf, &bad),
            Err(StoreError::Invalid(_))
        ));
        let packed = save_store(&czs, &bad, ErrorBound::Abs(1e-3), &cfg, 4, 1);
        assert!(matches!(packed, Err(StoreError::Invalid(_))));
        assert_eq!(std::fs::read(&caf).unwrap(), old_caf);
        assert_eq!(std::fs::read(&czs).unwrap(), old_czs);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["good.caf", "good.czs"], "temp files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn packed_store_parses_and_index_matches_container() {
        let ds = Dataset::new("tas", smooth(&[14, 9]), None);
        let cfg = PipelineConfig::default_for(2);
        let out = pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 4, 1).unwrap();
        let parsed = parse_store(&out).unwrap();
        assert_eq!(parsed.index.dims, vec![14, 9]);
        assert_eq!(parsed.index.entries.len(), 4); // ceil(14/4)
        let container = &out[parsed.payload.clone()];
        let header = read_header(container).unwrap();
        for (i, e) in parsed.index.entries.iter().enumerate() {
            assert_eq!(e.offset, header.offsets[i]);
            assert_eq!(e.offset + e.len, header.offsets[i + 1]);
            assert_eq!(e.checksum, crc32(&container[e.offset..e.offset + e.len]));
        }
    }

    #[test]
    fn masked_pack_sets_flag_and_stores_bits() {
        let g = smooth(&[8, 6]);
        let valid: Vec<bool> = (0..48).map(|i| i % 5 != 0).collect();
        let mask = MaskMap::from_flags(Shape::new(&[8, 6]), valid);
        let ds = Dataset::new("sst", g, Some(mask.clone()));
        let cfg = PipelineConfig::default_for(2);
        let out = pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 3, 1).unwrap();
        let parsed = parse_store(&out).unwrap();
        assert!(parsed.index.has_mask);
        assert_eq!(parsed.mask.unwrap().as_slice(), mask.as_slice());
        // 8 rows in chunks of 3 leave a 2-row tail; no worker count,
        // including the host default `0`, changes a byte.
        for workers in [2, 3, 0] {
            let par = pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 3, workers).unwrap();
            assert_eq!(par, out, "pack diverged at {workers} workers");
        }
    }

    /// A masked field with an annual cycle along its last axis, under a
    /// permuted periodic config.
    fn masked_periodic() -> (Dataset, PipelineConfig) {
        let dims = [10usize, 6, 30];
        let g = Grid::from_fn(Shape::new(&dims), |c| {
            let phase = std::f32::consts::TAU * (c[2] % 12) as f32 / 12.0;
            c[0] as f32 * 0.7 + (c[1] as f32 * 0.3).sin() + 2.0 * phase.sin()
        });
        let valid = (0..g.len())
            .map(|i| (i / 30 % 7) != 2 && i % 11 != 0)
            .collect();
        let mask = MaskMap::from_flags(Shape::new(&dims), valid);
        let mut ds = Dataset::new("sst", g, Some(mask));
        ds.dim_names = ["lat", "lon", "time"].map(String::from).to_vec();
        let cfg = PipelineConfig {
            permutation: vec![2, 0, 1],
            periodicity: cliz_core::Periodicity::Extract {
                time_axis: 2,
                period: 12,
            },
            ..PipelineConfig::default_for(3)
        };
        (ds, cfg)
    }

    /// Packed under a relative bound (so the range pass runs on the pool
    /// too), the whole store, index, CRCs, mask frame and payload, is the
    /// same bytes at 0, 1, 2 and 3 workers.
    #[test]
    fn store_bytes_identical_across_worker_counts() {
        let (ds, cfg) = masked_periodic();
        let bound = ErrorBound::Rel(1e-3);
        let serial = pack_store(&ds, bound, &cfg, 3, 1).unwrap();
        let parsed = parse_store(&serial).unwrap();
        assert_eq!(parsed.mask.as_ref(), ds.mask.as_ref());
        assert_eq!(parsed.index.entries.len(), 4);
        for workers in [0, 2, 3] {
            let par = pack_store(&ds, bound, &cfg, 3, workers).unwrap();
            assert_eq!(par, serial, "store diverged at {workers} workers");
        }
    }

    /// A dataset that fails validation, and a slab that fails in the pool
    /// (an infinite bound reaches every slab's quantizer, which panics; the
    /// pool reports it as `Backend`), are typed errors at every worker
    /// count, masked or not.
    #[test]
    fn pack_failures_are_typed_at_every_worker_count() {
        let (ds, cfg) = masked_periodic();
        let mut unmasked = ds.clone();
        unmasked.mask = None;
        let mut bad = ds.clone();
        bad.dim_names.pop();
        for workers in [0, 1, 2, 3] {
            let got = pack_store(&bad, ErrorBound::Rel(1e-3), &cfg, 3, workers);
            assert!(
                matches!(
                    got,
                    Err(StoreError::Invalid("dimension-name arity mismatch"))
                ),
                "{workers} workers: {got:?}"
            );
            for ds in [&ds, &unmasked] {
                let got = pack_store(ds, ErrorBound::Abs(f64::INFINITY), &cfg, 3, workers);
                assert!(
                    matches!(
                        &got,
                        Err(StoreError::Codec(cliz_core::ClizError::Backend(_)))
                    ),
                    "{workers} workers, masked {}: {got:?}",
                    ds.mask.is_some()
                );
            }
        }
    }

    #[test]
    fn invalid_dataset_is_an_error_not_a_panic() {
        let mut ds = Dataset::new("x", smooth(&[6, 4]), None);
        ds.dim_names.pop();
        let cfg = PipelineConfig::default_for(2);
        assert!(matches!(
            pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 2, 1),
            Err(StoreError::Invalid(_))
        ));
    }
}
