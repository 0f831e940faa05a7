//! Random-access reads over a CZS store, through a pluggable storage
//! backend.
//!
//! [`ChunkStoreReader`] serves region queries by decoding only the slabs a
//! query intersects. Bytes come through a [`cliz_storage::ReadableStorage`]
//! backend — a local file, a memory buffer, or an HTTP range endpoint —
//! never through direct `std::fs` access:
//!
//! * **Open** fetches a small prefix (doubling on truncation) and parses
//!   the store metadata and the CLZC container header out of it, then
//!   cross-checks the store index against the container's own offset
//!   table. From the header the reader keeps only the slab geometry, as a
//!   [`ChunkIndex`]; the mask it keeps once, as the store's [`MaskMap`].
//!   No payload bytes are read until a query needs them.
//! * **`read_region`** probes the cache for every intersected chunk, then
//!   plans the misses through the range-coalescing planner
//!   ([`cliz_storage::coalesce`]): adjacent or near-adjacent chunk ranges
//!   (gap ≤ [`DEFAULT_COALESCE_GAP`]) merge into single backend gets, so
//!   k contiguous cold chunks cost one round trip, not k. Once every get
//!   is in, the cold chunks decode as jobs of cliz-core's worker pool
//!   ([`run_pool`]), costed by blob length. The host's cores are shared
//!   among the region reads in flight: a read gets
//!   `max(1, cores / reads_in_flight)` workers, at most one per cold chunk.
//!   The pool's caller works one group itself, so at one worker the
//!   decode runs on the calling thread and nothing is spawned: a server
//!   whose workers already fill the cores never fans out further. A
//!   panicking decode fails the read with an error at every width.
//!   Each chunk's part of the region is then copied into the output as
//!   maximal contiguous row runs ([`cliz_grid::Shape::block_runs`]): a
//!   full read is one copy per chunk.
//!
//! The reader is `Sync`: concurrent readers share one decoded-chunk cache
//! (evicting by lookup count, then recency), and a per-chunk decode lock guarantees a cold chunk is
//! decompressed exactly once no matter how many threads, or pool workers,
//! race for it:
//!
//! 1. probe the cache (records hit/miss);
//! 2. on miss, fetch the chunk's bytes (coalesced when part of a region);
//! 3. take that chunk's decode mutex and re-probe quietly — a racing
//!    thread may have decoded while we waited;
//! 4. verify the chunk's CRC32, decode into a pooled [`ScratchArena`]
//!    (the `ChunkIndex` cuts the chunk's mask slab as one contiguous copy of
//!    the full mask), and publish the `Arc` into the cache.
//!
//! No reader lock is held across the pool: each job takes only its own
//! chunk's decode mutex, inside step 3. The decode counter counts step 4
//! only, so tests can assert that a query touched exactly the chunks its
//! row range intersects and nothing else.

use crate::cache::{CacheStats, ChunkCache};
use crate::checksum::crc32;
use crate::error::StoreError;
use crate::format::{parse_store_prefix, StoreIndex, StoreMeta};
use crate::sync::{lock_or_recover, AtomicU64, Mutex, MutexGuard, Ordering};
use cliz_core::{
    decompress_chunk_blob_arena, read_header_prefix, run_pool, ChunkIndex, ChunkedHeader,
    ClizError, ScratchArena,
};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_storage::{coalesce, FileBackend, MemBackend, RangeItem, ReadableStorage, StorageError};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Default decoded-chunk cache budget: 64 MiB.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// The coalescing gap every region read plans with: misses whose byte
/// ranges are separated by at most this many bytes (e.g. by a chunk that
/// is already cached) are fetched in one backend get. 64 KiB trades at
/// most that much wasted transfer for one fewer round trip — the right
/// trade everywhere except pathologically slow links.
pub const DEFAULT_COALESCE_GAP: u64 = 64 << 10;

/// First metadata prefix fetched at open; doubled until the store header
/// parses (stores with big indexes or masks need more than one round).
const OPEN_PREFIX_BYTES: u64 = 64 << 10;

/// Reader-level counters: decode work plus backend traffic plus cache
/// counters.
#[derive(Clone, Copy, Debug)]
pub struct StoreStats {
    /// Chunks decompressed (cache misses that did real work).
    pub decodes: u64,
    /// Nanoseconds spent inside the chunk codec (sums across threads).
    pub decode_ns: u64,
    /// Backend `get` calls issued, after coalescing.
    pub backend_gets: u64,
    /// Bytes fetched from the backend.
    pub backend_bytes: u64,
    pub cache: CacheStats,
}

/// Concurrent random-access reader over a CZS store behind a storage
/// backend.
pub struct ChunkStoreReader {
    storage: Arc<dyn ReadableStorage>,
    index: StoreIndex,
    /// Absolute byte range of the CLZC payload within the object.
    payload: Range<u64>,
    /// Slab geometry, validated once at open; each decode cuts its
    /// chunk's mask slab out of `mask` through it.
    geometry: ChunkIndex,
    mask: Option<MaskMap>,
    cache: ChunkCache,
    /// One decode lock per chunk; holders are decoding that chunk.
    locks: Vec<Mutex<()>>,
    /// Pool of scratch arenas so concurrent decodes reuse buffers without
    /// a shared bottleneck.
    arenas: Mutex<Vec<ScratchArena>>,
    decodes: AtomicU64,
    decode_ns: AtomicU64,
    backend_gets: AtomicU64,
    backend_bytes: AtomicU64,
    /// The host's parallelism, read once at open.
    cores: usize,
    /// `read_region` calls currently running; they share `cores`.
    reads_in_flight: AtomicU64,
}

/// Counts one region read in flight for as long as it lives.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(reads: &'a AtomicU64) -> Self {
        reads.fetch_add(1, Ordering::Relaxed);
        Self(reads)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

// The whole point of the reader: shared across scoped threads.
const _: () = {
    const fn require_sync<T: Sync + Send>() {}
    require_sync::<ChunkStoreReader>()
};

impl ChunkStoreReader {
    /// Opens a store from bytes with the [`DEFAULT_CACHE_BUDGET`].
    pub fn from_bytes(raw: Vec<u8>) -> Result<Self, StoreError> {
        Self::with_cache_budget(raw, DEFAULT_CACHE_BUDGET)
    }

    /// Opens a store file with the [`DEFAULT_CACHE_BUDGET`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let backend = FileBackend::open(path.as_ref())?;
        Self::from_storage(Arc::new(backend), DEFAULT_CACHE_BUDGET)
    }

    /// Opens a store from bytes with an explicit cache byte budget.
    pub fn with_cache_budget(raw: Vec<u8>, budget: usize) -> Result<Self, StoreError> {
        Self::from_storage(Arc::new(MemBackend::new(raw)), budget)
    }

    /// Opens a store through any [`ReadableStorage`] backend.
    ///
    /// Open-time validation range-reads a metadata prefix (doubling on
    /// truncation until the header parses), then parses both headers and
    /// cross-checks the store index against the CLZC container's own
    /// offset table, so a store whose index lies about chunk locations is
    /// rejected before any region query runs. Chunk CRCs are verified
    /// lazily, per decode. No payload bytes beyond the container header
    /// are fetched at open.
    pub fn from_storage(
        storage: Arc<dyn ReadableStorage>,
        budget: usize,
    ) -> Result<Self, StoreError> {
        let size = storage.size()?;
        let full_len =
            usize::try_from(size).map_err(|_| StoreError::Corrupt("implausible size"))?;
        let gets = AtomicU64::new(0);
        let bytes_fetched = AtomicU64::new(0);
        let fetch = |range: Range<u64>| -> Result<Vec<u8>, StoreError> {
            let want = (range.end - range.start) as usize;
            let got = storage.get(range)?;
            gets.fetch_add(1, Ordering::Relaxed);
            bytes_fetched.fetch_add(got.len() as u64, Ordering::Relaxed);
            if got.len() != want {
                return Err(StoreError::Storage(StorageError::ShortRead {
                    expected: want,
                    got: got.len(),
                }));
            }
            Ok(got)
        };

        // Metadata prefix loop: fetch, parse, double on truncation.
        let mut take = OPEN_PREFIX_BYTES.min(size);
        let meta: StoreMeta = loop {
            let prefix = fetch(0..take)?;
            match parse_store_prefix(&prefix, full_len) {
                Ok(m) => break m,
                Err(StoreError::Corrupt("truncated")) if take < size => {
                    take = take.saturating_mul(2).min(size);
                }
                Err(e) => return Err(e),
            }
        };
        let payload_start = meta.payload_start as u64;
        let payload_len = meta.payload_len as u64;
        // parse_store_prefix already rejected payloads past the object
        // end; anything *after* the payload is not part of the format.
        if payload_start + payload_len != size {
            return Err(StoreError::Corrupt("trailing bytes after payload"));
        }

        // Container header prefix loop over the payload range.
        let mut take = OPEN_PREFIX_BYTES.min(payload_len);
        let header: ChunkedHeader = loop {
            let prefix = fetch(payload_start..payload_start + take)?;
            match read_header_prefix(&prefix, meta.payload_len) {
                Ok(h) => break h,
                Err(ClizError::Truncated) if take < payload_len => {
                    take = take.saturating_mul(2).min(payload_len);
                }
                Err(e) => return Err(e.into()),
            }
        };

        let index = meta.index;
        if header.dims != index.dims {
            return Err(StoreError::Corrupt("container dims disagree with index"));
        }
        if header.chunk_len != index.chunk_len {
            return Err(StoreError::Corrupt(
                "container chunk length disagrees with index",
            ));
        }
        if header.n_chunks != index.entries.len() {
            return Err(StoreError::Corrupt(
                "container chunk count disagrees with index",
            ));
        }
        for (i, e) in index.entries.iter().enumerate() {
            let start = header.offsets.get(i).copied();
            let end = header.offsets.get(i + 1).copied();
            if start != Some(e.offset) || end != e.offset.checked_add(e.len) {
                return Err(StoreError::Corrupt("index disagrees with offset table"));
            }
        }
        let geometry = header.index()?;
        let n = index.entries.len();
        Ok(Self {
            storage,
            index,
            payload: payload_start..payload_start + payload_len,
            geometry,
            mask: meta.mask,
            cache: ChunkCache::new(budget),
            locks: (0..n).map(|_| Mutex::new(())).collect(),
            arenas: Mutex::new(Vec::new()),
            decodes: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
            backend_gets: gets,
            backend_bytes: bytes_fetched,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            reads_in_flight: AtomicU64::new(0),
        })
    }

    /// Variable name.
    pub fn name(&self) -> &str {
        &self.index.name
    }

    /// Dataset extents, slowest axis first.
    pub fn dims(&self) -> &[usize] {
        &self.index.dims
    }

    /// Dimension names, parallel to [`dims`](Self::dims).
    pub fn dim_names(&self) -> &[String] {
        &self.index.dim_names
    }

    /// String attributes in file order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.index.attrs
    }

    /// Slab thickness along axis 0.
    pub fn chunk_len(&self) -> usize {
        self.index.chunk_len
    }

    /// Number of slabs in the store.
    pub fn n_chunks(&self) -> usize {
        self.index.entries.len()
    }

    /// The validity mask, if the dataset has one.
    pub fn mask(&self) -> Option<&MaskMap> {
        self.mask.as_ref()
    }

    /// Chunks decompressed so far (not counting cache hits).
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Reader, backend, and cache counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            decodes: self.decode_count(),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            backend_gets: self.backend_gets.load(Ordering::Relaxed),
            backend_bytes: self.backend_bytes.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    fn lock_arena(&self) -> MutexGuard<'_, Vec<ScratchArena>> {
        lock_or_recover(&self.arenas)
    }

    /// One counted, length-checked backend get. Every payload byte the
    /// reader ever sees flows through here.
    fn fetch(&self, range: Range<u64>) -> Result<Vec<u8>, StoreError> {
        let want = (range.end.saturating_sub(range.start)) as usize;
        let got = self.storage.get(range)?;
        self.backend_gets.fetch_add(1, Ordering::Relaxed);
        self.backend_bytes
            .fetch_add(got.len() as u64, Ordering::Relaxed);
        if got.len() != want {
            // A backend that acknowledges a range and then under-delivers
            // (truncated file, lying server, injected fault) is a contract
            // violation, surfaced typed rather than decoded as garbage.
            return Err(StoreError::Storage(StorageError::ShortRead {
                expected: want,
                got: got.len(),
            }));
        }
        Ok(got)
    }

    /// Absolute byte range of chunk `i` within the storage object.
    fn chunk_byte_range(&self, i: usize) -> Result<Range<u64>, StoreError> {
        let entry = self
            .index
            .entries
            .get(i)
            .copied()
            .ok_or(StoreError::Corrupt("index entry missing"))?;
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or(StoreError::Corrupt("index entry overflows"))?;
        let abs_start = self
            .payload
            .start
            .checked_add(entry.offset as u64)
            .ok_or(StoreError::Corrupt("index entry overflows"))?;
        let abs_end = self
            .payload
            .start
            .checked_add(end as u64)
            .ok_or(StoreError::Corrupt("index entry overflows"))?;
        Ok(abs_start..abs_end)
    }

    /// CRC-check and decode chunk `i` from its fetched blob. Called only
    /// under the chunk's decode lock (via the cache's stampede protocol).
    fn decode_blob(&self, i: usize, blob: &[u8]) -> Result<Arc<Grid<f32>>, StoreError> {
        let entry = self
            .index
            .entries
            .get(i)
            .copied()
            .ok_or(StoreError::Corrupt("index entry missing"))?;
        if blob.len() != entry.len {
            return Err(StoreError::Storage(StorageError::ShortRead {
                expected: entry.len,
                got: blob.len(),
            }));
        }
        if crc32(blob) != entry.checksum {
            return Err(StoreError::Checksum { chunk: i });
        }
        let mut arena = self.lock_arena().pop().unwrap_or_default();
        let t0 = Instant::now();
        let decoded =
            decompress_chunk_blob_arena(blob, &self.geometry, self.mask.as_ref(), i, &mut arena);
        self.decode_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.lock_arena().push(arena);
        let grid = Arc::new(decoded?);
        self.decodes.fetch_add(1, Ordering::Relaxed);
        Ok(grid)
    }

    /// Workers for a read's `cold` chunk decodes: the host's cores shared
    /// evenly among the region reads in flight, at most one per cold chunk,
    /// and never fewer than one.
    fn decode_width(&self, cold: usize) -> usize {
        let reads =
            usize::try_from(self.reads_in_flight.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
        (self.cores / reads.max(1)).min(cold).max(1)
    }

    /// Returns the decoded grid of every chunk in `needed`, in order. One
    /// counted probe per chunk; the misses are fetched in coalesced backend
    /// gets, all before any decode starts, and then decoded once each across
    /// racing threads, on up to [`Self::decode_width`] pool workers. A failed
    /// decode publishes nothing, and the error returned is the first in
    /// chunk order.
    fn gather_chunks(&self, needed: Range<usize>) -> Result<Vec<Arc<Grid<f32>>>, StoreError> {
        let mut chunks: Vec<Option<Arc<Grid<f32>>>> = Vec::with_capacity(needed.len());
        let mut missing: Vec<RangeItem> = Vec::new();
        for (slot, ci) in needed.clone().enumerate() {
            let hit = self.cache.get(ci);
            if hit.is_none() {
                missing.push(RangeItem {
                    id: slot,
                    range: self.chunk_byte_range(ci)?,
                });
            }
            chunks.push(hit);
        }
        let plan = coalesce(&missing, DEFAULT_COALESCE_GAP);
        let fetched = plan
            .iter()
            .map(|get| self.fetch(get.range.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cold: Vec<(usize, &[u8])> = Vec::with_capacity(missing.len());
        for (get, bytes) in plan.iter().zip(&fetched) {
            for (slot, sub) in &get.items {
                let view = bytes
                    .get(sub.clone())
                    .ok_or(StoreError::Corrupt("coalesced fetch shorter than plan"))?;
                cold.push((*slot, view));
            }
        }
        // The plan runs in byte order; decode, and report, in chunk order.
        cold.sort_unstable_by_key(|&(slot, _)| slot);
        let width = self.decode_width(cold.len());
        let decoded = run_pool(
            cold,
            |(_, blob)| blob.len() as f64,
            width,
            |(slot, blob), _| {
                let ci = needed.start + slot;
                let lock = self
                    .locks
                    .get(ci)
                    .ok_or(StoreError::BadRegion("chunk index out of range"))?;
                // The probe above already counted this chunk's miss; the quiet
                // variant re-checks under the lock without double-counting, in
                // case a racing reader published it while this one was fetching.
                let grid = self
                    .cache
                    .decode_quiet(ci, lock, || self.decode_blob(ci, blob))?;
                Ok::<_, StoreError>((slot, grid))
            },
        )?;
        for (slot, grid) in decoded {
            if let Some(chunk) = chunks.get_mut(slot) {
                *chunk = Some(grid);
            }
        }
        chunks
            .into_iter()
            .map(|c| c.ok_or(StoreError::Corrupt("chunk missing after gather")))
            .collect()
    }

    /// Reads the axis-aligned region `ranges` (one half-open range per
    /// dimension), decoding only the slabs whose rows intersect
    /// `ranges[0]`. Cold chunks are fetched in coalesced backend gets —
    /// k contiguous missing chunks cost one `get`, not k — and decoded on
    /// the worker pool when the host has cores to spare. Each chunk's part
    /// of the region is appended to the output as contiguous row runs, in
    /// output order, with no zero fill first. Returns a grid shaped by the
    /// range lengths.
    pub fn read_region(&self, ranges: &[Range<usize>]) -> Result<Grid<f32>, StoreError> {
        let _in_flight = InFlight::enter(&self.reads_in_flight);
        let dims = self.dims();
        if ranges.len() != dims.len() {
            return Err(StoreError::BadRegion("rank mismatch"));
        }
        for (r, &d) in ranges.iter().zip(dims) {
            if r.start >= r.end {
                return Err(StoreError::BadRegion("empty range"));
            }
            if r.end > d {
                return Err(StoreError::BadRegion("range exceeds extent"));
            }
        }
        let row0 = ranges
            .first()
            .cloned()
            .ok_or(StoreError::BadRegion("rank mismatch"))?;
        let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
        let total: usize = lens.iter().product();

        let needed = self.geometry.intersecting(&row0);
        let chunks = self.gather_chunks(needed.clone())?;
        // Chunks run along axis 0 and `block_runs` yields each chunk's runs
        // in output order, so the region is the runs appended in turn: no
        // zero fill, no per-run offsets, and one length check at the end.
        let mut out = Vec::with_capacity(total);
        // The block each chunk contributes, in the chunk's own coordinates:
        // only the axis-0 entries change from chunk to chunk.
        let mut start: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let mut size = lens.clone();
        for (ci, chunk) in needed.zip(&chunks) {
            let rows = self
                .geometry
                .rows(ci)
                .ok_or(StoreError::Corrupt("chunk geometry out of range"))?;
            let isect = row0.start.max(rows.start)..row0.end.min(rows.end);
            if let (Some(s0), Some(n0)) = (start.first_mut(), size.first_mut()) {
                *s0 = isect.start - rows.start;
                *n0 = isect.len();
            }
            let runs = chunk
                .shape()
                .block_runs(&start, &size)
                .ok_or(StoreError::Corrupt("chunk shorter than its geometry"))?;
            for run in runs {
                let src = chunk
                    .as_slice()
                    .get(run)
                    .ok_or(StoreError::Corrupt("chunk shorter than its geometry"))?;
                out.extend_from_slice(src);
            }
        }
        if out.len() != total {
            return Err(StoreError::Corrupt("region assembly length mismatch"));
        }
        Ok(Grid::from_vec(Shape::new(&lens), out))
    }

    /// Decodes the entire dataset (a region query over every extent).
    pub fn read_all(&self) -> Result<Grid<f32>, StoreError> {
        let ranges: Vec<Range<usize>> = self.dims().iter().map(|&d| 0..d).collect();
        self.read_region(&ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caf::Dataset;
    use crate::pack::pack_store;
    use cliz_core::config::PipelineConfig;
    use cliz_quant::ErrorBound;
    use cliz_storage::{Fault, FlakyBackend};

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.23 * (k + 1) as f64).sin() * 4.0;
            }
            v as f32
        })
    }

    fn store_bytes(dims: &[usize], chunk_len: usize) -> (Dataset, Vec<u8>) {
        let ds = Dataset::new("tas", smooth(dims), None);
        let cfg = PipelineConfig::default_for(dims.len());
        let bytes = pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, chunk_len, 1).unwrap();
        (ds, bytes)
    }

    #[test]
    fn region_matches_full_decode() {
        let (_, bytes) = store_bytes(&[20, 10, 6], 5);
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        let full = reader.read_all().unwrap();
        let region = reader.read_region(&[7..14, 2..9, 1..5]).unwrap();
        assert_eq!(region.shape().dims(), &[7, 7, 4]);
        for t in 0..7 {
            for y in 0..7 {
                for x in 0..4 {
                    assert_eq!(
                        region.get(&[t, y, x]),
                        full.get(&[t + 7, y + 2, x + 1]),
                        "mismatch at [{t},{y},{x}]"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_counter_tracks_only_intersected_chunks() {
        let (_, bytes) = store_bytes(&[20, 8], 5); // 4 chunks of 5 rows
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        // Rows 6..9 live entirely in chunk 1.
        reader.read_region(&[6..9, 0..8]).unwrap();
        assert_eq!(reader.decode_count(), 1);
        // Rows 4..11 span chunks 0..=2; chunk 1 is already cached.
        reader.read_region(&[4..11, 0..8]).unwrap();
        assert_eq!(reader.decode_count(), 3);
        let stats = reader.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 3);
    }

    #[test]
    fn region_over_contiguous_chunks_is_one_coalesced_get() {
        let (_, bytes) = store_bytes(&[20, 8], 5); // 4 chunks of 5 rows
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        let after_open = reader.stats().backend_gets;
        // All 4 chunks are cold and byte-contiguous: the planner must
        // merge them into a single backend get, not issue 4.
        reader.read_all().unwrap();
        let stats = reader.stats();
        assert_eq!(
            stats.backend_gets - after_open,
            1,
            "k contiguous cold chunks must cost exactly 1 coalesced get"
        );
        assert_eq!(reader.decode_count(), 4);
        // Warm repeat: all hits, no new backend traffic at all.
        let bytes_before = stats.backend_bytes;
        reader.read_all().unwrap();
        let warm = reader.stats();
        assert_eq!(warm.backend_gets - after_open, 1);
        assert_eq!(warm.backend_bytes, bytes_before);
    }

    #[test]
    fn cached_hole_reads_through_within_gap() {
        let (_, bytes) = store_bytes(&[20, 8], 5);
        // The coalescing gap (64 KiB) dwarfs any chunk here: warming chunk
        // 1 first leaves a hole the planner reads straight through.
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        reader.read_region(&[6..9, 0..8]).unwrap(); // warm chunk 1
        let before = reader.stats().backend_gets;
        reader.read_all().unwrap(); // misses 0, 2, 3 around the cached 1
        assert_eq!(reader.stats().backend_gets - before, 1);
    }

    #[test]
    fn single_chunk_query_fetches_only_that_chunk() {
        let (_, bytes) = store_bytes(&[20, 8], 5);
        let total = bytes.len() as u64;
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        let open_stats = reader.stats();
        reader.read_region(&[6..9, 0..8]).unwrap(); // chunk 1 only
        let stats = reader.stats();
        assert_eq!(stats.backend_gets - open_stats.backend_gets, 1);
        // The fetch was one chunk's bytes, nowhere near the whole store.
        assert!(stats.backend_bytes - open_stats.backend_bytes < total);
    }

    #[test]
    fn transient_backend_failure_is_typed_not_panic() {
        let (_, bytes) = store_bytes(&[20, 8], 5);
        // Open performs 2 gets (metadata + container header); the third
        // get — the first region fetch — fails transiently.
        let backend = FlakyBackend::new(
            MemBackend::new(bytes),
            vec![Fault::Ok, Fault::Ok, Fault::Transient],
        );
        let reader =
            ChunkStoreReader::from_storage(Arc::new(backend), DEFAULT_CACHE_BUDGET).unwrap();
        let err = reader.read_region(&[6..9, 0..8]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Storage(StorageError::Transient(_))
        ));
        // The failure published nothing: a clean retry succeeds.
        assert!(reader.read_region(&[6..9, 0..8]).is_ok());
        assert_eq!(reader.decode_count(), 1);
    }

    #[test]
    fn short_read_mid_region_is_typed_not_panic() {
        let (_, bytes) = store_bytes(&[20, 8], 5);
        let backend = FlakyBackend::new(
            MemBackend::new(bytes),
            vec![Fault::Ok, Fault::Ok, Fault::ShortRead(10)],
        );
        let reader =
            ChunkStoreReader::from_storage(Arc::new(backend), DEFAULT_CACHE_BUDGET).unwrap();
        let err = reader.read_all().unwrap_err();
        assert!(matches!(
            err,
            StoreError::Storage(StorageError::ShortRead { .. })
        ));
    }

    #[test]
    fn eof_truncated_object_fails_open_typed() {
        let (_, bytes) = store_bytes(&[20, 8], 5);
        // The object claims its full size but every read is clipped as if
        // the file were cut off right after the metadata.
        let parsed = crate::format::parse_store(&bytes).unwrap();
        let cut = parsed.payload.start as u64 + 8;
        let backend = FlakyBackend::new(
            MemBackend::new(bytes),
            vec![
                Fault::TruncateAt(cut),
                Fault::TruncateAt(cut),
                Fault::TruncateAt(cut),
            ],
        );
        assert!(matches!(
            ChunkStoreReader::from_storage(Arc::new(backend), DEFAULT_CACHE_BUDGET).err(),
            Some(StoreError::Storage(StorageError::ShortRead { .. }))
        ));
    }

    #[test]
    fn corrupt_chunk_fails_checksum_not_codec() {
        let (_, bytes) = store_bytes(&[12, 6], 4);
        let parsed = crate::format::parse_store(&bytes).unwrap();
        let victim = parsed.payload.start + parsed.index.entries[1].offset + 4;
        let mut bad = bytes.clone();
        bad[victim] ^= 0x40;
        let reader = ChunkStoreReader::from_bytes(bad).unwrap();
        // Chunk 0 is untouched and decodes fine.
        assert!(reader.read_region(&[0..4, 0..6]).is_ok());
        // Chunk 1's CRC catches the flip before the codec runs.
        assert!(matches!(
            reader.read_region(&[4..8, 0..6]),
            Err(StoreError::Checksum { chunk: 1 })
        ));
    }

    #[test]
    fn lying_index_rejected_at_open() {
        let (_, bytes) = store_bytes(&[12, 6], 4);
        let parsed = crate::format::parse_store(&bytes).unwrap();
        // Shift chunk 1's offset/len pair while keeping the index
        // internally contiguous: grow entry 0 by 1 byte, shrink entry 1.
        let mut bad = bytes.clone();
        let name_len = parsed.index.name.len();
        let mut pos = 4 + 1 + 2 + name_len + 2;
        for (k, v) in &parsed.index.attrs {
            pos += 2 + k.len() + 2 + v.len();
        }
        pos += 1;
        for (n, _) in parsed.index.dim_names.iter().zip(&parsed.index.dims) {
            pos += 2 + n.len() + 8;
        }
        pos += 1 + 8 + 4; // flags, chunk_len, n_chunks
        let e0_len_pos = pos + 8;
        let e1_off_pos = pos + 20;
        let e1_len_pos = pos + 28;
        let bump = |b: &mut [u8], at: usize, delta: i64| {
            let mut v = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
            v = v.wrapping_add(delta as u64);
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        bump(&mut bad, e0_len_pos, 1);
        bump(&mut bad, e1_off_pos, 1);
        bump(&mut bad, e1_len_pos, -1);
        assert!(matches!(
            ChunkStoreReader::from_bytes(bad),
            Err(StoreError::Corrupt("index disagrees with offset table"))
        ));
    }

    #[test]
    fn decode_width_shares_the_cores_among_reads_in_flight() {
        let (_, bytes) = store_bytes(&[20, 8], 5);
        let mut reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        reader.cores = 4;
        let reads = &reader.reads_in_flight;
        let first = InFlight::enter(reads);
        // Alone: every core, but never more workers than cold chunks, and
        // never none.
        assert_eq!(reader.decode_width(16), 4);
        assert_eq!(reader.decode_width(3), 3);
        assert_eq!(reader.decode_width(1), 1);
        assert_eq!(reader.decode_width(0), 1);
        let more: Vec<_> = (0..4).map(|_| InFlight::enter(reads)).collect();
        // Five reads on four cores: each decodes on its own thread.
        assert_eq!(reader.decode_width(16), 1);
        drop(more);
        let second = InFlight::enter(reads);
        assert_eq!(reader.decode_width(16), 2);
        drop((first, second));
        assert_eq!(reads.load(Ordering::Relaxed), 0);
        // Every exit of `read_region`, failing ones included, leaves the
        // count where it found it.
        reader.read_all().unwrap();
        assert!(reader.read_region(&[0..30, 0..8]).is_err());
        assert_eq!(reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bad_regions_are_errors() {
        let (_, bytes) = store_bytes(&[10, 4], 4);
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            reader.read_region(std::slice::from_ref(&(0..10))),
            Err(StoreError::BadRegion("rank mismatch"))
        ));
        assert!(matches!(
            reader.read_region(&[3..3, 0..4]),
            Err(StoreError::BadRegion("empty range"))
        ));
        assert!(matches!(
            reader.read_region(&[0..11, 0..4]),
            Err(StoreError::BadRegion("range exceeds extent"))
        ));
    }

    #[test]
    fn masked_store_opens_in_two_gets() {
        // The raw bitmap alone would outgrow the first metadata prefix; as
        // a frame the mask fits it, so the open is the prefix get and the
        // container-header get.
        let dims = [8, 256, 288];
        let n: usize = dims.iter().product();
        assert!(n.div_ceil(8) as u64 > OPEN_PREFIX_BYTES);
        let flags = (0..n)
            .map(|i| {
                let (y, x) = (i / dims[2] % dims[1], i % dims[2]);
                !((60..190).contains(&y) && (40..200).contains(&x))
            })
            .collect();
        let mask = MaskMap::from_flags(Shape::new(&dims), flags);
        let ds = Dataset::new("sst", smooth(&dims), Some(mask.clone()));
        let cfg = PipelineConfig::default_for(3);
        let bytes = pack_store(&ds, ErrorBound::Abs(1e-2), &cfg, 4, 0).unwrap();
        let backend = Arc::new(MemBackend::new(bytes));
        let reader = ChunkStoreReader::from_storage(backend, DEFAULT_CACHE_BUDGET).unwrap();
        assert_eq!(reader.stats().backend_gets, 2);
        assert_eq!(reader.mask(), Some(&mask));
    }

    #[test]
    fn metadata_surfaces_through_reader() {
        let g = smooth(&[9, 5]);
        let mut ds = Dataset::new("pr", g, None);
        ds.attrs.push(("units".into(), "mm/day".into()));
        let cfg = PipelineConfig::default_for(2);
        let bytes = pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 3, 1).unwrap();
        let reader = ChunkStoreReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.name(), "pr");
        assert_eq!(reader.dims(), &[9, 5]);
        assert_eq!(reader.n_chunks(), 3);
        assert_eq!(reader.chunk_len(), 3);
        assert_eq!(reader.attrs(), &[("units".into(), "mm/day".into())]);
        assert!(reader.mask().is_none());
    }
}
