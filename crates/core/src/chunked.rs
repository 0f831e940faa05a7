//! Chunked compression: slab-split containers with random chunk access.
//!
//! HDF5/NetCDF deployments (the paper's integration target) compress
//! chunk-by-chunk so readers can decode a time slice without touching the
//! rest of the file. This module splits a grid into slabs along axis 0,
//! compresses each slab as an independent CLIZ container under one shared
//! pipeline configuration and one globally-resolved error bound, and lays
//! them out behind an offset table for O(1) chunk lookup.
//!
//! Format: `magic "CLZC" | ver u8 | ndim u8 | dims ndim×u64 | chunk_len u64 |
//! n_chunks u32 | offsets (n_chunks+1)×u64 | chunk containers…`.
//!
//! [`ChunkIndex`] owns the slab geometry. It validates the dims once, and
//! it reads every slab, of the data and of the mask alike, as one
//! contiguous sub-slice of the row-major buffer, in place: the encoder
//! permutes each slab straight from the field into its working layout.
//! Slabs are independent, so encode and
//! decode share one scoped worker pool: slab jobs are LPT-grouped by
//! estimated cost ([`cliz_transfer::assign_lpt`]; the tail slab is thinner
//! than the rest), the calling thread works one group and each other group
//! runs on a scoped thread, every worker with its own [`ScratchArena`], and
//! the results come back in slab order. The container bytes and the decoded
//! grid are byte-identical across any worker count, including 1.

use crate::compressor::{
    compress_alloc_baseline, compress_resolved, decompress_arena, valid_min_max, Field,
};
use crate::config::PipelineConfig;
use crate::error::ClizError;
use crate::scratch::ScratchArena;
use cliz_format::{spec::CLZC, HeaderReader, HeaderWriter};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_quant::ErrorBound;
use cliz_transfer::assign_lpt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of slabs a grid of `dim0` splits into with `chunk_len` thickness.
fn chunk_count(dim0: usize, chunk_len: usize) -> usize {
    dim0.div_ceil(chunk_len)
}

/// The one worker pool for slab jobs: the chunked encoder and decoder here,
/// and the store reader's cold-chunk decodes. LPT-groups `jobs` by `cost`
/// onto at most `threads` workers (`0` = the host's parallelism). The
/// calling thread works the first group itself and each other group runs
/// on a scoped thread, so one worker spawns nothing; every worker has its
/// own [`ScratchArena`]. Returns the results in job order. Every job runs
/// even when another fails, so the error returned (the first in job order)
/// does not depend on the worker count. The jobs of a group that panicked,
/// or whose thread the OS refused to start, fail as [`ClizError::Backend`],
/// converted into the caller's error type; one worker is one group, so a
/// panicking job is contained at every thread count, the calling thread's
/// group included.
pub fn run_pool<J: Send, R: Send, E: Send + From<ClizError>>(
    jobs: Vec<J>,
    cost: impl Fn(&J) -> f64,
    threads: usize,
    work: impl Fn(J, &mut ScratchArena) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    let costs: Vec<f64> = jobs.iter().map(cost).collect();
    let mut pending: Vec<Option<J>> = jobs.into_iter().map(Some).collect();
    let mut done: Vec<Option<Result<R, E>>> = pending.iter().map(|_| None).collect();
    // assign_lpt makes at most one group per job, so no worker idles, and
    // it partitions the job indices exactly once, so every job moves to
    // exactly one group.
    let mut groups = assign_lpt(&costs, workers).into_iter().map(|group| {
        group
            .into_iter()
            .filter_map(|j| Some((j, pending.get_mut(j)?.take()?)))
            .collect::<Vec<(usize, J)>>()
    });
    let own = groups.next();
    let run_group = |group: Vec<(usize, J)>| {
        let mut arena = ScratchArena::new();
        group
            .into_iter()
            .map(|(j, job)| (j, work(job, &mut arena)))
            .collect::<Vec<_>>()
    };
    let run_group = &run_group;
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .map(|group| std::thread::Builder::new().spawn_scoped(s, move || run_group(group)))
            .collect();
        // A panic here is contained as a spawned worker's is: the group's
        // partial results are dropped and its jobs fail below.
        let own = own.and_then(|group| catch_unwind(AssertUnwindSafe(|| run_group(group))).ok());
        // A group that panicked, or whose worker never started, reports
        // nothing, so its jobs stay `None`.
        let spawned = handles.into_iter().filter_map(|h| h.ok()?.join().ok());
        for (j, result) in own.into_iter().chain(spawned).flatten() {
            if let Some(slot) = done.get_mut(j) {
                *slot = Some(result);
            }
        }
    });
    done.into_iter()
        .map(|r| r.unwrap_or_else(|| Err(ClizError::Backend("pool worker failed".into()).into())))
        .collect()
}

/// Compresses `data` as independent slabs along axis 0 on `threads`
/// workers (`0` = the host's parallelism).
///
/// The error bound is resolved once against the whole (valid) value range,
/// so every chunk honours the same absolute bound the caller asked for. The
/// output is byte-identical for every worker count: each slab is an
/// independent container compressed under that resolved bound, and the
/// offset table is always written in slab order.
///
/// A relative bound's range comes from one pool job per slab, each scanning
/// its slab in place; the slab ranges fold exactly into the whole field's,
/// and a periodic slab's split reads its own. An absolute bound needs no
/// whole-field range: a periodic slab scans its own, and a plain one none.
///
/// ```
/// use cliz_core::{compress_chunked_with_threads, decompress_chunked, config::PipelineConfig};
/// use cliz_grid::{Grid, Shape};
/// use cliz_quant::ErrorBound;
///
/// let data = Grid::from_fn(Shape::new(&[12, 16]), |c| (c[0] + c[1]) as f32);
/// let bytes = compress_chunked_with_threads(
///     &data, None, ErrorBound::Abs(1e-3), &PipelineConfig::default_for(2), 4, 0,
/// ).unwrap();
/// let recon = decompress_chunked(&bytes, None).unwrap();
/// assert_eq!(recon.shape().dims(), &[12, 16]);
/// assert!((recon.get(&[4, 0]) - 4.0).abs() <= 1e-3);
/// ```
///
/// Random access to a slab or a region goes through the `cliz-store`
/// reader, which decodes only the chunks a region intersects.
pub fn compress_chunked_with_threads(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    bound: ErrorBound,
    config: &PipelineConfig,
    chunk_len: usize,
    threads: usize,
) -> Result<Vec<u8>, ClizError> {
    let index = ChunkIndex::new(data.shape().dims(), chunk_len)?;
    config.validate(data.shape())?;
    if let Some(m) = mask {
        if m.shape() != data.shape() {
            return Err(ClizError::BadConfig("mask shape mismatch"));
        }
    }
    // Slab cost is proportional to element count; only the tail slab
    // differs, and LPT places it so no worker idles behind it.
    let slabs = || (0..index.n_chunks()).collect();
    let cost = |&i: &usize| index.elems(i).map_or(0.0, |n| n as f64);
    let ranges = match bound {
        ErrorBound::Rel(_) => Some(run_pool(slabs(), cost, threads, |i, _| {
            index.range(data.as_slice(), mask, i)
        })?),
        ErrorBound::Abs(_) => None,
    };
    let (mn, mx) = ranges.as_deref().map_or((0.0, 0.0), fold_ranges);
    let eb_abs = bound.resolve(mn, mx);

    // Each slab is read in place: its values and flags are sub-slices of
    // the field's, which the slab's encode permutes straight into its
    // working layout.
    let blobs = run_pool(slabs(), cost, threads, |i, arena| {
        let (shape, values) = index.slab(data.as_slice(), i)?;
        let flags = mask.map(|m| index.slab(m.as_slice(), i)).transpose()?;
        let chunk = Field {
            shape: &shape,
            values,
            mask: flags.map(|(_, f)| f),
        };
        // The slab's own `valid_min_max`, when the range pass measured it.
        let range = ranges.as_ref().map(|r| r[i].unwrap_or((0.0, 0.0)));
        compress_one_chunk(chunk, eb_abs, range, config, arena)
    })?;
    Ok(assemble_container(&index.dims, chunk_len, &blobs))
}

/// The whole field's `valid_min_max` from its slabs' finite valid ranges:
/// the least minimum and the greatest maximum, both exact, over the slabs
/// that hold such a value (a slab with none adds nothing), and `(0, 0)`
/// when no slab does.
fn fold_ranges(ranges: &[Option<(f32, f32)>]) -> (f32, f32) {
    ranges
        .iter()
        .flatten()
        .copied()
        .reduce(|(lo, hi), (mn, mx)| (lo.min(mn), hi.max(mx)))
        .unwrap_or((0.0, 0.0))
}

/// Compresses one slab as an independent container under the resolved
/// bound `eb_abs`; `range` is the slab's `valid_min_max` when the caller
/// has it. Every pool worker runs this, so the graceful periodicity degrade
/// stays identical across worker counts.
fn compress_one_chunk(
    chunk: Field<'_>,
    eb_abs: f64,
    range: Option<(f32, f32)>,
    config: &PipelineConfig,
    arena: &mut ScratchArena,
) -> Result<Vec<u8>, ClizError> {
    // The per-chunk config must validate against the chunk shape
    // (periodicity along axis 0 may not fit a slab).
    let mut chunk_config = config.clone();
    if chunk_config.validate(chunk.shape).is_err() {
        // Degrade gracefully: drop the offending periodicity.
        chunk_config.periodicity = crate::config::Periodicity::None;
        chunk_config.validate(chunk.shape)?;
    }
    compress_resolved(chunk, eb_abs, range, &chunk_config, arena).map(|(bytes, _)| bytes)
}

/// Writes the CLZC header, offset table and chunk blobs.
fn assemble_container(dims: &[usize], chunk_len: usize, blobs: &[Vec<u8>]) -> Vec<u8> {
    let n_chunks = blobs.len();
    let mut w = HeaderWriter::new();
    w.magic(&CLZC);
    w.u8(dims.len() as u8);
    for &d in dims {
        w.u64(d as u64);
    }
    w.u64(chunk_len as u64);
    w.u32(n_chunks as u32);
    let header_len = w.len() + (n_chunks + 1) * 8;
    let mut offset = header_len as u64;
    w.u64(offset);
    for b in blobs {
        offset += b.len() as u64;
        w.u64(offset);
    }
    for b in blobs {
        w.raw(b);
    }
    w.finish()
}

/// The frozen baseline's slab copy: slab `i` of `grid` along axis 0, cut
/// with the per-element `Grid::block` odometer. The live paths slice
/// through [`ChunkIndex`] instead, and are tested against this one.
fn slab<T: Copy>(grid: &Grid<T>, chunk_len: usize, i: usize) -> Grid<T> {
    let dims = grid.shape().dims();
    let start = i * chunk_len;
    let len = chunk_len.min(dims[0] - start);
    let mut s = vec![0usize; dims.len()];
    s[0] = start;
    let mut size = dims.to_vec();
    size[0] = len;
    grid.block(&s, &size)
}

/// Frozen pre-optimization chunked compressor: a plain serial loop that
/// allocates everything fresh per slab via [`compress_alloc_baseline`]
/// (plain-mode configs only). Byte-identical container to
/// [`compress_chunked_with_threads`]; kept as the differential oracle
/// `tests/parallel_chunked.rs` compares containers against. Do not
/// "optimize" this function — its independence from the optimized path
/// *is* its purpose.
#[doc(hidden)]
pub fn compress_chunked_alloc_baseline(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    bound: ErrorBound,
    config: &PipelineConfig,
    chunk_len: usize,
) -> Result<Vec<u8>, ClizError> {
    if chunk_len == 0 {
        return Err(ClizError::BadConfig("chunk length must be positive"));
    }
    config.validate(data.shape())?;
    if let Some(m) = mask {
        if m.shape() != data.shape() {
            return Err(ClizError::BadConfig("mask shape mismatch"));
        }
    }
    let (mn, mx) = valid_min_max(data, mask);
    let eb = ErrorBound::Abs(bound.resolve(mn, mx));
    let dims = data.shape().dims().to_vec();
    let n_chunks = chunk_count(dims[0], chunk_len);
    let mask_grid = mask.map(|m| Grid::from_vec(m.shape().clone(), m.as_slice().to_vec()));
    let mut blobs = Vec::with_capacity(n_chunks);
    for i in 0..n_chunks {
        let chunk = slab(data, chunk_len, i);
        let chunk_mask = mask_grid.as_ref().map(|mg| {
            let mg = slab(mg, chunk_len, i);
            MaskMap::from_flags(mg.shape().clone(), mg.as_slice().to_vec())
        });
        blobs.push(compress_alloc_baseline(
            &chunk,
            chunk_mask.as_ref(),
            eb,
            config,
        )?);
    }
    Ok(assemble_container(&dims, chunk_len, &blobs))
}

/// Slab geometry of a chunked container: which rows, elements and shape
/// each chunk covers, and which chunks a row range intersects. The one
/// place that validates a container's dims and does axis-0 slab
/// arithmetic: the encoder cuts its slabs here, the decoder carves its
/// output here, and the random-access store layer (`cliz-store`) builds
/// its region queries on top of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkIndex {
    dims: Vec<usize>,
    chunk_len: usize,
    slab_stride: usize,
    n_chunks: usize,
}

impl ChunkIndex {
    /// Builds the index for a grid of `dims` split into `chunk_len`-row
    /// slabs along axis 0. Rejects empty/zero geometry and products that
    /// overflow, so every method below is plain unchecked arithmetic over
    /// values this constructor bounded.
    pub fn new(dims: &[usize], chunk_len: usize) -> Result<Self, ClizError> {
        let Some((&dim0, trailing)) = dims.split_first() else {
            return Err(ClizError::BadConfig("chunk index needs at least one dim"));
        };
        if chunk_len == 0 {
            return Err(ClizError::BadConfig("chunk length must be positive"));
        }
        if dims.contains(&0) {
            return Err(ClizError::BadConfig("zero dimension"));
        }
        let slab_stride = trailing
            .iter()
            .try_fold(1usize, |a, &d| a.checked_mul(d))
            .ok_or(ClizError::Corrupt("dimension product overflows"))?;
        if dim0
            .checked_mul(slab_stride)
            .is_none_or(|t| t > isize::MAX as usize / 4)
        {
            return Err(ClizError::Corrupt("dimension product overflows"));
        }
        Ok(Self {
            dims: dims.to_vec(),
            chunk_len,
            slab_stride,
            n_chunks: chunk_count(dim0, chunk_len),
        })
    }

    /// Number of slabs along axis 0.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Slab thickness along axis 0 (the tail slab may be thinner).
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Elements per full row of axis 0 (product of the trailing dims).
    pub fn slab_stride(&self) -> usize {
        self.slab_stride
    }

    /// The axis-0 row range chunk `i` covers, or `None` past the end.
    pub fn rows(&self, i: usize) -> Option<Range<usize>> {
        if i >= self.n_chunks {
            return None;
        }
        let start = i * self.chunk_len;
        Some(start..(start + self.chunk_len).min(self.dims[0]))
    }

    /// Element count of chunk `i`, or `None` past the end.
    pub fn elems(&self, i: usize) -> Option<usize> {
        self.rows(i).map(|r| r.len() * self.slab_stride)
    }

    /// The (half-open) range of chunk indices whose rows intersect
    /// `rows`; empty ranges (or ranges past the end) intersect nothing.
    pub fn intersecting(&self, rows: &Range<usize>) -> Range<usize> {
        if rows.start >= rows.end || rows.start >= self.dims[0] {
            return 0..0;
        }
        let first = rows.start / self.chunk_len;
        let last = (rows.end.min(self.dims[0]) - 1) / self.chunk_len;
        first..(last + 1).min(self.n_chunks)
    }

    /// Chunk `i`'s dims (the full dims with axis 0 cut to its rows) and its
    /// element range in the row-major full-grid buffer.
    fn locate(&self, i: usize) -> Result<(Vec<usize>, Range<usize>), ClizError> {
        let rows = self
            .rows(i)
            .ok_or(ClizError::BadConfig("chunk index out of range"))?;
        let mut dims = self.dims.clone();
        dims[0] = rows.len();
        Ok((
            dims,
            rows.start * self.slab_stride..rows.end * self.slab_stride,
        ))
    }

    /// Chunk `i` of a buffer laid row-major over the full dims, read in
    /// place: one contiguous sub-slice, returned with the slab's shape.
    fn slab<'a, T>(&self, full: &'a [T], i: usize) -> Result<(Shape, &'a [T]), ClizError> {
        let (dims, span) = self.locate(i)?;
        let part = full
            .get(span)
            .ok_or(ClizError::BadConfig("buffer does not cover the grid"))?;
        Ok((Shape::new(&dims), part))
    }

    /// The finite valid range of chunk `i` of `values` and `mask`, both laid
    /// over the full dims, read in place: what `Grid::finite_min_max`
    /// returns for the cut slab and its mask slab.
    fn range(
        &self,
        values: &[f32],
        mask: Option<&MaskMap>,
        i: usize,
    ) -> Result<Option<(f32, f32)>, ClizError> {
        let (_, part) = self.slab(values, i)?;
        let flags = mask.map(|m| self.slab(m.as_slice(), i)).transpose()?;
        Ok(cliz_grid::finite_range(part, flags.map(|(_, f)| f)))
    }

    /// Chunk `i` of a mask laid over the full dims, as a mask of its own;
    /// a mask over any other dims is `MaskRequired`.
    fn mask_slab(&self, mask: &MaskMap, i: usize) -> Result<MaskMap, ClizError> {
        if mask.shape().dims() != self.dims.as_slice() {
            return Err(ClizError::MaskRequired);
        }
        let (shape, flags) = self.slab(mask.as_slice(), i)?;
        Ok(MaskMap::from_flags(shape, flags.to_vec()))
    }

    /// Carves a full-grid buffer with `split_at_mut` into one disjoint
    /// window per chunk, in chunk order.
    fn windows<'a, T>(&self, mut full: &'a mut [T]) -> Vec<&'a mut [T]> {
        (0..self.n_chunks)
            .map(|i| {
                let len = self.elems(i).unwrap_or(0).min(full.len());
                let (window, rest) = std::mem::take(&mut full).split_at_mut(len);
                full = rest;
                window
            })
            .collect()
    }
}

/// Parsed chunked-container header.
#[derive(Clone, Debug)]
pub struct ChunkedHeader {
    pub dims: Vec<usize>,
    pub chunk_len: usize,
    pub n_chunks: usize,
    /// Byte offsets of each chunk (plus the end sentinel).
    pub offsets: Vec<usize>,
}

impl ChunkedHeader {
    /// The slab geometry this header describes.
    pub fn index(&self) -> Result<ChunkIndex, ClizError> {
        ChunkIndex::new(&self.dims, self.chunk_len)
    }
}

/// Reads just the header (cheap; no decompression).
pub fn read_header(bytes: &[u8]) -> Result<ChunkedHeader, ClizError> {
    read_header_prefix(bytes, bytes.len())
}

/// Reads the header from a *prefix* of a container whose full length is
/// `container_len`.
///
/// Remote (range-request) openers fetch only the first bytes of a
/// container and cannot hand the whole buffer to [`read_header`], whose
/// offset-table bound would reject offsets past the prefix. This variant
/// validates the table against the declared container length instead; a
/// prefix too short to hold the header itself surfaces as
/// [`ClizError::Truncated`], which openers treat as "fetch more".
pub fn read_header_prefix(bytes: &[u8], container_len: usize) -> Result<ChunkedHeader, ClizError> {
    parse_header(bytes, container_len).map(|(header, _)| header)
}

/// Parses a container header (see [`read_header_prefix`]) together with
/// the slab geometry it describes, validated once.
fn parse_header(
    bytes: &[u8],
    container_len: usize,
) -> Result<(ChunkedHeader, ChunkIndex), ClizError> {
    let mut r = HeaderReader::new(bytes);
    r.expect_magic(&CLZC)?;
    let ndim = r.u8()? as usize;
    if ndim == 0 || ndim > cliz_grid::shape::MAX_DIMS {
        return Err(ClizError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dims.push(r.u64()? as usize);
    }
    let chunk_len = r.u64()? as usize;
    // The geometry is untrusted: the index rejects zero extents and
    // products that overflow (or that no allocator could satisfy) before
    // any caller multiplies them unchecked.
    let index = ChunkIndex::new(&dims, chunk_len).map_err(|e| match e {
        ClizError::BadConfig(why) => ClizError::Corrupt(why),
        e => e,
    })?;
    let n_chunks = r.u32()? as usize;
    if n_chunks != index.n_chunks() {
        return Err(ClizError::Corrupt("chunk count mismatch"));
    }
    let mut offsets = Vec::with_capacity(n_chunks + 1);
    for _ in 0..=n_chunks {
        offsets.push(r.u64()? as usize);
    }
    if offsets.windows(2).any(|w| w[1] < w[0])
        || offsets.last().copied().unwrap_or(usize::MAX) > container_len
    {
        return Err(ClizError::Corrupt("bad offset table"));
    }
    // The header carries the geometry the index validated.
    let header = ChunkedHeader {
        dims: index.dims.clone(),
        chunk_len: index.chunk_len,
        n_chunks,
        offsets,
    };
    Ok((header, index))
}

/// Decompresses the whole container back into one grid.
pub fn decompress_chunked(bytes: &[u8], mask: Option<&MaskMap>) -> Result<Grid<f32>, ClizError> {
    decompress_chunked_with_threads(bytes, mask, 0)
}

/// [`decompress_chunked`] with an explicit worker count (`0` = host
/// parallelism). Chunk 0 is always decoded on the calling thread first: the
/// header dims are untrusted until a decoded chunk corroborates them, so
/// the full-grid allocation, and any worker spawn, waits for that check.
/// The remaining chunks go to the worker pool, LPT-grouped by compressed
/// blob size, and each worker writes its chunks into their disjoint windows
/// of the output; the decoded grid is identical for every worker count.
pub fn decompress_chunked_with_threads(
    bytes: &[u8],
    mask: Option<&MaskMap>,
    threads: usize,
) -> Result<Grid<f32>, ClizError> {
    let (header, index) = parse_header(bytes, bytes.len())?;
    // A flipped dimension byte must surface as Corrupt, not as a giant
    // allocation: decode chunk 0, whose shape is checked against the
    // geometry, before committing to the full-grid buffer.
    let first_blob = chunk_blob(bytes, &header, 0)?;
    let first = decompress_chunk_blob_arena(first_blob, &index, mask, 0, &mut ScratchArena::new())?;
    let shape = Shape::new(&header.dims);
    let mut out = vec![0.0f32; shape.len()];
    let mut windows = index.windows(&mut out).into_iter().enumerate();
    if let Some((_, dst)) = windows.next() {
        place(dst, &first)?;
    }
    // Compressed blob size is the best available proxy for decode cost.
    run_pool(
        windows.collect(),
        |(i, _)| chunk_blob(bytes, &header, *i).map_or(0.0, |b| b.len() as f64),
        threads,
        |(i, dst), arena| {
            let blob = chunk_blob(bytes, &header, i)?;
            place(
                dst,
                &decompress_chunk_blob_arena(blob, &index, mask, i, arena)?,
            )
        },
    )?;
    Ok(Grid::from_vec(shape, out))
}

/// Copies a decoded chunk into its output window.
fn place(dst: &mut [f32], chunk: &Grid<f32>) -> Result<(), ClizError> {
    if dst.len() != chunk.len() {
        return Err(ClizError::Corrupt("chunk does not fit the grid"));
    }
    dst.copy_from_slice(chunk.as_slice());
    Ok(())
}

/// The compressed bytes of chunk `i`, as the header's offset table names
/// them; a table pointing past `bytes` surfaces as `Truncated`.
fn chunk_blob<'a>(
    bytes: &'a [u8],
    header: &ChunkedHeader,
    i: usize,
) -> Result<&'a [u8], ClizError> {
    let start = header.offsets.get(i).copied().ok_or(ClizError::Truncated)?;
    let end = header
        .offsets
        .get(i + 1)
        .copied()
        .ok_or(ClizError::Truncated)?;
    bytes.get(start..end).ok_or(ClizError::Truncated)
}

/// Decodes chunk `i` from its own compressed blob, without the rest of the
/// container, cutting the chunk's mask slab out of the full-grid `mask` and
/// reusing `arena`'s scratch buffers.
///
/// This is the random-access decode surface: the `cliz-store` region
/// reader parses the header once with [`read_header`], keeps its
/// [`ChunkIndex`], fetches exactly the byte range the offset table names
/// for a chunk (possibly coalesced with its neighbours) and slices those
/// fetches into this call, without ever holding the whole container in
/// memory. `blob` must be the bytes the header's offset table names for
/// chunk `i`. The decoded slab's shape is verified against the slab geometry
/// before it is returned, so a lying chunk container surfaces as `Corrupt`.
pub fn decompress_chunk_blob_arena(
    blob: &[u8],
    index: &ChunkIndex,
    mask: Option<&MaskMap>,
    i: usize,
    arena: &mut ScratchArena,
) -> Result<Grid<f32>, ClizError> {
    let (dims, _) = index.locate(i)?;
    let chunk_mask = mask.map(|m| index.mask_slab(m, i)).transpose()?;
    let chunk = decompress_arena(blob, chunk_mask.as_ref(), arena)?;
    // A corrupt chunk container can claim any shape; verify it against the
    // slab geometry before the caller places it, so a lying chunk surfaces
    // as an error rather than scrambled output.
    if chunk.shape().dims() != dims.as_slice() {
        return Err(ClizError::Corrupt("chunk shape mismatch"));
    }
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.21 * (k + 1) as f64).sin() * 3.0;
            }
            v as f32
        })
    }

    #[test]
    fn chunked_roundtrip_matches_bound() {
        let g = smooth(&[20, 16, 12]);
        let eb = 1e-3;
        let cfg = PipelineConfig::default_for(3);
        let bytes =
            compress_chunked_with_threads(&g, None, ErrorBound::Abs(eb), &cfg, 6, 0).unwrap();
        let out = decompress_chunked(&bytes, None).unwrap();
        assert_eq!(out.shape(), g.shape());
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-12));
        }
    }

    #[test]
    fn random_access_chunk_equals_full_decode_slice() {
        let g = smooth(&[15, 10, 8]);
        let valid: Vec<bool> = (0..g.len()).map(|i| i % 9 != 0).collect();
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let cfg = PipelineConfig::default_for(3);
        for mask in [None, Some(&mask)] {
            let bytes =
                compress_chunked_with_threads(&g, mask, ErrorBound::Abs(1e-3), &cfg, 4, 0).unwrap();
            let full = decompress_chunked(&bytes, mask).unwrap();
            let header = read_header(&bytes).unwrap();
            let index = header.index().unwrap();
            assert_eq!(header.n_chunks, 4); // 15 = 4+4+4+3
            let mut arena = ScratchArena::new();
            for i in 0..header.n_chunks {
                let blob = chunk_blob(&bytes, &header, i).unwrap();
                let chunk = decompress_chunk_blob_arena(blob, &index, mask, i, &mut arena).unwrap();
                let start = i * 4;
                let len = chunk.shape().dim(0);
                assert_eq!(len, if i == 3 { 3 } else { 4 });
                let expected = full.block(&[start, 0, 0], &[len, 10, 8]);
                assert_eq!(chunk, expected, "chunk {i}, masked: {}", mask.is_some());
            }
        }
    }

    #[test]
    fn masked_chunked_roundtrip() {
        let mut g = smooth(&[12, 14]);
        let mut valid = vec![true; g.len()];
        for (i, (v, ok)) in g.as_mut_slice().iter_mut().zip(&mut valid).enumerate() {
            if i % 6 == 0 {
                *v = 1e33;
                *ok = false;
            }
        }
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let cfg = PipelineConfig::default_for(2);
        let bound = ErrorBound::Rel(1e-3);
        let bytes = compress_chunked_with_threads(&g, Some(&mask), bound, &cfg, 5, 0).unwrap();
        let out = decompress_chunked(&bytes, Some(&mask)).unwrap();
        let (mn, mx) = valid_min_max(&g, Some(&mask));
        let eb = 1e-3 * (mx - mn) as f64;
        for (i, (a, b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
            if mask.is_valid(i) {
                assert!((*a as f64 - *b as f64).abs() <= eb * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn rel_bound_is_global_not_per_chunk() {
        // A grid whose chunks have very different local ranges: the bound
        // must come from the global range, or chunk-local resolution would
        // give chunk-dependent quality.
        let g = Grid::from_fn(Shape::new(&[8, 32]), |c| {
            if c[0] < 4 {
                c[1] as f32 * 0.001
            } else {
                c[1] as f32 * 10.0
            }
        });
        let cfg = PipelineConfig::default_for(2);
        let bytes =
            compress_chunked_with_threads(&g, None, ErrorBound::Rel(1e-4), &cfg, 4, 0).unwrap();
        let out = decompress_chunked(&bytes, None).unwrap();
        let (mn, mx) = g.finite_min_max(None).unwrap();
        let eb = 1e-4 * (mx - mn) as f64;
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((*a as f64 - *b as f64).abs() <= eb * (1.0 + 1e-9));
        }
    }

    #[test]
    fn periodicity_degrades_gracefully_in_small_chunks() {
        // Periodic along axis 1 — fits in every chunk; periodic along axis 0
        // with chunks smaller than the period must degrade, not fail.
        let g = Grid::from_fn(Shape::new(&[24, 20]), |c| {
            ((c[0] % 12) as f32 * 0.7).sin() + c[1] as f32 * 0.01
        });
        let cfg = PipelineConfig {
            periodicity: crate::config::Periodicity::Extract {
                time_axis: 0,
                period: 12,
            },
            ..PipelineConfig::default_for(2)
        };
        let bytes =
            compress_chunked_with_threads(&g, None, ErrorBound::Abs(1e-3), &cfg, 6, 0).unwrap();
        let out = decompress_chunked(&bytes, None).unwrap();
        for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        let g = smooth(&[8, 8]);
        let cfg = PipelineConfig::default_for(2);
        let eb = ErrorBound::Abs(1e-3);
        assert!(compress_chunked_with_threads(&g, None, eb, &cfg, 0, 0).is_err());
        let bytes = compress_chunked_with_threads(&g, None, eb, &cfg, 4, 0).unwrap();
        let header = read_header(&bytes).unwrap();
        let index = header.index().unwrap();
        let blob = chunk_blob(&bytes, &header, 0).unwrap();
        let mut arena = ScratchArena::new();
        assert!(decompress_chunk_blob_arena(blob, &index, None, 99, &mut arena).is_err());
        assert!(chunk_blob(&bytes, &header, 99).is_err());
        assert!(read_header(&bytes[..10]).is_err());
        assert!(read_header(b"garbage.....").is_err());
    }

    #[test]
    fn thread_count_never_changes_the_bytes() {
        // 19 rows with chunk_len 4 leaves a 3-row tail slab — the uneven
        // case LPT exists for. The 1-D grid (100 points, chunk_len 30) must
        // decode whole just as its chunks decode one by one.
        for (dims, chunk_len) in [(&[19, 12, 10][..], 4), (&[100][..], 30)] {
            let g = smooth(dims);
            let cfg = PipelineConfig::default_for(dims.len());
            let eb = ErrorBound::Abs(1e-3);
            let serial = compress_chunked_with_threads(&g, None, eb, &cfg, chunk_len, 1).unwrap();
            for threads in [2, 3, 8] {
                let par =
                    compress_chunked_with_threads(&g, None, eb, &cfg, chunk_len, threads).unwrap();
                assert_eq!(
                    serial, par,
                    "{dims:?}: container diverged at {threads} threads"
                );
            }
            let baseline = compress_chunked_alloc_baseline(&g, None, eb, &cfg, chunk_len).unwrap();
            assert_eq!(serial, baseline, "{dims:?}: alloc baseline diverged");

            let reference = decompress_chunked(&serial, None).unwrap();
            for threads in [1, 2, 5] {
                let out = decompress_chunked_with_threads(&serial, None, threads).unwrap();
                assert_eq!(
                    out, reference,
                    "{dims:?}: decode diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn masked_parallel_matches_serial() {
        let mut g = smooth(&[13, 9]);
        let mut valid = vec![true; g.len()];
        for (i, (v, ok)) in g.as_mut_slice().iter_mut().zip(&mut valid).enumerate() {
            if i % 5 == 0 {
                *v = 1e32;
                *ok = false;
            }
        }
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let cfg = PipelineConfig::default_for(2);
        let eb = ErrorBound::Abs(1e-3);
        let serial = compress_chunked_with_threads(&g, Some(&mask), eb, &cfg, 5, 1).unwrap();
        let par = compress_chunked_with_threads(&g, Some(&mask), eb, &cfg, 5, 4).unwrap();
        assert_eq!(serial, par);
        assert_eq!(
            decompress_chunked_with_threads(&serial, Some(&mask), 4).unwrap(),
            decompress_chunked_with_threads(&serial, Some(&mask), 1).unwrap(),
        );
    }

    #[test]
    fn pool_returns_job_order_and_contains_panics() {
        // Uneven costs make LPT regroup the jobs; results still come back
        // in job order, and the first failure in job order wins.
        let jobs: Vec<usize> = (0..7).collect();
        let cost = |&j: &usize| (j % 3 + 1) as f64;
        for threads in [0, 1, 2, 3, 8] {
            let out = run_pool(jobs.clone(), cost, threads, |j, _| {
                Ok::<_, ClizError>(j * 10)
            })
            .unwrap();
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "{threads} threads");
            // The caller works one group itself; one worker spawns nothing.
            let caller = std::thread::current().id();
            let ids = run_pool(jobs.clone(), cost, threads, |_, _| {
                Ok::<_, ClizError>(std::thread::current().id())
            })
            .unwrap();
            assert!(ids.contains(&caller), "{threads} threads");
            if threads == 1 {
                assert!(ids.iter().all(|&id| id == caller), "one worker");
            }
            let err = run_pool(jobs.clone(), cost, threads, |j, _| match j {
                2 => Err(ClizError::Corrupt("two")),
                5 => Err(ClizError::Corrupt("five")),
                j => Ok(j),
            });
            assert_eq!(err, Err(ClizError::Corrupt("two")), "{threads} threads");
            // A panicking job is an error at every thread count, 1 included.
            let panicked = run_pool(jobs.clone(), cost, threads, |j, _| {
                assert_ne!(j, 4, "job 4 panics");
                Ok::<_, ClizError>(j)
            });
            assert!(
                matches!(panicked, Err(ClizError::Backend(_))),
                "{threads} threads: {panicked:?}"
            );
        }
    }

    /// The range pass against the whole-field scan: slabs of 1 to all
    /// rows with tails, values mixing NaN, ±inf, ±0 and finite draws, masks
    /// none, all invalid, random, and random with the first slab all
    /// invalid; one grid's last slab holds no finite value. Each slab's
    /// range is `finite_min_max` of the cut slab, and the fold equals
    /// `valid_min_max` (`==` treats the two zeros alike, the scan's one
    /// freedom).
    #[test]
    fn folded_slab_ranges_match_valid_min_max() {
        let mut state = 0xF01Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let cases: [(&[usize], usize); 6] = [
            (&[7, 5], 2),
            (&[9, 4, 3], 4),
            (&[1, 40], 1),
            (&[6, 3], 6),
            (&[5, 2, 2, 3], 1),
            (&[11, 17], 3),
        ];
        for (dims, chunk_len) in cases {
            let shape = Shape::new(dims);
            let n = shape.len();
            let index = ChunkIndex::new(dims, chunk_len).unwrap();
            let mut values: Vec<f32> = (0..n)
                .map(|_| match next() % 9 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    _ => (next() % 2001) as f32 * 0.5 - 500.0,
                })
                .collect();
            if dims == [11, 17] {
                let last = index.rows(index.n_chunks() - 1).unwrap();
                values[last.start * 17..].fill(f32::NAN);
            }
            let data = Grid::from_vec(shape.clone(), values);
            let random: Vec<bool> = (0..n).map(|_| next() % 3 != 0).collect();
            let mut first_out = random.clone();
            first_out[..index.elems(0).unwrap()].fill(false);
            let masks = [
                None,
                Some(MaskMap::from_flags(shape.clone(), vec![false; n])),
                Some(MaskMap::from_flags(shape.clone(), random)),
                Some(MaskMap::from_flags(shape.clone(), first_out)),
            ];
            for mask in masks.iter().map(Option::as_ref) {
                let ctx = format!("{dims:?} by {chunk_len}, masked {}", mask.is_some());
                let ranges: Vec<_> = (0..index.n_chunks())
                    .map(|i| index.range(data.as_slice(), mask, i).unwrap())
                    .collect();
                for (i, &range) in ranges.iter().enumerate() {
                    let (slab_shape, slab) = index.slab(data.as_slice(), i).unwrap();
                    let slab_mask = mask.map(|m| index.mask_slab(m, i).unwrap());
                    let want = Grid::from_vec(slab_shape, slab.to_vec())
                        .finite_min_max(slab_mask.as_ref());
                    assert_eq!(range, want, "slab {i}: {ctx}");
                }
                assert_eq!(fold_ranges(&ranges), valid_min_max(&data, mask), "{ctx}");
            }
        }
    }

    #[test]
    fn header_roundtrip() {
        let g = smooth(&[10, 6]);
        let cfg = PipelineConfig::default_for(2);
        let bytes =
            compress_chunked_with_threads(&g, None, ErrorBound::Abs(1e-2), &cfg, 3, 0).unwrap();
        let h = read_header(&bytes).unwrap();
        assert_eq!(h.dims, vec![10, 6]);
        assert_eq!(h.chunk_len, 3);
        assert_eq!(h.n_chunks, 4);
        assert_eq!(h.offsets.len(), 5);
        assert_eq!(*h.offsets.last().unwrap(), bytes.len());
    }
}
