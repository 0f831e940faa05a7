//! CZS — the indexed random-access chunk store format.
//!
//! A CZS file is dataset metadata plus a per-slab index over a CLZC
//! chunked-compression payload (see `cliz_core::chunked`):
//!
//! ```text
//! magic     u32   "CZS1"
//! version   u8    2
//! name      string                 variable name
//! nattrs    u16   then nattrs × (key string, value string)
//! ndim      u8    then ndim × (dim-name string, extent u64)
//! flags     u8    bit0 = mask present
//! chunk_len u64   slab thickness along axis 0
//! n_chunks  u32   must equal ceil(dims[0] / chunk_len)
//! index     n_chunks × (offset u64, len u64, crc32 u32)
//! plen      u64   payload length in bytes
//! [mask_len u64   then mask_len bytes: one ZLT1 frame of the bit-packed
//!                 (LSB-first) mask, ceil(len/8) bytes once decoded]
//! payload   plen bytes — one CLZC container
//! ```
//!
//! Version 1, read but never written, kept the mask as the raw
//! `ceil(len/8)`-byte bitmap with no length prefix; it is otherwise the
//! same layout.
//!
//! Index invariants (checked on parse, and cross-checked against the CLZC
//! offset table when a [`crate::ChunkStoreReader`] opens the file):
//!
//! * `n_chunks` is derived from the validated dims, never trusted raw;
//! * entries are contiguous: `offset[i] + len[i] == offset[i+1]`, and every
//!   entry lies inside `payload`;
//! * `checksum` is the CRC32 of the chunk's payload bytes, verified before
//!   a chunk is ever handed to the codec.
//!
//! Every length that steers an allocation is bounded by the bytes actually
//! present before the allocation happens — a corrupt index surfaces as
//! [`StoreError::Corrupt`], never as a panic or a giant `Vec`.

use crate::caf::Dataset;
use crate::error::StoreError;
use cliz_core::lossless;
use cliz_format::{spec::CZS1, HeaderReader, HeaderWriter};
use cliz_grid::{MaskMap, Shape};
use std::io::Write;

/// Largest element count a store header may claim (matches the CAF cap).
const MAX_ELEMS: usize = 1 << 36;

/// Bytes per serialized index entry (offset u64 + len u64 + crc u32).
const ENTRY_BYTES: usize = 20;

/// One chunk's location inside the payload, plus its integrity checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the chunk blob, relative to the payload start.
    pub offset: usize,
    /// Blob length in bytes.
    pub len: usize,
    /// CRC32 of the blob.
    pub checksum: u32,
}

/// Parsed store metadata: everything except the mask bits and the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreIndex {
    pub name: String,
    pub dim_names: Vec<String>,
    pub attrs: Vec<(String, String)>,
    pub dims: Vec<usize>,
    pub chunk_len: usize,
    pub has_mask: bool,
    pub entries: Vec<IndexEntry>,
}

impl StoreIndex {
    /// Total element count (validated against [`MAX_ELEMS`] on parse).
    pub fn total_elems(&self) -> usize {
        self.dims.iter().product()
    }
}

/// A successfully parsed store: metadata, unpacked mask, and where the
/// payload lives inside the original byte buffer (no copy).
#[derive(Debug)]
pub struct ParsedStore {
    pub index: StoreIndex,
    pub mask: Option<MaskMap>,
    /// Payload byte range within the buffer handed to [`parse_store`].
    pub payload: std::ops::Range<usize>,
}

/// Store metadata parsed from a (possibly partial) buffer: everything up
/// to where the payload begins, plus where it begins. Storage-backed
/// openers fetch a prefix, parse this, and then range-read the payload.
#[derive(Debug)]
pub struct StoreMeta {
    pub index: StoreIndex,
    pub mask: Option<MaskMap>,
    /// Byte offset of the payload within the whole store object.
    pub payload_start: usize,
    /// Payload length in bytes (the `plen` field).
    pub payload_len: usize,
}

/// Parses and validates a CZS store from one in-memory buffer. All reads go
/// through the `cliz-format` [`HeaderReader`], so truncation is an error at
/// the read site and nothing downstream ever indexes past the buffer.
pub fn parse_store(bytes: &[u8]) -> Result<ParsedStore, StoreError> {
    let meta = parse_store_prefix(bytes, bytes.len())?;
    let end = meta
        .payload_start
        .checked_add(meta.payload_len)
        .ok_or(StoreError::Corrupt("index entry overflows"))?;
    if end > bytes.len() {
        return Err(StoreError::Corrupt("truncated"));
    }
    if end < bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after payload"));
    }
    Ok(ParsedStore {
        index: meta.index,
        mask: meta.mask,
        payload: meta.payload_start..end,
    })
}

/// Parses store metadata from a *prefix* of an object whose full size is
/// `full_len` bytes.
///
/// Remote openers cannot afford to download a store just to learn where
/// its chunks live; they fetch the first N bytes and call this. Reads past
/// the prefix surface as [`StoreError::Corrupt`]`("truncated")` — the
/// caller's cue to fetch a longer prefix — while the plausibility guards
/// that bound allocations compare claimed counts against `full_len`, the
/// size the object actually has, so a legitimate store with a big index or
/// mask is never misdiagnosed as corrupt just because the prefix was
/// short. The payload itself is *not* required to be present; its
/// location is returned instead.
pub fn parse_store_prefix(bytes: &[u8], full_len: usize) -> Result<StoreMeta, StoreError> {
    let mut cur = HeaderReader::new(bytes);
    let version = cur.expect_magic(&CZS1)?;
    let name = cur.str16()?.to_string();
    let nattrs = cur.u16()? as usize;
    // Each attr needs ≥ 4 bytes (two empty strings); bound the Vec by what
    // the full object can physically hold before allocating. (Using the
    // object size, not the prefix length, keeps a short prefix looking
    // "truncated" rather than "corrupt".)
    if nattrs > full_len.saturating_sub(cur.pos()) / 4 {
        return Err(StoreError::Corrupt("attribute count exceeds file size"));
    }
    let mut attrs = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        let k = cur.str16()?.to_string();
        let v = cur.str16()?.to_string();
        attrs.push((k, v));
    }
    let ndim = cur.u8()? as usize;
    if ndim == 0 || ndim > cliz_grid::shape::MAX_DIMS {
        return Err(StoreError::Corrupt("bad rank"));
    }
    let mut dim_names = Vec::with_capacity(ndim);
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dim_names.push(cur.str16()?.to_string());
        let e = cur.u64()? as usize;
        if e == 0 {
            return Err(StoreError::Corrupt("zero extent"));
        }
        dims.push(e);
    }
    let total = dims
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .filter(|&t| t <= MAX_ELEMS)
        .ok_or(StoreError::Corrupt("implausible size"))?;
    let flags = cur.u8()?;
    if flags & !1 != 0 {
        return Err(StoreError::Corrupt("unknown flag bits"));
    }
    let has_mask = flags & 1 == 1;
    let chunk_len = cur.u64()? as usize;
    if chunk_len == 0 || chunk_len > MAX_ELEMS {
        return Err(StoreError::Corrupt("bad chunk length"));
    }
    let n_chunks = cur.u32()? as usize;
    // The only admissible chunk count is the one the validated geometry
    // implies; checking before the index allocation also bounds it.
    if n_chunks != dims[0].div_ceil(chunk_len) {
        return Err(StoreError::Corrupt("chunk count mismatch"));
    }
    if n_chunks > full_len.saturating_sub(cur.pos()) / ENTRY_BYTES {
        return Err(StoreError::Corrupt("index exceeds file size"));
    }
    let mut entries = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let offset = cur.u64()? as usize;
        let len = cur.u64()? as usize;
        let checksum = cur.u32()?;
        entries.push(IndexEntry {
            offset,
            len,
            checksum,
        });
    }
    let payload_len = cur.u64()? as usize;

    // Index invariants against the payload extent: entries are contiguous
    // and in-bounds. (The reader additionally cross-checks these offsets
    // against the CLZC container's own offset table.)
    let mut expected_next: Option<usize> = None;
    for (i, e) in entries.iter().enumerate() {
        let end = e
            .offset
            .checked_add(e.len)
            .ok_or(StoreError::Corrupt("index entry overflows"))?;
        if end > payload_len {
            return Err(StoreError::Corrupt("index entry past payload end"));
        }
        if let Some(next) = expected_next {
            if e.offset != next {
                return Err(StoreError::Corrupt("index entries not contiguous"));
            }
        } else if e.offset > payload_len {
            return Err(StoreError::Corrupt("index entry past payload end"));
        }
        expected_next = Some(end);
        let _ = i;
    }
    if let Some(last_end) = expected_next {
        if last_end != payload_len {
            return Err(StoreError::Corrupt("index does not cover payload"));
        }
    }

    let mask = if !has_mask {
        None
    } else if version >= 2 {
        let mask_len = cur.len64()?;
        if mask_len > full_len.saturating_sub(cur.pos()) {
            return Err(StoreError::Corrupt("mask frame exceeds file size"));
        }
        Some(unpack_mask_frame(cur.take(mask_len)?, Shape::new(&dims))?)
    } else {
        // Version 1: the raw bitmap.
        let packed = cur.take(total.div_ceil(8))?;
        Some(MaskMap::unpack_bits(Shape::new(&dims), packed))
    };
    let payload_start = cur.pos();
    if payload_start
        .checked_add(payload_len)
        .is_none_or(|end| end > full_len)
    {
        return Err(StoreError::Corrupt("truncated"));
    }
    Ok(StoreMeta {
        index: StoreIndex {
            name,
            dim_names,
            attrs,
            dims,
            chunk_len,
            has_mask,
            entries,
        },
        mask,
        payload_start,
        payload_len,
    })
}

/// Decodes a version-2 mask section: one ZLT1 frame of the packed bitmap.
/// The frame must declare the bitmap's length before anything is
/// allocated or decoded, so a frame that lies about its size fails on its
/// header, and the decode never produces more than the geometry allows.
fn unpack_mask_frame(frame: &[u8], shape: Shape) -> Result<MaskMap, StoreError> {
    let declared =
        lossless::declared_len(frame).map_err(|_| StoreError::Corrupt("bad mask frame"))?;
    if declared != shape.len().div_ceil(8) {
        return Err(StoreError::Corrupt(
            "mask frame length disagrees with geometry",
        ));
    }
    let packed = lossless::decompress(frame).map_err(|_| StoreError::Corrupt("bad mask frame"))?;
    Ok(MaskMap::unpack_bits(shape, &packed))
}

/// Serializes a store: metadata + index, then the mask frame, then the
/// payload.
/// The write side re-checks the same invariants the parser enforces so a
/// buggy caller cannot produce a file its own reader rejects.
pub fn write_store(
    w: &mut impl Write,
    index: &StoreIndex,
    mask: Option<&MaskMap>,
    payload: &[u8],
) -> Result<(), StoreError> {
    if index.dims.is_empty() || index.dims.len() > cliz_grid::shape::MAX_DIMS {
        return Err(StoreError::Invalid("bad rank"));
    }
    if index.dim_names.len() != index.dims.len() {
        return Err(StoreError::Invalid("dimension-name arity mismatch"));
    }
    if index.chunk_len == 0 {
        return Err(StoreError::Invalid("chunk length must be positive"));
    }
    if index.entries.len() != index.dims[0].div_ceil(index.chunk_len) {
        return Err(StoreError::Invalid("entry count does not match geometry"));
    }
    if index.has_mask != mask.is_some() {
        return Err(StoreError::Invalid("mask flag does not match mask"));
    }
    if mask.is_some_and(|m| m.shape().dims() != index.dims) {
        return Err(StoreError::Invalid("mask shape does not match dims"));
    }
    if index.attrs.len() > u16::MAX as usize {
        return Err(StoreError::Invalid("too many attributes"));
    }
    let mut next = index.entries.first().map_or(0, |e| e.offset);
    for e in &index.entries {
        if e.offset != next {
            return Err(StoreError::Invalid("index entries not contiguous"));
        }
        next = e
            .offset
            .checked_add(e.len)
            .ok_or(StoreError::Invalid("index entry overflows"))?;
    }
    if next != payload.len() && !index.entries.is_empty() {
        return Err(StoreError::Invalid("index does not cover payload"));
    }

    // The metadata prefix and the mask frame are assembled through the
    // shared cursor (the exact mirror of the reads in `parse_store`); the
    // bulk payload streams straight to the sink afterwards.
    let mut hw = HeaderWriter::new();
    hw.magic(&CZS1);
    hw.str16(&index.name)
        .map_err(|_| StoreError::Invalid("string too long"))?;
    hw.u16(index.attrs.len() as u16);
    for (k, v) in &index.attrs {
        hw.str16(k)
            .map_err(|_| StoreError::Invalid("string too long"))?;
        hw.str16(v)
            .map_err(|_| StoreError::Invalid("string too long"))?;
    }
    hw.u8(index.dims.len() as u8);
    for (name, &extent) in index.dim_names.iter().zip(&index.dims) {
        hw.str16(name)
            .map_err(|_| StoreError::Invalid("string too long"))?;
        hw.u64(extent as u64);
    }
    hw.u8(u8::from(index.has_mask));
    hw.u64(index.chunk_len as u64);
    hw.u32(index.entries.len() as u32);
    for e in &index.entries {
        hw.u64(e.offset as u64);
        hw.u64(e.len as u64);
        hw.u32(e.checksum);
    }
    hw.u64(payload.len() as u64);
    if let Some(m) = mask {
        let frame = lossless::compress(&m.pack_bits());
        hw.u64(frame.len() as u64);
        hw.raw(&frame);
    }
    w.write_all(&hw.finish())?;
    w.write_all(payload)?;
    Ok(())
}

/// Builds a [`StoreIndex`] from a dataset's metadata plus slab entries.
pub(crate) fn index_for(ds: &Dataset, chunk_len: usize, entries: Vec<IndexEntry>) -> StoreIndex {
    StoreIndex {
        name: ds.name.clone(),
        dim_names: ds.dim_names.clone(),
        attrs: ds.attrs.clone(),
        dims: ds.data.shape().dims().to_vec(),
        chunk_len,
        has_mask: ds.mask.is_some(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_index() -> (StoreIndex, Vec<u8>) {
        let payload = vec![7u8; 30];
        let entries = vec![
            IndexEntry {
                offset: 0,
                len: 12,
                checksum: crate::checksum::crc32(&payload[..12]),
            },
            IndexEntry {
                offset: 12,
                len: 18,
                checksum: crate::checksum::crc32(&payload[12..]),
            },
        ];
        let index = StoreIndex {
            name: "T".into(),
            dim_names: vec!["t".into(), "x".into()],
            attrs: vec![("units".into(), "K".into())],
            dims: vec![6, 4],
            chunk_len: 3,
            has_mask: false,
            entries,
        };
        (index, payload)
    }

    #[test]
    fn metadata_and_index_roundtrip() {
        let (index, payload) = tiny_index();
        let mut buf = Vec::new();
        write_store(&mut buf, &index, None, &payload).unwrap();
        let parsed = parse_store(&buf).unwrap();
        assert_eq!(parsed.index, index);
        assert!(parsed.mask.is_none());
        assert_eq!(&buf[parsed.payload.clone()], payload.as_slice());
    }

    #[test]
    fn masked_store_keeps_its_mask_as_a_frame() {
        let (mut index, payload) = tiny_index();
        let mut plain = Vec::new();
        write_store(&mut plain, &index, None, &payload).unwrap();
        let at = plain.len() - payload.len();
        let flags = (0..24).map(|i| i % 7 != 3).collect();
        let mask = MaskMap::from_flags(Shape::new(&index.dims), flags);
        index.has_mask = true;
        let mut buf = Vec::new();
        write_store(&mut buf, &index, Some(&mask), &payload).unwrap();
        assert_eq!(buf[4], CZS1.version);
        let frame_len = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize;
        let frame = &buf[at + 8..at + 8 + frame_len];
        assert_eq!(lossless::decompress(frame).unwrap(), mask.pack_bits());
        let parsed = parse_store(&buf).unwrap();
        assert_eq!(parsed.mask.as_ref(), Some(&mask));
        assert_eq!(parsed.payload.start, at + 8 + frame_len);
        // A mask of another shape would frame a bitmap the parser refuses.
        let other = MaskMap::all_valid(Shape::new(&[4, 6]));
        assert!(matches!(
            write_store(&mut Vec::new(), &index, Some(&other), &payload),
            Err(StoreError::Invalid("mask shape does not match dims"))
        ));
    }

    #[test]
    fn non_contiguous_index_rejected_both_ways() {
        let (mut index, payload) = tiny_index();
        index.entries[1].offset = 13;
        let mut buf = Vec::new();
        assert!(matches!(
            write_store(&mut buf, &index, None, &payload),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn chunk_count_must_match_geometry() {
        let (index, payload) = tiny_index();
        let mut buf = Vec::new();
        write_store(&mut buf, &index, None, &payload).unwrap();
        let parsed = parse_store(&buf).unwrap();
        assert_eq!(parsed.index.entries.len(), 2); // ceil(6/3)
                                                   // Claiming a different chunk_len breaks the derived count.
        let mut bad = StoreIndex {
            chunk_len: 2,
            ..index
        };
        bad.entries.truncate(2);
        let mut buf = Vec::new();
        assert!(write_store(&mut buf, &bad, None, &payload).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (index, payload) = tiny_index();
        let mut buf = Vec::new();
        write_store(&mut buf, &index, None, &payload).unwrap();
        buf.push(0xAA);
        assert!(matches!(
            parse_store(&buf),
            Err(StoreError::Corrupt("trailing bytes after payload"))
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let (index, payload) = tiny_index();
        let mut buf = Vec::new();
        write_store(&mut buf, &index, None, &payload).unwrap();
        for cut in 0..buf.len() {
            assert!(parse_store(&buf[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn oversize_claims_bounded_by_file_size() {
        // A header claiming 2^32 attrs or chunks must fail the plausibility
        // guard before any allocation, not OOM.
        let (index, payload) = tiny_index();
        let mut buf = Vec::new();
        write_store(&mut buf, &index, None, &payload).unwrap();
        // nattrs lives right after magic(4)+version(1)+name(u16 len + 1).
        let nattrs_pos = 4 + 1 + 2 + index.name.len();
        let mut bad = buf.clone();
        bad[nattrs_pos] = 0xFF;
        bad[nattrs_pos + 1] = 0xFF;
        assert!(parse_store(&bad).is_err());
    }
}
