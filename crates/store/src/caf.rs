//! CAF — a minimal self-describing **C**limate **A**rray **F**ile format.
//!
//! The paper's future work is integrating CliZ into HDF5/NetCDF. Neither is
//! available offline, so this module provides the NetCDF-flavoured substrate
//! the `cliz` CLI needs: named dimensions, string attributes, one f32
//! variable, and an optional bit-packed validity mask, all in one
//! little-endian file.
//!
//! ```text
//! magic   u32   "CAF1"
//! version u8    1
//! name    string            variable name (e.g. "SSH")
//! nattrs  u16   then nattrs × (key string, value string)
//! ndim    u8    then ndim × (dim-name string, extent u64)
//! dtype   u8    0 = f32
//! flags   u8    bit0 = mask present
//! data    len·4 bytes of f32 LE
//! [mask]  ceil(len/8) bytes, bit-packed (LSB-first within each byte)
//! ```
//!
//! Strings are `u16` length + UTF-8 bytes. Conventional attributes the CLI
//! understands: `time_axis` (decimal axis index) and `period` (cycle length).

use crate::error::StoreError;
use cliz_format::spec::CAF1;
use cliz_grid::{Grid, MaskMap, Shape};
use std::io::{Read, Write};
use std::path::Path;

const DTYPE_F32: u8 = 0;

/// Bytes of values [`read_caf`] stages per read.
const READ_CHUNK: usize = 1 << 16;

/// Values [`read_caf`] reserves before any has arrived (64 MiB): a field
/// up to this size lands in one exact allocation, and a header's extents
/// cannot reserve more than this ahead of the data behind them.
const RESERVE_AHEAD: usize = 1 << 24;

/// A named climate variable with metadata, as stored in a CAF file.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    pub name: String,
    /// One name per dimension ("lat", "lon", "time", …).
    pub dim_names: Vec<String>,
    /// Free-form attributes; `time_axis`/`period` are conventional.
    pub attrs: Vec<(String, String)>,
    pub data: Grid<f32>,
    pub mask: Option<MaskMap>,
}

impl Dataset {
    /// Builds a dataset with auto-generated dimension names (`dim0`, …).
    pub fn new(name: impl Into<String>, data: Grid<f32>, mask: Option<MaskMap>) -> Self {
        let dim_names = (0..data.shape().ndim())
            .map(|d| format!("dim{d}"))
            .collect();
        Self {
            name: name.into(),
            dim_names,
            attrs: Vec::new(),
            data,
            mask,
        }
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// The conventional `time_axis` attribute, parsed.
    pub fn time_axis(&self) -> Option<usize> {
        self.attr("time_axis").and_then(|v| v.parse().ok())
    }

    /// The conventional `period` attribute, parsed.
    pub fn period(&self) -> Option<usize> {
        self.attr("period").and_then(|v| v.parse().ok())
    }

    /// Write-side structural validation shared by CAF and the chunk store:
    /// dimension-name arity and mask shape must match the data grid.
    pub(crate) fn validate(&self) -> Result<(), StoreError> {
        if self.dim_names.len() != self.data.shape().ndim() {
            return Err(StoreError::Invalid("dimension-name arity mismatch"));
        }
        if let Some(m) = &self.mask {
            if m.shape() != self.data.shape() {
                return Err(StoreError::Invalid("mask shape mismatch"));
            }
        }
        Ok(())
    }
}

pub(crate) fn write_string(w: &mut impl Write, s: &str) -> Result<(), StoreError> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        return Err(StoreError::Invalid("string too long"));
    }
    w.write_all(&(bytes.len() as u16).to_le_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

pub(crate) fn read_string(r: &mut impl Read) -> Result<String, StoreError> {
    let mut len = [0u8; 2];
    r.read_exact(&mut len)?;
    // u16-decoded, so the allocation is capped at 64 KiB by construction.
    let len = usize::from(u16::from_le_bytes(len));
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| StoreError::Corrupt("non-UTF8 string"))
}

/// Serializes a dataset to any writer.
pub fn write_caf(w: &mut impl Write, ds: &Dataset) -> Result<(), StoreError> {
    ds.validate()?;
    w.write_all(&CAF1.magic.to_le_bytes())?;
    w.write_all(&[CAF1.version])?;
    write_string(w, &ds.name)?;
    if ds.attrs.len() > u16::MAX as usize {
        return Err(StoreError::Invalid("too many attributes"));
    }
    w.write_all(&(ds.attrs.len() as u16).to_le_bytes())?;
    for (k, v) in &ds.attrs {
        write_string(w, k)?;
        write_string(w, v)?;
    }
    w.write_all(&[ds.data.shape().ndim() as u8])?;
    for (name, &extent) in ds.dim_names.iter().zip(ds.data.shape().dims()) {
        write_string(w, name)?;
        w.write_all(&(extent as u64).to_le_bytes())?;
    }
    w.write_all(&[DTYPE_F32])?;
    w.write_all(&[u8::from(ds.mask.is_some())])?;
    // Bulk data: one contiguous write of the LE bytes.
    let mut bytes = Vec::with_capacity(ds.data.len() * 4);
    for &v in ds.data.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)?;
    if let Some(m) = &ds.mask {
        w.write_all(&m.pack_bits())?;
    }
    Ok(())
}

/// Deserializes a dataset from any reader.
pub fn read_caf(r: &mut impl Read) -> Result<Dataset, StoreError> {
    read_fields(r).map_err(|e| match e {
        StoreError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            StoreError::Corrupt("truncated")
        }
        e => e,
    })
}

/// [`read_caf`]'s parse, whose short reads surface as `read_exact`'s
/// `UnexpectedEof`.
fn read_fields(r: &mut impl Read) -> Result<Dataset, StoreError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if u32::from_le_bytes(magic) != CAF1.magic {
        return Err(StoreError::BadMagic);
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] == 0 || version[0] > CAF1.version {
        return Err(StoreError::UnsupportedVersion(version[0]));
    }
    let name = read_string(r)?;
    let mut nattrs = [0u8; 2];
    r.read_exact(&mut nattrs)?;
    // u16-decoded, so at most 65535 (empty) pairs are pre-reserved.
    let nattrs = usize::from(u16::from_le_bytes(nattrs));
    let mut attrs = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        let k = read_string(r)?;
        let v = read_string(r)?;
        attrs.push((k, v));
    }
    let mut ndim = [0u8; 1];
    r.read_exact(&mut ndim)?;
    let ndim = ndim[0] as usize;
    if ndim == 0 || ndim > cliz_grid::shape::MAX_DIMS {
        return Err(StoreError::Corrupt("bad rank"));
    }
    let mut dim_names = Vec::with_capacity(ndim);
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dim_names.push(read_string(r)?);
        let mut extent = [0u8; 8];
        r.read_exact(&mut extent)?;
        let e = u64::from_le_bytes(extent) as usize;
        if e == 0 {
            return Err(StoreError::Corrupt("zero extent"));
        }
        dims.push(e);
    }
    let total = dims
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .filter(|&t| t <= 1 << 36)
        .ok_or(StoreError::Corrupt("implausible size"))?;
    let mut dtype = [0u8; 1];
    r.read_exact(&mut dtype)?;
    if dtype[0] != DTYPE_F32 {
        return Err(StoreError::Corrupt("unsupported dtype"));
    }
    let mut flags = [0u8; 1];
    r.read_exact(&mut flags)?;
    let has_mask = flags[0] & 1 == 1;

    let values = read_f32s(r, total)?;
    let shape = Shape::new(&dims);
    let data = Grid::from_vec(shape.clone(), values);
    let mask = if has_mask {
        let mut packed = vec![0u8; total.div_ceil(8)];
        r.read_exact(&mut packed)?;
        Some(MaskMap::unpack_bits(shape, &packed))
    } else {
        None
    };
    Ok(Dataset {
        name,
        dim_names,
        attrs,
        data,
        mask,
    })
}

/// Reads `total` little-endian f32 values in one pass, through a
/// [`READ_CHUNK`] staging buffer. At most [`RESERVE_AHEAD`] values are
/// reserved before any has arrived; past that the vector grows only as
/// values are read, so a header claiming more values than the stream holds
/// fails on the short read, not on an allocation sized by the claim.
fn read_f32s(r: &mut impl Read, total: usize) -> Result<Vec<f32>, StoreError> {
    let mut values: Vec<f32> = Vec::with_capacity(total.min(RESERVE_AHEAD));
    let mut chunk = vec![0u8; READ_CHUNK];
    while values.len() < total {
        let n = (total - values.len()).min(READ_CHUNK / 4);
        let staged = &mut chunk[..n * 4];
        r.read_exact(staged)?;
        values.extend(
            staged
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    Ok(values)
}

/// Convenience: write to a filesystem path. The file is replaced only
/// once the whole dataset is written ([`crate::write_atomic`]), so an
/// invalid dataset or a failed write leaves a previous file as it was.
pub fn save(path: &Path, ds: &Dataset) -> Result<(), StoreError> {
    crate::write_atomic(path, |w| write_caf(w, ds))
}

/// Convenience: read from a filesystem path.
pub fn load(path: &Path) -> Result<Dataset, StoreError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_caf(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let data = Grid::from_fn(Shape::new(&[4, 6]), |c| (c[0] * 6 + c[1]) as f32 * 0.5);
        let mask = MaskMap::from_flags(data.shape().clone(), (0..24).map(|i| i % 5 != 0).collect());
        let mut ds = Dataset::new("SSH", data, Some(mask));
        ds.dim_names = vec!["lat".into(), "lon".into()];
        ds.set_attr("units", "m");
        ds.set_attr("time_axis", "1");
        ds.set_attr("period", "12");
        ds
    }

    #[test]
    fn roundtrip_with_mask_and_attrs() {
        let ds = sample();
        let mut buf = Vec::new();
        write_caf(&mut buf, &ds).unwrap();
        let back = read_caf(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ds);
        assert_eq!(back.attr("units"), Some("m"));
        assert_eq!(back.time_axis(), Some(1));
        assert_eq!(back.period(), Some(12));
    }

    #[test]
    fn roundtrip_without_mask() {
        let data = Grid::filled(Shape::new(&[3, 3, 3]), 1.5f32);
        let ds = Dataset::new("T", data, None);
        let mut buf = Vec::new();
        write_caf(&mut buf, &ds).unwrap();
        let back = read_caf(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ds);
        assert!(back.mask.is_none());
        assert_eq!(back.dim_names, vec!["dim0", "dim1", "dim2"]);
    }

    #[test]
    fn attrs_roundtrip_with_empty_values_and_keys() {
        // Attribute machinery must not treat "" specially on either side of
        // the pair — empty values (units-less variables) and even an empty
        // key must survive a write/read cycle verbatim, in order.
        let data = Grid::filled(Shape::new(&[2, 2]), 0.0f32);
        let mut ds = Dataset::new("X", data, None);
        ds.set_attr("units", "");
        ds.set_attr("", "anonymous");
        ds.set_attr("history", "gen; compress; eval");
        let mut buf = Vec::new();
        write_caf(&mut buf, &ds).unwrap();
        let back = read_caf(&mut buf.as_slice()).unwrap();
        assert_eq!(back.attrs, ds.attrs);
        assert_eq!(back.attr("units"), Some(""));
        assert_eq!(back.attr(""), Some("anonymous"));
        // Empty-valued attrs are still replaceable, not duplicated.
        let mut ds2 = back;
        ds2.set_attr("units", "K");
        assert_eq!(ds2.attrs.iter().filter(|(k, _)| k == "units").count(), 1);
        assert_eq!(ds2.attr("units"), Some("K"));
    }

    #[test]
    fn non_utf8_attr_bytes_rejected() {
        // Corrupt an attribute value in place: read must fail with Corrupt,
        // not panic and not return mojibake.
        let mut ds = sample();
        ds.attrs = vec![("units".into(), "mmmm".into())];
        let mut buf = Vec::new();
        write_caf(&mut buf, &ds).unwrap();
        // Find the "mmmm" value bytes and replace them with invalid UTF-8.
        let pos = buf
            .windows(4)
            .position(|w| w == b"mmmm")
            .expect("attr value bytes present");
        buf[pos..pos + 4].copy_from_slice(&[0xFF, 0xFE, 0x80, 0x80]);
        match read_caf(&mut buf.as_slice()) {
            Err(StoreError::Corrupt(w)) => assert_eq!(w, "non-UTF8 string"),
            other => panic!("expected Corrupt(non-UTF8), got {other:?}"),
        }
    }

    #[test]
    fn mask_presence_is_faithful_either_way() {
        // Same data, with and without a mask: the flag byte must drive both
        // the write and the read side, and the mask bits must roundtrip.
        let data = Grid::from_fn(Shape::new(&[5, 7]), |c| (c[0] * 7 + c[1]) as f32);
        let flags: Vec<bool> = (0..35).map(|i| i % 3 != 1).collect();
        let mask = MaskMap::from_flags(data.shape().clone(), flags.clone());

        let masked = Dataset::new("M", data.clone(), Some(mask));
        let plain = Dataset::new("M", data, None);
        for ds in [&masked, &plain] {
            let mut buf = Vec::new();
            write_caf(&mut buf, ds).unwrap();
            let back = read_caf(&mut buf.as_slice()).unwrap();
            assert_eq!(back.mask.is_some(), ds.mask.is_some());
            assert_eq!(&back, ds);
        }
        let mut buf = Vec::new();
        write_caf(&mut buf, &masked).unwrap();
        let back = read_caf(&mut buf.as_slice()).unwrap();
        let m = back.mask.expect("mask present");
        assert_eq!(m.as_slice(), flags.as_slice());
    }

    #[test]
    fn write_side_validation_errors_not_panics() {
        // Arity mismatch between dim names and shape.
        let data = Grid::filled(Shape::new(&[2, 2]), 1.0f32);
        let mut ds = Dataset::new("bad", data.clone(), None);
        ds.dim_names.pop();
        let mut buf = Vec::new();
        assert!(matches!(
            write_caf(&mut buf, &ds),
            Err(StoreError::Invalid(_))
        ));
        // Mask shape mismatch.
        let wrong_mask = MaskMap::all_valid(Shape::new(&[3, 3]));
        let ds = Dataset {
            mask: Some(wrong_mask),
            ..Dataset::new("bad", data, None)
        };
        let mut buf = Vec::new();
        assert!(matches!(
            write_caf(&mut buf, &ds),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn set_attr_replaces() {
        let mut ds = sample();
        ds.set_attr("units", "cm");
        assert_eq!(ds.attr("units"), Some("cm"));
        assert_eq!(ds.attrs.iter().filter(|(k, _)| k == "units").count(), 1);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_caf(&mut &b"NOTCAF??"[..]).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let ds = sample();
        let mut buf = Vec::new();
        write_caf(&mut buf, &ds).unwrap();
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(read_caf(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn nan_and_fill_values_survive() {
        let data = Grid::from_vec(Shape::new(&[3]), vec![f32::NAN, 9.96921e36, -0.0]);
        let ds = Dataset::new("weird", data, None);
        let mut buf = Vec::new();
        write_caf(&mut buf, &ds).unwrap();
        let back = read_caf(&mut buf.as_slice()).unwrap();
        assert!(back.data.as_slice()[0].is_nan());
        assert_eq!(back.data.as_slice()[1], 9.96921e36);
        assert_eq!(back.data.as_slice()[2].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn implausible_header_rejected() {
        // Handcraft a header claiming an `extent × extent` grid, with no
        // data behind it.
        let header = |extent: u64| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&CAF1.magic.to_le_bytes());
            buf.push(CAF1.version);
            buf.extend_from_slice(&1u16.to_le_bytes()); // name len 1
            buf.push(b'x');
            buf.extend_from_slice(&0u16.to_le_bytes()); // no attrs
            buf.push(2); // ndim
            for _ in 0..2 {
                buf.extend_from_slice(&1u16.to_le_bytes());
                buf.push(b'd');
                buf.extend_from_slice(&extent.to_le_bytes());
            }
            buf.push(DTYPE_F32);
            buf.push(0);
            buf
        };
        assert!(matches!(
            read_caf(&mut header(u64::MAX / 2).as_slice()),
            Err(StoreError::Corrupt(_))
        ));
        // 2^36 values, exactly the size cap: 35 bytes that once asked for a
        // 256 GiB buffer now end in the short read, which is a truncated
        // file, as the CZS reader calls it.
        let capped = header(1 << 18);
        assert_eq!(capped.len(), 35);
        assert!(matches!(
            read_caf(&mut capped.as_slice()),
            Err(StoreError::Corrupt("truncated"))
        ));
    }

    /// Every cut point of a small masked CAF and of a small unmasked one:
    /// each prefix is a corrupt file, never an I/O error and never a panic.
    #[test]
    fn every_cut_is_corrupt_not_io() {
        let masked = sample();
        let unmasked = Dataset::new("T", masked.data.clone(), None);
        for ds in [masked, unmasked] {
            let mut buf = Vec::new();
            write_caf(&mut buf, &ds).unwrap();
            assert_eq!(read_caf(&mut buf.as_slice()).unwrap(), ds);
            for cut in 0..buf.len() {
                let got = std::panic::catch_unwind(|| read_caf(&mut &buf[..cut]).map(|_| ()));
                assert!(
                    matches!(got, Ok(Err(StoreError::Corrupt("truncated")))),
                    "cut {cut} of {} (masked {}): {got:?}",
                    buf.len(),
                    ds.mask.is_some()
                );
            }
        }
    }
}
