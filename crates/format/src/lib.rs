//! `cliz-format`: the single source of truth for every on-disk container
//! the workspace writes, plus the shared header cursors that serialize and
//! parse them.
//!
//! Three pieces:
//!
//! * [`spec`] — the magic/version registry. Every container format is a
//!   [`FormatSpec`] entry; a compile-time assertion proves no two formats
//!   share a magic value. No other crate may define a magic literal (xtask
//!   rule R15 enforces this).
//! * [`FormatError`] — the decode failure taxonomy shared by every header
//!   parser. Consumer crates wrap it in their own error enums via `From`.
//! * [`HeaderWriter`] / [`HeaderReader`] — sequential little-endian
//!   cursors. [`HeaderWriter::magic`] emits `magic:u32, version:u8` and
//!   [`HeaderReader::expect_magic`] parses and range-checks the same pair,
//!   so a format cannot gain a header without also gaining version
//!   discipline: an unknown future version is a clean
//!   [`FormatError::UnsupportedVersion`], never a panic or a misparse.

/// One registered container format: its human name, magic number, and the
/// newest header version this build of the workspace understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatSpec {
    pub name: &'static str,
    pub magic: u32,
    pub version: u8,
}

/// The magic/version registry. All eleven live workspace containers live
/// here and nowhere else, next to the two retired CLZS magics that no new
/// format may reuse.
pub mod spec {
    use super::FormatSpec;

    /// Plain CliZ compressed field (`cliz_core::compressor`).
    pub const CLIZ: FormatSpec = FormatSpec {
        name: "CLIZ",
        magic: 0x434C_495A,
        version: 1,
    };
    /// Chunked CliZ container (`cliz_core::chunked`).
    pub const CLZC: FormatSpec = FormatSpec {
        name: "CLZC",
        magic: 0x434C_5A43,
        version: 1,
    };
    /// Random-access chunk store (`cliz_store::format`).
    /// Version 2 keeps the mask as a ZLT1 frame; version 1 (a raw bitmap)
    /// is still read.
    pub const CZS1: FormatSpec = FormatSpec {
        name: "CZS1",
        magic: 0x3153_5A43,
        version: 2,
    };
    /// Climate array file with attributes and mask (`cliz_store::caf`).
    pub const CAF1: FormatSpec = FormatSpec {
        name: "CAF1",
        magic: 0x4341_4631,
        version: 1,
    };
    /// CLI dataset envelope (`cliz_cli::czfile`).
    pub const CZF1: FormatSpec = FormatSpec {
        name: "CZF1",
        magic: 0x435A_4631,
        version: 1,
    };
    /// zlite lossless byte container (`cliz_lossless::format`).
    pub const ZLT1: FormatSpec = FormatSpec {
        name: "ZLT1",
        magic: 0x5A4C_5431,
        version: 1,
    };
    /// zfp-style transform baseline (`cliz_baselines::zfp`).
    pub const ZFP1: FormatSpec = FormatSpec {
        name: "ZFP1",
        magic: 0x5A46_5031,
        version: 1,
    };
    /// SZ2-style Lorenzo baseline (`cliz_baselines::sz2`).
    pub const SZ21: FormatSpec = FormatSpec {
        name: "SZ21",
        magic: 0x535A_3231,
        version: 1,
    };
    /// SZ3-style interpolation baseline (`cliz_baselines::sz_interp`).
    pub const SZL1: FormatSpec = FormatSpec {
        name: "SZL1",
        magic: 0x535A_4C31,
        version: 1,
    };
    /// QoZ-style interpolation baseline (`cliz_baselines::qoz`).
    pub const QOZ1: FormatSpec = FormatSpec {
        name: "QOZ1",
        magic: 0x514F_5A31,
        version: 1,
    };
    /// SPERR-style wavelet baseline (`cliz_baselines::sperr`).
    pub const SPR1: FormatSpec = FormatSpec {
        name: "SPR1",
        magic: 0x5350_5231,
        version: 1,
    };

    /// Every live format, for iteration (docs, corpus generators,
    /// duplicate audits).
    pub const REGISTRY: [FormatSpec; 11] = [
        CLIZ, CLZC, CZS1, CAF1, CZF1, ZLT1, ZFP1, SZ21, SZL1, QOZ1, SPR1,
    ];

    /// Retired: the CLZS slab-stream header. Nothing writes or opens CLZS
    /// files; the value stays in the uniqueness check below so no future
    /// format can reuse it and misparse an old file.
    const CLZS: FormatSpec = FormatSpec {
        name: "CLZS",
        magic: 0x434C_5A53,
        version: 1,
    };

    /// Retired: the CLZS end-of-file trailer sentinel, reserved likewise.
    const CLZS_TRAILER_MAGIC: u32 = 0x535A_4C43;

    const fn all_unique(vals: &[u32]) -> bool {
        let mut i = 0;
        while i < vals.len() {
            let mut j = i + 1;
            while j < vals.len() {
                if vals[i] == vals[j] {
                    return false;
                }
                j += 1;
            }
            i += 1;
        }
        true
    }

    /// Live and retired magics alike.
    const ALL_MAGICS: [u32; 13] = [
        CLIZ.magic,
        CLZC.magic,
        CLZS.magic, // retired
        CZS1.magic,
        CAF1.magic,
        CZF1.magic,
        ZLT1.magic,
        ZFP1.magic,
        SZ21.magic,
        SZL1.magic,
        QOZ1.magic,
        SPR1.magic,
        CLZS_TRAILER_MAGIC, // retired
    ];

    // Compile-time proof that no two formats share a magic value: ambiguous
    // container detection would turn decode errors into misparses.
    const _: () = assert!(all_unique(&ALL_MAGICS), "duplicate magic in registry");
}

/// Failure taxonomy for header parsing. Deliberately small: consumer
/// crates keep their richer domain errors and absorb this via `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The buffer ended before the field did.
    Truncated,
    /// The leading magic does not identify this format.
    BadMagic,
    /// The magic matched but the header version is newer than this build
    /// understands (or zero, which is never issued).
    UnsupportedVersion(u8),
    /// A field was present but structurally invalid.
    Corrupt(&'static str),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "container truncated"),
            FormatError::BadMagic => write!(f, "bad container magic"),
            FormatError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v}")
            }
            FormatError::Corrupt(what) => write!(f, "corrupt container ({what})"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Sequential little-endian writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct HeaderWriter {
    buf: Vec<u8>,
}

impl HeaderWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Emits the registered `magic:u32, version:u8` prefix for `spec`.
    /// Always writes the current version: old versions are read, never
    /// written.
    pub fn magic(&mut self, spec: &FormatSpec) {
        self.u32(spec.magic);
        self.u8(spec.version);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64`-length-prefixed byte block.
    pub fn block(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// `u16`-length-prefixed UTF-8 string; errors when the string cannot
    /// be represented rather than silently truncating it.
    pub fn str16(&mut self, s: &str) -> Result<(), FormatError> {
        let len =
            u16::try_from(s.len()).map_err(|_| FormatError::Corrupt("string longer than u16"))?;
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential little-endian reader with explicit truncation errors; every
/// accessor is fallible, nothing panics on corrupt input.
#[derive(Debug)]
pub struct HeaderReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> HeaderReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Parses the `magic:u32, version:u8` prefix: wrong magic is
    /// [`FormatError::BadMagic`]; a version of zero or newer than
    /// `spec.version` is [`FormatError::UnsupportedVersion`]. Returns the
    /// version actually read so parsers can branch on older layouts.
    pub fn expect_magic(&mut self, spec: &FormatSpec) -> Result<u8, FormatError> {
        if self.u32()? != spec.magic {
            return Err(FormatError::BadMagic);
        }
        let v = self.u8()?;
        if v == 0 || v > spec.version {
            return Err(FormatError::UnsupportedVersion(v));
        }
        Ok(v)
    }

    /// Takes the next `n` bytes, or `Truncated` when they are not there.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).ok_or(FormatError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(FormatError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        self.take(N)?.try_into().map_err(|_| FormatError::Truncated)
    }

    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take_array::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16, FormatError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn f32(&mut self) -> Result<f32, FormatError> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    pub fn f64(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// `u64`-length-prefixed byte block.
    pub fn block(&mut self) -> Result<&'a [u8], FormatError> {
        let n = self.len64()?;
        self.take(n)
    }

    /// `u16`-length-prefixed UTF-8 string.
    pub fn str16(&mut self) -> Result<&'a str, FormatError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| FormatError::Corrupt("string is not UTF-8"))
    }

    /// A `u64` length/count field that must also fit in `usize`.
    pub fn len64(&mut self) -> Result<usize, FormatError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| FormatError::Corrupt("length overflows usize"))
    }

    /// LEB128 varint (7 data bits per byte, ≤ 64 bits total).
    pub fn varint(&mut self) -> Result<u64, FormatError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(FormatError::Corrupt("varint overruns 64 bits"));
            }
        }
    }

    pub fn skip(&mut self, n: usize) -> Result<(), FormatError> {
        self.take(n).map(|_| ())
    }

    /// Everything after the cursor (typically the compressed payload).
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = HeaderWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(0xDEAD_BEEF);
        w.u64(1 << 40);
        w.f32(1.5);
        w.f64(-2.25);
        w.block(b"hello");
        w.str16("name").unwrap();
        let bytes = w.finish();
        let mut r = HeaderReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -2.25);
        assert_eq!(r.block().unwrap(), b"hello");
        assert_eq!(r.str16().unwrap(), "name");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn magic_prefix_roundtrips_and_rejects() {
        let mut w = HeaderWriter::new();
        w.magic(&spec::CLZC);
        let mut bytes = w.finish();
        assert_eq!(bytes.len(), 5);
        assert_eq!(
            HeaderReader::new(&bytes).expect_magic(&spec::CLZC).unwrap(),
            spec::CLZC.version
        );
        // Wrong format: magic mismatch, not a version complaint.
        assert_eq!(
            HeaderReader::new(&bytes).expect_magic(&spec::CLIZ),
            Err(FormatError::BadMagic)
        );
        // Future and zero versions are cleanly unsupported.
        bytes[4] = spec::CLZC.version + 1;
        assert_eq!(
            HeaderReader::new(&bytes).expect_magic(&spec::CLZC),
            Err(FormatError::UnsupportedVersion(spec::CLZC.version + 1))
        );
        bytes[4] = 0;
        assert_eq!(
            HeaderReader::new(&bytes).expect_magic(&spec::CLZC),
            Err(FormatError::UnsupportedVersion(0))
        );
        // Truncated before the version byte.
        assert_eq!(
            HeaderReader::new(&bytes[..4]).expect_magic(&spec::CLZC),
            Err(FormatError::Truncated)
        );
    }

    #[test]
    fn registry_is_well_formed() {
        // Names are distinct, versions start at 1 (0 is the reserved
        // "never issued" value), and every magic's bytes are printable
        // ASCII so containers are identifiable in a hex dump.
        for (i, f) in spec::REGISTRY.iter().enumerate() {
            assert!(f.version >= 1, "{}: version 0 is reserved", f.name);
            assert!(
                f.magic.to_le_bytes().iter().all(|b| b.is_ascii_graphic()),
                "{}: magic must be printable ASCII",
                f.name
            );
            for other in &spec::REGISTRY[..i] {
                assert_ne!(f.name, other.name, "duplicate registry name");
            }
        }
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = HeaderWriter::new();
        w.u32(1);
        let bytes = w.finish();
        let mut r = HeaderReader::new(&bytes);
        assert_eq!(r.u64().unwrap_err(), FormatError::Truncated);
    }

    #[test]
    fn block_length_checked() {
        let mut w = HeaderWriter::new();
        w.u64(1000); // claims 1000 bytes, provides none
        let bytes = w.finish();
        let mut r = HeaderReader::new(&bytes);
        assert_eq!(r.block().unwrap_err(), FormatError::Truncated);
    }

    #[test]
    fn str16_rejects_non_utf8_and_oversize() {
        let mut w = HeaderWriter::new();
        w.u16(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.finish();
        assert_eq!(
            HeaderReader::new(&bytes).str16().unwrap_err(),
            FormatError::Corrupt("string is not UTF-8")
        );
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        assert!(HeaderWriter::new().str16(&long).is_err());
    }

    #[test]
    fn varint_roundtrip_and_overrun() {
        let mut r = HeaderReader::new(&[0x96, 0x01]);
        assert_eq!(r.varint().unwrap(), 150);
        let overrun = [0x80u8; 11];
        assert!(matches!(
            HeaderReader::new(&overrun).varint(),
            Err(FormatError::Corrupt(_))
        ));
    }
}
