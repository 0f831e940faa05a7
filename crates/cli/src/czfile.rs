//! `.cz` wrapper: dataset metadata + a codec container, so `decompress`
//! reproduces a complete CAF dataset.

use crate::args::CliError;
use cliz_format::spec::CZF1;
use std::io::{Read, Write};
use std::path::Path;

/// Codec identifiers stored in the wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    Cliz = 0,
    Sz3 = 1,
    Sz2 = 2,
    Zfp = 3,
    Sperr = 4,
    Qoz = 5,
    /// CliZ chunked container, written by `compress --chunk N` in earlier
    /// builds. Read-only: `decompress` still loads it, and `.czs` stores
    /// (`pack-store`) are the chunked container the CLI writes.
    ClizChunked = 6,
}

impl Codec {
    pub fn from_name(name: &str) -> Option<Codec> {
        Some(match name.to_ascii_lowercase().as_str() {
            "cliz" => Codec::Cliz,
            "sz3" => Codec::Sz3,
            "sz2" => Codec::Sz2,
            "zfp" => Codec::Zfp,
            "sperr" => Codec::Sperr,
            "qoz" | "qoz1.1" => Codec::Qoz,
            _ => return None,
        })
    }

    pub fn from_id(id: u8) -> Option<Codec> {
        Some(match id {
            0 => Codec::Cliz,
            1 => Codec::Sz3,
            2 => Codec::Sz2,
            3 => Codec::Zfp,
            4 => Codec::Sperr,
            5 => Codec::Qoz,
            6 => Codec::ClizChunked,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Codec::Cliz => "cliz",
            Codec::Sz3 => "sz3",
            Codec::Sz2 => "sz2",
            Codec::Zfp => "zfp",
            Codec::Sperr => "sperr",
            Codec::Qoz => "qoz",
            Codec::ClizChunked => "cliz-chunked",
        }
    }
}

/// Everything a `.cz` file carries.
#[derive(Clone, Debug, PartialEq)]
pub struct CzFile {
    pub codec: Codec,
    pub name: String,
    pub dim_names: Vec<String>,
    pub attrs: Vec<(String, String)>,
    /// Whether the stream was compressed against a mask (decompression then
    /// needs `--mask-from`).
    pub masked: bool,
    /// The codec's own container bytes.
    pub payload: Vec<u8>,
}

/// Writes `s` behind its `u16` length; a longer string is refused, as
/// CAF1's writer refuses it, rather than written under a wrapped length.
fn write_string(w: &mut impl Write, s: &str) -> Result<(), CliError> {
    let len =
        u16::try_from(s.len()).map_err(|_| CliError::new("cz: string of more than 65535 bytes"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn read_string(r: &mut impl Read) -> Result<String, CliError> {
    let mut len = [0u8; 2];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; u16::from_le_bytes(len) as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| CliError::new("cz: non-UTF8 string"))
}

/// Writes `cz` to `path`, replacing a previous file only once every byte
/// is written, flushed and synced ([`cliz_store::write_atomic`]).
pub fn save(path: &Path, cz: &CzFile) -> Result<(), CliError> {
    cliz_store::write_atomic(path, |w| write_cz(w, cz))
}

fn write_cz(w: &mut impl Write, cz: &CzFile) -> Result<(), CliError> {
    w.write_all(&CZF1.magic.to_le_bytes())?;
    w.write_all(&[CZF1.version])?;
    w.write_all(&[cz.codec as u8])?;
    write_string(w, &cz.name)?;
    let ndim = u8::try_from(cz.dim_names.len())
        .map_err(|_| CliError::new("cz: more than 255 dimensions"))?;
    w.write_all(&[ndim])?;
    for d in &cz.dim_names {
        write_string(w, d)?;
    }
    let nattrs = u16::try_from(cz.attrs.len())
        .map_err(|_| CliError::new("cz: more than 65535 attributes"))?;
    w.write_all(&nattrs.to_le_bytes())?;
    for (k, v) in &cz.attrs {
        write_string(w, k)?;
        write_string(w, v)?;
    }
    w.write_all(&[u8::from(cz.masked)])?;
    w.write_all(&(cz.payload.len() as u64).to_le_bytes())?;
    w.write_all(&cz.payload)?;
    Ok(())
}

pub fn load(path: &Path) -> Result<CzFile, CliError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = std::io::BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if u32::from_le_bytes(magic) != CZF1.magic {
        return Err(CliError::new("not a .cz file"));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] == 0 || version[0] > CZF1.version {
        return Err(CliError::new(format!(
            "cz: unsupported version {} (this build reads up to {})",
            version[0], CZF1.version
        )));
    }
    let mut codec = [0u8; 1];
    r.read_exact(&mut codec)?;
    let codec = Codec::from_id(codec[0]).ok_or_else(|| CliError::new("cz: unknown codec"))?;
    let name = read_string(&mut r)?;
    let mut ndim = [0u8; 1];
    r.read_exact(&mut ndim)?;
    let mut dim_names = Vec::with_capacity(ndim[0] as usize);
    for _ in 0..ndim[0] {
        dim_names.push(read_string(&mut r)?);
    }
    let mut nattrs = [0u8; 2];
    r.read_exact(&mut nattrs)?;
    let mut attrs = Vec::with_capacity(u16::from_le_bytes(nattrs) as usize);
    for _ in 0..u16::from_le_bytes(nattrs) {
        let k = read_string(&mut r)?;
        let v = read_string(&mut r)?;
        attrs.push((k, v));
    }
    let mut masked = [0u8; 1];
    r.read_exact(&mut masked)?;
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    // A payload cannot be longer than the file it sits in: reject a corrupt
    // length field before allocating for it.
    if len > file_len {
        return Err(CliError::new("cz: payload length exceeds file size"));
    }
    let len = usize::try_from(len).map_err(|_| CliError::new("cz: payload length overflows"))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(CzFile {
        codec,
        name,
        dim_names,
        attrs,
        masked: masked[0] != 0,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_roundtrip() {
        for c in [
            Codec::Cliz,
            Codec::Sz3,
            Codec::Sz2,
            Codec::Zfp,
            Codec::Sperr,
            Codec::Qoz,
        ] {
            assert_eq!(Codec::from_name(c.name()), Some(c));
            assert_eq!(Codec::from_id(c as u8), Some(c));
        }
        assert_eq!(Codec::from_name("bogus"), None);
        assert_eq!(Codec::from_id(99), None);
        // The chunked container is read-only: its id loads, its name is
        // no compressor.
        assert_eq!(Codec::from_id(6), Some(Codec::ClizChunked));
        assert_eq!(Codec::from_name(Codec::ClizChunked.name()), None);
    }

    #[test]
    fn file_roundtrip() {
        let cz = CzFile {
            codec: Codec::Cliz,
            name: "SSH".into(),
            dim_names: vec!["lat".into(), "lon".into(), "time".into()],
            attrs: vec![("period".into(), "12".into())],
            masked: true,
            payload: vec![1, 2, 3, 4, 5],
        };
        let dir = std::env::temp_dir().join("cliz_cz_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cz");
        save(&path, &cz).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, cz);
    }

    #[test]
    fn oversized_metadata_refused_and_no_file_left() {
        let base = CzFile {
            codec: Codec::Cliz,
            name: "SSH".into(),
            dim_names: vec!["lat".into()],
            attrs: vec![],
            masked: false,
            payload: vec![1, 2, 3],
        };
        let long = "x".repeat(1 << 16);
        let dir = std::env::temp_dir().join(format!("cliz_cz_oversized_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, cz) in [
            CzFile {
                name: long.clone(),
                ..base.clone()
            },
            CzFile {
                dim_names: vec![long.clone()],
                ..base.clone()
            },
            CzFile {
                attrs: vec![("units".into(), long.clone())],
                ..base.clone()
            },
            CzFile {
                dim_names: vec![String::new(); 256],
                ..base.clone()
            },
            CzFile {
                attrs: vec![(String::new(), String::new()); 1 << 16],
                ..base.clone()
            },
        ]
        .iter()
        .enumerate()
        {
            let path = dir.join(format!("long{i}.cz"));
            let err = save(&path, cz).unwrap_err();
            assert!(err.to_string().contains("more than"), "{err}");
        }
        // Nothing was left behind, not even a temp file.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // The longest string the length prefix holds still round-trips.
        let fits = CzFile {
            name: "x".repeat(65_535),
            ..base
        };
        let path = dir.join("fits.cz");
        save(&path, &fits).unwrap();
        assert_eq!(load(&path).unwrap(), fits);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_version_rejected() {
        let cz = CzFile {
            codec: Codec::Cliz,
            name: "SSH".into(),
            dim_names: vec![],
            attrs: vec![],
            masked: false,
            payload: vec![1, 2, 3],
        };
        let dir = std::env::temp_dir().join("cliz_cz_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.cz");
        save(&path, &cz).unwrap();
        let saved = std::fs::read(&path).unwrap();
        // Zeroed and future version bytes both refuse cleanly.
        for v in [0u8, 0xEE] {
            let mut bytes = saved.clone();
            bytes[4] = v; // version byte sits right after the magic
            std::fs::write(&path, &bytes).unwrap();
            let err = load(&path).unwrap_err();
            assert!(err.to_string().contains("unsupported version"), "{err}");
        }
    }

    #[test]
    fn implausible_payload_length_rejected() {
        // Valid header claiming a payload far larger than the file itself:
        // must fail cleanly without attempting the allocation.
        let mut bytes = CZF1.magic.to_le_bytes().to_vec();
        bytes.push(CZF1.version);
        bytes.push(0); // codec = cliz
        bytes.extend_from_slice(&0u16.to_le_bytes()); // empty name
        bytes.push(0); // no dims
        bytes.extend_from_slice(&0u16.to_le_bytes()); // no attrs
        bytes.push(0); // unmasked
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd payload len
        let dir = std::env::temp_dir().join("cliz_cz_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oversized.cz");
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).is_err());
    }

    #[test]
    fn garbage_rejected() {
        let dir = std::env::temp_dir().join("cliz_cz_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.cz");
        std::fs::write(&path, b"not a cz file at all").unwrap();
        assert!(load(&path).is_err());
    }
}
