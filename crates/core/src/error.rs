//! Error taxonomy for the CliZ container.

/// Everything that can go wrong compressing or decompressing.
#[derive(Debug, Clone, PartialEq)]
pub enum ClizError {
    /// Stream does not begin with the CLIZ magic.
    BadMagic,
    /// Stream ended mid-structure.
    Truncated,
    /// Structurally invalid stream.
    Corrupt(&'static str),
    /// Version newer than this library understands.
    UnsupportedVersion(u8),
    /// The stream was compressed with a mask but none was supplied (or the
    /// supplied mask has the wrong shape).
    MaskRequired,
    /// Invalid configuration (bad permutation/fusion for the data's rank…).
    BadConfig(&'static str),
    /// Lossless backend failure.
    Backend(String),
}

impl std::fmt::Display for ClizError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClizError::BadMagic => write!(f, "cliz: bad magic"),
            ClizError::Truncated => write!(f, "cliz: truncated stream"),
            ClizError::Corrupt(what) => write!(f, "cliz: corrupt stream ({what})"),
            ClizError::UnsupportedVersion(v) => write!(f, "cliz: unsupported version {v}"),
            ClizError::MaskRequired => {
                write!(f, "cliz: stream uses a mask map; pass the dataset's mask")
            }
            ClizError::BadConfig(what) => write!(f, "cliz: bad configuration ({what})"),
            ClizError::Backend(what) => write!(f, "cliz: lossless backend error: {what}"),
        }
    }
}

impl std::error::Error for ClizError {}

impl From<cliz_lossless::Error> for ClizError {
    fn from(e: cliz_lossless::Error) -> Self {
        ClizError::Backend(e.to_string())
    }
}

impl From<cliz_format::FormatError> for ClizError {
    fn from(e: cliz_format::FormatError) -> Self {
        match e {
            cliz_format::FormatError::Truncated => ClizError::Truncated,
            cliz_format::FormatError::BadMagic => ClizError::BadMagic,
            cliz_format::FormatError::UnsupportedVersion(v) => ClizError::UnsupportedVersion(v),
            cliz_format::FormatError::Corrupt(what) => ClizError::Corrupt(what),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_format::{FormatError, HeaderReader, HeaderWriter};

    fn read_u64(bytes: &[u8]) -> Result<u64, ClizError> {
        let mut r = HeaderReader::new(bytes);
        Ok(r.u64()?)
    }

    #[test]
    fn truncation_converts_to_cliz_error() {
        let mut w = HeaderWriter::new();
        w.u32(1);
        assert_eq!(read_u64(&w.finish()), Err(ClizError::Truncated));
    }

    #[test]
    fn every_format_error_maps_to_its_cliz_twin() {
        for (fe, ce) in [
            (FormatError::Truncated, ClizError::Truncated),
            (FormatError::BadMagic, ClizError::BadMagic),
            (
                FormatError::UnsupportedVersion(9),
                ClizError::UnsupportedVersion(9),
            ),
            (FormatError::Corrupt("x"), ClizError::Corrupt("x")),
        ] {
            assert_eq!(ClizError::from(fe), ce);
        }
    }
}
