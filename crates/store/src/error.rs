//! Error taxonomy shared by the CAF file format and the CZS chunk store.

use cliz_core::ClizError;

/// Read/write failure in the storage layer.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Not a CAF/CZS stream at all.
    BadMagic,
    UnsupportedVersion(u8),
    /// Structurally invalid stream (truncation, inconsistent index,
    /// implausible geometry).
    Corrupt(&'static str),
    /// Caller-side validation failure on the write path (arity or shape
    /// mismatches, oversized strings).
    Invalid(&'static str),
    /// A chunk's stored CRC32 does not match its payload bytes.
    Checksum {
        chunk: usize,
    },
    /// A region query that does not fit the dataset's geometry.
    BadRegion(&'static str),
    /// The chunk codec rejected a payload.
    Codec(ClizError),
    /// The storage backend failed to produce the requested bytes.
    Storage(cliz_storage::StorageError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store: io error: {e}"),
            StoreError::BadMagic => write!(f, "store: not a CAF/CZS file"),
            StoreError::UnsupportedVersion(v) => write!(f, "store: unsupported version {v}"),
            StoreError::Corrupt(w) => write!(f, "store: corrupt file ({w})"),
            StoreError::Invalid(w) => write!(f, "store: invalid dataset ({w})"),
            StoreError::Checksum { chunk } => {
                write!(f, "store: checksum mismatch in chunk {chunk}")
            }
            StoreError::BadRegion(w) => write!(f, "store: bad region query ({w})"),
            StoreError::Codec(e) => write!(f, "store: codec error: {e}"),
            StoreError::Storage(e) => write!(f, "store: storage backend error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<cliz_format::FormatError> for StoreError {
    fn from(e: cliz_format::FormatError) -> Self {
        match e {
            // Truncation while parsing store structure is a corrupt store;
            // the store layer has no standalone Truncated variant.
            cliz_format::FormatError::Truncated => StoreError::Corrupt("truncated"),
            cliz_format::FormatError::BadMagic => StoreError::BadMagic,
            cliz_format::FormatError::UnsupportedVersion(v) => StoreError::UnsupportedVersion(v),
            cliz_format::FormatError::Corrupt(what) => StoreError::Corrupt(what),
        }
    }
}

impl From<cliz_storage::StorageError> for StoreError {
    fn from(e: cliz_storage::StorageError) -> Self {
        StoreError::Storage(e)
    }
}

impl From<ClizError> for StoreError {
    fn from(e: ClizError) -> Self {
        // Truncation discovered while parsing store structure is a corrupt
        // *store*, not a codec failure; everything else keeps its origin.
        match e {
            ClizError::Truncated => StoreError::Corrupt("truncated"),
            other => StoreError::Codec(other),
        }
    }
}
