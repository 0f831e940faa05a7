//! In-memory backend: the packed store bytes themselves.

use crate::{check_range, ReadableStorage, StorageError};
use std::ops::Range;
use std::sync::Arc;

/// A [`ReadableStorage`] over an immutable in-memory byte buffer.
///
/// This is what `ChunkStoreReader::from_bytes` wraps, and what tests and
/// benches use to take the filesystem out of the picture. The buffer is
/// behind an `Arc` so cloning the backend shares rather than copies.
#[derive(Clone)]
pub struct MemBackend {
    body: Arc<Vec<u8>>,
}

impl MemBackend {
    /// Wrap a byte buffer.
    pub fn new(body: Vec<u8>) -> Self {
        MemBackend {
            body: Arc::new(body),
        }
    }

    /// Wrap an already-shared buffer without copying.
    pub fn from_arc(body: Arc<Vec<u8>>) -> Self {
        MemBackend { body }
    }
}

impl ReadableStorage for MemBackend {
    fn size(&self) -> Result<u64, StorageError> {
        Ok(self.body.len() as u64)
    }

    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
        check_range(&range, self.body.len() as u64)?;
        // check_range bounds both ends by the buffer length, so the usize
        // casts and the slice below cannot go out of bounds.
        let view = self
            .body
            .get(range.start as usize..range.end as usize)
            .ok_or(StorageError::ShortRead {
                expected: (range.end - range.start) as usize,
                got: 0,
            })?;
        Ok(view.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_roundtrips_ranges() {
        let m = MemBackend::new((0u8..32).collect());
        assert_eq!(m.size().unwrap(), 32);
        assert_eq!(m.get(0..4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(m.get(30..32).unwrap(), vec![30, 31]);
        assert_eq!(m.get(16..16).unwrap(), Vec::<u8>::new());
        assert!(matches!(
            m.get(30..33),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn clones_share_the_buffer() {
        let m = MemBackend::new(vec![0u8; 1 << 20]);
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.body, &c.body));
    }
}
