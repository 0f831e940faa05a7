//! Local-file backend using positional reads.
//!
//! On Unix every read is a `pread` — no shared cursor, no mutex — so
//! concurrent region queries through one shared reader never serialize on
//! the file descriptor. Elsewhere a mutex guards a seek-then-read fallback.

use crate::{check_range, ReadableStorage, StorageError};
use std::fs::File;
use std::ops::Range;
use std::path::Path;

/// A [`ReadableStorage`] over a local file opened read-only.
///
/// The size is captured at open; the store format pins every byte range at
/// pack time, so the file is treated as immutable. A file truncated behind
/// the backend surfaces as [`StorageError::ShortRead`].
#[derive(Debug)]
pub struct FileBackend {
    size: u64,
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl FileBackend {
    /// Open `path` read-only and capture its current size.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let file = File::open(path)?;
        let size = file.metadata()?.len();
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        Ok(FileBackend { size, file })
    }

    #[cfg(unix)]
    fn read_full_at(&self, offset: u64, out: &mut [u8]) -> Result<usize, StorageError> {
        use std::os::unix::fs::FileExt;
        let mut filled = 0usize;
        while filled < out.len() {
            let rest = &mut out[filled..];
            match self.file.read_at(rest, offset + filled as u64) {
                Ok(0) => break, // EOF mid-range: caller reports ShortRead
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StorageError::Io(e)),
            }
        }
        Ok(filled)
    }

    #[cfg(not(unix))]
    fn read_full_at(&self, offset: u64, out: &mut [u8]) -> Result<usize, StorageError> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match self.file.lock() {
            Ok(g) => g,
            // A poisoned lock only means another reader panicked mid-read;
            // the file state itself (position is re-seeked) is fine.
            Err(poisoned) => poisoned.into_inner(),
        };
        file.seek(SeekFrom::Start(offset))?;
        let mut filled = 0usize;
        while filled < out.len() {
            let rest = &mut out[filled..];
            match file.read(rest) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StorageError::Io(e)),
            }
        }
        Ok(filled)
    }
}

impl ReadableStorage for FileBackend {
    fn size(&self) -> Result<u64, StorageError> {
        Ok(self.size)
    }

    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
        check_range(&range, self.size)?;
        let want = (range.end - range.start) as usize;
        let mut out = vec![0u8; want];
        let got = self.read_full_at(range.start, &mut out)?;
        if got != want {
            return Err(StorageError::ShortRead {
                expected: want,
                got,
            });
        }
        Ok(out)
    }

    fn read_exact_at(&self, offset: u64, out: &mut [u8]) -> Result<(), StorageError> {
        let end = offset.saturating_add(out.len() as u64);
        check_range(&(offset..end), self.size)?;
        let got = self.read_full_at(offset, out)?;
        if got != out.len() {
            return Err(StorageError::ShortRead {
                expected: out.len(),
                got,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, body: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "cliz_storage_file_test_{}_{name}",
            std::process::id()
        ));
        let mut f = File::create(&p).unwrap();
        f.write_all(body).unwrap();
        p
    }

    #[test]
    fn file_backend_reads_ranges() {
        let p = temp_file("ranges", &(0u8..64).collect::<Vec<_>>());
        let b = FileBackend::open(&p).unwrap();
        assert_eq!(b.size().unwrap(), 64);
        assert_eq!(b.get(0..4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(b.get(60..64).unwrap(), vec![60, 61, 62, 63]);
        let mut out = [0u8; 3];
        b.read_exact_at(10, &mut out).unwrap();
        assert_eq!(out, [10, 11, 12]);
        assert!(matches!(
            b.get(60..65),
            Err(StorageError::OutOfRange { .. })
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn truncated_file_is_short_read_not_panic() {
        let p = temp_file("trunc", &[7u8; 128]);
        let b = FileBackend::open(&p).unwrap();
        // Shrink the file behind the backend's back: the cached size still
        // admits the range, but the read hits EOF mid-way.
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(32).unwrap();
        let err = b.get(0..128).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ShortRead {
                expected: 128,
                got: 32
            }
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = FileBackend::open(Path::new("/nonexistent/cliz_store.czs")).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }
}
