//! Typed failure surface for the storage backends.
//!
//! Every backend failure mode is a distinct variant so callers (the store
//! reader, the serve layer, tests) can branch on *why* a get failed —
//! in particular, whether retrying could help ([`StorageError::Transient`])
//! or the request itself is unsatisfiable ([`StorageError::OutOfRange`]).

use std::fmt;

/// Error returned by [`crate::ReadableStorage`] implementations.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying OS-level I/O failure (open, seek, read, connect, ...).
    Io(std::io::Error),
    /// The requested byte range extends past the end of the object, or is
    /// inverted (`start > end`).
    OutOfRange {
        /// Requested range start (bytes).
        start: u64,
        /// Requested range end (exclusive, bytes).
        end: u64,
        /// Total object size the backend reports.
        size: u64,
    },
    /// A backend returned fewer bytes than the range it acknowledged —
    /// a contract violation (truncated file, lying server, injected fault).
    ShortRead {
        /// Bytes the contract required.
        expected: usize,
        /// Bytes actually produced.
        got: usize,
    },
    /// A transient, retryable failure (timeout, connection reset, injected
    /// fault). Retrying wrappers convert a run of these into
    /// [`StorageError::Exhausted`].
    Transient(&'static str),
    /// The retry budget ran out; `last` describes the final attempt.
    Exhausted {
        /// Number of attempts made before giving up.
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
    },
    /// An HTTP endpoint answered with a non-success, non-retryable status
    /// (e.g. 404, 403, or 200 where 206 with the exact range was required).
    HttpStatus {
        /// The status code received.
        status: u16,
    },
    /// The HTTP response framing was malformed (bad status line, missing
    /// or unparsable Content-Length / Content-Range, ...).
    BadResponse(&'static str),
    /// The URL or address handed to a backend could not be parsed.
    BadAddress(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::OutOfRange { start, end, size } => {
                write!(
                    f,
                    "range {start}..{end} out of bounds for object of {size} bytes"
                )
            }
            StorageError::ShortRead { expected, got } => {
                write!(
                    f,
                    "backend returned {got} bytes where {expected} were required"
                )
            }
            StorageError::Transient(why) => write!(f, "transient storage failure: {why}"),
            StorageError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts: {last}"
                )
            }
            StorageError::HttpStatus { status } => {
                write!(f, "http endpoint answered status {status}")
            }
            StorageError::BadResponse(why) => write!(f, "malformed http response: {why}"),
            StorageError::BadAddress(why) => write!(f, "bad storage address: {why}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl StorageError {
    /// Whether a retrying wrapper may usefully re-issue the request.
    ///
    /// Timeouts and connection drops qualify; contract violations and
    /// out-of-range requests do not (re-asking cannot change the answer).
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Transient(_) => true,
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }
}
