//! HTTP/1.1 byte-range backend — hand-rolled, blocking, zero dependencies.
//!
//! The client speaks the minimum of HTTP/1.1 needed to read a CZS store
//! remotely: one `GET` with `Range: bytes=a-b` and `Connection: close` per
//! backend get, expecting a `206 Partial Content` whose `Content-Length`
//! matches the range exactly. The object's size is discovered with a
//! one-byte range probe (`Range: bytes=0-0`) and parsed from
//! `Content-Range: bytes 0-0/SIZE`.
//!
//! ## Retry policy
//!
//! Transient failures (connect/read timeouts, resets, premature EOF) and
//! 5xx answers are retried with exponential backoff
//! (`backoff_base × 2^attempt`), up to [`HttpConfig::retries`] retries;
//! exhaustion surfaces as [`StorageError::Exhausted`] carrying the last
//! failure. Non-retryable answers (404, a `200` ignoring the range,
//! malformed framing, a `206` whose length disagrees with the range) fail
//! immediately — re-asking cannot change them.

use crate::{ReadableStorage, StorageError};
use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Duration;

/// Longest accepted response header line; longer is malformed framing.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most response header lines accepted before declaring the framing bad.
const MAX_HEADER_LINES: usize = 128;

/// Tunables for [`HttpRangeBackend`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout on the socket per attempt.
    pub io_timeout: Duration,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub retries: u32,
    /// First backoff sleep; doubles each retry.
    pub backoff_base: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            retries: 3,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// A [`ReadableStorage`] over an HTTP/1.1 endpoint honouring `Range:`.
pub struct HttpRangeBackend {
    /// `host[:port]` as written in the URL — sent as the `Host:` header.
    host_header: String,
    /// `host:port` used for the TCP connect.
    addr: String,
    path: String,
    config: HttpConfig,
    /// Object size, discovered lazily by the first `size()` probe.
    cached_size: Mutex<Option<u64>>,
}

impl HttpRangeBackend {
    /// Build a backend from an `http://host[:port]/path` URL.
    pub fn new(url: &str) -> Result<Self, StorageError> {
        Self::with_config(url, HttpConfig::default())
    }

    /// Build a backend with explicit timeouts/retry budget.
    pub fn with_config(url: &str, config: HttpConfig) -> Result<Self, StorageError> {
        let rest = url
            .strip_prefix("http://")
            .ok_or(StorageError::BadAddress("only http:// URLs are supported"))?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(StorageError::BadAddress("empty host"));
        }
        let addr = if authority.contains(':') {
            authority.to_string()
        } else {
            format!("{authority}:80")
        };
        Ok(HttpRangeBackend {
            host_header: authority.to_string(),
            addr,
            path: path.to_string(),
            config,
            cached_size: Mutex::new(None),
        })
    }

    /// One request/response exchange for `range`; no retries at this layer.
    fn fetch_once(&self, range: &Range<u64>) -> Result<(Vec<u8>, Option<u64>), StorageError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(StorageError::Io)?
            .next()
            .ok_or(StorageError::BadAddress("host did not resolve"))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;

        let request = format!(
            "GET {} HTTP/1.1\r\nHost: {}\r\nRange: bytes={}-{}\r\nConnection: close\r\nUser-Agent: cliz-storage\r\n\r\n",
            self.path,
            self.host_header,
            range.start,
            range.end - 1,
        );
        stream.write_all(request.as_bytes())?;

        let mut reader = BufReader::new(stream);
        let status_line = read_header_line(&mut reader)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(StorageError::BadResponse("bad status line"))?;

        let mut content_length: Option<usize> = None;
        let mut total_size: Option<u64> = None;
        for _ in 0..MAX_HEADER_LINES {
            let line = read_header_line(&mut reader)?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse()
                        .map_err(|_| StorageError::BadResponse("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("content-range") {
                // "bytes a-b/SIZE" (or "bytes */SIZE" on 416).
                total_size = value
                    .rsplit_once('/')
                    .and_then(|(_, size)| size.trim().parse().ok());
            }
        }

        match status {
            206 => {}
            // A 200 means the server ignored the range; reading whole
            // objects defeats the point of a range backend, so treat the
            // endpoint as unusable rather than silently downloading all.
            200 => {
                return Err(StorageError::BadResponse(
                    "server ignored the range request",
                ))
            }
            500..=599 => return Err(StorageError::HttpStatus { status }),
            _ => return Err(StorageError::HttpStatus { status }),
        }

        let want = (range.end - range.start) as usize;
        let declared = content_length.ok_or(StorageError::BadResponse("missing content-length"))?;
        if declared != want {
            return Err(StorageError::BadResponse(
                "content-length disagrees with range",
            ));
        }
        // Bounded by the caller's own range size — `declared == want`.
        let mut body = Vec::with_capacity(declared);
        reader
            .take(declared as u64)
            .read_to_end(&mut body)
            .map_err(StorageError::Io)?;
        if body.len() != declared {
            // The connection dropped mid-body: retryable.
            return Err(StorageError::Transient("connection closed mid-body"));
        }
        Ok((body, total_size))
    }

    /// Retry loop shared by `get` and the size probe.
    fn fetch_with_retry(&self, range: &Range<u64>) -> Result<(Vec<u8>, Option<u64>), StorageError> {
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let err = match self.fetch_once(range) {
                Ok(out) => return Ok(out),
                Err(e) => e,
            };
            let retryable =
                err.is_transient() || matches!(err, StorageError::HttpStatus { status: 500..=599 });
            if !retryable {
                return Err(err);
            }
            if attempt > self.config.retries {
                return Err(StorageError::Exhausted {
                    attempts: attempt,
                    last: err.to_string(),
                });
            }
            let backoff = self
                .config
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1).min(16));
            std::thread::sleep(backoff);
        }
    }
}

impl ReadableStorage for HttpRangeBackend {
    fn size(&self) -> Result<u64, StorageError> {
        if let Ok(cached) = self.cached_size.lock() {
            if let Some(size) = *cached {
                return Ok(size);
            }
        }
        // One-byte probe: the 206's Content-Range carries the total size.
        let (_, total) = self.fetch_with_retry(&(0..1))?;
        let size = total.ok_or(StorageError::BadResponse("no content-range on probe"))?;
        if let Ok(mut cached) = self.cached_size.lock() {
            *cached = Some(size);
        }
        Ok(size)
    }

    fn get(&self, range: Range<u64>) -> Result<Vec<u8>, StorageError> {
        if range.start > range.end {
            return Err(StorageError::OutOfRange {
                start: range.start,
                end: range.end,
                size: self.size().unwrap_or(0),
            });
        }
        if range.start == range.end {
            return Ok(Vec::new());
        }
        let (body, _) = self.fetch_with_retry(&range)?;
        Ok(body)
    }
}

/// Read one CRLF-terminated header line with a hard length cap.
fn read_header_line(reader: &mut BufReader<TcpStream>) -> Result<String, StorageError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(StorageError::Transient("connection closed before headers"));
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_HEADER_LINE {
                    return Err(StorageError::BadResponse("header line too long"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StorageError::Io(e)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| StorageError::BadResponse("non-utf8 header"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_and_rejects() {
        let b = HttpRangeBackend::new("http://example.org/store.czs").unwrap();
        assert_eq!(b.host_header, "example.org");
        assert_eq!(b.addr, "example.org:80");
        assert_eq!(b.path, "/store.czs");
        let b = HttpRangeBackend::new("http://127.0.0.1:8080").unwrap();
        assert_eq!(b.addr, "127.0.0.1:8080");
        assert_eq!(b.path, "/");
        assert!(matches!(
            HttpRangeBackend::new("https://example.org/x"),
            Err(StorageError::BadAddress(_))
        ));
        assert!(matches!(
            HttpRangeBackend::new("http:///x"),
            Err(StorageError::BadAddress(_))
        ));
    }
}
