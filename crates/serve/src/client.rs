//! Blocking client for the region protocol.

use crate::error::ServeError;
use crate::proto;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a single region body (1 GiB of f32s) — a corrupt or
/// hostile length prefix must not drive a client allocation.
const MAX_BODY_BYTES: usize = 1 << 30;

/// A connected protocol client. One request in flight at a time.
pub struct Client {
    lines: BufReader<TcpStream>,
    sink: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            lines: BufReader::new(stream.try_clone()?),
            sink: stream,
        })
    }

    /// Connects with a connect/read timeout (for probing possibly-dead
    /// servers without hanging).
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> Result<Self, ServeError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            lines: BufReader::new(stream.try_clone()?),
            sink: stream,
        })
    }

    /// Requests a region; returns the shape and the decoded f32 values.
    /// A reply whose shape no grid can hold (rank past `MAX_DIMS`, a zero
    /// extent) is [`ServeError::BadResponse`].
    pub fn region(&mut self, spec: &str) -> Result<(Vec<usize>, Vec<f32>), ServeError> {
        self.send(&format!("REGION {spec}\n"))?;
        let status = self.read_status()?;
        let (shape_text, nbytes_text) = status.split_once(' ').ok_or(ServeError::BadResponse(
            "region status needs shape and size",
        ))?;
        let shape: Vec<usize> = shape_text
            .split('x')
            .map(|d| d.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| ServeError::BadResponse("unparseable shape"))?;
        // Callers build a `Shape` from this, and `Shape::new` panics on
        // either; `split` always yields at least one extent, so the rank is
        // never 0.
        if shape.len() > cliz_grid::shape::MAX_DIMS || shape.contains(&0) {
            return Err(ServeError::BadResponse(
                "shape outside the grid's rank or extents",
            ));
        }
        let nbytes: usize = nbytes_text
            .trim()
            .parse()
            .map_err(|_| ServeError::BadResponse("unparseable body size"))?;
        if !nbytes.is_multiple_of(4) || nbytes > MAX_BODY_BYTES {
            return Err(ServeError::BadResponse("implausible body size"));
        }
        if shape.iter().try_fold(1usize, |a, &d| a.checked_mul(d)) != Some(nbytes / 4) {
            return Err(ServeError::BadResponse("shape disagrees with body size"));
        }
        let body = self.read_body(nbytes)?;
        let values = body
            .chunks_exact(4)
            .map(|quad| f32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]))
            .collect();
        Ok((shape, values))
    }

    /// Requests dataset metadata as decoded key/value pairs.
    pub fn info(&mut self) -> Result<Vec<(String, String)>, ServeError> {
        self.send("INFO\n")?;
        let status = self.read_status()?;
        let nlines: usize = status
            .trim()
            .parse()
            .map_err(|_| ServeError::BadResponse("unparseable line count"))?;
        if nlines > 4096 {
            return Err(ServeError::BadResponse("implausible line count"));
        }
        let mut pairs = Vec::with_capacity(nlines);
        for _ in 0..nlines {
            let line = self.read_line()?;
            let (k, v) = line
                .split_once('\t')
                .ok_or(ServeError::BadResponse("info line needs a tab"))?;
            pairs.push((proto::decode_value(k)?, proto::decode_value(v.trim_end())?));
        }
        Ok(pairs)
    }

    /// Requests the server's counter snapshot as raw JSON.
    pub fn stats_json(&mut self) -> Result<String, ServeError> {
        self.send("STATS\n")?;
        let status = self.read_status()?;
        let nbytes: usize = status
            .trim()
            .parse()
            .map_err(|_| ServeError::BadResponse("unparseable body size"))?;
        if nbytes > 1 << 20 {
            return Err(ServeError::BadResponse("implausible body size"));
        }
        let body = self.read_body(nbytes)?;
        String::from_utf8(body).map_err(|_| ServeError::BadResponse("stats body is not UTF-8"))
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> Result<(), ServeError> {
        self.send("QUIT\n")?;
        let _ = self.read_status()?;
        Ok(())
    }

    /// Sends one request line in one write. The socket runs with
    /// `TCP_NODELAY`, so each write is its own segment, and a line written
    /// piece by piece would cost one segment per piece.
    fn send(&mut self, line: &str) -> Result<(), ServeError> {
        self.sink.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads a status line; `OK <rest>` yields the rest, `ERR <msg>`
    /// becomes [`ServeError::Remote`].
    fn read_status(&mut self) -> Result<String, ServeError> {
        let line = self.read_line()?;
        if let Some(rest) = line.strip_prefix("OK ") {
            return Ok(rest.trim_end().to_string());
        }
        if let Some(msg) = line.strip_prefix("ERR ") {
            return Err(ServeError::Remote(msg.trim_end().to_string()));
        }
        Err(ServeError::BadResponse("status line is neither OK nor ERR"))
    }

    /// Reads one response line of at most [`proto::MAX_REQUEST_LINE`]
    /// bytes. The read stops one byte past the limit, so a peer that never
    /// sends a newline cannot grow the buffer without bound.
    fn read_line(&mut self) -> Result<String, ServeError> {
        let mut line = String::new();
        let limit = proto::MAX_REQUEST_LINE as u64 + 1;
        let n = (&mut self.lines).take(limit).read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        if line.len() > proto::MAX_REQUEST_LINE {
            return Err(ServeError::BadResponse("response line too long"));
        }
        Ok(line)
    }

    fn read_body(&mut self, nbytes: usize) -> Result<Vec<u8>, ServeError> {
        let mut body = vec![0u8; nbytes];
        self.lines.read_exact(&mut body)?;
        Ok(body)
    }
}
