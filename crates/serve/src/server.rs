//! The thread-pooled TCP region server.
//!
//! One acceptor thread pushes accepted connections onto a shared queue;
//! `threads` workers pop them and speak the line protocol until the peer
//! quits or disconnects. All workers share one [`ChunkStoreReader`], so
//! concurrent clients share the decoded-chunk cache (and the lookup counts
//! that decide its evictions) and the per-chunk stampede locks — two
//! clients racing for the same cold chunk cost one decode, exactly like two
//! threads inside one process.
//!
//! Shutdown is cooperative: [`Server::stop`] raises a flag, self-connects
//! to unblock the acceptor, and enqueues one stop sentinel per worker.
//! Workers notice the flag at the next socket-read poll tick (reads carry
//! a short timeout), finish the request in flight, and exit; `stop` joins
//! every thread before returning, so no request is abandoned mid-body.
//! Writes carry a timeout too: a peer that stops reading ends its own
//! connection once one write has stalled for [`WRITE_STALL`], so it can pin
//! a worker, and hold up `stop`, for no longer than that.

use crate::error::ServeError;
use crate::proto::{self, Request};
use crate::stats::ServeStats;
use cliz_store::ChunkStoreReader;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time). Clamped to
    /// at least 1.
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { threads: 4 }
    }
}

/// Socket-read timeout used as the shutdown poll tick: an idle connection
/// re-checks the shutdown flag this often.
const READ_POLL: Duration = Duration::from_millis(200);

/// Socket-write timeout: the longest one write may wait for a peer to
/// drain its receive window. A client that stops reading mid-body fails
/// that write with [`ServeError::Io`], which ends its connection only; a
/// slow client that keeps reading never waits this long on one write.
const WRITE_STALL: Duration = Duration::from_secs(5);

enum Job {
    Conn(TcpStream, Instant),
    Stop,
}

#[derive(Default)]
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        // A worker that panicked mid-connection poisons nothing the queue
        // cares about: jobs are complete values.
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, job: Job) {
        self.lock().push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.ready.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A running region server. Dropping it without [`Server::stop`] leaves
/// the threads running for the life of the process; call `stop` for a
/// graceful, joined shutdown.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Queue>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServeStats>,
    reader: Arc<ChunkStoreReader>,
    threads: usize,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the acceptor plus the worker pool.
    pub fn start(
        reader: Arc<ChunkStoreReader>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let threads = config.threads.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(Queue::default());
        let stats = Arc::new(ServeStats::default());

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        ServeStats::count(&stats.connections, 1);
                        queue.push(Job::Conn(stream, Instant::now()));
                    }
                    Err(_) => {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        // Transient accept failure (e.g. EMFILE burst):
                        // back off briefly instead of spinning.
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            })
        };

        let workers = (0..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let shutdown = Arc::clone(&shutdown);
                let stats = Arc::clone(&stats);
                let reader = Arc::clone(&reader);
                std::thread::spawn(move || loop {
                    match queue.pop() {
                        Job::Stop => break,
                        Job::Conn(stream, queued_at) => {
                            ServeStats::count(
                                &stats.queue_wait_ns,
                                queued_at.elapsed().as_nanos() as u64,
                            );
                            // Connection-level IO errors end that
                            // connection only; the worker lives on.
                            let _ = serve_connection(&reader, &stats, &shutdown, stream);
                        }
                    }
                })
            })
            .collect();

        Ok(Self {
            addr: local,
            shutdown,
            queue,
            acceptor: Some(acceptor),
            workers,
            stats,
            reader,
            threads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Snapshot of server + reader counters as one JSON line (the same
    /// payload the `STATS` request returns).
    pub fn stats_json(&self) -> String {
        self.stats.to_json(&self.reader.stats())
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // The acceptor is parked in `accept`; a throwaway connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for _ in 0..self.threads {
            self.queue.push(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Serves one connection until QUIT, EOF, shutdown, or a socket error.
fn serve_connection(
    reader: &ChunkStoreReader,
    stats: &ServeStats,
    shutdown: &AtomicBool,
    stream: TcpStream,
) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(WRITE_STALL))?;
    stream.set_nodelay(true)?;
    let mut lines = BufReader::new(stream.try_clone()?);
    let mut sink = BufWriter::new(StallGuard(stream));
    let served = serve_requests(reader, stats, shutdown, &mut lines, &mut sink);
    if served.is_err() {
        // The connection is over and its unsent bytes have nowhere to go.
        // Discard them: dropping the writer would flush them, and into a
        // stalled peer that is one more write stall.
        drop(sink.into_parts());
    }
    served
}

/// A connection's write half, failing every write that ran into the
/// socket's [`WRITE_STALL`] timeout. A timed-out send still returns the
/// bytes it moved, and a peer that has stopped reading still frees a little
/// buffer space now and then, so without this a stalled peer would cost one
/// timeout per trickle instead of one in all.
struct StallGuard(TcpStream);

impl Write for StallGuard {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let started = Instant::now();
        let moved = self.0.write(bytes)?;
        if moved < bytes.len() && started.elapsed() >= WRITE_STALL {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "peer stopped reading",
            ));
        }
        Ok(moved)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// The request loop of [`serve_connection`].
fn serve_requests(
    reader: &ChunkStoreReader,
    stats: &ServeStats,
    shutdown: &AtomicBool,
    lines: &mut BufReader<TcpStream>,
    sink: &mut impl Write,
) -> Result<(), ServeError> {
    while let Some(line) = read_request_line(lines, shutdown)? {
        ServeStats::count(&stats.requests, 1);
        let started = Instant::now();
        let outcome = match proto::parse_request(&line) {
            Ok(Request::Quit) => {
                sink.write_all(b"OK bye\n")?;
                sink.flush()?;
                ServeStats::count(&stats.serve_ns, started.elapsed().as_nanos() as u64);
                break;
            }
            Ok(Request::Region(spec)) => serve_region(reader, stats, sink, &spec),
            Ok(Request::Info) => serve_info(reader, sink),
            Ok(Request::Stats) => {
                let json = stats.to_json(&reader.stats());
                writeln!(sink, "OK {}", json.len())?;
                sink.write_all(json.as_bytes())?;
                Ok(())
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok(()) => {}
            // A request-level failure is an ERR frame; the connection
            // survives. IO failures while answering do not.
            Err(ServeError::Io(e)) => return Err(ServeError::Io(e)),
            Err(e) => {
                ServeStats::count(&stats.errors, 1);
                let msg = one_line(&e.to_string());
                writeln!(sink, "ERR {msg}")?;
            }
        }
        sink.flush()?;
        ServeStats::count(&stats.serve_ns, started.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// Decodes and streams one region: `OK <shape> <nbytes>` then the raw
/// little-endian f32 body, staged through a bounded scratch buffer so a
/// large region never doubles in memory.
fn serve_region(
    reader: &ChunkStoreReader,
    stats: &ServeStats,
    sink: &mut impl Write,
    spec: &str,
) -> Result<(), ServeError> {
    let ranges = proto::parse_region(spec, reader.dims())?;
    let region = reader.read_region(&ranges)?;
    let values = region.as_slice();
    let nbytes = values.len() * 4;
    let shape = region
        .shape()
        .dims()
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    writeln!(sink, "OK {shape} {nbytes}")?;
    let mut staged = Vec::with_capacity(16 * 1024);
    for run in values.chunks(4 * 1024) {
        staged.clear();
        for v in run {
            staged.extend_from_slice(&v.to_le_bytes());
        }
        sink.write_all(&staged)?;
    }
    ServeStats::count(&stats.regions, 1);
    ServeStats::count(&stats.bytes_streamed, nbytes as u64);
    Ok(())
}

/// Streams dataset metadata as percent-encoded key/value lines.
fn serve_info(reader: &ChunkStoreReader, sink: &mut impl Write) -> Result<(), ServeError> {
    let dims = reader
        .dims()
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let dim_names = reader.dim_names().join(",");
    let mut pairs: Vec<(String, String)> = vec![
        ("variable".into(), reader.name().to_string()),
        ("dims".into(), dims),
        ("dim_names".into(), dim_names),
        ("chunk_len".into(), reader.chunk_len().to_string()),
        ("n_chunks".into(), reader.n_chunks().to_string()),
    ];
    for (k, v) in reader.attrs() {
        pairs.push((format!("attr:{k}"), v.clone()));
    }
    writeln!(sink, "OK {}", pairs.len())?;
    for (k, v) in pairs {
        writeln!(
            sink,
            "{}\t{}",
            proto::encode_value(&k),
            proto::encode_value(&v)
        )?;
    }
    Ok(())
}

fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// Reads one newline-terminated request line, polling the shutdown flag
/// across read timeouts. `Ok(None)` means the connection is over (EOF or
/// shutdown); a line longer than [`proto::MAX_REQUEST_LINE`] is fatal for
/// the connection (there is no way to resynchronize).
fn read_request_line(
    lines: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
) -> Result<Option<String>, ServeError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (found_newline, used) = {
            let chunk = match lines.fill_buf() {
                Ok(c) => c,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    if shutdown.load(Ordering::Relaxed) {
                        return Ok(None);
                    }
                    continue;
                }
                Err(e) => return Err(ServeError::Io(e)),
            };
            if chunk.is_empty() {
                // EOF. A partial unterminated line is dropped: the peer
                // hung up before finishing its request.
                return Ok(None);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(chunk.get(..i).unwrap_or_default());
                    (true, i + 1)
                }
                None => {
                    line.extend_from_slice(chunk);
                    (false, chunk.len())
                }
            }
        };
        lines.consume(used);
        if found_newline {
            return match String::from_utf8(line) {
                Ok(text) => Ok(Some(text)),
                Err(_) => Err(ServeError::BadRequest("request line is not UTF-8".into())),
            };
        }
        if line.len() > proto::MAX_REQUEST_LINE {
            return Err(ServeError::BadRequest("request line too long".into()));
        }
    }
}
