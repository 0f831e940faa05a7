//! End-to-end protocol tests: a real server on a loopback socket, real
//! clients, concurrent load, and graceful shutdown.

use cliz_core::config::PipelineConfig;
use cliz_grid::{Grid, Shape};
use cliz_quant::ErrorBound;
use cliz_serve::{Client, ServeError, Server, ServerConfig};
use cliz_store::storage::{DelayBackend, FileBackend, MemBackend, ReadableStorage};
use cliz_store::{ChunkStoreReader, Dataset, DEFAULT_CACHE_BUDGET};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn packed_store(dims: &[usize], chunk_len: usize) -> Vec<u8> {
    let grid = Grid::from_fn(Shape::new(dims), |c| {
        let mut v = 0.0f64;
        for (k, &x) in c.iter().enumerate() {
            v += ((x as f64) * 0.29 * (k + 1) as f64).sin() * 2.0;
        }
        v as f32
    });
    let mut ds = Dataset::new("tas", grid, None);
    ds.attrs.push(("units".into(), "K".into()));
    ds.attrs.push(("note".into(), "tabs\tand\nnewlines".into()));
    let cfg = PipelineConfig::default_for(dims.len());
    cliz_store::pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, chunk_len, 1).expect("pack succeeds")
}

fn packed_reader(dims: &[usize], chunk_len: usize) -> Arc<ChunkStoreReader> {
    Arc::new(ChunkStoreReader::from_bytes(packed_store(dims, chunk_len)).expect("store opens"))
}

fn start(reader: &Arc<ChunkStoreReader>, threads: usize) -> Server {
    Server::start(Arc::clone(reader), "127.0.0.1:0", ServerConfig { threads })
        .expect("server binds")
}

#[test]
fn region_bytes_match_direct_reads() {
    let reader = packed_reader(&[20, 10], 5);
    let server = start(&reader, 2);
    let mut client = Client::connect(server.addr()).expect("connect");

    for spec in ["3:17,2:9", ":,:", "7,:", "0:5,0:10"] {
        let (shape, values) = client.region(spec).expect(spec);
        let direct = reader
            .read_region(&cliz_serve::parse_region(spec, reader.dims()).expect(spec))
            .expect(spec);
        assert_eq!(shape, direct.shape().dims().to_vec(), "shape for {spec}");
        assert_eq!(values, direct.as_slice(), "values for {spec}");
    }
    client.quit().expect("clean quit");
    server.stop();
}

#[test]
fn info_and_stats_roundtrip() {
    let reader = packed_reader(&[12, 6], 4);
    let server = start(&reader, 2);
    let mut client = Client::connect(server.addr()).expect("connect");

    let pairs = client.info().expect("info");
    let get = |key: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(get("variable"), "tas");
    assert_eq!(get("dims"), "12,6");
    assert_eq!(get("n_chunks"), "3");
    assert_eq!(get("attr:units"), "K");
    // Metadata with protocol-hostile bytes survives the percent encoding.
    assert_eq!(get("attr:note"), "tabs\tand\nnewlines");

    client.region("0:4,:").expect("one region");
    let json = client.stats_json().expect("stats");
    assert!(json.contains("\"schema\":\"cliz-serve-stats-v1\""));
    assert!(json.contains("\"regions\":1"), "{json}");
    assert!(json.contains("\"decodes\":1"), "{json}");
    client.quit().expect("clean quit");
    server.stop();
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let reader = packed_reader(&[12, 6], 4);
    let server = start(&reader, 1);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Unknown verb → ERR, then the same connection still serves.
    let err = client
        .region("not-a-region")
        .expect_err("bad spec rejected");
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // Out-of-extent region → the store's BadRegion, relayed as ERR.
    let err = client.region("0:99,:").expect_err("oversized rejected");
    assert!(
        matches!(err, ServeError::Remote(ref m) if m.contains("region")),
        "{err}"
    );
    let (shape, _) = client.region("0:4,:").expect("connection survived");
    assert_eq!(shape, vec![4, 6]);
    client.quit().expect("clean quit");

    let snapshot = server.stats_json();
    server.stop();
    assert!(snapshot.contains("\"errors\":2"), "{snapshot}");
}

#[test]
fn concurrent_clients_share_one_decode_per_chunk() {
    let bytes = packed_store(&[40, 8], 5); // 8 chunks
    let expected = ChunkStoreReader::from_bytes(bytes.clone())
        .expect("oracle opens")
        .read_region(&[0..40, 0..8])
        .expect("serial read");
    let path =
        std::env::temp_dir().join(format!("cliz_serve_roundtrip_{}.czs", std::process::id()));
    std::fs::write(&path, &bytes).expect("write store file");
    // The same store in memory, on disk, and behind a simulated network
    // link (1.5 ms per call, 4 µs per KiB), so the clients race on the
    // store's cold reads while slow backend calls widen every window.
    let backends: [(&str, Arc<dyn ReadableStorage>); 3] = [
        ("mem", Arc::new(MemBackend::new(bytes.clone()))),
        (
            "file",
            Arc::new(FileBackend::open(&path).expect("file backend")),
        ),
        (
            "delay",
            Arc::new(DelayBackend::new(
                MemBackend::new(bytes.clone()),
                Duration::from_micros(1500),
                Duration::from_micros(4),
            )),
        ),
    ];

    for (backend, storage) in backends {
        let reader = Arc::new(
            ChunkStoreReader::from_storage(storage, DEFAULT_CACHE_BUDGET).expect("store opens"),
        );
        let server = start(&reader, 4);
        let addr = server.addr();

        // 8 clients × 4 requests over the same region set on a cold reader:
        // whatever the interleaving, the shared cache+stampede locks mean
        // each of the 8 chunks decodes exactly once, and every client sees
        // the bytes of a serial read.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    for _ in 0..4 {
                        let (shape, values) = client.region(":,:").expect("region");
                        assert_eq!(shape, vec![40, 8], "{backend}");
                        assert_eq!(values, expected.as_slice(), "{backend}");
                    }
                    client.quit().expect("clean quit");
                });
            }
        });

        assert_eq!(
            reader.decode_count(),
            8,
            "{backend}: concurrent clients must not stampede-decode shared chunks"
        );
        server.stop();
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn graceful_stop_joins_and_refuses_new_work() {
    let reader = packed_reader(&[12, 6], 4);
    let server = start(&reader, 2);
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect");
    client.region("0:4,:").expect("served before stop");
    client.quit().expect("clean quit");
    server.stop();

    // After stop() returns every thread is joined and the listener is
    // gone: a fresh connect must fail outright or die on first use.
    let refused = match Client::connect_timeout(&addr, Duration::from_millis(200)) {
        Err(_) => true,
        Ok(mut c) => c.region("0:4,:").is_err(),
    };
    assert!(refused, "stopped server must not serve new clients");
}

#[test]
fn client_that_stops_reading_frees_its_worker_and_stop_returns() {
    // The server's write-stall bound: one write waits at most this long.
    const WRITE_STALL: Duration = Duration::from_secs(5);
    // A 16 MB region, far more than the loopback socket buffers hold.
    let reader = packed_reader(&[64, 256, 256], 16);
    let server = start(&reader, 2);
    let addr = server.addr();

    // A client that asks for all of it, reads the first bytes of the reply
    // (so the body is being written) and then stops reading.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"REGION :,:,:\n").expect("request sent");
    let mut head = [0u8; 64];
    let got = stalled.read(&mut head).expect("reply starts");
    assert!(
        head[..got].starts_with(b"OK 64x256x256 "),
        "{:?}",
        &head[..got]
    );

    // A well-behaved client on the other worker is served meanwhile.
    let mut client = Client::connect(addr).expect("connect");
    let spec = "3:9,10:20,:";
    let (_, values) = client
        .region(spec)
        .expect("served beside the stalled client");
    let direct = reader
        .read_region(&cliz_serve::parse_region(spec, reader.dims()).expect(spec))
        .expect(spec);
    assert_eq!(values, direct.as_slice());
    client.quit().expect("clean quit");

    // The stalled write times out, which ends that connection and frees its
    // worker, so a graceful stop joins both workers within the bound.
    let started = Instant::now();
    let (done, stopped) = mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    let joined = stopped.recv_timeout(WRITE_STALL + Duration::from_secs(5));
    assert!(
        joined.is_ok(),
        "stop() still blocked {:?} after a client stopped reading",
        started.elapsed()
    );
    drop(stalled);
}

/// A one-connection peer that writes `reply` as soon as a client connects,
/// then holds the socket open until the returned sender drops.
fn fake_peer(reply: Vec<u8>) -> (SocketAddr, mpsc::Sender<()>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (done, wait) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        sock.set_write_timeout(Some(Duration::from_secs(5)))
            .expect("write timeout");
        let _ = sock.write_all(&reply);
        let _ = wait.recv_timeout(Duration::from_secs(30));
    });
    (addr, done, peer)
}

#[test]
fn endless_response_line_is_a_bad_response_not_a_growing_buffer() {
    // A peer that streams 64 KiB with no newline and then keeps the socket
    // open: the client must give up at the line limit with a typed error,
    // not buffer everything and then wait for a newline that never comes.
    let (addr, done, peer) = fake_peer(vec![b'x'; 64 << 10]);
    let mut client = Client::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    let err = client
        .info()
        .expect_err("an endless line is not a response");
    assert!(matches!(err, ServeError::BadResponse(_)), "{err:?}");
    drop(done);
    peer.join().expect("peer thread");
}

#[test]
fn region_reply_no_grid_can_hold_is_a_bad_response() {
    // Each shape agrees with its body size, but rank 7 is past MAX_DIMS and
    // a zero extent is never a grid: `cliz fetch` builds a `Shape` from the
    // reply, and `Shape::new` panics on any of these.
    let replies: [&[u8]; 3] = [
        b"OK 1x1x1x1x1x1x1 4\n\0\0\0\0",
        b"OK 0 0\n",
        b"OK 3x0x2 0\n",
    ];
    for reply in replies {
        let (addr, done, peer) = fake_peer(reply.to_vec());
        let mut client = Client::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        let got = client.region(":,:");
        assert!(
            matches!(got, Err(ServeError::BadResponse(_))),
            "{:?}: {got:?}",
            String::from_utf8_lossy(reply)
        );
        drop(done);
        peer.join().expect("peer thread");
    }
}
