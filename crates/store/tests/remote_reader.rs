//! End-to-end: a CZS store served over HTTP, read through
//! `HttpRangeBackend` with coalesced range requests.
//!
//! The store never exists as a local file: it is packed in memory, handed
//! to the loopback blob server, and every byte the reader sees travels
//! through real `Range: bytes=` requests. Results must be bit-identical
//! to a memory-backed reader over the same bytes, and the request count
//! must reflect the coalescing planner, not per-chunk round trips.

use cliz_core::config::PipelineConfig;
use cliz_grid::{Grid, Shape};
use cliz_quant::ErrorBound;
use cliz_store::storage::{BlobHttpServer, HttpRangeBackend, Misbehaviour};
use cliz_store::{ChunkStoreReader, Dataset};
use std::sync::Arc;

fn packed_store() -> Vec<u8> {
    let dims = [20usize, 12];
    let grid = Grid::from_fn(Shape::new(&dims), |c| {
        (((c[0] as f64) * 0.31).sin() * 3.0 + ((c[1] as f64) * 0.17).cos()) as f32
    });
    let ds = Dataset::new("tas", grid, None);
    let cfg = PipelineConfig::default_for(2);
    cliz_store::pack_store(&ds, ErrorBound::Abs(1e-3), &cfg, 5, 1).expect("pack succeeds")
}

#[test]
fn http_reader_matches_memory_reader_with_coalesced_requests() {
    let bytes = packed_store();
    let local = ChunkStoreReader::from_bytes(bytes.clone()).expect("local open");

    let server = BlobHttpServer::start(bytes).expect("loopback server");
    let backend = HttpRangeBackend::new(&server.url()).expect("url parses");
    let remote = ChunkStoreReader::from_storage(Arc::new(backend), 64 << 20).expect("remote open");

    assert_eq!(remote.name(), local.name());
    assert_eq!(remote.dims(), local.dims());

    let a = remote.read_region(&[3..17, 2..10]).expect("remote region");
    let b = local.read_region(&[3..17, 2..10]).expect("local region");
    assert_eq!(a.as_slice(), b.as_slice(), "remote bytes must match local");

    let stats = remote.stats();
    // Open costs a size probe + prefix fetches; the region itself (4
    // contiguous cold chunks) must be one coalesced request, so the
    // total request count stays far below one-per-chunk naivety.
    assert_eq!(stats.decodes, 4);
    assert!(
        stats.backend_gets <= 4,
        "expected coalesced fetches, saw {} backend gets",
        stats.backend_gets
    );
    // Warm repeat: served from cache, zero new HTTP traffic.
    let before = server.requests();
    remote.read_region(&[3..17, 2..10]).expect("warm region");
    assert_eq!(server.requests(), before);
}

#[test]
fn transient_server_errors_are_retried_transparently() {
    let bytes = packed_store();
    let server = BlobHttpServer::start(bytes.clone()).expect("loopback server");
    let backend = HttpRangeBackend::new(&server.url()).expect("url parses");
    let remote = ChunkStoreReader::from_storage(Arc::new(backend), 64 << 20).expect("remote open");

    // Two consecutive 500s: the backend's retry budget (3) absorbs them
    // and the region still decodes correctly.
    server.misbehave(Misbehaviour::ServerError, 2);
    let local = ChunkStoreReader::from_bytes(bytes).expect("local open");
    let a = remote
        .read_region(&[0..5, 0..12])
        .expect("survives 5xx burst");
    let b = local.read_region(&[0..5, 0..12]).expect("local region");
    assert_eq!(a.as_slice(), b.as_slice());
}
