//! End-to-end tests of `HttpRangeBackend` against the in-crate blob
//! server: honest range serving, retry/backoff over scripted 5xx runs,
//! retry-budget exhaustion, and non-retryable framing failures. Every
//! failure path must be a typed `StorageError` — never a panic.

use cliz_storage::{
    BlobHttpServer, HttpConfig, HttpRangeBackend, Misbehaviour, ReadableStorage, StorageError,
};
use std::time::Duration;

fn blob(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

fn fast_config(retries: u32) -> HttpConfig {
    HttpConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(2),
        retries,
        backoff_base: Duration::from_millis(1),
    }
}

#[test]
fn ranges_roundtrip_over_http() {
    let body = blob(4096);
    let server = BlobHttpServer::start(body.clone()).expect("server");
    let backend = HttpRangeBackend::with_config(&server.url(), fast_config(1)).expect("backend");

    assert_eq!(backend.size().expect("size"), 4096);
    assert_eq!(backend.get(0..16).expect("head"), body[0..16]);
    assert_eq!(backend.get(4000..4096).expect("tail"), body[4000..4096]);
    assert_eq!(backend.get(100..100).expect("empty"), Vec::<u8>::new());

    let mut out = [0u8; 32];
    backend
        .read_exact_at(1000, &mut out)
        .expect("read_exact_at");
    assert_eq!(out[..], body[1000..1032]);

    // Past-the-end range: the server answers 416, a typed non-retryable error.
    let err = backend.get(4096..4100).unwrap_err();
    assert!(matches!(err, StorageError::HttpStatus { status: 416 }));
    server.stop();
}

#[test]
fn transient_5xx_is_retried_until_success() {
    let body = blob(512);
    let server = BlobHttpServer::start(body.clone()).expect("server");
    server.misbehave(Misbehaviour::ServerError, 2);
    let backend = HttpRangeBackend::with_config(&server.url(), fast_config(3)).expect("backend");

    // Two 500s then success — inside the budget of 3 retries.
    assert_eq!(backend.get(0..64).expect("retried get"), body[0..64]);
    assert_eq!(server.requests(), 3);
    server.stop();
}

#[test]
fn persistent_5xx_exhausts_the_retry_budget() {
    let server = BlobHttpServer::start(blob(256)).expect("server");
    server.misbehave(Misbehaviour::ServerError, u32::MAX);
    let backend = HttpRangeBackend::with_config(&server.url(), fast_config(2)).expect("backend");

    let err = backend.get(0..32).unwrap_err();
    match err {
        StorageError::Exhausted { attempts, last } => {
            assert_eq!(attempts, 3); // 1 try + 2 retries
            assert!(
                last.contains("500"),
                "last failure should carry the status: {last}"
            );
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
    server.stop();
}

#[test]
fn range_ignoring_server_is_rejected_not_downloaded() {
    let server = BlobHttpServer::start(blob(1024)).expect("server");
    server.misbehave(Misbehaviour::IgnoreRange, u32::MAX);
    let backend = HttpRangeBackend::with_config(&server.url(), fast_config(2)).expect("backend");

    let err = backend.get(0..64).unwrap_err();
    assert!(
        matches!(err, StorageError::BadResponse(_)),
        "200-with-full-body must be a BadResponse, got {err:?}"
    );
    server.stop();
}

#[test]
fn mid_body_disconnects_retry_then_succeed() {
    let body = blob(2048);
    let server = BlobHttpServer::start(body.clone()).expect("server");
    server.misbehave(Misbehaviour::TruncateBody, 1);
    let backend = HttpRangeBackend::with_config(&server.url(), fast_config(2)).expect("backend");

    // First answer dies mid-body (transient), the retry completes.
    assert_eq!(backend.get(0..1024).expect("get"), body[0..1024]);
    assert_eq!(server.requests(), 2);
    server.stop();
}

#[test]
fn mid_body_disconnects_every_time_exhaust_budget() {
    let server = BlobHttpServer::start(blob(2048)).expect("server");
    server.misbehave(Misbehaviour::TruncateBody, u32::MAX);
    let backend = HttpRangeBackend::with_config(&server.url(), fast_config(1)).expect("backend");

    let err = backend.get(0..1024).unwrap_err();
    assert!(
        matches!(err, StorageError::Exhausted { attempts: 2, .. }),
        "got {err:?}"
    );
    server.stop();
}

#[test]
fn unreachable_host_is_a_typed_error() {
    // A port nothing listens on: connect is refused (transient), so the
    // budget drains and the failure surfaces as Exhausted.
    let backend =
        HttpRangeBackend::with_config("http://127.0.0.1:9/x", fast_config(1)).expect("backend");
    let err = backend.get(0..8).unwrap_err();
    assert!(
        matches!(err, StorageError::Exhausted { .. } | StorageError::Io(_)),
        "got {err:?}"
    );
}
