//! `cliz-serve` — a concurrent TCP region server over CZS chunk stores.
//!
//! The server wraps one shared [`cliz_store::ChunkStoreReader`] (any
//! storage backend: file, memory, HTTP range) and answers line-protocol
//! requests from many clients at once through a worker pool. Clients ask
//! for axis-aligned regions with the CLI's `--region` grammar and receive
//! raw little-endian f32 bodies; because every worker shares the reader,
//! concurrent clients share the decoded-chunk cache and the per-chunk
//! stampede locks, so a popular chunk is decoded once no matter how many
//! clients want it.
//!
//! Protocol, framing, and grammar live in [`proto`]; the wire format is
//! documented in `docs/SERVING.md`.
//!
//! ```
//! use cliz_serve::{Client, Server, ServerConfig};
//! use cliz_store::{pack_store, ChunkStoreReader, Dataset};
//! use std::sync::Arc;
//!
//! let grid = cliz_grid::Grid::from_fn(
//!     cliz_grid::Shape::new(&[16, 12]),
//!     |c| (c[0] + c[1]) as f32,
//! );
//! let bytes = pack_store(
//!     &Dataset::new("T", grid, None),
//!     cliz_quant::ErrorBound::Abs(1e-3),
//!     &cliz_core::config::PipelineConfig::default_for(2),
//!     4,
//!     1,
//! ).unwrap();
//! let reader = Arc::new(ChunkStoreReader::from_bytes(bytes).unwrap());
//!
//! let server = Server::start(reader, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let (shape, values) = client.region("5:7,:").unwrap();
//! assert_eq!(shape, vec![2, 12]);
//! assert_eq!(values.len(), 24);
//! client.quit().unwrap();
//! server.stop();
//! ```
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented
    )
)]

pub mod client;
pub mod error;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::Client;
pub use error::ServeError;
pub use proto::{parse_region, parse_request, Request, MAX_REQUEST_LINE};
pub use server::{Server, ServerConfig};
pub use stats::ServeStats;
