//! Shared support for the experiment harness binaries.
//!
//! Each `fig*_*` / `table*_*` binary regenerates one table or figure from the
//! paper (see DESIGN.md's experiment index). They print paper-style rows to
//! stdout and mirror them as CSV under `target/experiments/` so
//! EXPERIMENTS.md can cite exact numbers. [`range`] is the order-0 range
//! coder `ablation_entropy` weighs the paper's Huffman stage against; it is
//! not part of the codec.

pub mod args;
pub mod datasets;
pub mod range;
pub mod report;
pub mod sweep;

pub use args::Args;
pub use datasets::{scaled, ScaledDims};
pub use report::Report;
pub use sweep::{rd_point, RdPoint};
