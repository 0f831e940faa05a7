//! N-dimensional array container and shape algebra for CliZ.
//!
//! Climate datasets are dense rectangular grids (2D--4D). This crate provides
//! the small, allocation-conscious core every other CliZ crate builds on:
//!
//! * [`Shape`] — dimension sizes plus row-major stride math;
//! * [`Grid`] — an owned dense array of `T` over a [`Shape`];
//! * [`MaskMap`] — validity map for datasets with missing/fill values;
//! * dimension [`permute`](permute_into) (a blocked transpose) and
//!   [`fuse`](fuse_shape) operations used by the CliZ dimension
//!   permutation/fusion search;
//! * [`sample`] — the 2^n-block auto-tuning sampler from the paper (Sec. VI-A);
//! * [`smooth`] — per-dimension smoothness statistics (Sec. V-B).
//!
//! Layout convention is row-major ("C order"): the **last** dimension is
//! contiguous in memory, matching how CESM NetCDF variables are stored.

pub mod cast;
pub mod fuse;
pub mod grid;
pub mod line;
pub mod mask;
pub mod permute;
#[doc(hidden)]
pub mod reference;
pub mod sample;
pub mod shape;
pub mod smooth;

pub use fuse::{fuse_shape, FusionSpec};
pub use grid::{finite_range, Grid};
pub use line::{Line, LineIter};
pub use mask::MaskMap;
pub use permute::permute_into;
pub use sample::{sample_blocks, SampleSpec, Sampled};
pub use shape::Shape;
pub use smooth::{
    axis_lane_sums, axis_mean_abs_diff, axis_smoothness, dimension_smoothness, smoothness_order,
    LaneSums, Smoothness, LANE_GROUPS,
};
