//! Auto-tuning block sampler (Sec. VI-A).
//!
//! The tuner never compresses the whole dataset while searching pipelines.
//! Instead it extracts 2^n blocks centred at the 1/3 and 2/3 points of each
//! dimension, each with side length ≈ `rate^(1/n) / 2` of the corresponding
//! full side (so total sampled volume ≈ `rate` × full volume), and
//! concatenates them along the first axis into one small test grid.

use crate::grid::Grid;
use crate::mask::MaskMap;
use crate::shape::Shape;

/// Sampling parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleSpec {
    /// Target ratio between sampled volume and full volume, in (0, 1].
    pub rate: f64,
    /// Blocks are never smaller than this per side (keeps the cubic predictor
    /// meaningful on tiny rates; the paper notes petite blocks mislead it).
    pub min_side: usize,
    /// Optional per-axis floor `(axis, min_len)`. The auto-tuner uses this to
    /// keep the time axis long enough to cover several detected periods —
    /// otherwise low sampling rates would silently exclude every periodic
    /// candidate pipeline. Other axes shrink to compensate, preserving the
    /// target volume where possible.
    pub axis_floor: Option<(usize, usize)>,
}

impl SampleSpec {
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "sampling rate must be in (0,1]");
        Self {
            rate,
            min_side: 4,
            axis_floor: None,
        }
    }

    /// [`SampleSpec::new`] plus a per-axis floor.
    pub fn with_axis_floor(rate: f64, axis: usize, min_len: usize) -> Self {
        let mut s = Self::new(rate);
        s.axis_floor = Some((axis, min_len));
        s
    }

    /// Side lengths of each sampled block for a given shape.
    pub fn block_sides(&self, shape: &Shape) -> Vec<usize> {
        let n = shape.ndim() as f64;
        let frac = self.rate.powf(1.0 / n) / 2.0;
        let mut sides: Vec<usize> = shape
            .dims()
            .iter()
            .map(|&d| {
                let side = (d as f64 * frac).round() as usize;
                side.clamp(self.min_side.min(d), d)
            })
            .collect();
        if let Some((axis, min_len)) = self.axis_floor {
            assert!(axis < sides.len(), "axis floor out of range");
            let want = min_len.min(shape.dim(axis));
            if sides[axis] < want {
                // Grow the floored axis, shrink the others to roughly keep
                // the sampled volume.
                let grow = want as f64 / sides[axis] as f64;
                sides[axis] = want;
                if sides.len() > 1 {
                    let shrink = grow.powf(1.0 / (sides.len() - 1) as f64);
                    for (d, s) in sides.iter_mut().enumerate() {
                        if d != axis {
                            *s = ((*s as f64 / shrink).round() as usize)
                                .clamp(self.min_side.min(shape.dim(d)), shape.dim(d));
                        }
                    }
                }
            }
        }
        sides
    }
}

/// Result of sampling: the concatenated test grid plus the matching mask.
#[derive(Clone, Debug)]
pub struct Sampled {
    pub data: Grid<f32>,
    pub mask: MaskMap,
    /// Start coordinates of each extracted block in the source grid.
    pub block_starts: Vec<Vec<usize>>,
}

/// Extracts the paper's 2^n anchor blocks and stacks them along axis 0.
///
/// When `rate == 1.0` the whole grid (and mask) is returned unchanged, which
/// is what "sampling rate = 1 means all pipelines are tested on the whole
/// dataset" requires.
pub fn sample_blocks(data: &Grid<f32>, mask: &MaskMap, spec: SampleSpec) -> Sampled {
    assert_eq!(data.shape(), mask.shape(), "data/mask shape mismatch");
    if spec.rate >= 1.0 {
        return Sampled {
            data: data.clone(),
            mask: mask.clone(),
            block_starts: vec![vec![0; data.shape().ndim()]],
        };
    }
    let shape = data.shape();
    let ndim = shape.ndim();
    let sides = spec.block_sides(shape);

    // Anchor fractions 1/3 and 2/3 per dimension -> 2^n blocks.
    let n_blocks = 1usize << ndim;
    let mut block_starts = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let mut start = Vec::with_capacity(ndim);
        for (d, &side) in sides.iter().enumerate() {
            let frac = if b >> d & 1 == 0 {
                1.0 / 3.0
            } else {
                2.0 / 3.0
            };
            let center = (shape.dim(d) as f64 * frac) as usize;
            let s = center.saturating_sub(side / 2);
            start.push(s.min(shape.dim(d) - side));
        }
        block_starts.push(start);
    }

    // Stack blocks along axis 0.
    let mut out_dims = sides.clone();
    out_dims[0] *= n_blocks;
    let out_shape = Shape::new(&out_dims);
    let mut out_data = Vec::with_capacity(out_shape.len());
    let mut out_valid = Vec::with_capacity(out_shape.len());
    let (values, flags) = (data.as_slice(), mask.as_slice());
    for start in &block_starts {
        // The starts are clamped so every block fits the grid, and the data
        // and mask share its layout: one walk over the runs copies both.
        for run in shape.block_runs(start, &sides).into_iter().flatten() {
            out_data.extend_from_slice(&values[run.clone()]);
            out_valid.extend_from_slice(&flags[run]);
        }
    }
    Sampled {
        data: Grid::from_vec(out_shape.clone(), out_data),
        mask: MaskMap::from_flags(out_shape, out_valid),
        block_starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: &[usize]) -> Grid<f32> {
        let shape = Shape::new(dims);
        let n = shape.len();
        Grid::from_vec(shape, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn rate_one_returns_whole_grid() {
        let g = iota(&[10, 10]);
        let m = MaskMap::all_valid(g.shape().clone());
        let s = sample_blocks(&g, &m, SampleSpec::new(1.0));
        assert_eq!(s.data, g);
        assert_eq!(s.block_starts.len(), 1);
    }

    #[test]
    fn block_count_is_two_pow_n() {
        let g = iota(&[40, 40, 40]);
        let m = MaskMap::all_valid(g.shape().clone());
        let s = sample_blocks(&g, &m, SampleSpec::new(0.01));
        assert_eq!(s.block_starts.len(), 8);
        assert_eq!(s.data.shape().ndim(), 3);
    }

    #[test]
    fn sampled_volume_tracks_rate() {
        let g = iota(&[64, 64, 64]);
        let m = MaskMap::all_valid(g.shape().clone());
        let rate = 0.05;
        let spec = SampleSpec {
            rate,
            min_side: 1,
            axis_floor: None,
        };
        let s = sample_blocks(&g, &m, spec);
        let got = s.data.len() as f64 / g.len() as f64;
        // 2^n blocks x (rate^(1/n)/2)^n == rate up to rounding of sides.
        assert!(
            (got / rate) > 0.4 && (got / rate) < 2.5,
            "volume ratio {got} vs rate {rate}"
        );
    }

    #[test]
    fn sides_respect_min_side() {
        let spec = SampleSpec::new(1e-6);
        let sides = spec.block_sides(&Shape::new(&[100, 100]));
        assert!(sides.iter().all(|&s| s >= 4));
    }

    #[test]
    fn blocks_are_in_bounds_and_distinct_anchors() {
        let g = iota(&[30, 60]);
        let m = MaskMap::all_valid(g.shape().clone());
        let s = sample_blocks(&g, &m, SampleSpec::new(0.04));
        let sides = SampleSpec::new(0.04).block_sides(g.shape());
        for start in &s.block_starts {
            for d in 0..2 {
                assert!(start[d] + sides[d] <= g.shape().dim(d));
            }
        }
        // 4 distinct anchor corners for 2-D
        assert_eq!(s.block_starts.len(), 4);
        let uniq: std::collections::HashSet<_> = s.block_starts.iter().collect();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn axis_floor_preserves_time_extent() {
        let shape = Shape::new(&[100, 100, 240]);
        let plain = SampleSpec::new(0.001);
        let floored = SampleSpec::with_axis_floor(0.001, 2, 36);
        let ps = plain.block_sides(&shape);
        let fs = floored.block_sides(&shape);
        assert!(ps[2] < 36, "plain time side {} unexpectedly large", ps[2]);
        assert_eq!(fs[2], 36);
        // Other axes shrank (down to min_side) to compensate.
        assert!(fs[0] <= ps[0] && fs[1] <= ps[1]);
        // Sampled volume stays in the same ballpark.
        let vol = |s: &[usize]| s.iter().product::<usize>() as f64;
        assert!(vol(&fs) < 8.0 * vol(&ps));
    }

    #[test]
    fn axis_floor_clamped_to_dim() {
        let shape = Shape::new(&[10, 20]);
        let s = SampleSpec::with_axis_floor(0.5, 1, 999);
        assert_eq!(s.block_sides(&shape)[1], 20);
    }

    #[test]
    fn blocks_match_grid_block_of_data_and_mask() {
        // The row-run copy must reproduce the per-element `Grid::block`
        // cut of data and mask exactly, on 2-D to 4-D shapes, with and
        // without an axis floor.
        // (dims, axis floor)
        type Case = (&'static [usize], Option<(usize, usize)>);
        let cases: [Case; 6] = [
            (&[30, 60], None),
            (&[30, 60], Some((1, 40))),
            (&[20, 24, 28], None),
            (&[20, 24, 28], Some((0, 12))),
            (&[12, 10, 14, 16], None),
            (&[12, 10, 14, 16], Some((3, 12))),
        ];
        for (dims, floor) in cases {
            let g = iota(dims);
            let valid: Vec<bool> = (0..g.len()).map(|i| i % 7 != 3 && i % 11 != 0).collect();
            let m = MaskMap::from_flags(g.shape().clone(), valid);
            let spec = match floor {
                Some((axis, len)) => SampleSpec::with_axis_floor(0.05, axis, len),
                None => SampleSpec::new(0.05),
            };
            let s = sample_blocks(&g, &m, spec);
            let sides = spec.block_sides(g.shape());
            let mask_grid = Grid::from_vec(g.shape().clone(), m.as_slice().to_vec());
            let (mut data, mut flags) = (Vec::new(), Vec::new());
            for start in &s.block_starts {
                data.extend_from_slice(g.block(start, &sides).as_slice());
                flags.extend_from_slice(mask_grid.block(start, &sides).as_slice());
            }
            assert_eq!(s.data.as_slice(), data.as_slice(), "{dims:?} {floor:?}");
            assert_eq!(s.mask.as_slice(), flags.as_slice(), "{dims:?} {floor:?}");
        }
    }

    #[test]
    fn mask_travels_with_data() {
        let g = iota(&[30, 30]);
        // invalidate a band
        let valid: Vec<bool> = (0..900).map(|i| i % 30 < 15).collect();
        let m = MaskMap::from_flags(g.shape().clone(), valid);
        let s = sample_blocks(&g, &m, SampleSpec::new(0.1));
        // each sampled point's validity must match the source's rule
        for (k, &v) in s.data.as_slice().iter().enumerate() {
            let src_col = v as usize % 30;
            assert_eq!(s.mask.is_valid(k), src_col < 15);
        }
    }
}
