//! Per-dimension smoothness statistics (Sec. V-B).
//!
//! The paper's CESM-T example: variation along height averages 4.425 while
//! lat/lon average 0.053 and 0.017 — the predictor should therefore run most
//! of its predictions along lat/lon. These statistics feed the dimension
//! permutation/fusion search and the harness that reproduces that analysis.

use crate::grid::Grid;
use crate::mask::MaskMap;

/// Smoothness summary for one axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Smoothness {
    /// Mean `|x[i+1] - x[i]|` over valid adjacent pairs.
    pub mean_abs_diff: f64,
    /// Max `|x[i+1] - x[i]|` over valid adjacent pairs.
    pub max_abs_diff: f64,
    /// Number of valid adjacent pairs measured.
    pub pairs: usize,
}

/// Measures first-difference smoothness along every axis, skipping pairs with
/// an invalid endpoint. Returns one [`Smoothness`] per axis.
pub fn dimension_smoothness(data: &Grid<f32>, mask: &MaskMap) -> Vec<Smoothness> {
    (0..data.shape().ndim())
        .map(|axis| axis_smoothness(data, mask, axis))
        .collect()
}

/// [`dimension_smoothness`] for one axis. Axes are independent passes over
/// the field, so a caller may measure them in parallel; each keeps its own
/// summation order, so the result does not depend on how the axes are run.
///
/// The pass is contiguous whatever the axis. An outer row of `n·s`
/// elements (`n` the axis length, `s` its stride) holds its axis pairs as
/// two overlapping slices, `row[..(n−1)·s]` and `row[s..]`, zipped element
/// by element into [`SMOOTH_LANES`] independent accumulators with
/// branch-free selects; the lanes fold in a fixed order at the end. The
/// pair count and the max are those of a pair-by-pair scan, and a NaN
/// difference on a valid pair makes the mean NaN as it would there; only
/// the rounding of the sum differs (within 1e-12 relative in the tests).
///
/// # Panics
///
/// When `mask`'s shape differs from the grid's.
pub fn axis_smoothness(data: &Grid<f32>, mask: &MaskMap, axis: usize) -> Smoothness {
    let mut sum = [0.0f64; SMOOTH_LANES];
    let mut max = [0.0f64; SMOOTH_LANES];
    let mut pairs = [0usize; SMOOTH_LANES];
    for_each_pair_run(data, mask, axis, |a, b, fa, fb| {
        lanes::<0, SMOOTH_LANES>(a, b, fa, fb, |l, d, ok| {
            // A pair that is not `ok` adds `+0.0` and cannot raise the
            // max, selected rather than branched on. A NaN difference
            // never wins `d > max`, as in a pair-by-pair scan.
            sum[l] += if ok { d } else { 0.0 };
            max[l] = if ok & (d > max[l]) { d } else { max[l] };
            pairs[l] += usize::from(ok);
        });
    });
    let pairs = pairs.iter().sum();
    Smoothness {
        mean_abs_diff: mean(&sum, pairs),
        max_abs_diff: max.iter().fold(0.0, |m: f64, &x| if x > m { x } else { m }),
        pairs,
    }
}

/// The mean first difference along `axis` and the number of valid pairs it
/// averages: [`axis_smoothness`]'s `mean_abs_diff` and `pairs`, bit for
/// bit, without its maximum. The autotuner ranks axes by the mean alone.
///
/// The sums run in [`axis_smoothness`]'s lanes and order, so the mean is
/// the same number: this is its lane groups ([`axis_lane_sums`]), one
/// after another, merged. Without the per-lane maximum, a group of eight
/// lanes runs faster than the sixteen together, so the two passes take
/// less time than one (2.2 against 2.6 ms per axis of the archive
/// workload's field, one thread).
///
/// # Panics
///
/// When `mask`'s shape differs from the grid's.
pub fn axis_mean_abs_diff(data: &Grid<f32>, mask: &MaskMap, axis: usize) -> (f64, usize) {
    (1..LANE_GROUPS)
        .fold(axis_lane_sums(data, mask, axis, 0), |sums, group| {
            sums.merge(&axis_lane_sums(data, mask, axis, group))
        })
        .mean()
}

/// One lane group's share of [`axis_mean_abs_diff`]: the sums of its
/// lanes, in their lane slots (the other slots hold `+0.0`), and the valid
/// pairs those lanes saw. [`axis_lane_sums`] measures one group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaneSums {
    sum: [f64; SMOOTH_LANES],
    pairs: usize,
}

impl LaneSums {
    /// Folds another group's share in. Every lane is fed by one group
    /// only, so each slot adds `+0.0` to a sum, which leaves it as it is:
    /// a sum of absolute differences starts at `+0.0` and is never `−0.0`,
    /// and a NaN stays NaN. Pair counts are integers.
    pub fn merge(mut self, other: &LaneSums) -> LaneSums {
        for (s, o) in self.sum.iter_mut().zip(&other.sum) {
            *s += o;
        }
        self.pairs += other.pairs;
        self
    }

    /// The mean and the pair count: once every group is merged in,
    /// [`axis_mean_abs_diff`]'s result, bit for bit.
    pub fn mean(&self) -> (f64, usize) {
        (mean(&self.sum, self.pairs), self.pairs)
    }
}

/// How many lane groups [`axis_lane_sums`] splits an axis pass into.
pub const LANE_GROUPS: usize = 2;

/// Lanes per group of [`axis_lane_sums`].
const GROUP_LANES: usize = SMOOTH_LANES / LANE_GROUPS;

/// Lane group `group` (of [`LANE_GROUPS`]) of [`axis_mean_abs_diff`]'s
/// pass along `axis`: the same lanes, fed the same pairs in the same row
/// order, so the groups of one axis, measured on any threads and merged
/// ([`LaneSums::merge`]), give its mean and pair count bit for bit. A
/// caller splits an axis into groups to balance axis passes over more
/// workers than there are axes.
///
/// # Panics
///
/// When `group` is not below [`LANE_GROUPS`], or `mask`'s shape differs
/// from the grid's.
pub fn axis_lane_sums(data: &Grid<f32>, mask: &MaskMap, axis: usize, group: usize) -> LaneSums {
    assert!(group < LANE_GROUPS, "axis_lane_sums: no lane group {group}");
    let mut sum = [0.0f64; SMOOTH_LANES];
    let mut pairs = [0usize; SMOOTH_LANES];
    let mut take = |l: usize, d: f64, ok: bool| {
        sum[l] += if ok { d } else { 0.0 };
        pairs[l] += usize::from(ok);
    };
    for_each_pair_run(data, mask, axis, |a, b, fa, fb| match group {
        0 => lanes::<0, GROUP_LANES>(a, b, fa, fb, &mut take),
        _ => lanes::<GROUP_LANES, GROUP_LANES>(a, b, fa, fb, &mut take),
    });
    LaneSums {
        sum,
        pairs: pairs.iter().sum(),
    }
}

/// Independent accumulators of the smoothness passes. Sixteen, like the
/// range scan's lanes in `grid.rs`: the compiler packs sixteen scalar
/// lanes into whole SSE registers.
const SMOOTH_LANES: usize = 16;

/// Hands `run` every outer row's pairs along `axis` as the four slices
/// `(row[..head], row[s..], flags[..head], flags[s..])`, in row order.
fn for_each_pair_run(
    data: &Grid<f32>,
    mask: &MaskMap,
    axis: usize,
    mut run: impl FnMut(&[f32], &[f32], &[bool], &[bool]),
) {
    assert_eq!(data.shape(), mask.shape());
    let n = data.shape().dim(axis);
    let s = data.shape().stride(axis);
    if n >= 2 && s > 0 {
        let rows = data.as_slice().chunks_exact(n * s);
        for (row, flags) in rows.zip(mask.as_slice().chunks_exact(n * s)) {
            let head = (n - 1) * s;
            run(&row[..head], &row[s..], &flags[..head], &flags[s..]);
        }
    }
}

/// Calls `take(lane, |b[i] − a[i]|, fa[i] && fb[i])` for every pair whose
/// lane is one of the `N` lanes from `FIRST`; the four slices have one
/// length. Pair `i` of a whole lane block goes to lane `i mod 16`, and the
/// remainder past the last whole block to the first lanes.
#[inline(always)]
fn lanes<const FIRST: usize, const N: usize>(
    a: &[f32],
    b: &[f32],
    fa: &[bool],
    fb: &[bool],
    mut take: impl FnMut(usize, f64, bool),
) {
    let (ac, bc) = (a.chunks_exact(SMOOTH_LANES), b.chunks_exact(SMOOTH_LANES));
    let (fac, fbc) = (fa.chunks_exact(SMOOTH_LANES), fb.chunks_exact(SMOOTH_LANES));
    let tails = (
        ac.remainder(),
        bc.remainder(),
        fac.remainder(),
        fbc.remainder(),
    );
    let diff = |x: f32, y: f32| (f64::from(y) - f64::from(x)).abs();
    for (((x, y), p), q) in ac.zip(bc).zip(fac).zip(fbc) {
        for l in FIRST..FIRST + N {
            take(l, diff(x[l], y[l]), p[l] & q[l]);
        }
    }
    let (x, y, p, q) = tails;
    let tail = x.iter().zip(y).zip(p).zip(q).enumerate();
    for (l, (((&x, &y), &p), &q)) in tail.skip(FIRST).take(N) {
        take(l, diff(x, y), p & q);
    }
}

/// The lane sums folded in lane order, over `pairs`; 0 with no pair.
fn mean(sum: &[f64; SMOOTH_LANES], pairs: usize) -> f64 {
    let sum = sum.iter().fold(0.0, |acc: f64, &x| acc + x);
    if pairs > 0 {
        sum / pairs as f64
    } else {
        0.0
    }
}

/// Axis order from smoothest (smallest mean first difference) to roughest,
/// given each axis's mean ([`axis_mean_abs_diff`]). This is the heuristic
/// seed for the permutation search: predict most often along the smoothest
/// axes.
pub fn smoothness_order(means: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..means.len()).collect();
    // total_cmp: NaN smoothness (conceivable on an all-NaN masked axis)
    // sorts last instead of collapsing to Equal, which would make the
    // seed order depend on the incoming index order.
    order.sort_by(|&a, &b| means[a].total_cmp(&means[b]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn anisotropic_field_detected() {
        // value = 10*i + 0.1*j : rough along axis 0, smooth along axis 1.
        let g = Grid::from_fn(Shape::new(&[8, 8]), |c| {
            10.0 * c[0] as f32 + 0.1 * c[1] as f32
        });
        let m = MaskMap::all_valid(g.shape().clone());
        let s = dimension_smoothness(&g, &m);
        assert!((s[0].mean_abs_diff - 10.0).abs() < 1e-4);
        assert!((s[1].mean_abs_diff - 0.1).abs() < 1e-4);
        let means: Vec<f64> = (0..2).map(|a| axis_mean_abs_diff(&g, &m, a).0).collect();
        assert_eq!(smoothness_order(&means), vec![1, 0]);
    }

    #[test]
    fn masked_pairs_excluded() {
        let g = Grid::from_vec(Shape::new(&[4]), vec![0.0, 100.0, 1.0, 2.0]);
        // position 1 invalid: pairs (0,1) and (1,2) dropped.
        let m = MaskMap::from_flags(g.shape().clone(), vec![true, false, true, true]);
        let s = dimension_smoothness(&g, &m);
        assert_eq!(s[0].pairs, 1);
        assert!((s[0].mean_abs_diff - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_field_zero_diff() {
        let g = Grid::filled(Shape::new(&[5, 5]), 3.5f32);
        let m = MaskMap::all_valid(g.shape().clone());
        let s = dimension_smoothness(&g, &m);
        assert!(s
            .iter()
            .all(|x| x.mean_abs_diff == 0.0 && x.max_abs_diff == 0.0));
    }

    /// The reference for the lane sums: every line along the axis, its
    /// pairs in order, one running sum.
    fn line_oracle(data: &Grid<f32>, mask: &MaskMap, axis: usize) -> Smoothness {
        let (buf, flags) = (data.as_slice(), mask.as_slice());
        let (mut sum, mut max, mut pairs) = (0.0f64, 0.0f64, 0usize);
        for line in crate::line::LineIter::new(data.shape(), axis) {
            for k in 1..line.len {
                let a = line.base + (k - 1) * line.stride;
                let b = line.base + k * line.stride;
                if flags[a] && flags[b] {
                    let d = (buf[b] as f64 - buf[a] as f64).abs();
                    sum += d;
                    if d > max {
                        max = d;
                    }
                    pairs += 1;
                }
            }
        }
        Smoothness {
            mean_abs_diff: if pairs > 0 { sum / pairs as f64 } else { 0.0 },
            max_abs_diff: max,
            pairs,
        }
    }

    /// Ranks 1–5, axis lengths 1–19 (whole lane blocks, remainders and
    /// degenerate axes), values mixing NaN, ±inf and finite draws, masks
    /// all valid, none valid and random. Pairs and max equal the oracle's
    /// exactly; the mean is equal within 1e-12 relative, or NaN on both
    /// sides. The mean-only kernel returns the full pass's mean bits and
    /// pair count, so it meets the oracle as closely.
    #[test]
    fn lane_smoothness_matches_line_oracle() {
        let mut state = 0x5300_7A1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for rank in 1..=5usize {
            for trial in 0..12 {
                let dims: Vec<usize> = (0..rank)
                    .map(|_| 1 + (next() % if rank > 3 { 7 } else { 19 }) as usize)
                    .collect();
                let shape = Shape::new(&dims);
                let n = shape.len();
                let special = trial % 3 == 0;
                let values: Vec<f32> = (0..n)
                    .map(|_| match next() % if special { 12 } else { 1000 } {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        _ => (next() % 20001) as f32 * 0.37 - 3700.0,
                    })
                    .collect();
                let data = Grid::from_vec(shape.clone(), values);
                let masks = [
                    MaskMap::all_valid(shape.clone()),
                    MaskMap::from_flags(shape.clone(), vec![false; n]),
                    MaskMap::from_flags(shape.clone(), (0..n).map(|_| next() % 4 != 0).collect()),
                ];
                for mask in &masks {
                    for axis in 0..rank {
                        let got = axis_smoothness(&data, mask, axis);
                        let want = line_oracle(&data, mask, axis);
                        let ctx = format!("dims {dims:?}, axis {axis}");
                        let (mean, pairs) = axis_mean_abs_diff(&data, mask, axis);
                        assert_eq!(mean.to_bits(), got.mean_abs_diff.to_bits(), "{ctx}");
                        assert_eq!(pairs, got.pairs, "{ctx}");
                        assert_eq!(got.pairs, want.pairs, "{ctx}");
                        assert_eq!(got.max_abs_diff, want.max_abs_diff, "{ctx}");
                        let (g, w) = (got.mean_abs_diff, want.mean_abs_diff);
                        assert!(
                            (g.is_nan() && w.is_nan())
                                || g == w
                                || (g - w).abs() <= 1e-12 * w.abs(),
                            "{ctx}: mean {g} against {w}"
                        );
                    }
                }
            }
        }
    }

    /// Ranks 1–5, axis lengths on both sides of the lane width, values
    /// with NaN and ±inf, masks all valid, none valid and random: the lane
    /// groups of every axis, merged in either order, give the whole pass's
    /// ([`axis_smoothness`]) mean bits and pair count.
    #[test]
    fn lane_groups_merge_to_the_whole_pass() {
        let mut state = 0x6A0F_11E5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for rank in 1..=5usize {
            for trial in 0..10 {
                let dims: Vec<usize> = (0..rank)
                    .map(|_| 1 + (next() % if rank > 3 { 7 } else { 19 }) as usize)
                    .collect();
                let shape = Shape::new(&dims);
                let n = shape.len();
                let values: Vec<f32> = (0..n)
                    .map(|_| match next() % if trial % 2 == 0 { 10 } else { 1000 } {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        _ => (next() % 20001) as f32 * 0.37 - 3700.0,
                    })
                    .collect();
                let data = Grid::from_vec(shape.clone(), values);
                let masks = [
                    MaskMap::all_valid(shape.clone()),
                    MaskMap::from_flags(shape.clone(), vec![false; n]),
                    MaskMap::from_flags(shape.clone(), (0..n).map(|_| next() % 4 != 0).collect()),
                ];
                for mask in &masks {
                    for axis in 0..rank {
                        let whole = axis_smoothness(&data, mask, axis);
                        let (want, pairs) = (whole.mean_abs_diff, whole.pairs);
                        let groups: Vec<LaneSums> = (0..LANE_GROUPS)
                            .map(|g| axis_lane_sums(&data, mask, axis, g))
                            .collect();
                        let forward = groups[1..].iter().fold(groups[0], |a, g| a.merge(g));
                        let backward = groups[..LANE_GROUPS - 1]
                            .iter()
                            .rev()
                            .fold(groups[LANE_GROUPS - 1], |a, g| a.merge(g));
                        for merged in [forward, backward] {
                            let (got, got_pairs) = merged.mean();
                            let ctx = format!("dims {dims:?}, axis {axis}");
                            assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                            assert_eq!(got_pairs, pairs, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fully_masked_has_no_pairs() {
        let g = Grid::filled(Shape::new(&[3, 3]), 1.0f32);
        let m = MaskMap::from_flags(g.shape().clone(), vec![false; 9]);
        let s = dimension_smoothness(&g, &m);
        assert!(s.iter().all(|x| x.pairs == 0 && x.mean_abs_diff == 0.0));
    }
}
