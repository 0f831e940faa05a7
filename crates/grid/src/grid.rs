//! Owned dense N-dimensional array.

use crate::mask::MaskMap;
use crate::permute::permute_into;
use crate::shape::Shape;

/// An owned, dense, row-major N-dimensional array.
///
/// This is the canonical in-memory form of a climate variable in CliZ.
/// It is deliberately minimal: the compressor kernels work on the raw slice
/// (`as_slice`) plus the [`Shape`] stride table, so `Grid` never needs views
/// or broadcasting.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Copy> Grid<T> {
    /// Wraps existing data. `data.len()` must equal `shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "Grid: data length {} does not match shape {shape:?}",
            data.len()
        );
        Self { shape, data }
    }

    /// A grid filled with `fill`.
    pub fn filled(shape: Shape, fill: T) -> Self {
        let n = shape.len();
        Self {
            shape,
            data: vec![fill; n],
        }
    }

    /// Builds a grid by evaluating `f` at every coordinate tuple.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let n = shape.len();
        let ndim = shape.ndim();
        let mut data = Vec::with_capacity(n);
        let mut coords = vec![0usize; ndim];
        for i in 0..n {
            shape.coords_of(i, &mut coords);
            data.push(f(&coords));
        }
        Self { shape, data }
    }

    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning its backing storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at a coordinate tuple.
    #[inline]
    pub fn get(&self, coords: &[usize]) -> T {
        self.data[self.shape.index_of(coords)]
    }

    /// Sets the element at a coordinate tuple.
    #[inline]
    pub fn set(&mut self, coords: &[usize], v: T) {
        let i = self.shape.index_of(coords);
        self.data[i] = v;
    }

    /// Physically transposes the grid: axis `i` of the result is source axis
    /// `perm[i]`. This materializes a new grid; CliZ permutes once per
    /// compression, so a view abstraction would buy nothing.
    pub fn permuted(&self, perm: &[usize]) -> Grid<T> {
        Grid::from_vec(
            self.shape.permuted(perm),
            permute_values(&self.shape, &self.data, perm),
        )
    }

    /// [`Grid::permuted`]'s values written into `out` instead of a new
    /// grid: `out` is cleared, then holds the grid in the layout of
    /// `shape().permuted(perm)`. A caller that reuses one buffer (an arena)
    /// permutes with no allocation once the buffer has grown; the identity
    /// permutation is one plain copy.
    pub fn permuted_into(&self, perm: &[usize], out: &mut Vec<T>) {
        out.clear();
        permute_into(&self.shape, &self.data, perm, out);
    }

    /// Inverse of [`Grid::permuted`]: undoes the permutation `perm`.
    pub fn unpermuted(&self, perm: &[usize]) -> Grid<T> {
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        self.permuted(&inverse)
    }

    /// Reinterprets the grid under a new shape with the same element count
    /// (used by dimension fusion, which never moves data).
    pub fn reshaped(self, shape: Shape) -> Grid<T> {
        assert_eq!(
            shape.len(),
            self.data.len(),
            "reshape: element count mismatch"
        );
        Grid {
            shape,
            data: self.data,
        }
    }

    /// Copies a rectangular block `[start, start+size)` into a new grid.
    pub fn block(&self, start: &[usize], size: &[usize]) -> Grid<T> {
        let ndim = self.shape.ndim();
        assert_eq!(start.len(), ndim);
        assert_eq!(size.len(), ndim);
        for d in 0..ndim {
            assert!(
                start[d] + size[d] <= self.shape.dim(d),
                "block out of bounds in dim {d}"
            );
        }
        let out_shape = Shape::new(size);
        let mut out = Vec::with_capacity(out_shape.len());
        let mut coords = vec![0usize; ndim];
        let n = out_shape.len();
        let mut abs = vec![0usize; ndim];
        for i in 0..n {
            out_shape.coords_of(i, &mut coords);
            for d in 0..ndim {
                abs[d] = start[d] + coords[d];
            }
            out.push(self.data[self.shape.index_of(&abs)]);
        }
        Grid::from_vec(out_shape, out)
    }

    /// Extracts the 2-D slice obtained by fixing every axis except `keep_a`
    /// and `keep_b` (with `keep_a` becoming the slower axis of the result).
    pub fn slice2d(&self, keep_a: usize, keep_b: usize, fixed: &[usize]) -> Grid<T> {
        let ndim = self.shape.ndim();
        assert!(keep_a != keep_b && keep_a < ndim && keep_b < ndim);
        assert_eq!(fixed.len(), ndim);
        let (na, nb) = (self.shape.dim(keep_a), self.shape.dim(keep_b));
        let out_shape = Shape::new(&[na, nb]);
        let mut out = Vec::with_capacity(na * nb);
        let mut coords = fixed.to_vec();
        for a in 0..na {
            coords[keep_a] = a;
            for b in 0..nb {
                coords[keep_b] = b;
                out.push(self.data[self.shape.index_of(&coords)]);
            }
        }
        Grid::from_vec(out_shape, out)
    }
}

/// [`permute_into`] into a new vector: the body of [`Grid::permuted`],
/// which `MaskMap::permuted` runs on its flags in place.
pub(crate) fn permute_values<T: Copy>(shape: &Shape, values: &[T], perm: &[usize]) -> Vec<T> {
    let mut out = Vec::with_capacity(values.len());
    permute_into(shape, values, perm, &mut out);
    out
}

impl Grid<f32> {
    /// Minimum and maximum over the grid's finite values, counting only the
    /// valid points of `mask` when one is given. Returns `None` when no
    /// value counts.
    ///
    /// The scan keeps sixteen independent min/max lanes, updated
    /// with branch-free selects and merged at the end, so no update waits
    /// on the previous one. Min and max are exact and order-free over
    /// finite values, so the result is a sequential scan's except possibly
    /// in the sign of a zero: a lane keeps whichever of `+0.0` and `-0.0`
    /// it saw first. Range consumers read only `|mx − mn|` and magnitudes
    /// (`ErrorBound::resolve`, the periodic split's rounding slack), for
    /// which the two zeros are the same.
    ///
    /// # Panics
    ///
    /// When `mask`'s shape differs from the grid's.
    pub fn finite_min_max(&self, mask: Option<&MaskMap>) -> Option<(f32, f32)> {
        let flags = mask.map(|m| {
            assert_eq!(
                m.shape(),
                &self.shape,
                "finite_min_max: mask shape does not match the grid's"
            );
            m.as_slice()
        });
        finite_range(&self.data, flags)
    }
}

/// [`Grid::finite_min_max`]'s scan over `values`, counting only the points
/// whose flag is set when `flags` is given: the range of a run of a grid's
/// buffer, such as one slab of a chunked encode, read in place. The result
/// is the one [`Grid::finite_min_max`] returns for a grid holding just
/// those values.
///
/// # Panics
///
/// When `flags` is not as long as `values`.
pub fn finite_range(values: &[f32], flags: Option<&[bool]>) -> Option<(f32, f32)> {
    assert!(
        flags.is_none_or(|f| f.len() == values.len()),
        "finite_range: flags and values differ in length"
    );
    let mut lo = [f32::INFINITY; RANGE_LANES];
    let mut hi = [f32::NEG_INFINITY; RANGE_LANES];
    let chunks = values.chunks_exact(RANGE_LANES);
    let tail = chunks.remainder();
    match flags {
        None => {
            for c in chunks {
                for l in 0..RANGE_LANES {
                    take(&mut lo[l], &mut hi[l], c[l], true);
                }
            }
            for (l, &v) in tail.iter().enumerate() {
                take(&mut lo[l], &mut hi[l], v, true);
            }
        }
        Some(f) => {
            let fc = f.chunks_exact(RANGE_LANES);
            let f_tail = fc.remainder();
            for (c, k) in chunks.zip(fc) {
                for l in 0..RANGE_LANES {
                    take(&mut lo[l], &mut hi[l], c[l], k[l]);
                }
            }
            for (l, (&v, &k)) in tail.iter().zip(f_tail).enumerate() {
                take(&mut lo[l], &mut hi[l], v, k);
            }
        }
    }
    let mn = lo
        .iter()
        .fold(f32::INFINITY, |a, &b| if b < a { b } else { a });
    let mx = hi
        .iter()
        .fold(f32::NEG_INFINITY, |a, &b| if b > a { b } else { a });
    (mn <= mx).then_some((mn, mx))
}

/// Independent lanes of [`Grid::finite_min_max`]'s scan. Sixteen rather
/// than eight: on the baseline x86-64 target the compiler packs sixteen
/// scalar lanes into whole SSE registers, while its packing of eight added
/// lane shuffles that cost half the speed (11 MB field, one thread: 8
/// lanes 5.1 ms masked and 6.1 ms unmasked, 16 lanes 3.0 and 2.4 ms, the
/// serial scan about 11 ms).
const RANGE_LANES: usize = 16;

/// One lane update of [`Grid::finite_min_max`]: `v` counts when `keep` and
/// finite; one that does not is replaced by the identity of each fold
/// (`+∞` for min, `−∞` for max), so the update is two compares and two
/// selects with no branch.
#[inline(always)]
fn take(lo: &mut f32, hi: &mut f32, v: f32, keep: bool) {
    let ok = keep & v.is_finite();
    let a = if ok { v } else { f32::INFINITY };
    let b = if ok { v } else { f32::NEG_INFINITY };
    *lo = if a < *lo { a } else { *lo };
    *hi = if b > *hi { b } else { *hi };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskMap;

    fn iota(dims: &[usize]) -> Grid<f32> {
        let shape = Shape::new(dims);
        let n = shape.len();
        Grid::from_vec(shape, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn get_set_roundtrip() {
        let mut g = Grid::filled(Shape::new(&[3, 4]), 0.0f32);
        g.set(&[2, 1], 7.5);
        assert_eq!(g.get(&[2, 1]), 7.5);
        assert_eq!(g.as_slice()[2 * 4 + 1], 7.5);
    }

    #[test]
    fn permute_2d_is_transpose() {
        let g = iota(&[2, 3]);
        let t = g.permuted(&[1, 0]);
        assert_eq!(t.shape().dims(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(g.get(&[i, j]), t.get(&[j, i]));
            }
        }
    }

    /// Frozen per-element oracle for [`Grid::permuted`]: one odometer step
    /// per element.
    fn permuted_oracle<T: Copy>(g: &Grid<T>, perm: &[usize]) -> Grid<T> {
        let out_shape = g.shape.permuted(perm);
        let ndim = g.shape.ndim();
        let in_strides = g.shape.strides();
        let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut out = Vec::with_capacity(out_shape.len());
        let mut coords = vec![0usize; ndim];
        let dims = out_shape.dims().to_vec();
        let mut src = 0usize;
        loop {
            out.push(g.data[src]);
            let mut axis = ndim;
            loop {
                if axis == 0 {
                    return Grid::from_vec(out_shape, out);
                }
                axis -= 1;
                coords[axis] += 1;
                src += gather_strides[axis];
                if coords[axis] < dims[axis] {
                    break;
                }
                src -= gather_strides[axis] * dims[axis];
                coords[axis] = 0;
            }
        }
    }

    /// Every permutation of ranks 1–4, unit dims included, for `f32` grids,
    /// `bool` grids and mask maps, against the per-element oracle.
    #[test]
    fn row_gather_matches_per_element_oracle() {
        let shapes: [&[usize]; 10] = [
            &[5],
            &[1],
            &[3, 4],
            &[1, 4],
            &[3, 1],
            &[2, 3, 4],
            &[1, 3, 1],
            &[4, 1, 3],
            &[2, 3, 1, 4],
            &[3, 1, 2, 2],
        ];
        for dims in shapes {
            let shape = Shape::new(dims);
            let n = shape.len();
            let values = Grid::from_vec(
                shape.clone(),
                (0..n).map(|i| (i as f32 * 0.37).sin()).collect(),
            );
            let flags = Grid::from_vec(shape.clone(), (0..n).map(|i| i % 3 != 1).collect());
            let mask = MaskMap::from_flags(shape.clone(), flags.as_slice().to_vec());
            for perm in Shape::all_permutations(dims.len()) {
                let (got, want) = (values.permuted(&perm), permuted_oracle(&values, &perm));
                assert_eq!(got.shape(), want.shape(), "{dims:?} {perm:?}");
                let bits =
                    |g: &Grid<f32>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "f32 {dims:?} {perm:?}");
                let want = permuted_oracle(&flags, &perm);
                assert_eq!(flags.permuted(&perm), want, "bool {dims:?} {perm:?}");
                let got = mask.permuted(&perm);
                assert_eq!(
                    (got.shape(), got.as_slice()),
                    (want.shape(), want.as_slice()),
                    "mask {dims:?} {perm:?}"
                );
            }
        }
    }

    /// Every permutation of ranks 1–4, unit dims included: the values
    /// permuted into a buffer that already holds other values (as an
    /// arena's may) are the frozen per-row gather's, bit for bit, and so
    /// are [`Grid::permuted`]'s.
    #[test]
    fn permuted_into_matches_permuted() {
        let shapes: [&[usize]; 8] = [
            &[5],
            &[1],
            &[3, 4],
            &[3, 1],
            &[2, 3, 4],
            &[4, 1, 3],
            &[2, 3, 1, 4],
            &[3, 2, 2, 5],
        ];
        let mut buf = vec![f32::NAN; 7];
        for dims in shapes {
            let shape = Shape::new(dims);
            let n = shape.len();
            let values = Grid::from_vec(shape, (0..n).map(|i| (i as f32 * 0.61).cos()).collect());
            for perm in Shape::all_permutations(dims.len()) {
                values.permuted_into(&perm, &mut buf);
                let mut want = Vec::new();
                crate::reference::ref_permute_into(
                    values.shape(),
                    values.as_slice(),
                    &perm,
                    &mut want,
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&buf), bits(&want), "{dims:?} {perm:?}");
                let permuted = values.permuted(&perm);
                assert_eq!(bits(permuted.as_slice()), bits(&want), "{dims:?} {perm:?}");
            }
        }
    }

    #[test]
    fn permute_then_unpermute_identity() {
        let g = iota(&[3, 4, 5]);
        for perm in Shape::all_permutations(3) {
            let back = g.permuted(&perm).unpermuted(&perm);
            assert_eq!(back, g, "perm {perm:?}");
        }
    }

    #[test]
    fn block_extracts_expected() {
        let g = iota(&[4, 5]);
        let b = g.block(&[1, 2], &[2, 3]);
        assert_eq!(b.shape().dims(), &[2, 3]);
        assert_eq!(b.get(&[0, 0]), g.get(&[1, 2]));
        assert_eq!(b.get(&[1, 2]), g.get(&[2, 4]));
    }

    #[test]
    fn slice2d_center() {
        let g = iota(&[3, 4, 5]);
        let s = g.slice2d(0, 2, &[0, 2, 0]);
        assert_eq!(s.shape().dims(), &[3, 5]);
        assert_eq!(s.get(&[1, 3]), g.get(&[1, 2, 3]));
    }

    #[test]
    fn finite_min_max_skips_nan() {
        let g = Grid::from_vec(
            Shape::new(&[4]),
            vec![1.0f32, f32::NAN, -2.0, f32::INFINITY],
        );
        assert_eq!(g.finite_min_max(None), Some((-2.0, 1.0)));
    }

    /// Oracle sweep for the lane scan: lengths 0–17 (empty, partial and
    /// whole lane blocks with every remainder) plus two long ones, values
    /// mixing NaN, ±inf, ±0 and finite draws, masks none, all invalid and
    /// random. The result matches a sequential `min`/`max` scan; `==`
    /// treats the two zeros alike, the one freedom the lanes have.
    #[test]
    fn lane_min_max_matches_sequential_oracle() {
        fn oracle(values: &[f32], flags: Option<&[bool]>) -> Option<(f32, f32)> {
            let mut range: Option<(f32, f32)> = None;
            for (i, &v) in values.iter().enumerate() {
                if v.is_finite() && flags.is_none_or(|f| f[i]) {
                    range = Some(range.map_or((v, v), |(mn, mx)| (mn.min(v), mx.max(v))));
                }
            }
            range
        }
        let mut state = 0x1A7E5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in (0..=17usize).chain([1_000, 4_099]) {
            for _ in 0..8 {
                let values: Vec<f32> = (0..n)
                    .map(|_| match next() % 8 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => 0.0,
                        4 => -0.0,
                        _ => (next() % 2001) as f32 - 1000.0,
                    })
                    .collect();
                let random: Vec<bool> = (0..n).map(|_| next() % 3 != 0).collect();
                let none_valid = vec![false; n];
                for flags in [None, Some(&none_valid[..]), Some(&random[..])] {
                    assert_eq!(
                        finite_range(&values, flags),
                        oracle(&values, flags),
                        "n {n}, valid {:?}",
                        flags.map(|f| f.iter().filter(|&&k| k).count())
                    );
                }
            }
        }
        // The grid entry point applies its mask.
        let g = Grid::from_vec(
            Shape::new(&[2, 3]),
            vec![5.0, f32::NAN, -1.0, 9.0, 2.0, -0.5],
        );
        let m = MaskMap::from_flags(
            g.shape().clone(),
            vec![true, true, false, false, true, true],
        );
        assert_eq!(g.finite_min_max(Some(&m)), Some((-0.5, 5.0)));
    }

    #[test]
    #[should_panic(expected = "mask shape")]
    fn finite_min_max_rejects_a_mask_of_another_shape() {
        let g = Grid::from_vec(Shape::new(&[4]), vec![1.0f32; 4]);
        g.finite_min_max(Some(&MaskMap::all_valid(Shape::new(&[2, 2]))));
    }

    #[test]
    fn from_fn_matches_coords() {
        let g = Grid::from_fn(Shape::new(&[2, 3]), |c| (c[0] * 10 + c[1]) as f32);
        assert_eq!(g.get(&[1, 2]), 12.0);
    }
}
