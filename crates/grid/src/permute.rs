//! Axis permutation of a row-major buffer: the blocked transpose behind
//! [`Grid::permuted`](crate::Grid::permuted),
//! [`Grid::permuted_into`](crate::Grid::permuted_into) and
//! [`MaskMap::permuted`](crate::MaskMap::permuted).
//!
//! Output axis `i` is source axis `perm[i]`. Three cases:
//!
//! * the identity is one slice copy;
//! * when the source's contiguous axis stays last, every output row is a
//!   contiguous source run, copied in output order;
//! * otherwise the source's contiguous axis lands at some output axis `q`
//!   before the last. For every value of the other axes, the output is then
//!   a 2-D transpose: the source plane has one row per output-last index
//!   (contiguous along `q`), the output plane one row per `q` index
//!   (contiguous along the last axis). It is cut into
//!   [`TILE`] × [`TILE`] tiles: a tile copies [`TILE`] sliced source rows,
//!   then writes [`TILE`] contiguous output runs from them. Each source
//!   cache line is then read once, where a per-row gather reads one
//!   element of it per output row.
//!
//! Every output element is written exactly once with the source element
//! the permutation maps to it, so the result is the per-row gather's
//! ([`crate::reference::ref_permute_into`]) bit for bit.

use crate::shape::{Shape, MAX_DIMS};

/// Rows and columns of a transpose tile. Sixteen `f32` are one 64-byte
/// cache line, and a tile of them is 1 KiB, well inside L1.
const TILE: usize = 16;

/// Appends `values`, row-major over `shape`, to `out` in the layout of
/// `shape.permuted(perm)`. `values` may be any buffer laid over `shape`,
/// such as one slab of a larger field. A caller that reuses `out` (an
/// arena's buffer) permutes with no allocation once it has grown.
///
/// # Panics
///
/// When `values` does not hold `shape.len()` elements, or `perm` is not a
/// permutation of `shape`'s axes.
pub fn permute_into<T: Copy>(shape: &Shape, values: &[T], perm: &[usize], out: &mut Vec<T>) {
    assert_eq!(
        values.len(),
        shape.len(),
        "permute_into: buffer length does not match the shape"
    );
    let out_shape = shape.permuted(perm);
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        out.extend_from_slice(values);
        return;
    }
    let n = shape.ndim();
    let last = n - 1;
    let mut gather = [0usize; MAX_DIMS];
    for (g, &p) in gather.iter_mut().zip(perm) {
        *g = shape.stride(p);
    }
    let dims = out_shape.dims();
    if gather[last] == 1 {
        copy_rows(values, dims, &gather[..n], out);
        return;
    }
    // The output axis holding the source's contiguous axis.
    let q = perm.iter().position(|&p| p == last).unwrap_or(0);
    let start = out.len();
    let Some(&first) = values.first() else {
        return;
    };
    out.resize(start + values.len(), first);
    let dst = &mut out[start..];
    let plane = Plane {
        rows: dims[last],
        cols: dims[q],
        src_stride: gather[last],
        dst_stride: out_shape.stride(q),
    };
    // Odometer over the axes that are neither `q` nor the last.
    let mut outer = [0usize; MAX_DIMS];
    let mut m = 0;
    for axis in (0..last).filter(|&a| a != q) {
        outer[m] = axis;
        m += 1;
    }
    let outer = &outer[..m];
    let mut at = [0usize; MAX_DIMS];
    let (mut src, mut dst_base) = (0usize, 0usize);
    let mut tile = [[first; TILE]; TILE];
    loop {
        plane.transpose(&values[src..], &mut dst[dst_base..], &mut tile);
        // Next plane: step the odometer, last outer axis fastest.
        let mut k = m;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            let axis = outer[k];
            at[k] += 1;
            src += gather[axis];
            dst_base += out_shape.stride(axis);
            if at[k] < dims[axis] {
                break;
            }
            src -= gather[axis] * dims[axis];
            dst_base -= out_shape.stride(axis) * dims[axis];
            at[k] = 0;
        }
    }
}

/// The row-copy case: every output row is the contiguous source run
/// starting at its gathered offset. `gather[i]` is the source stride of
/// output axis `i`, and the last is 1.
fn copy_rows<T: Copy>(values: &[T], dims: &[usize], gather: &[usize], out: &mut Vec<T>) {
    let last = dims.len() - 1;
    let row = dims[last];
    out.reserve(values.len());
    let mut at = [0usize; MAX_DIMS];
    let mut base = 0usize;
    loop {
        out.extend_from_slice(&values[base..base + row]);
        let mut axis = last;
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            at[axis] += 1;
            base += gather[axis];
            if at[axis] < dims[axis] {
                break;
            }
            base -= gather[axis] * dims[axis];
            at[axis] = 0;
        }
    }
}

/// One 2-D transpose of the tiled case: `dst[c · dst_stride + r] =
/// src[r · src_stride + c]` for `r < rows`, `c < cols`.
struct Plane {
    rows: usize,
    cols: usize,
    src_stride: usize,
    dst_stride: usize,
}

impl Plane {
    fn transpose<T: Copy>(&self, src: &[T], dst: &mut [T], tile: &mut [[T; TILE]; TILE]) {
        for r0 in (0..self.rows).step_by(TILE) {
            let h = TILE.min(self.rows - r0);
            for c0 in (0..self.cols).step_by(TILE) {
                let w = TILE.min(self.cols - c0);
                if h == TILE && w == TILE {
                    self.tile(src, dst, tile, r0, c0, TILE, TILE);
                } else {
                    self.tile(src, dst, tile, r0, c0, h, w);
                }
            }
        }
    }

    /// The `h × w` tile at source row `r0`, column `c0`: `h` sliced source
    /// rows of `w` values into `tile`, then `w` contiguous output runs of
    /// `h` values out of it. Inlined into both calls, so the whole-tile
    /// call runs on constant bounds.
    #[inline(always)]
    #[allow(
        clippy::too_many_arguments,
        reason = "the tile's corner and extent are the call's arguments"
    )]
    fn tile<T: Copy>(
        &self,
        src: &[T],
        dst: &mut [T],
        tile: &mut [[T; TILE]; TILE],
        r0: usize,
        c0: usize,
        h: usize,
        w: usize,
    ) {
        for (k, line) in tile[..h].iter_mut().enumerate() {
            let s = (r0 + k) * self.src_stride + c0;
            // xtask-allow: R5 -- in bounds by construction: `permute_into` checked the buffer against the shape, and every tile lies inside its plane
            line[..w].copy_from_slice(&src[s..s + w]);
        }
        for c in 0..w {
            let o = (c0 + c) * self.dst_stride + r0;
            for (v, line) in dst[o..o + h].iter_mut().zip(tile.iter()) {
                *v = line[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ref_permute_into;
    use crate::{Grid, MaskMap};

    /// xorshift64*: seeded, so a failing case reproduces.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The blocked kernel appended after `prefix`, against the frozen
    /// per-row gather appended after the same prefix.
    fn check<T: Copy + PartialEq + std::fmt::Debug>(
        shape: &Shape,
        values: &[T],
        perm: &[usize],
        prefix: &[T],
        what: &str,
    ) {
        let mut got = prefix.to_vec();
        permute_into(shape, values, perm, &mut got);
        let mut want = prefix.to_vec();
        ref_permute_into(shape, values, perm, &mut want);
        assert_eq!(got, want, "{what}: {shape:?} by {perm:?}");
    }

    /// Every permutation of ranks 1–5, with extents on both sides of the
    /// tile width (1, `TILE − 1`, `TILE`, `TILE + 1` and odd sizes), for
    /// `f32` (compared as bits, NaN payloads and ±0 included), `bool` and
    /// `u32`, appended to a buffer that already holds values: the blocked
    /// kernel writes the frozen per-row gather's elements, and
    /// `unpermuted` brings every grid and mask back.
    #[test]
    fn blocked_permute_matches_row_gather() {
        let shapes: [&[usize]; 15] = [
            &[1],
            &[17],
            &[15, 16],
            &[16, 17],
            &[17, 1],
            &[1, 33],
            &[33, 47],
            &[3, 17, 16],
            &[16, 5, 15],
            &[1, 17, 1],
            &[32, 3, 33],
            &[2, 17, 3, 16],
            &[15, 1, 2, 17],
            &[3, 2, 17, 2, 16],
            &[17, 2, 1, 3, 15],
        ];
        let mut state = 0x7A11_5EEDu64;
        let mut cases = 0;
        for dims in shapes {
            let shape = Shape::new(dims);
            let n = shape.len();
            let floats: Vec<f32> = (0..n)
                .map(|_| match next(&mut state) % 16 {
                    0 => f32::from_bits(0x7FC0_0001),
                    1 => -0.0,
                    2 => f32::NEG_INFINITY,
                    r => r as f32 * 0.37 - 2.0,
                })
                .collect();
            let float_bits: Vec<u32> = floats.iter().map(|v| v.to_bits()).collect();
            let words: Vec<u32> = (0..n).map(|_| next(&mut state) as u32).collect();
            let flags: Vec<bool> = (0..n)
                .map(|_| !next(&mut state).is_multiple_of(3))
                .collect();
            let grid = Grid::from_vec(shape.clone(), floats.clone());
            let mask = MaskMap::from_flags(shape.clone(), flags.clone());
            for perm in Shape::all_permutations(dims.len()) {
                let mut got = vec![f32::NAN; 3];
                permute_into(&shape, &floats, &perm, &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let mut want = vec![f32::NAN.to_bits(); 3];
                ref_permute_into(&shape, &float_bits, &perm, &mut want);
                assert_eq!(got, want, "f32: {dims:?} by {perm:?}");
                check(&shape, &words, &perm, &[7, 8], "u32");
                check(&shape, &flags, &perm, &[true], "bool");
                let back = grid.permuted(&perm).unpermuted(&perm);
                let back: Vec<u32> = back.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(back, float_bits, "f32 round trip: {dims:?} by {perm:?}");
                let mut inverse = vec![0; perm.len()];
                for (i, &p) in perm.iter().enumerate() {
                    inverse[p] = i;
                }
                let back = mask.permuted(&perm).permuted(&inverse);
                assert_eq!(back, mask, "mask round trip: {dims:?} by {perm:?}");
                cases += 1;
            }
        }
        assert_eq!(cases, 2 + 2 * 5 + 6 * 4 + 24 * 2 + 120 * 2);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_a_buffer_of_another_length() {
        permute_into(&Shape::new(&[2, 3]), &[0u8; 5], &[1, 0], &mut Vec::new());
    }
}
