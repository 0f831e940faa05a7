//! Frozen reference for the axis permutation.
//!
//! [`ref_permute_into`] is the permute exactly as it stood before the
//! blocked transpose: an odometer over every output axis but the last, and
//! one strided gather from the source per output row. Differential tests
//! pin [`crate::permute_into`] bit-identical against it, and `stage_bench`
//! measures the blocked kernel's speedup over it in the same process.
//!
//! Do not optimize or refactor this module; it is the measuring stick.

use crate::shape::Shape;

/// Appends `values`, row-major over `shape`, to `out` in the layout of
/// `shape.permuted(perm)`. The identity permutation is one slice copy.
/// Otherwise the output is written in linear order, so the write stream is
/// sequential: an odometer over every output axis but the last steps once
/// per output row, and each row is one strided gather from the source (a
/// slice copy when the stride is 1).
pub fn ref_permute_into<T: Copy>(shape: &Shape, values: &[T], perm: &[usize], out: &mut Vec<T>) {
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        out.extend_from_slice(values);
        return;
    }
    let last = shape.ndim() - 1;
    let dims: Vec<usize> = perm.iter().map(|&p| shape.dim(p)).collect();
    let gather: Vec<usize> = perm.iter().map(|&p| shape.stride(p)).collect();
    let (row_len, row_stride) = (dims[last], gather[last]);
    let start = out.len();
    out.reserve(values.len());
    let mut coords = vec![0usize; last];
    let mut base = 0usize;
    loop {
        let row = &values[base..=base + (row_len - 1) * row_stride];
        if row_stride == 1 {
            out.extend_from_slice(row);
        } else {
            out.extend((0..row_len).map(|k| row[k * row_stride]));
        }
        // Next row: increment the odometer from the last outer axis.
        let mut axis = last;
        loop {
            if axis == 0 {
                debug_assert_eq!(out.len() - start, values.len());
                return;
            }
            axis -= 1;
            coords[axis] += 1;
            base += gather[axis];
            if coords[axis] < dims[axis] {
                break;
            }
            base -= gather[axis] * dims[axis];
            coords[axis] = 0;
        }
    }
}
