//! Iteration over 1-D lines of an N-dimensional grid.
//!
//! The interpolation predictor and the FFT period estimator both operate on
//! "lines": runs of elements that vary along one axis with all other
//! coordinates fixed. A line is fully described by a base linear offset, the
//! axis stride, and the axis length — no data is copied.

use crate::shape::Shape;

/// One line along an axis: elements `base + k*stride` for `k in 0..len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line {
    pub base: usize,
    pub stride: usize,
    pub len: usize,
}

impl Line {
    /// Gathers the line's values from backing storage into a `Vec`.
    ///
    /// The line must fit in `data`: true by construction for lines produced
    /// by [`LineIter`] over the grid's own shape, and asserted here so a
    /// mismatched buffer fails loudly at the algorithm boundary.
    // xtask-allow-fn: R5 -- offsets come from LineIter over the grid's own Shape; extent asserted at entry
    pub fn gather<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert!(
            self.len == 0 || self.base + (self.len - 1) * self.stride < data.len(),
            "Line::gather: line extends past the buffer"
        );
        (0..self.len)
            .map(|k| data[self.base + k * self.stride])
            .collect()
    }
}

/// Iterates every line of `shape` along axis `axis`.
pub struct LineIter {
    shape: Shape,
    axis: usize,
    /// Odometer over all axes except `axis`.
    coords: Vec<usize>,
    done: bool,
}

impl LineIter {
    pub fn new(shape: &Shape, axis: usize) -> Self {
        assert!(axis < shape.ndim(), "axis {axis} out of range");
        Self {
            shape: shape.clone(),
            axis,
            coords: vec![0; shape.ndim()],
            done: false,
        }
    }

    /// Total number of lines this iterator yields.
    pub fn count_lines(shape: &Shape, axis: usize) -> usize {
        shape.len() / shape.dim(axis)
    }
}

impl Iterator for LineIter {
    type Item = Line;

    fn next(&mut self) -> Option<Line> {
        if self.done {
            return None;
        }
        let line = Line {
            base: self.shape.index_of(&self.coords),
            stride: self.shape.stride(self.axis),
            len: self.shape.dim(self.axis),
        };
        // Advance the odometer over every axis but `self.axis`.
        let ndim = self.shape.ndim();
        let mut i = ndim;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if i == self.axis {
                continue;
            }
            self.coords[i] += 1;
            if self.coords[i] < self.shape.dim(i) {
                break;
            }
            self.coords[i] = 0;
        }
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_along_last_axis_are_contiguous() {
        let s = Shape::new(&[2, 3, 4]);
        let lines: Vec<Line> = LineIter::new(&s, 2).collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.stride == 1 && l.len == 4));
        let bases: Vec<usize> = lines.iter().map(|l| l.base).collect();
        assert_eq!(bases, vec![0, 4, 8, 12, 16, 20]);
    }

    #[test]
    fn lines_along_first_axis() {
        let s = Shape::new(&[2, 3]);
        let lines: Vec<Line> = LineIter::new(&s, 0).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.stride == 3 && l.len == 2));
        let bases: Vec<usize> = lines.iter().map(|l| l.base).collect();
        assert_eq!(bases, vec![0, 1, 2]);
    }

    #[test]
    fn gather_reads_strided() {
        let s = Shape::new(&[3, 2]);
        let data: Vec<i32> = (0..6).collect();
        let line = LineIter::new(&s, 0).next().unwrap();
        assert_eq!(line.gather(&data), vec![0, 2, 4]);
    }

    #[test]
    fn count_matches_iteration() {
        let s = Shape::new(&[4, 5, 6]);
        for axis in 0..3 {
            assert_eq!(
                LineIter::new(&s, axis).count(),
                LineIter::count_lines(&s, axis)
            );
        }
    }

    #[test]
    fn one_dim_single_line() {
        let s = Shape::new(&[9]);
        let lines: Vec<Line> = LineIter::new(&s, 0).collect();
        assert_eq!(
            lines,
            vec![Line {
                base: 0,
                stride: 1,
                len: 9
            }]
        );
    }
}
