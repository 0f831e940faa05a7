//! The run-length form of a section's validity mask.
//!
//! A climate mask is land against ocean: long stretches of valid points
//! broken by long stretches of fill. Read one flag at a time, it costs a
//! test per point wherever it is used. [`Stretches`] holds, for every row of
//! the section's trailing dimension, the row's valid stretches `[start,
//! end)`, built once per section. Everything masked reads it: the walk cuts
//! its runs at stretch boundaries, and the encoder's symbol gather, the
//! decoder's scatter, the valid count, the placeholder symbols, the decode
//! fill and the decoder's validation fold copy or visit whole stretches.

use std::ops::Range;

/// A validity mask cut into rows of `row_len` points (the trailing
/// dimension of the section's layout), each row held as its valid
/// stretches: `[start, end)` offsets within the row, ascending, disjoint,
/// never empty and never adjacent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stretches {
    row_len: usize,
    /// Every row's stretches, row after row.
    spans: Vec<(usize, usize)>,
    /// Row `r`'s stretches are `spans[rows[r]..rows[r + 1]]`.
    rows: Vec<usize>,
    valid: usize,
}

impl Stretches {
    /// The stretches of `flags` (one validity flag per point, raster order)
    /// in rows of `row_len` points.
    ///
    /// # Panics
    ///
    /// When `row_len` is 0 or does not divide `flags.len()`.
    pub fn new(flags: &[bool], row_len: usize) -> Self {
        assert!(
            row_len > 0 && flags.len().is_multiple_of(row_len),
            "mask of {} points does not split into rows of {row_len}",
            flags.len()
        );
        let mut spans = Vec::new();
        let mut rows = Vec::with_capacity(flags.len() / row_len + 1);
        rows.push(0);
        let mut valid = 0;
        for row in flags.chunks_exact(row_len) {
            let mut x = 0;
            while let Some(a) = row[x..].iter().position(|&v| v) {
                let a = x + a;
                let b = row[a..].iter().position(|&v| !v).map_or(row_len, |e| a + e);
                spans.push((a, b));
                valid += b - a;
                x = b;
            }
            rows.push(spans.len());
        }
        Self {
            row_len,
            spans,
            rows,
            valid,
        }
    }

    /// Points per row.
    pub(crate) fn row_len(&self) -> usize {
        self.row_len
    }

    /// Points in the section.
    pub(crate) fn len(&self) -> usize {
        (self.rows.len() - 1) * self.row_len
    }

    /// Valid points in the section.
    pub fn valid_count(&self) -> usize {
        self.valid
    }

    /// Row `r`'s valid stretches, as offsets within the row.
    pub(crate) fn row(&self, r: usize) -> &[(usize, usize)] {
        &self.spans[self.rows[r]..self.rows[r + 1]]
    }

    /// Every valid stretch as a raster range, ascending.
    pub(crate) fn valid_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.rows.windows(2).enumerate().flat_map(move |(r, w)| {
            let base = r * self.row_len;
            self.spans[w[0]..w[1]]
                .iter()
                .map(move |&(a, b)| base + a..base + b)
        })
    }

    /// Every maximal invalid stretch as a raster range, ascending.
    fn invalid_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let end = self.len();
        let mut prev = 0;
        self.valid_ranges()
            .chain(std::iter::once(end..end))
            .filter_map(move |r| {
                let gap = prev..r.start;
                prev = r.end;
                (!gap.is_empty()).then_some(gap)
            })
    }

    /// Appends the valid points of `grid`, in raster order, to `out`.
    pub fn gather<T: Copy>(&self, grid: &[T], out: &mut Vec<T>) {
        assert_eq!(grid.len(), self.len(), "grid/mask length mismatch");
        out.reserve(self.valid);
        for r in self.valid_ranges() {
            out.extend_from_slice(&grid[r]);
        }
    }

    /// Writes `values`, one per valid point in raster order, to the valid
    /// points of `grid`; the inverse of [`Stretches::gather`].
    pub fn scatter<T: Copy>(&self, values: &[T], grid: &mut [T]) {
        assert_eq!(grid.len(), self.len(), "grid/mask length mismatch");
        assert_eq!(values.len(), self.valid, "value count != valid points");
        let mut at = 0;
        for r in self.valid_ranges() {
            let n = r.len();
            grid[r].copy_from_slice(&values[at..at + n]);
            at += n;
        }
    }

    /// Writes `value` to every invalid point of `grid`.
    pub(crate) fn fill_invalid<T: Copy>(&self, grid: &mut [T], value: T) {
        assert_eq!(grid.len(), self.len(), "grid/mask length mismatch");
        for r in self.invalid_ranges() {
            grid[r].fill(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(st: &Stretches) -> Vec<bool> {
        let mut flags = vec![true; st.len()];
        st.fill_invalid(&mut flags, false);
        flags
    }

    #[test]
    fn stretches_round_trip_every_pattern_of_a_short_row() {
        for row_len in 1..=6usize {
            for code in 0..1usize << (2 * row_len) {
                let flags: Vec<bool> = (0..2 * row_len).map(|i| code >> i & 1 == 1).collect();
                let st = Stretches::new(&flags, row_len);
                assert_eq!(flags_of(&st), flags, "row {row_len}, code {code:b}");
                assert_eq!(st.valid_count(), flags.iter().filter(|&&v| v).count());
                for r in 0..2 {
                    let spans = st.row(r);
                    assert!(spans.iter().all(|&(a, b)| a < b && b <= row_len));
                    assert!(spans.windows(2).all(|w| w[0].1 < w[1].0), "not maximal");
                }
                let valid: Vec<usize> = st.valid_ranges().flatten().collect();
                let invalid: Vec<usize> = st.invalid_ranges().flatten().collect();
                assert!(valid.iter().all(|&i| flags[i]));
                assert!(invalid.iter().all(|&i| !flags[i]));
                assert_eq!(valid.len() + invalid.len(), flags.len());
            }
        }
    }

    #[test]
    fn gather_and_scatter_move_the_valid_points_in_raster_order() {
        let flags: Vec<bool> = (0..40).map(|i| i % 7 != 3 && i / 10 != 2).collect();
        let st = Stretches::new(&flags, 10);
        let grid: Vec<u32> = (0..40).collect();
        let mut gathered = vec![99];
        st.gather(&grid, &mut gathered);
        let want: Vec<u32> = (0..40).filter(|&i| flags[i as usize]).collect();
        assert_eq!(gathered[1..], want[..]);
        let mut back = vec![0u32; 40];
        st.scatter(&gathered[1..], &mut back);
        for (i, &v) in back.iter().enumerate() {
            assert_eq!(v, if flags[i] { i as u32 } else { 0 });
        }
    }

    #[test]
    #[should_panic(expected = "rows of 7")]
    fn a_row_length_that_does_not_divide_the_mask_panics() {
        Stretches::new(&[true; 20], 7);
    }
}
