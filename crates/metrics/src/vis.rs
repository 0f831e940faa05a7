//! Grayscale PGM dumps for the Fig. 14-style visual comparison.
//!
//! Binary PGM (P5) is the simplest portable image format every viewer reads;
//! the harness writes original/reconstructed slices side by side so a human
//! can eyeball compression artifacts the way the paper's Fig. 14 does.

use cliz_grid::{cast, Grid, MaskMap};
use std::io::Write;
use std::path::Path;

/// Renders a 2-D grid into 8-bit grayscale, normalizing over valid points.
/// Masked points render black (0).
pub fn slice_to_pgm(slice: &Grid<f32>, mask: Option<&MaskMap>) -> Vec<u8> {
    assert_eq!(slice.shape().ndim(), 2, "PGM needs a 2-D slice");
    let dims = slice.shape().dims();
    let (h, w) = (dims[0], dims[1]);

    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for (i, &v) in slice.as_slice().iter().enumerate() {
        if mask.is_some_and(|m| !m.is_valid(i)) || !v.is_finite() {
            continue;
        }
        mn = mn.min(v);
        mx = mx.max(v);
    }
    let range = if mx > mn { mx - mn } else { 1.0 };

    let mut out = Vec::with_capacity(h * w + 32);
    out.extend_from_slice(format!("P5\n{w} {h}\n255\n").as_bytes());
    for (i, &v) in slice.as_slice().iter().enumerate() {
        let px = if mask.is_some_and(|m| !m.is_valid(i)) || !v.is_finite() {
            0u8
        } else {
            let level = cast::float_to_index(f64::from(((v - mn) / range) * 254.0 + 1.0), 256);
            cast::to_u8_checked(level).unwrap_or(u8::MAX)
        };
        out.push(px);
    }
    out
}

/// Writes a PGM rendering to `path`.
pub fn write_pgm(path: &Path, slice: &Grid<f32>, mask: Option<&MaskMap>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let bytes = slice_to_pgm(slice, mask);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::Shape;

    #[test]
    fn header_and_size() {
        let g = Grid::from_fn(Shape::new(&[4, 6]), |c| (c[0] * 6 + c[1]) as f32);
        let pgm = slice_to_pgm(&g, None);
        assert!(pgm.starts_with(b"P5\n6 4\n255\n"));
        assert_eq!(pgm.len(), b"P5\n6 4\n255\n".len() + 24);
    }

    #[test]
    fn normalization_spans_gray_range() {
        let g = Grid::from_fn(Shape::new(&[2, 2]), |c| (c[0] * 2 + c[1]) as f32);
        let pgm = slice_to_pgm(&g, None);
        let pixels = &pgm[pgm.len() - 4..];
        assert_eq!(pixels[0], 1); // min maps to 1 (0 reserved for mask)
        assert_eq!(pixels[3], 255);
    }

    #[test]
    fn masked_pixels_are_black() {
        let g = Grid::from_fn(Shape::new(&[1, 3]), |c| c[1] as f32);
        let mask = MaskMap::from_flags(g.shape().clone(), vec![true, false, true]);
        let pgm = slice_to_pgm(&g, Some(&mask));
        let pixels = &pgm[pgm.len() - 3..];
        assert_eq!(pixels[1], 0);
        assert!(pixels[0] > 0 && pixels[2] > 0);
    }

    #[test]
    fn constant_slice_does_not_divide_by_zero() {
        let g = Grid::filled(Shape::new(&[2, 2]), 5.0f32);
        let pgm = slice_to_pgm(&g, None);
        assert!(pgm[pgm.len() - 4..].iter().all(|&p| p >= 1));
    }
}
