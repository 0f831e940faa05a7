//! SZ2-style Lorenzo-predictor compressor (Tao et al., IPDPS'17; Liang et
//! al., Big Data'18).
//!
//! The generation before SZ3's interpolation: every point is predicted from
//! its already-decoded raster-order neighbours with the N-dimensional
//! Lorenzo stencil (the inclusion–exclusion corner sum), quantized with the
//! same linear-scale quantizer, Huffman-coded, and squeezed by the lossless
//! backend. Included because the paper positions CliZ's lineage against it
//! and because it is a strong comparator on rough data where long-range
//! interpolation loses.

use crate::header::{read_header, write_header, Reader};
use crate::traits::{BaselineError, Compressor};
use cliz_entropy::huffman;
use cliz_format::{spec::SZ21, HeaderWriter};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_quant::{ErrorBound, LinearQuantizer, Quantized, ESCAPE};

/// Up to 3 Lorenzo dimensions (higher-rank data treats leading axes as
/// independent slabs, as SZ2 does).
const MAX_LORENZO_DIMS: usize = 3;

/// Lorenzo stencil offsets and signs for `rank` dimensions: the predictor is
/// `Σ sign · x[pos − offset]` over every non-empty corner subset.
fn lorenzo_stencil(strides: &[usize]) -> Vec<(usize, f64)> {
    let rank = strides.len();
    debug_assert!((1..=MAX_LORENZO_DIMS).contains(&rank));
    let mut out = Vec::with_capacity((1 << rank) - 1);
    for bits in 1u32..(1 << rank) {
        let mut offset = 0usize;
        for (d, &s) in strides.iter().enumerate() {
            if bits >> d & 1 == 1 {
                offset += s;
            }
        }
        // Inclusion–exclusion: odd subsets add, even subsets subtract.
        let sign = if bits.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        out.push((offset, sign));
    }
    out
}

/// Walks `buf` in raster order. For each point, computes the Lorenzo
/// prediction from already-visited (and possibly rewritten) neighbours and
/// calls `step(idx, pred, current)`; a `Some(v)` return value replaces the
/// point in `buf` (the decoder-visible reconstruction), `None` leaves it.
/// Boundary points use the partial stencil (out-of-range corners drop out,
/// matching SZ2's zero-padding semantics).
// xtask-allow-fn: R5 -- slab/odometer offsets stay below dims product == buf.len(); callers size buf from validated dims
fn walk_lorenzo(
    dims: &[usize],
    buf: &mut [f32],
    mut step: impl FnMut(usize, f64, f32) -> Option<f32>,
) {
    let ndim = dims.len();
    let lorenzo_rank = ndim.min(MAX_LORENZO_DIMS);
    let lead = ndim - lorenzo_rank;
    let slab_dims = &dims[lead..];
    let slab_len: usize = slab_dims.iter().product();
    let n_slabs: usize = dims[..lead].iter().product::<usize>().max(1);

    // Row-major strides within a slab.
    let mut strides = vec![1usize; lorenzo_rank];
    for i in (0..lorenzo_rank.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * slab_dims[i + 1];
    }
    let stencil = lorenzo_stencil(&strides);

    let mut coords = vec![0usize; lorenzo_rank];
    for slab in 0..n_slabs {
        let base = slab * slab_len;
        coords.iter_mut().for_each(|c| *c = 0);
        for local in 0..slab_len {
            // Partial stencil at the low boundaries: a corner is usable only
            // when every participating coordinate is > 0.
            let mut pred = 0.0f64;
            for &(offset, sign) in &stencil {
                // Check per-dimension underflow by decomposing the offset.
                let mut ok = true;
                let mut rem = offset;
                for (d, &s) in strides.iter().enumerate() {
                    let steps = rem / s;
                    rem %= s;
                    if steps > coords[d] {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    pred += sign * buf[base + local - offset] as f64;
                }
            }
            let idx = base + local;
            if let Some(v) = step(idx, pred, buf[idx]) {
                buf[idx] = v;
            }
            // Odometer.
            for d in (0..lorenzo_rank).rev() {
                coords[d] += 1;
                if coords[d] < slab_dims[d] {
                    break;
                }
                coords[d] = 0;
            }
        }
    }
}

/// SZ2-like Lorenzo compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sz2Lorenzo;

impl Compressor for Sz2Lorenzo {
    fn name(&self) -> &'static str {
        "SZ2"
    }

    fn compress(
        &self,
        data: &Grid<f32>,
        _mask: Option<&MaskMap>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, BaselineError> {
        let (mn, mx) = data.finite_min_max(None).unwrap_or((0.0, 0.0));
        let eb = bound.resolve(mn, mx);
        let q = LinearQuantizer::new(eb);
        let dims = data.shape().dims().to_vec();

        let mut buf = data.as_slice().to_vec();
        let mut symbols = vec![0u32; buf.len()];
        let mut escapes = 0usize;
        walk_lorenzo(&dims, &mut buf, |idx, pred, value| {
            match q.quantize(value, pred) {
                Quantized::Bin { symbol, recon } => {
                    symbols[idx] = symbol;
                    Some(recon)
                }
                Quantized::Escape => {
                    symbols[idx] = ESCAPE;
                    escapes += 1;
                    None // keep the exact original = the stored literal
                }
            }
        });

        let stream = huffman::encode_stream(&symbols);
        let mut literals = Vec::with_capacity(escapes * 4);
        for (&s, &v) in symbols.iter().zip(&buf) {
            if s == ESCAPE {
                literals.extend_from_slice(&v.to_le_bytes());
            }
        }
        let mut payload = Vec::with_capacity(stream.len() + literals.len() + 16);
        payload.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        payload.extend_from_slice(&stream);
        payload.extend_from_slice(&literals);
        let packed = cliz_lossless::compress(&payload);

        let mut out = HeaderWriter::with_capacity(packed.len() + 64);
        write_header(&mut out, &SZ21, &dims);
        out.f64(eb);
        out.u64(escapes as u64);
        out.raw(&packed);
        Ok(out.finish())
    }

    fn decompress(
        &self,
        bytes: &[u8],
        _mask: Option<&MaskMap>,
    ) -> Result<Grid<f32>, BaselineError> {
        let mut r = Reader::new(bytes);
        let (dims, total) = read_header(&mut r, &SZ21)?;
        let eb = r.f64()?;
        if eb.is_nan() || eb <= 0.0 {
            return Err(BaselineError::Corrupt("bad eb"));
        }
        let escapes = r.len64()?;
        let payload = cliz_lossless::decompress(r.rest())?;

        let mut pr = Reader::new(&payload);
        let stream_len = pr.len64()?;
        let symbols = huffman::decode_stream(pr.take(stream_len)?)
            .ok_or(BaselineError::Corrupt("huffman"))?;
        if symbols.len() != total {
            return Err(BaselineError::Corrupt("symbol count"));
        }
        if symbols.iter().filter(|&&s| s == ESCAPE).count() != escapes {
            return Err(BaselineError::Corrupt("escape count"));
        }
        // escapes ≤ total here, so the allocation is bounded.
        let mut literals = Vec::with_capacity(escapes);
        for _ in 0..escapes {
            literals.push(pr.f32()?);
        }

        let q = LinearQuantizer::new(eb);
        let mut buf = vec![0.0f32; total];
        // Escape order == raster order for Lorenzo, so literals stream in
        // walk order directly.
        let mut lit_it = literals.into_iter();
        let mut err = false;
        walk_lorenzo(&dims, &mut buf, |idx, pred, _| {
            let s = symbols[idx];
            Some(if s == ESCAPE {
                lit_it.next().unwrap_or_else(|| {
                    err = true;
                    0.0
                })
            } else {
                q.recover(s, pred)
            })
        });
        if err {
            return Err(BaselineError::Corrupt("short literal stream"));
        }
        Ok(Grid::from_vec(Shape::new(&dims), buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.11 * (k + 1) as f64).sin() * 5.0;
            }
            v as f32
        })
    }

    #[test]
    fn stencil_1d_is_previous_point() {
        assert_eq!(lorenzo_stencil(&[1]), vec![(1, 1.0)]);
    }

    #[test]
    fn stencil_2d_inclusion_exclusion() {
        // pred = x[i-1,j] + x[i,j-1] - x[i-1,j-1]
        let mut s = lorenzo_stencil(&[10, 1]);
        s.sort_by_key(|&(off, _)| off);
        assert_eq!(s, vec![(1, 1.0), (10, 1.0), (11, -1.0)]);
    }

    #[test]
    fn stencil_3d_has_seven_corners() {
        let s = lorenzo_stencil(&[100, 10, 1]);
        assert_eq!(s.len(), 7);
        let sum: f64 = s.iter().map(|&(_, sign)| sign).sum();
        // Lorenzo weights sum to 1 (exact on constants).
        assert_eq!(sum, 1.0);
    }

    #[test]
    fn roundtrip_bound_holds() {
        for dims in [&[200usize][..], &[24, 32], &[8, 16, 20], &[3, 4, 10, 12]] {
            let g = smooth(dims);
            for eb in [1e-2, 1e-4] {
                let bytes = Sz2Lorenzo.compress(&g, None, ErrorBound::Abs(eb)).unwrap();
                let out = Sz2Lorenzo.decompress(&bytes, None).unwrap();
                for (i, (a, b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
                    assert!(
                        ((*a as f64) - (*b as f64)).abs() <= eb * (1.0 + 1e-12),
                        "dims {dims:?} eb {eb} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lorenzo_is_exact_on_planes() {
        // An affine field is predicted exactly by the Lorenzo stencil, so
        // every interior bin should be zero.
        let g = Grid::from_fn(Shape::new(&[16, 16]), |c| {
            2.0 * c[0] as f32 - 3.0 * c[1] as f32 + 1.0
        });
        let bytes = Sz2Lorenzo
            .compress(&g, None, ErrorBound::Abs(1e-4))
            .unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 6.0, "plane should compress extremely: {ratio}");
    }

    #[test]
    fn compresses_smooth_data() {
        let g = smooth(&[16, 64, 64]);
        let bytes = Sz2Lorenzo
            .compress(&g, None, ErrorBound::Abs(1e-3))
            .unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Sz2Lorenzo.decompress(b"nope", None).is_err());
        let g = smooth(&[10, 10]);
        let bytes = Sz2Lorenzo
            .compress(&g, None, ErrorBound::Abs(1e-3))
            .unwrap();
        assert!(Sz2Lorenzo.decompress(&bytes[..12], None).is_err());
    }
}
