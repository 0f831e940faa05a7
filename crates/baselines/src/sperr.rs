//! SPERR-style wavelet compressor (NCAR).
//!
//! Pipeline per the published design: multi-level CDF 9/7 lifting wavelet →
//! uniform coefficient quantization → entropy coding → **outlier
//! correction** (SPERR's signature step: after reconstructing, every point
//! whose error exceeds the bound is stored exactly, which converts the
//! wavelet coder's statistical accuracy into a hard pointwise guarantee).
//!
//! Deviation noted in DESIGN.md: coefficients are Huffman+zlite coded instead
//! of SPECK bitplane coding. The rate behaviour that matters for the paper's
//! comparisons — excellent on smooth unmasked fields, collapsing when fill
//! values inject energy at every scale — comes from the transform, not the
//! back-end coder.

use crate::header::{read_header, write_header, Reader};
use crate::traits::{BaselineError, Compressor};
use cliz_entropy::huffman;
use cliz_format::{spec::SPR1, HeaderWriter};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_quant::ErrorBound;

// CDF 9/7 lifting coefficients (JPEG2000 irreversible transform).
const ALPHA: f64 = -1.586_134_342_059_924;
const BETA: f64 = -0.052_980_118_572_961;
const GAMMA: f64 = 0.882_911_075_530_934;
const DELTA: f64 = 0.443_506_852_043_971;
const KAPPA: f64 = 1.230_174_104_914_001;

/// Largest zigzag bin encoded inline; larger coefficients escape to raw f64.
const MAX_BIN: i64 = 1 << 20;

#[inline]
fn mirror(i: isize, n: usize) -> usize {
    let n = n as isize;
    let mut i = i;
    if i < 0 {
        i = -i;
    }
    if i >= n {
        i = 2 * n - 2 - i;
    }
    i as usize
}

/// One forward CDF 9/7 pass over a line (in place), then deinterleave into
/// [approx | detail].
fn fwd_line(x: &mut [f64]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let lift = |x: &mut [f64], odd: bool, c: f64| {
        let start = if odd { 1 } else { 0 };
        for i in (start..n).step_by(2) {
            let l = x[mirror(i as isize - 1, n)];
            let r = x[mirror(i as isize + 1, n)];
            x[i] += c * (l + r);
        }
    };
    lift(x, true, ALPHA);
    lift(x, false, BETA);
    lift(x, true, GAMMA);
    lift(x, false, DELTA);
    for (i, v) in x.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v /= KAPPA;
        } else {
            *v *= KAPPA;
        }
    }
    // Deinterleave.
    let approx: Vec<f64> = x.iter().step_by(2).copied().collect();
    let detail: Vec<f64> = x.iter().skip(1).step_by(2).copied().collect();
    x[..approx.len()].copy_from_slice(&approx);
    x[approx.len()..].copy_from_slice(&detail);
}

/// Exact inverse of [`fwd_line`].
fn inv_line(x: &mut [f64]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    // Interleave.
    let half = n.div_ceil(2);
    let approx = x[..half].to_vec();
    let detail = x[half..].to_vec();
    for (i, v) in approx.iter().enumerate() {
        x[2 * i] = *v;
    }
    for (i, v) in detail.iter().enumerate() {
        x[2 * i + 1] = *v;
    }
    for (i, v) in x.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v *= KAPPA;
        } else {
            *v /= KAPPA;
        }
    }
    let lift = |x: &mut [f64], odd: bool, c: f64| {
        let start = if odd { 1 } else { 0 };
        for i in (start..n).step_by(2) {
            let l = x[mirror(i as isize - 1, n)];
            let r = x[mirror(i as isize + 1, n)];
            x[i] -= c * (l + r);
        }
    };
    lift(x, false, DELTA);
    lift(x, true, GAMMA);
    lift(x, false, BETA);
    lift(x, true, ALPHA);
}

/// Applies the wavelet along every axis of the low-frequency sub-box at each
/// level. `inverse` reverses levels and axes exactly.
// xtask-allow-fn: R5 -- box extents shrink from dims, so every offset stays below dims product == buf.len(); callers size buf from validated dims
fn transform(buf: &mut [f64], dims: &[usize], levels: usize, inverse: bool) {
    let ndim = dims.len();
    let strides = {
        let mut s = vec![1usize; ndim];
        for i in (0..ndim - 1).rev() {
            s[i] = s[i + 1] * dims[i + 1];
        }
        s
    };
    // Box extents at each level.
    let ext_at = |level: usize| -> Vec<usize> {
        dims.iter()
            .map(|&d| {
                let mut e = d;
                for _ in 0..level {
                    e = e.div_ceil(2);
                }
                e
            })
            .collect()
    };
    let level_order: Vec<usize> = if inverse {
        (0..levels).rev().collect()
    } else {
        (0..levels).collect()
    };
    for level in level_order {
        let ext = ext_at(level);
        let axis_order: Vec<usize> = if inverse {
            (0..ndim).rev().collect()
        } else {
            (0..ndim).collect()
        };
        for axis in axis_order {
            let len = ext[axis];
            if len < 2 {
                continue;
            }
            // Odometer over the other axes within the box.
            let mut coords = vec![0usize; ndim];
            let mut line = vec![0.0f64; len];
            'outer: loop {
                let mut base = 0usize;
                for a in 0..ndim {
                    if a != axis {
                        base += coords[a] * strides[a];
                    }
                }
                for (k, v) in line.iter_mut().enumerate() {
                    *v = buf[base + k * strides[axis]];
                }
                if inverse {
                    inv_line(&mut line);
                } else {
                    fwd_line(&mut line);
                }
                for (k, &v) in line.iter().enumerate() {
                    buf[base + k * strides[axis]] = v;
                }
                let mut a = ndim;
                loop {
                    if a == 0 {
                        break 'outer;
                    }
                    a -= 1;
                    if a == axis {
                        continue;
                    }
                    coords[a] += 1;
                    if coords[a] < ext[a] {
                        break;
                    }
                    coords[a] = 0;
                }
            }
        }
    }
}

fn pick_levels(dims: &[usize]) -> usize {
    let min_dim = dims.iter().copied().min().unwrap_or(1);
    let mut levels = 0usize;
    let mut e = min_dim;
    while e >= 16 && levels < 4 {
        e = e.div_ceil(2);
        levels += 1;
    }
    levels.max(usize::from(min_dim >= 4))
}

/// LEB128 unsigned varint (outlier index gaps are tiny inside fill runs).
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn zigzag(bin: i64) -> u32 {
    (((bin << 1) ^ (bin >> 63)) + 1) as u32
}

#[inline]
fn unzigzag(sym: u32) -> i64 {
    let z = u64::from(sym - 1);
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Quantizes coefficients, reconstructing `coeffs` in place with the decoder
/// values. Returns (symbols, escaped raw coefficients).
fn quantize_coeffs(coeffs: &mut [f64], step: f64) -> (Vec<u32>, Vec<f64>) {
    let mut symbols = Vec::with_capacity(coeffs.len());
    let mut escapes = Vec::new();
    for c in coeffs.iter_mut() {
        let bin = (*c / step).round();
        if !bin.is_finite() || bin.abs() as i64 > MAX_BIN {
            symbols.push(0);
            escapes.push(*c);
            // c keeps its exact value (decoder gets the raw f64).
        } else {
            let b = bin as i64;
            symbols.push(zigzag(b));
            *c = b as f64 * step;
        }
    }
    (symbols, escapes)
}

/// SPERR-like wavelet compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sperr;

impl Compressor for Sperr {
    fn name(&self) -> &'static str {
        "SPERR"
    }

    fn compress(
        &self,
        data: &Grid<f32>,
        _mask: Option<&MaskMap>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, BaselineError> {
        let (mn, mx) = data.finite_min_max(None).unwrap_or((0.0, 0.0));
        let eb = bound.resolve(mn, mx);
        let dims = data.shape().dims().to_vec();
        let levels = pick_levels(&dims);
        // Step chosen so the typical per-point reconstruction error sits
        // well under eb; the outlier pass mops up the tail.
        let step = eb * 1.2;

        let mut coeffs: Vec<f64> = data.as_slice().iter().map(|&v| v as f64).collect();
        // Non-finite and fill-magnitude (~1e36) values cannot ride the
        // transform — their energy would smear rounding error of order
        // `1e36·ε` over every coefficient, turning the whole field into
        // outliers. Zero them pre-transform; the outlier channel restores
        // them exactly. (Real SPERR likewise rejects non-normal inputs.)
        for c in coeffs.iter_mut() {
            if !c.is_finite() || c.abs() >= 1e30 {
                *c = 0.0;
            }
        }
        transform(&mut coeffs, &dims, levels, false);
        let (symbols, escapes) = quantize_coeffs(&mut coeffs, step);

        // Decoder-identical reconstruction for outlier detection.
        let mut recon = coeffs;
        transform(&mut recon, &dims, levels, true);
        let mut outliers: Vec<(u64, f32)> = Vec::new();
        for (i, (&orig, &rec)) in data.as_slice().iter().zip(&recon).enumerate() {
            let rec32 = rec as f32;
            let bad = !orig.is_finite()
                || (orig.abs() as f64) >= 1e30
                || !rec32.is_finite()
                || ((orig as f64) - (rec32 as f64)).abs() > eb;
            if bad {
                outliers.push((i as u64, orig));
            }
        }

        let stream = huffman::encode_stream(&symbols);
        let mut payload = Vec::with_capacity(stream.len() + 32);
        payload.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        payload.extend_from_slice(&stream);
        payload.extend_from_slice(&(escapes.len() as u64).to_le_bytes());
        for &e in &escapes {
            payload.extend_from_slice(&e.to_le_bytes());
        }
        // Outliers are index-sorted by construction; delta + varint keeps the
        // channel cheap even when fill regions make them plentiful.
        payload.extend_from_slice(&(outliers.len() as u64).to_le_bytes());
        let mut prev = 0u64;
        for &(idx, v) in &outliers {
            write_varint(&mut payload, idx - prev);
            payload.extend_from_slice(&v.to_le_bytes());
            prev = idx;
        }
        let packed = cliz_lossless::compress(&payload);

        let mut out = HeaderWriter::with_capacity(packed.len() + 64);
        write_header(&mut out, &SPR1, &dims);
        out.f64(eb);
        out.f64(step);
        out.u8(levels as u8);
        out.raw(&packed);
        Ok(out.finish())
    }

    fn decompress(
        &self,
        bytes: &[u8],
        _mask: Option<&MaskMap>,
    ) -> Result<Grid<f32>, BaselineError> {
        let mut r = Reader::new(bytes);
        let (dims, total) = read_header(&mut r, &SPR1)?;
        r.skip(8)?; // eb (informational)
        let step = r.f64()?;
        if step.is_nan() || step <= 0.0 {
            return Err(BaselineError::Corrupt("bad step"));
        }
        let levels = r.u8()? as usize;

        let payload = cliz_lossless::decompress(r.rest())?;
        let mut pr = Reader::new(&payload);
        let stream_len = pr.len64()?;
        let symbols = huffman::decode_stream(pr.take(stream_len)?)
            .ok_or(BaselineError::Corrupt("huffman"))?;
        if symbols.len() != total {
            return Err(BaselineError::Corrupt("symbol count"));
        }
        let n_escapes = pr.len64()?;
        if n_escapes > total {
            return Err(BaselineError::Corrupt("escape count"));
        }
        let mut escapes = Vec::with_capacity(n_escapes);
        for _ in 0..n_escapes {
            escapes.push(pr.f64()?);
        }
        let n_out = pr.len64()?;
        if n_out > total {
            return Err(BaselineError::Corrupt("outlier count"));
        }
        let mut outliers = Vec::with_capacity(n_out);
        let mut prev = 0u64;
        for _ in 0..n_out {
            let gap = pr.varint()?;
            let idx = prev
                .checked_add(gap)
                .ok_or(BaselineError::Corrupt("outlier index"))?;
            prev = idx;
            let v = pr.f32()?;
            let idx = usize::try_from(idx)
                .ok()
                .filter(|&i| i < total)
                .ok_or(BaselineError::Corrupt("outlier index"))?;
            outliers.push((idx, v));
        }

        // Rebuild coefficients.
        let mut coeffs = vec![0.0f64; total];
        let mut esc_it = escapes.into_iter();
        for (c, &s) in coeffs.iter_mut().zip(&symbols) {
            *c = if s == 0 {
                esc_it
                    .next()
                    .ok_or(BaselineError::Corrupt("short escapes"))?
            } else {
                unzigzag(s) as f64 * step
            };
        }
        transform(&mut coeffs, &dims, levels, true);
        let mut out: Vec<f32> = coeffs.iter().map(|&v| v as f32).collect();
        for (idx, v) in outliers {
            out[idx] = v; // idx < total checked at parse time
        }
        Ok(Grid::from_vec(Shape::new(&dims), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 50.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.09 * (k + 1) as f64).sin() * 6.0;
            }
            v as f32
        })
    }

    #[test]
    fn line_transform_inverts() {
        for n in [2usize, 3, 7, 8, 17, 64, 101] {
            let orig: Vec<f64> = (0..n).map(|i| ((i * i) % 23) as f64 * 0.7 - 3.0).collect();
            let mut x = orig.clone();
            fwd_line(&mut x);
            inv_line(&mut x);
            for (a, b) in orig.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn nd_transform_inverts() {
        for dims in [&[33usize][..], &[16, 24], &[8, 12, 20]] {
            let n: usize = dims.iter().product();
            let orig: Vec<f64> = (0..n).map(|i| ((i * 31) % 101) as f64 * 0.3).collect();
            let mut buf = orig.clone();
            let levels = pick_levels(dims);
            transform(&mut buf, dims, levels, false);
            transform(&mut buf, dims, levels, true);
            for (a, b) in orig.iter().zip(&buf) {
                assert!((a - b).abs() < 1e-8, "dims {dims:?}");
            }
        }
    }

    #[test]
    fn wavelet_concentrates_energy() {
        // Smooth signal: detail coefficients should be tiny vs approx.
        let n = 256;
        let orig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin() * 10.0).collect();
        let mut buf = orig.clone();
        transform(&mut buf, &[n], 3, false);
        let approx_energy: f64 = buf[..n / 8].iter().map(|v| v * v).sum();
        let detail_energy: f64 = buf[n / 8..].iter().map(|v| v * v).sum();
        assert!(
            approx_energy > 50.0 * detail_energy,
            "approx {approx_energy} vs detail {detail_energy}"
        );
    }

    #[test]
    fn roundtrip_bound_holds() {
        for dims in [&[100usize][..], &[24, 40], &[10, 20, 24]] {
            let g = smooth(dims);
            for eb in [1e-1, 1e-3] {
                let bytes = Sperr.compress(&g, None, ErrorBound::Abs(eb)).unwrap();
                let out = Sperr.decompress(&bytes, None).unwrap();
                for (i, (a, b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
                    assert!(
                        ((*a as f64) - (*b as f64)).abs() <= eb,
                        "dims {dims:?} eb {eb} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let g = smooth(&[32, 64, 64]);
        let bytes = Sperr.compress(&g, None, ErrorBound::Abs(1e-2)).unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 6.0, "ratio {ratio}");
    }

    #[test]
    fn fill_values_roundtrip_exactly_via_outliers() {
        let mut g = smooth(&[20, 20]);
        g.as_mut_slice()[5] = 9.96921e36;
        g.as_mut_slice()[250] = f32::NAN;
        let bytes = Sperr.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        let out = Sperr.decompress(&bytes, None).unwrap();
        assert_eq!(out.as_slice()[5], 9.96921e36);
        assert!(out.as_slice()[250].is_nan());
        for (i, (a, b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
            if a.is_finite() {
                assert!(((*a as f64) - (*b as f64)).abs() <= 1e-3, "at {i}");
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Sperr.decompress(b"????", None).is_err());
        let g = smooth(&[12, 12]);
        let bytes = Sperr.compress(&g, None, ErrorBound::Abs(1e-2)).unwrap();
        assert!(Sperr.decompress(&bytes[..20], None).is_err());
    }
}
