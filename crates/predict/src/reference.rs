//! Frozen pre-rewrite reference for the interpolation pass, both directions.
//!
//! [`ref_predict_quantize`] is the predict/quantize path exactly as it stood
//! before the branch-hoisted kernel rewrite: the per-point branchy traversal
//! (mask test, fitting dispatch, and bounds checks inside every iteration)
//! and the `.round()`-based quantizer step. [`ref_reconstruct`] replays a
//! symbol grid on that same traversal, one point at a time, with the
//! decoder's validation pass and its full-size grid of literals scattered to
//! their raster positions, as the decoder stood before its run kernels.
//! Both are kept verbatim as executable specifications — differential tests
//! pin the live kernels' escape count, symbol grid, and reconstruction
//! bit-identical against them, and `stage_bench` measures the live kernels'
//! speedup over them in the same process.
//!
//! Do not optimize or refactor this module; it is the measuring stick.
//! The fit-coefficient helpers (`cubic_coeffs`/`linear_coeffs`) are shared
//! with the live path because they are pure value tables untouched by the
//! rewrite.

use crate::fitting::{cubic_coeffs, linear_coeffs, Fitting};
use crate::interp::{InterpParams, ReconstructError};
use cliz_quant::{bin_to_symbol, LinearQuantizer, Quantized, ESCAPE};

/// Row-major strides for `dims` (frozen copy).
fn ref_strides_of(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Frozen copy of the quantization step (`2·eb`): the reference keeps its
/// own named eb-scaling helper (xtask rule R8) so the frozen arithmetic
/// stays verbatim without reaching into the live quantizer's private one.
#[inline]
fn ref_eb_step(q: &LinearQuantizer) -> f64 {
    2.0 * q.eb()
}

/// Pre-rewrite quantization step: `.round()` on the bin estimate, then the
/// range-checked narrowing, exactly as `LinearQuantizer::quantize` computed
/// it before the fused `quantize_round_index` helper existed.
#[inline]
fn ref_quantize(q: &LinearQuantizer, value: f32, pred: f64) -> Quantized {
    let err = f64::from(value) - pred;
    let step = ref_eb_step(q);
    let bin_f = (err / step).round();
    let Some(bin) = cliz_grid::cast::quantize_index(bin_f, q.radius()) else {
        return Quantized::Escape;
    };
    let Some(recon) = cliz_grid::cast::f64_to_f32_checked(pred + step * f64::from(bin)) else {
        return Quantized::Escape;
    };
    #[allow(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "frozen reference: kept as written, and the negation escapes a NaN error"
    )]
    if !((f64::from(recon) - f64::from(value)).abs() <= q.eb()) {
        return Quantized::Escape;
    }
    Quantized::Bin {
        symbol: bin_to_symbol(bin),
        recon,
    }
}

/// Frozen pre-rewrite [`crate::predict_quantize`].
pub fn ref_predict_quantize(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer: &LinearQuantizer,
    symbols: &mut [u32],
) -> usize {
    ref_predict_quantize_leveled(buf, dims, params, &|_| *quantizer, symbols)
}

/// Frozen pre-rewrite [`crate::predict_quantize_leveled`]: the per-point
/// `quantizer_for` dyn call is retained (the live path caches it per
/// stride), as is the per-point mask test.
// xtask-allow-fn: R5 -- frozen pre-rewrite reference; ref_walk() only visits idx < dims product == buf.len(), asserted at entry
pub fn ref_predict_quantize_leveled(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer_for: &dyn Fn(usize) -> LinearQuantizer,
    symbols: &mut [u32],
) -> usize {
    let expected: usize = dims.iter().product();
    assert_eq!(buf.len(), expected, "buffer/shape mismatch");
    assert_eq!(symbols.len(), expected, "symbol grid/shape mismatch");
    if let Some(m) = params.mask {
        assert_eq!(m.len(), expected);
    }

    let zero_sym = bin_to_symbol(0);
    let mut escapes = 0usize;
    ref_walk(dims, params, buf, |buf, idx, stride, pred| {
        if !params.mask.is_none_or(|m| m[idx]) {
            symbols[idx] = zero_sym;
            return;
        }
        match ref_quantize(&quantizer_for(stride), buf[idx], pred) {
            Quantized::Bin { symbol, recon } => {
                symbols[idx] = symbol;
                buf[idx] = recon;
            }
            Quantized::Escape => {
                symbols[idx] = ESCAPE;
                escapes += 1;
            }
        }
    });
    escapes
}

/// Frozen pre-rewrite [`crate::reconstruct`].
pub fn ref_reconstruct(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer: &LinearQuantizer,
    symbols: &[u32],
    literals: &[f32],
    fill_value: f32,
) -> Result<(), ReconstructError> {
    ref_reconstruct_leveled(
        buf,
        dims,
        params,
        &|_| *quantizer,
        symbols,
        literals,
        fill_value,
    )
}

/// Frozen pre-rewrite [`crate::reconstruct_leveled`]: validation (escape
/// count against the literals, largest valid symbol against the smallest
/// radius over the levels), literals scattered into a zero-filled grid the
/// size of the field, the fill at masked points, then [`ref_walk`] with a
/// per-point `quantizer_for` dyn call and mask test.
pub fn ref_reconstruct_leveled(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer_for: &dyn Fn(usize) -> LinearQuantizer,
    symbols: &[u32],
    literals: &[f32],
    fill_value: f32,
) -> Result<(), ReconstructError> {
    let expected: usize = dims.iter().product();
    assert_eq!(buf.len(), expected);
    assert_eq!(symbols.len(), expected);
    if let Some(m) = params.mask {
        assert_eq!(m.len(), expected);
    }

    // Escape count and largest symbol over the valid points (a masked
    // point reads as the zero bin).
    let zero = bin_to_symbol(0);
    let tally = |(escapes, largest): (usize, u32), s: u32| {
        (escapes + usize::from(s == ESCAPE), largest.max(s))
    };
    let (escapes, largest) = match params.mask {
        None => symbols.iter().copied().fold((0, 0), tally),
        Some(m) => symbols
            .iter()
            .zip(m)
            .map(|(&s, &keep)| if keep { s } else { zero })
            .fold((0, 0), tally),
    };
    if literals.len() != escapes {
        return Err(ReconstructError::LiteralCount {
            expected_literals: escapes,
            got_literals: literals.len(),
        });
    }
    let max_dim = dims.iter().copied().max().unwrap_or(1);
    let mut radius = quantizer_for(0).radius();
    if max_dim > 1 {
        let mut s = 1usize;
        while s * 2 < max_dim {
            s *= 2;
        }
        while s >= 1 {
            radius = radius.min(quantizer_for(s).radius());
            s /= 2;
        }
    }
    if largest > bin_to_symbol(radius) {
        return Err(ReconstructError::OutOfRadius {
            symbol: largest,
            radius,
        });
    }

    // Pre-scatter literals to their raster positions.
    let mut lit_grid: Option<Vec<f32>> = None;
    if escapes > 0 {
        let mut it = literals.iter();
        let mut grid = vec![0.0f32; expected];
        match params.mask {
            None => {
                for (g, &s) in grid.iter_mut().zip(symbols) {
                    if s == ESCAPE {
                        if let Some(&v) = it.next() {
                            *g = v;
                        }
                    }
                }
            }
            Some(m) => {
                for ((g, &s), &keep) in grid.iter_mut().zip(symbols).zip(m) {
                    if keep && s == ESCAPE {
                        if let Some(&v) = it.next() {
                            *g = v;
                        }
                    }
                }
            }
        }
        lit_grid = Some(grid);
    }

    if let Some(m) = params.mask {
        for (v, &keep) in buf.iter_mut().zip(m) {
            if !keep {
                *v = fill_value;
            }
        }
    }

    let lit = lit_grid.as_deref();
    ref_walk(dims, params, buf, |buf, idx, stride, pred| {
        if !params.mask.is_none_or(|m| m[idx]) {
            return;
        }
        let s = symbols[idx];
        buf[idx] = if s == ESCAPE {
            lit.map_or(0.0, |g| g[idx])
        } else {
            quantizer_for(stride).recover(s, pred)
        };
    });
    Ok(())
}

/// Frozen pre-rewrite traversal skeleton (per-point branchy inner loops).
fn ref_walk<F>(dims: &[usize], params: &InterpParams, buf: &mut [f32], mut visit: F)
where
    F: FnMut(&mut [f32], usize, usize, f64),
{
    let ndim = dims.len();
    let strides = ref_strides_of(dims);
    let max_dim = dims.iter().copied().max().unwrap_or(1);

    visit(buf, 0, 0, 0.0);
    if max_dim <= 1 {
        return;
    }

    let mut s = 1usize;
    while s * 2 < max_dim {
        s *= 2;
    }

    let fitting = params.fitting;
    let mask = params.mask;
    let mut coords = vec![0usize; ndim];

    while s >= 1 {
        for d in 0..ndim {
            if dims[d] <= s {
                continue;
            }
            coords.fill(0);
            let dim_stride = strides[d];
            let dim_len = dims[d];
            'outer: loop {
                let mut base = 0usize;
                for e in 0..ndim {
                    if e != d {
                        base += coords[e] * strides[e];
                    }
                }
                let mut i = s;
                while i < dim_len {
                    let idx = base + i * dim_stride;
                    let pred = ref_predict_at(buf, mask, idx, i, dim_len, dim_stride, s, fitting);
                    visit(buf, idx, s, pred);
                    i += 2 * s;
                }
                let mut e = ndim;
                loop {
                    if e == 0 {
                        break 'outer;
                    }
                    e -= 1;
                    if e == d {
                        continue;
                    }
                    let step = if e < d { s } else { 2 * s };
                    coords[e] += step;
                    if coords[e] < dims[e] {
                        break;
                    }
                    coords[e] = 0;
                }
            }
        }
        if s == 1 {
            break;
        }
        s /= 2;
    }
}

/// Frozen pre-rewrite fit prediction (mask test and fitting dispatch inside
/// the per-point call).
// xtask-allow-fn: R5 -- frozen pre-rewrite reference; neighbour offsets are bounds-checked against dim_len before use
#[inline]
#[allow(
    clippy::too_many_arguments,
    reason = "frozen reference: kept as written"
)]
fn ref_predict_at(
    buf: &[f32],
    mask: Option<&[bool]>,
    idx: usize,
    i: usize,
    dim_len: usize,
    dim_stride: usize,
    s: usize,
    fitting: Fitting,
) -> f64 {
    if mask.is_none() {
        let step = s * dim_stride;
        match fitting {
            Fitting::Linear if i >= s && i + s < dim_len => {
                return 0.5 * (buf[idx - step] as f64 + buf[idx + step] as f64);
            }
            Fitting::Cubic if i >= 3 * s && i + 3 * s < dim_len => {
                let d0 = buf[idx - 3 * step] as f64;
                let d1 = buf[idx - step] as f64;
                let d2 = buf[idx + step] as f64;
                let d3 = buf[idx + 3 * step] as f64;
                return (9.0 / 16.0) * (d1 + d2) - (1.0 / 16.0) * (d0 + d3);
            }
            _ => {}
        }
    }

    let avail = |offset_steps: isize| -> Option<usize> {
        #[expect(
            clippy::cast_possible_wrap,
            reason = "frozen reference, kept verbatim; i and s index an allocated grid, so both are below isize::MAX"
        )]
        let pos = i as isize + offset_steps * s as isize;
        if pos < 0 || pos as usize >= dim_len {
            return None;
        }
        let j = idx - i * dim_stride + pos as usize * dim_stride;
        if mask.is_some_and(|m| !m[j]) {
            return None;
        }
        Some(j)
    };
    match fitting {
        Fitting::Linear => {
            let refs = [avail(-1), avail(1)];
            let c = linear_coeffs([refs[0].is_some(), refs[1].is_some()]);
            let mut p = 0.0f64;
            for (r, &coef) in refs.iter().zip(&c) {
                if let Some(j) = r {
                    p += coef * buf[*j] as f64;
                }
            }
            p
        }
        Fitting::Cubic => {
            let refs = [avail(-3), avail(-1), avail(1), avail(3)];
            let c = cubic_coeffs([
                refs[0].is_some(),
                refs[1].is_some(),
                refs[2].is_some(),
                refs[3].is_some(),
            ]);
            let mut p = 0.0f64;
            for (r, &coef) in refs.iter().zip(&c) {
                if let Some(j) = r {
                    p += coef * buf[*j] as f64;
                }
            }
            p
        }
    }
}
