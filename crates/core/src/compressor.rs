//! Public compress/decompress API and the CLIZ container format.
//!
//! Container layout (little-endian):
//!
//! ```text
//! magic  u32  "CLIZ"
//! ver    u8   1
//! ndim   u8
//! dims   ndim × u64
//! eb     f64  resolved absolute bound
//! fill   f32  value written at masked positions on decompression
//! mask   u8   1 when the stream was compressed against a mask map
//! mode   u8   0 = plain pipeline, 1 = periodic template/residual split
//! mode 0: plain section (see `pipeline`)
//! mode 1: time_axis u8, period u32,
//!         template: length-prefixed nested CLIZ container,
//!         residual: length-prefixed nested CLIZ container
//! ```
//!
//! The mask map itself is **not** stored: as in CESM practice it is dataset
//! metadata shared out of band, and the paper's compression ratios likewise
//! exclude it. Decompressing a masked stream without the mask yields
//! [`ClizError::MaskRequired`].

use crate::config::{Periodicity, PipelineConfig};
use crate::error::ClizError;
use crate::periodic::{
    add_template, subtract_template_in_place, template_in_layout, template_mask, template_shape,
};
use crate::pipeline::{compress_plain_alloc_baseline, decompress_plain, encode_plain, PlainStats};
use crate::scratch::ScratchArena;
use cliz_format::{spec::CLIZ, HeaderReader, HeaderWriter};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_quant::ErrorBound;

const MODE_PLAIN: u8 = 0;
const MODE_PERIODIC: u8 = 1;

/// Accounting returned by [`compress_with_stats_arena`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompressStats {
    pub compressed_bytes: usize,
    /// The resolved absolute error bound actually enforced.
    pub eb_abs: f64,
    /// Escapes across all sections (template + residual for periodic mode).
    pub escapes: usize,
    /// Whether bin classification engaged in the main/residual section.
    pub classification_used: bool,
    /// Whether periodic extraction ran.
    pub periodic: bool,
}

/// Min/max of the data over valid, finite points — the range a [`ErrorBound::Rel`]
/// resolves against — or `(0, 0)` when there is none. Public so harnesses
/// can compute the matching absolute bound when driving mask-blind
/// baselines at equal fidelity. The scan is [`Grid::finite_min_max`]'s,
/// whose lanes may return a zero of either sign: the bound reads only
/// `|mx − mn|` and magnitudes.
///
/// # Panics
///
/// When `mask`'s shape differs from `data`'s.
pub fn valid_min_max(data: &Grid<f32>, mask: Option<&MaskMap>) -> (f32, f32) {
    data.finite_min_max(mask).unwrap_or((0.0, 0.0))
}

/// Representative fill value: the first masked value in the data, in its
/// original layout (CESM fill constants are uniform per variable), or 0
/// when everything is valid.
fn representative_fill(values: &[f32], mask: Option<&[bool]>) -> f32 {
    mask.and_then(|m| values.iter().zip(m).find(|&(_, &ok)| !ok))
        .map_or(0.0, |(&v, _)| v)
}

/// Compresses `data` to a self-describing CLIZ container.
///
/// `mask` marks invalid points (fill values); when `config.use_mask` is set
/// and the mask has invalid points, masked data is neither encoded nor used
/// for prediction, and the same mask must be passed to [`decompress`].
pub fn compress(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    bound: ErrorBound,
    config: &PipelineConfig,
) -> Result<Vec<u8>, ClizError> {
    let mut arena = ScratchArena::new();
    compress_with_stats_arena(data, mask, bound, config, &mut arena).map(|(bytes, _)| bytes)
}

/// [`compress`] plus accounting, with caller-supplied scratch buffers for
/// loops that compress many fields or slabs back to back (the chunked worker
/// pool gives each worker one arena). Output bytes are identical to
/// [`compress`], and the stats do not depend on the arena's history.
pub fn compress_with_stats_arena(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    bound: ErrorBound,
    config: &PipelineConfig,
    arena: &mut ScratchArena,
) -> Result<(Vec<u8>, CompressStats), ClizError> {
    config.validate(data.shape())?;
    if let Some(m) = mask {
        if m.shape() != data.shape() {
            return Err(ClizError::BadConfig("mask shape mismatch"));
        }
    }
    // Relative bounds always resolve against the *valid* value range when a
    // mask is supplied — even with `use_mask: false` (the ablation toggle
    // only disables mask-aware prediction/encoding, it must not let fill
    // values inflate the error budget by 30 orders of magnitude). Nested
    // sections and chunked slabs arrive under a bound already resolved to
    // `Abs`, so they scan only for the periodic split.
    let range = matches!(bound, ErrorBound::Rel(_)).then(|| valid_min_max(data, mask));
    let (mn, mx) = range.unwrap_or((0.0, 0.0));
    compress_resolved(
        Field {
            shape: data.shape(),
            values: data.as_slice(),
            mask: mask.map(MaskMap::as_slice),
        },
        bound.resolve(mn, mx),
        range,
        config,
        arena,
    )
}

/// A field in its original layout, borrowed: a whole grid, or one slab of
/// a chunked encode read in place from its field.
#[derive(Clone, Copy)]
pub(crate) struct Field<'a> {
    pub shape: &'a Shape,
    /// Row-major over `shape`.
    pub values: &'a [f32],
    /// Validity flags laid like `values`.
    pub mask: Option<&'a [bool]>,
}

/// [`compress_with_stats_arena`] past its input checks, under a bound
/// already resolved to `eb_abs`: the config is valid for the field and the
/// mask has its shape. `range` is the field's [`valid_min_max`] when the
/// caller has it, which only the periodic split reads (its residual
/// bound's rounding slack); a periodic config handed `None` measures it
/// here. The chunked encoder calls this per slab, on the slab's sub-slices
/// of the field, with the range its range pass measured.
///
/// The field is laid out once: its values are permuted straight into the
/// walk's arena buffer, and the mask the sections are encoded against
/// into the working mask (borrowed under the identity permutation). The
/// periodic split builds its template and template mask from that buffer
/// along the working time axis, encodes the template from its own
/// working-layout buffer, and subtracts the template's reconstruction in
/// place; the plain path hands the buffer to the walk as it is.
pub(crate) fn compress_resolved(
    field: Field<'_>,
    eb_abs: f64,
    range: Option<(f32, f32)>,
    config: &PipelineConfig,
    arena: &mut ScratchArena,
) -> Result<(Vec<u8>, CompressStats), ClizError> {
    let effective_mask = effective(field.mask, config);
    let fill = representative_fill(field.values, effective_mask);
    let mut w = container_header(field.shape, eb_abs, fill, effective_mask.is_some());

    let mut stats = CompressStats {
        eb_abs,
        ..Default::default()
    };

    // The one layout pass: values into the walk's buffer, and the mask.
    let perm = &config.permutation;
    let wshape = field.shape.permuted(perm);
    let mut buf = arena.take_f32();
    cliz_grid::permute_into(field.shape, field.values, perm, &mut buf);
    let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
    let wmask_storage = effective_mask.filter(|_| !identity).map(|m| {
        let mut flags = Vec::with_capacity(m.len());
        cliz_grid::permute_into(field.shape, m, perm, &mut flags);
        flags
    });
    let wmask = wmask_storage.as_deref().or(effective_mask);

    match config.periodicity {
        Periodicity::Extract { time_axis, period } => {
            w.u8(MODE_PERIODIC);
            w.u8(time_axis as u8);
            w.u32(period as u32);

            let inner_config = PipelineConfig {
                periodicity: Periodicity::None,
                ..config.clone()
            };
            let working_time_axis = perm
                .iter()
                .position(|&p| p == time_axis)
                .ok_or(ClizError::BadConfig("time axis out of range"))?;

            // Template: per-phase mean, compressed as a nested container,
            // built and encoded in the working layout.
            let mut t_buf = arena.take_f32();
            let tmask =
                template_in_layout(&buf, &wshape, wmask, working_time_axis, period, &mut t_buf);
            let (t_bytes, t_stats, t_working) = compress_template(
                t_buf,
                &template_shape(field.shape, time_axis, period),
                tmask.as_deref(),
                template_eb(eb_abs, config.template_eb_factor),
                &inner_config,
                arena,
            )?;
            // The residual is taken against what the decoder will actually
            // see, so the user bound rides entirely on the residual stage —
            // minus a small slack for the two f32 roundings on the path
            // (data − template at encode, residual + template at decode),
            // each bounded by half a ULP of the operand magnitude. Without
            // this the reconstruction can land a fraction of a ULP past eb.
            let (mn, mx) = range.unwrap_or_else(|| {
                cliz_grid::finite_range(field.values, field.mask).unwrap_or((0.0, 0.0))
            });
            let vmax = mn.abs().max(mx.abs()) as f64 + eb_abs;
            let eb_res = residual_eb(eb_abs, vmax);
            // The residual section: the container `compress_with_stats_arena`
            // writes for `subtract_template`'s grid under `Abs(eb_res)`,
            // whose masked points are 0.0, and so is its fill. The residual
            // is built in the walk's buffer instead: the permuted data minus
            // the template's buffer, both in the working layout.
            subtract_template_in_place(
                &mut buf,
                &wshape,
                &t_working,
                wmask,
                working_time_axis,
                period,
            );
            let mut r = container_header(field.shape, eb_res, 0.0, effective_mask.is_some());
            r.u8(MODE_PLAIN);
            let (r_stats, r_buf) =
                encode_plain(buf, &wshape, wmask, eb_res, &inner_config, &mut r, arena)?;
            // The template's buffer goes back first, so the next field's
            // first take gets the larger one.
            arena.recycle_f32(t_working);
            arena.recycle_f32(r_buf);
            w.block(&t_bytes);
            w.block(&r.finish());
            stats.escapes = t_stats.escapes + r_stats.escapes;
            stats.classification_used = r_stats.classification_used;
            stats.periodic = true;
        }
        Periodicity::None => {
            w.u8(MODE_PLAIN);
            let (plain, buf) = encode_plain(buf, &wshape, wmask, eb_abs, config, &mut w, arena)?;
            arena.recycle_f32(buf);
            stats.escapes = plain.escapes;
            stats.classification_used = plain.classification_used;
        }
    }

    let bytes = w.finish();
    stats.compressed_bytes = bytes.len();
    Ok((bytes, stats))
}

/// The mask the pipeline reads: `mask` when the config uses it and it has
/// an invalid point, else none.
fn effective<'m>(mask: Option<&'m [bool]>, config: &PipelineConfig) -> Option<&'m [bool]> {
    mask.filter(|m| config.use_mask && m.contains(&false))
}

/// A container's header up to its mode byte: magic, shape, the resolved
/// bound, the fill written at masked points, and whether the stream needs
/// the mask.
fn container_header(shape: &Shape, eb_abs: f64, fill: f32, masked: bool) -> HeaderWriter {
    let mut w = HeaderWriter::new();
    w.magic(&CLIZ);
    w.u8(shape.ndim() as u8);
    for &d in shape.dims() {
        w.u64(d as u64);
    }
    w.f64(eb_abs);
    w.f32(fill);
    w.u8(masked as u8);
    w
}

/// The periodic split's template section: the nested plain container that
/// [`compress_with_stats_arena`] would write for the template under
/// `ErrorBound::Abs(eb_abs)`, with its stats and the walk's buffer, the
/// reconstruction the decoder will see at every valid point, in the
/// working layout ([`encode_plain`]). The buffer is `arena`'s.
///
/// `t_buf` is the template already in the working layout (`t_shape`, its
/// original-layout shape, permuted by `config.permutation`), and `tmask`
/// its template mask laid alike. The header keeps `t_shape`'s dims. Its
/// fill is 0.0: a template cell is invalid only when its phase column has
/// no valid point, so no value reached it and it holds 0.0.
fn compress_template(
    t_buf: Vec<f32>,
    t_shape: &Shape,
    tmask: Option<&[bool]>,
    eb_abs: f64,
    config: &PipelineConfig,
    arena: &mut ScratchArena,
) -> Result<(Vec<u8>, PlainStats, Vec<f32>), ClizError> {
    let effective_mask = effective(tmask, config);
    debug_assert!(representative_fill(&t_buf, effective_mask) == 0.0);
    let mut w = container_header(t_shape, eb_abs, 0.0, effective_mask.is_some());
    w.u8(MODE_PLAIN);
    let t_wshape = t_shape.permuted(&config.permutation);
    let (stats, working) = encode_plain(
        t_buf,
        &t_wshape,
        effective_mask,
        eb_abs,
        config,
        &mut w,
        arena,
    )?;
    Ok((w.finish(), stats, working))
}

/// Error bound handed to the template stage of periodic mode. Kept as a named
/// helper so every scaling of the user's bound is auditable in one place
/// (xtask rule R8).
#[inline]
fn template_eb(eb_abs: f64, factor: f64) -> f64 {
    eb_abs * factor
}

/// Error bound for the residual stage of periodic mode: the user bound minus
/// a small slack for the two f32 roundings on the template path (data −
/// template at encode, residual + template at decode), each bounded by half a
/// ULP of the operand magnitude — without it the reconstruction can land a
/// fraction of a ULP past eb. Floored at half the user bound so a huge vmax
/// can never drive the residual bound to zero (xtask rule R8).
#[inline]
fn residual_eb(eb_abs: f64, vmax: f64) -> f64 {
    let slack = 4.0 * vmax * f64::from(f32::EPSILON);
    (eb_abs - slack).max(eb_abs * 0.5)
}

/// Frozen pre-optimization compressor: identical container bytes to
/// [`compress`], produced via [`compress_plain_alloc_baseline`] (the
/// allocate-everything pipeline). Plain mode only — periodic configs return
/// `BadConfig`, since the baseline exists to differentially test the hot
/// plain path, not to duplicate the periodic recursion.
///
/// Do not "optimize" this function — its independence from the optimized
/// path *is* its purpose: the differential tests assert byte identity
/// against it.
#[doc(hidden)]
pub fn compress_alloc_baseline(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    bound: ErrorBound,
    config: &PipelineConfig,
) -> Result<Vec<u8>, ClizError> {
    config.validate(data.shape())?;
    if let Some(m) = mask {
        if m.shape() != data.shape() {
            return Err(ClizError::BadConfig("mask shape mismatch"));
        }
    }
    if !matches!(config.periodicity, Periodicity::None) {
        return Err(ClizError::BadConfig(
            "alloc baseline covers plain mode only",
        ));
    }
    let effective_mask = match mask {
        Some(m) if config.use_mask && !m.is_all_valid() => Some(m),
        _ => None,
    };
    let (mn, mx) = valid_min_max(data, mask);
    let eb_abs = bound.resolve(mn, mx);
    let fill = representative_fill(data.as_slice(), effective_mask.map(MaskMap::as_slice));

    let mut w = HeaderWriter::new();
    w.magic(&CLIZ);
    w.u8(data.shape().ndim() as u8);
    for &d in data.shape().dims() {
        w.u64(d as u64);
    }
    w.f64(eb_abs);
    w.f32(fill);
    w.u8(effective_mask.is_some() as u8);
    w.u8(MODE_PLAIN);
    compress_plain_alloc_baseline(data, effective_mask, eb_abs, config, &mut w)?;
    Ok(w.finish())
}

/// Decompresses a CLIZ container. Streams compressed with a mask require the
/// same mask here.
pub fn decompress(bytes: &[u8], mask: Option<&MaskMap>) -> Result<Grid<f32>, ClizError> {
    let mut arena = ScratchArena::new();
    decompress_arena(bytes, mask, &mut arena)
}

/// [`decompress`] with caller-supplied scratch buffers; same output, fewer
/// allocations when decoding many containers (or chunked slabs) in a loop.
pub fn decompress_arena(
    bytes: &[u8],
    mask: Option<&MaskMap>,
    arena: &mut ScratchArena,
) -> Result<Grid<f32>, ClizError> {
    let mut r = HeaderReader::new(bytes);
    r.expect_magic(&CLIZ)?;
    let ndim = r.u8()? as usize;
    if ndim == 0 || ndim > cliz_grid::shape::MAX_DIMS {
        return Err(ClizError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let d = r.u64()? as usize;
        if d == 0 {
            return Err(ClizError::Corrupt("zero dimension"));
        }
        dims.push(d);
    }
    // Reject corrupt headers before any multiplication can overflow or any
    // allocation can explode: the element count must fit comfortably and
    // cannot exceed what the (compressed!) stream could plausibly describe.
    let total = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(ClizError::Corrupt("dimension overflow"))?;
    if total > (1usize << 42) {
        return Err(ClizError::Corrupt("implausible element count"));
    }
    let eb_abs = r.f64()?;
    if eb_abs.is_nan() || eb_abs <= 0.0 {
        return Err(ClizError::Corrupt("bad error bound"));
    }
    let fill = r.f32()?;
    let uses_mask = r.u8()? != 0;
    let shape = Shape::new(&dims);
    let mask = if uses_mask {
        match mask {
            Some(m) if m.shape() == &shape => Some(m),
            _ => return Err(ClizError::MaskRequired),
        }
    } else {
        None
    };

    match r.u8()? {
        MODE_PLAIN => decompress_plain(&mut r, &dims, eb_abs, mask, fill, arena),
        MODE_PERIODIC => {
            let time_axis = r.u8()? as usize;
            let period = r.u32()? as usize;
            if time_axis >= ndim || period < 2 || period >= dims[time_axis] {
                return Err(ClizError::Corrupt("bad periodic parameters"));
            }
            let t_bytes = r.block()?;
            let r_bytes = r.block()?;
            let tmask = mask.map(|m| template_mask(m, time_axis, period));
            let template = decompress_arena(t_bytes, tmask.as_ref(), arena)?;
            let residual = decompress_arena(r_bytes, mask, arena)?;
            if template.shape() != &crate::periodic::template_shape(&shape, time_axis, period)
                || residual.shape() != &shape
            {
                return Err(ClizError::Corrupt("periodic shape mismatch"));
            }
            Ok(add_template(residual, &template, mask, time_axis, fill))
        }
        _ => Err(ClizError::Corrupt("unknown mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::FusionSpec;

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.13 * (k + 1) as f64).sin() * 4.0;
            }
            v as f32
        })
    }

    fn check_roundtrip(
        data: &Grid<f32>,
        mask: Option<&MaskMap>,
        bound: ErrorBound,
        config: &PipelineConfig,
    ) -> CompressStats {
        let (bytes, stats) =
            compress_with_stats_arena(data, mask, bound, config, &mut ScratchArena::new()).unwrap();
        let out = decompress(&bytes, mask).unwrap();
        assert_eq!(out.shape(), data.shape());
        for (i, (&a, &b)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
            if mask.is_none_or(|m| m.is_valid(i)) {
                assert!(
                    (a as f64 - b as f64).abs() <= stats.eb_abs * (1.0 + 1e-12),
                    "bound violated at {i}: {a} vs {b} (eb {})",
                    stats.eb_abs
                );
            }
        }
        stats
    }

    #[test]
    fn plain_roundtrip_abs_bound() {
        let g = smooth(&[9, 17, 21]);
        check_roundtrip(
            &g,
            None,
            ErrorBound::Abs(1e-3),
            &PipelineConfig::default_for(3),
        );
    }

    #[test]
    fn plain_roundtrip_rel_bound() {
        let g = smooth(&[30, 40]);
        let stats = check_roundtrip(
            &g,
            None,
            ErrorBound::Rel(1e-3),
            &PipelineConfig::default_for(2),
        );
        let (mn, mx) = g.finite_min_max(None).unwrap();
        assert!((stats.eb_abs - 1e-3 * (mx - mn) as f64).abs() < 1e-9);
    }

    #[test]
    fn periodic_roundtrip() {
        // Station offset + annual cycle + small trend.
        let g = Grid::from_fn(Shape::new(&[6, 48]), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[1] % 12) as f64 / 12.0;
            (c[0] as f64 * 5.0 + 3.0 * phase.sin() + c[1] as f64 * 0.01) as f32
        });
        let mut config = PipelineConfig::default_for(2);
        config.periodicity = Periodicity::Extract {
            time_axis: 1,
            period: 12,
        };
        let stats = check_roundtrip(&g, None, ErrorBound::Abs(1e-3), &config);
        assert!(stats.periodic);
    }

    #[test]
    fn periodic_beats_plain_on_periodic_data() {
        let g = Grid::from_fn(Shape::new(&[16, 120]), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[1] % 12) as f64 / 12.0;
            // Per-station random-ish phase pattern repeated every 12 steps.
            let station = (c[0] as f64 * 7.7).sin() * 20.0;
            (station + 8.0 * (phase + c[0] as f64).sin()) as f32
        });
        let plain = PipelineConfig::default_for(2);
        let periodic = PipelineConfig {
            periodicity: Periodicity::Extract {
                time_axis: 1,
                period: 12,
            },
            ..plain.clone()
        };
        let b_plain = compress(&g, None, ErrorBound::Abs(1e-4), &plain).unwrap();
        let b_per = compress(&g, None, ErrorBound::Abs(1e-4), &periodic).unwrap();
        assert!(
            b_per.len() < b_plain.len(),
            "periodic {} !< plain {}",
            b_per.len(),
            b_plain.len()
        );
    }

    #[test]
    fn masked_roundtrip_and_mask_required() {
        let mut g = smooth(&[20, 20]);
        let mut valid = vec![true; 400];
        for (i, (v, ok)) in g.as_mut_slice().iter_mut().zip(&mut valid).enumerate() {
            if (i / 20 + i % 20) % 5 == 0 {
                *v = 9.96921e36; // CESM-style fill
                *ok = false;
            }
        }
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let config = PipelineConfig::default_for(2);
        check_roundtrip(&g, Some(&mask), ErrorBound::Abs(1e-3), &config);

        let bytes = compress(&g, Some(&mask), ErrorBound::Abs(1e-3), &config).unwrap();
        assert_eq!(decompress(&bytes, None), Err(ClizError::MaskRequired));
        // Masked positions come back as the representative fill.
        let out = decompress(&bytes, Some(&mask)).unwrap();
        for i in 0..400 {
            if !mask.is_valid(i) {
                assert_eq!(out.as_slice()[i], 9.96921e36);
            }
        }
    }

    #[test]
    fn full_cliz_pipeline_roundtrip() {
        // Everything on at once: permutation, fusion, classification,
        // periodicity, mask.
        let mut g = Grid::from_fn(Shape::new(&[10, 24, 16]), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[1] % 6) as f64 / 6.0;
            (c[0] as f64 * 2.0 + phase.cos() * 5.0 + c[2] as f64 * 0.1) as f32
        });
        let mut valid = vec![true; g.len()];
        for (i, v) in valid.iter_mut().enumerate() {
            if i % 11 == 0 {
                g.as_mut_slice()[i] = 1e35;
                *v = false;
            }
        }
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let config = PipelineConfig {
            permutation: vec![1, 0, 2],
            fusion: FusionSpec { start: 1, len: 2 },
            classification: true,
            periodicity: Periodicity::Extract {
                time_axis: 1,
                period: 6,
            },
            ..PipelineConfig::default_for(3)
        };
        check_roundtrip(&g, Some(&mask), ErrorBound::Rel(1e-3), &config);
    }

    /// The periodic encoder takes its residual against the template's
    /// reconstruction as the encoder hands it back, in the working layout,
    /// not against a decode of the template's bytes, so the walk's buffer
    /// must equal the decode permuted into that layout at every valid
    /// template point, bit for bit; and the template container must be the
    /// bytes the public entry point writes for it.
    #[test]
    fn template_reconstruction_equals_its_decode() {
        use crate::periodic::{build_template, template_mask};

        let shape = Shape::new(&[6, 10, 24]);
        let g = Grid::from_fn(shape.clone(), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[2] % 6) as f64 / 6.0;
            let spike = if (c[0] + c[1] + c[2]) % 37 == 0 {
                40.0
            } else {
                0.0
            };
            (c[0] as f64 * 1.5 + (c[1] as f64 * 0.4).sin() * 3.0 + 2.0 * phase.sin() + spike) as f32
        });
        let n = g.len();
        // Land constant along time (its template mask has land too), and a
        // mask whose only invalid points lie in the first cycle (its
        // template mask is all valid).
        let land = (0..n)
            .map(|i| (i / 240 + 2 * (i / 24 % 10)) % 7 != 3)
            .collect();
        let first_cycle = (0..n).map(|i| i % 24 >= 6 || i % 5 != 0).collect();
        let masks = [land, first_cycle].map(|m| MaskMap::from_flags(shape.clone(), m));
        assert!(!template_mask(&masks[0], 2, 6).is_all_valid());
        assert!(template_mask(&masks[1], 2, 6).is_all_valid());

        let mut escapes = 0;
        for mask in &masks {
            let template = build_template(&g, Some(mask), 2, 6);
            let tmask = template_mask(mask, 2, 6);
            for fitting in [cliz_predict::Fitting::Linear, cliz_predict::Fitting::Cubic] {
                for permutation in [vec![0, 1, 2], vec![2, 0, 1]] {
                    for classification in [false, true] {
                        for eb in [1e-2, 1e-5] {
                            let config = PipelineConfig {
                                permutation: permutation.clone(),
                                fitting,
                                classification,
                                ..PipelineConfig::default_for(3)
                            };
                            let tag = format!("{fitting:?} {permutation:?} {classification} {eb}");
                            let mut arena = ScratchArena::new();
                            // The template and its mask as the encoder
                            // builds them: in the working layout.
                            let mut t_buf = arena.take_f32();
                            template.permuted_into(&permutation, &mut t_buf);
                            let wmask = tmask.permuted(&permutation);
                            let (bytes, stats, working) = compress_template(
                                t_buf,
                                template.shape(),
                                Some(wmask.as_slice()),
                                eb,
                                &config,
                                &mut arena,
                            )
                            .unwrap();
                            escapes += stats.escapes;
                            let (public, _) = compress_with_stats_arena(
                                &template,
                                Some(&tmask),
                                ErrorBound::Abs(eb),
                                &config,
                                &mut arena,
                            )
                            .unwrap();
                            assert_eq!(bytes, public, "container bytes: {tag}");
                            let decoded = decompress(&bytes, Some(&tmask))
                                .unwrap()
                                .permuted(&permutation);
                            assert_eq!(working.len(), decoded.len());
                            for i in (0..working.len()).filter(|&i| wmask.is_valid(i)) {
                                assert_eq!(
                                    working[i].to_bits(),
                                    decoded.as_slice()[i].to_bits(),
                                    "at {i}: {tag}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            escapes > 0,
            "no template escaped, so no literal was compared"
        );
    }

    /// The residual section, built in the walk's buffer, is the container
    /// the public entry point writes for `subtract_template`'s residual grid
    /// taken against the decoded template, under the residual bound: every
    /// permutation of a 3-D field, masks none, land and scattered, the mask
    /// used and ignored, both fittings, classification on and off.
    #[test]
    fn residual_section_equals_the_residual_grid_container() {
        use crate::periodic::{build_template, subtract_template, template_mask};

        let shape = Shape::new(&[5, 6, 22]);
        let g = Grid::from_fn(shape.clone(), |c| {
            let phase = 2.0 * std::f64::consts::PI * (c[2] % 6) as f64 / 6.0;
            (c[0] as f64 * 1.5 + (c[1] as f64 * 0.4).sin() * 3.0 + 2.0 * phase.sin()) as f32
        });
        let n = g.len();
        let land = (0..n).map(|i| (i / 22) % 5 != 2).collect();
        let scattered = (0..n).map(|i| i % 7 != 3).collect();
        let masks = [land, scattered].map(|m| MaskMap::from_flags(shape.clone(), m));
        let bound = ErrorBound::Rel(1e-3);
        for mask in [None, Some(&masks[0]), Some(&masks[1])] {
            for permutation in Shape::all_permutations(3) {
                for (use_mask, fitting, classification) in [
                    (true, cliz_predict::Fitting::Cubic, false),
                    (true, cliz_predict::Fitting::Linear, true),
                    (false, cliz_predict::Fitting::Cubic, false),
                ] {
                    let config = PipelineConfig {
                        permutation: permutation.clone(),
                        fitting,
                        classification,
                        use_mask,
                        periodicity: Periodicity::Extract {
                            time_axis: 2,
                            period: 6,
                        },
                        ..PipelineConfig::default_for(3)
                    };
                    let tag = format!("{permutation:?} mask {} {use_mask}", mask.is_some());
                    let (bytes, stats) = compress_with_stats_arena(
                        &g,
                        mask,
                        bound,
                        &config,
                        &mut ScratchArena::new(),
                    )
                    .unwrap();
                    let mut r = HeaderReader::new(&bytes);
                    r.expect_magic(&CLIZ).unwrap();
                    for _ in 0..r.u8().unwrap() {
                        r.u64().unwrap();
                    }
                    r.f64().unwrap();
                    r.f32().unwrap();
                    r.u8().unwrap();
                    assert_eq!(r.u8().unwrap(), MODE_PERIODIC, "{tag}");
                    r.u8().unwrap();
                    r.u32().unwrap();
                    let (t_bytes, r_bytes) = (r.block().unwrap(), r.block().unwrap());

                    let eff = effective(mask.map(MaskMap::as_slice), &config).and(mask);
                    let tmask = eff.map(|m| template_mask(m, 2, 6));
                    let template = decompress(t_bytes, tmask.as_ref()).unwrap();
                    assert_eq!(template.shape(), build_template(&g, eff, 2, 6).shape());
                    let residual = subtract_template(&g, &template, eff, 2);
                    let (mn, mx) = valid_min_max(&g, mask);
                    let eb_res =
                        residual_eb(stats.eb_abs, mn.abs().max(mx.abs()) as f64 + stats.eb_abs);
                    let inner = PipelineConfig {
                        periodicity: Periodicity::None,
                        ..config.clone()
                    };
                    let (want, _) = compress_with_stats_arena(
                        &residual,
                        eff,
                        ErrorBound::Abs(eb_res),
                        &inner,
                        &mut ScratchArena::new(),
                    )
                    .unwrap();
                    assert_eq!(r_bytes, want.as_slice(), "{tag}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask shape")]
    fn valid_min_max_rejects_a_shorter_mask() {
        let g = Grid::from_vec(Shape::new(&[8]), (0..8).map(|i| i as f32).collect());
        let mask = MaskMap::all_valid(Shape::new(&[4]));
        valid_min_max(&g, Some(&mask));
    }

    #[test]
    #[should_panic(expected = "mask shape")]
    fn valid_min_max_rejects_a_longer_mask() {
        let g = Grid::from_vec(Shape::new(&[4]), (0..4).map(|i| i as f32).collect());
        let mask = MaskMap::all_valid(Shape::new(&[8]));
        valid_min_max(&g, Some(&mask));
    }

    #[test]
    fn garbage_input_rejected() {
        assert_eq!(decompress(b"nonsense", None), Err(ClizError::BadMagic));
        assert!(decompress(&[0x5A, 0x49], None).is_err());
    }

    #[test]
    fn truncated_container_rejected() {
        let g = smooth(&[16, 16]);
        let bytes = compress(
            &g,
            None,
            ErrorBound::Abs(1e-3),
            &PipelineConfig::default_for(2),
        )
        .unwrap();
        for frac in [4, 10, 30, bytes.len() - 1] {
            assert!(decompress(&bytes[..frac], None).is_err(), "cut {frac}");
        }
    }

    #[test]
    fn compression_actually_compresses_smooth_data() {
        let g = smooth(&[32, 64, 64]);
        let bytes = compress(
            &g,
            None,
            ErrorBound::Rel(1e-3),
            &PipelineConfig::default_for(3),
        )
        .unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 8.0, "ratio only {ratio:.2}");
    }
}
