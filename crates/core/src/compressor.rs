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

use crate::bytesio::{ByteReader, ByteWriter};
use crate::config::{Periodicity, PipelineConfig};
use crate::error::ClizError;
use crate::periodic::{add_template, build_template, subtract_template, template_mask};
use crate::pipeline::{
    compress_plain, compress_plain_alloc_baseline, compress_plain_with_recon, decompress_plain,
    PlainStats,
};
use crate::scratch::ScratchArena;
use cliz_format::spec::CLIZ;
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

/// Representative fill value: the first masked value in the data (CESM fill
/// constants are uniform per variable), or 0 when everything is valid.
fn representative_fill(data: &Grid<f32>, mask: Option<&MaskMap>) -> f32 {
    if let Some(m) = mask {
        for (i, &v) in data.as_slice().iter().enumerate() {
            if !m.is_valid(i) {
                return v;
            }
        }
    }
    0.0
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
    let effective_mask = match mask {
        Some(m) if config.use_mask && !m.is_all_valid() => Some(m),
        _ => None,
    };
    // Relative bounds always resolve against the *valid* value range when a
    // mask is supplied — even with `use_mask: false` (the ablation toggle
    // only disables mask-aware prediction/encoding, it must not let fill
    // values inflate the error budget by 30 orders of magnitude).
    // The range is read only by a `Rel` bound and by the periodic split's
    // rounding slack. Nested sections and chunked slabs arrive under a bound
    // already resolved to `Abs`, so a plain one skips the scan.
    let range_read = matches!(bound, ErrorBound::Rel(_))
        || matches!(config.periodicity, Periodicity::Extract { .. });
    let (mn, mx) = if range_read {
        valid_min_max(data, mask)
    } else {
        (0.0, 0.0)
    };
    let eb_abs = bound.resolve(mn, mx);
    let mut w = container_header(data, effective_mask, eb_abs);

    let mut stats = CompressStats {
        eb_abs,
        ..Default::default()
    };

    match config.periodicity {
        Periodicity::Extract { time_axis, period } => {
            w.u8(MODE_PERIODIC);
            w.u8(time_axis as u8);
            w.u32(period as u32);

            let inner_config = PipelineConfig {
                periodicity: Periodicity::None,
                ..config.clone()
            };

            // Template: per-phase mean, compressed as a nested container.
            let template = build_template(data, effective_mask, time_axis, period);
            let tmask = effective_mask.map(|m| template_mask(m, time_axis, period));
            let (t_bytes, t_stats, template_recon) = compress_template(
                &template,
                tmask.as_ref(),
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
            let residual = subtract_template(data, &template_recon, effective_mask, time_axis);
            let vmax = mn.abs().max(mx.abs()) as f64 + eb_abs;
            let eb_res = residual_eb(eb_abs, vmax);
            let (r_bytes, r_stats) = compress_with_stats_arena(
                &residual,
                effective_mask,
                ErrorBound::Abs(eb_res),
                &inner_config,
                arena,
            )?;
            w.block(&t_bytes);
            w.block(&r_bytes);
            stats.escapes = t_stats.escapes + r_stats.escapes;
            stats.classification_used = r_stats.classification_used;
            stats.periodic = true;
        }
        Periodicity::None => {
            w.u8(MODE_PLAIN);
            let plain: PlainStats =
                compress_plain(data, effective_mask, eb_abs, config, &mut w, arena)?;
            stats.escapes = plain.escapes;
            stats.classification_used = plain.classification_used;
        }
    }

    let bytes = w.finish();
    stats.compressed_bytes = bytes.len();
    Ok((bytes, stats))
}

/// A container's header up to its mode byte: magic, shape, the resolved
/// bound, the fill written at masked points, and whether the stream needs
/// the mask.
fn container_header(data: &Grid<f32>, mask: Option<&MaskMap>, eb_abs: f64) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.magic(&CLIZ);
    w.u8(data.shape().ndim() as u8);
    for &d in data.shape().dims() {
        w.u64(d as u64);
    }
    w.f64(eb_abs);
    w.f32(representative_fill(data, mask));
    w.u8(mask.is_some() as u8);
    w
}

/// The periodic split's template as the nested plain container that
/// [`compress_with_stats_arena`] would write for it under `ErrorBound::Abs(eb_abs)`,
/// with its stats and the reconstruction the decoder will see at every
/// valid point ([`compress_plain_with_recon`]).
fn compress_template(
    template: &Grid<f32>,
    tmask: Option<&MaskMap>,
    eb_abs: f64,
    config: &PipelineConfig,
    arena: &mut ScratchArena,
) -> Result<(Vec<u8>, PlainStats, Grid<f32>), ClizError> {
    let effective_mask = tmask.filter(|m| config.use_mask && !m.is_all_valid());
    let mut w = container_header(template, effective_mask, eb_abs);
    w.u8(MODE_PLAIN);
    let (stats, recon) =
        compress_plain_with_recon(template, effective_mask, eb_abs, config, &mut w, arena)?;
    Ok((w.finish(), stats, recon))
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
    let fill = representative_fill(data, effective_mask);

    let mut w = ByteWriter::new();
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
    let mut r = ByteReader::new(bytes);
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
            Ok(add_template(&residual, &template, mask, time_axis, fill))
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
        check_roundtrip(&g, None, ErrorBound::Abs(1e-3), &PipelineConfig::default_for(3));
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
    /// reconstruction as the encoder hands it back, not against a decode of
    /// the template's bytes, so the two must agree at every valid template
    /// point, bit for bit; and the template container must be the bytes the
    /// public entry point writes for it.
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
                            let (bytes, stats, recon) =
                                compress_template(&template, Some(&tmask), eb, &config, &mut arena)
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
                            let decoded = decompress(&bytes, Some(&tmask)).unwrap();
                            assert_eq!(recon.shape(), decoded.shape());
                            for i in (0..template.len()).filter(|&i| tmask.is_valid(i)) {
                                assert_eq!(
                                    recon.as_slice()[i].to_bits(),
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
        let bytes = compress(&g, None, ErrorBound::Abs(1e-3), &PipelineConfig::default_for(2))
            .unwrap();
        for frac in [4, 10, 30, bytes.len() - 1] {
            assert!(decompress(&bytes[..frac], None).is_err(), "cut {frac}");
        }
    }

    #[test]
    fn compression_actually_compresses_smooth_data() {
        let g = smooth(&[32, 64, 64]);
        let bytes = compress(&g, None, ErrorBound::Rel(1e-3), &PipelineConfig::default_for(3))
            .unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 8.0, "ratio only {ratio:.2}");
    }
}
