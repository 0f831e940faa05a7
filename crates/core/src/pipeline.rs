//! The plain (non-periodic) compression pipeline: permute → fuse → predict →
//! quantize → classify → (multi-)Huffman → lossless backend.
//!
//! Periodic extraction wraps this pipeline twice (template + residual); see
//! [`crate::compressor`].
//!
//! Decode validates each untrusted section once per concern: the symbol
//! count here, right after the entropy decode, and the escape count and
//! quantizer radius in `cliz_predict::reconstruct`, whose pre-pass runs
//! before the walk writes anything.

use crate::bytesio::{ByteReader, ByteWriter};
use crate::config::PipelineConfig;
use crate::error::ClizError;
use crate::scratch::ScratchArena;
use cliz_entropy::{huffman, multi_decode, multi_encode};
use cliz_grid::{fuse_shape, Grid, MaskMap};
use cliz_predict::{
    predict_quantize, reconstruct, Fitting, InterpParams, ReconstructError, Stretches,
};
use cliz_quant::{
    classify::{apply_shifts, classify, unapply_shifts, Classification, ClassifySpec},
    LinearQuantizer, ESCAPE,
};

/// Per-run accounting surfaced by [`crate::compress_with_stats_arena`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlainStats {
    /// Unpredictable points stored literally.
    pub escapes: usize,
    /// Whether classification actually engaged (it auto-disables on layouts
    /// with no slice aggregation or when the map comes out trivial).
    pub classification_used: bool,
    /// Size of the lossless-compressed payload in bytes.
    pub payload_bytes: usize,
}

fn fitting_to_u8(f: Fitting) -> u8 {
    match f {
        Fitting::Linear => 0,
        Fitting::Cubic => 1,
    }
}

fn fitting_from_u8(v: u8) -> Result<Fitting, ClizError> {
    match v {
        0 => Ok(Fitting::Linear),
        1 => Ok(Fitting::Cubic),
        _ => Err(ClizError::Corrupt("unknown fitting id")),
    }
}

/// Classification needs a horizontal plane plus at least two slices to
/// aggregate over; returns the plane size when the layout qualifies.
fn classification_plane(dims: &[usize]) -> Option<usize> {
    if dims.len() < 2 {
        return None;
    }
    let h_len = dims[dims.len() - 2] * dims[dims.len() - 1];
    let slices: usize = dims[..dims.len() - 2].iter().product();
    (slices >= 2).then_some(h_len)
}

/// Compresses one grid with the plain pipeline, appending to `out`.
///
/// The zero-copy hot path: an identity permutation borrows the input grid
/// (and mask) instead of cloning it, the working/symbol buffers come from
/// `arena` and go back to it before returning, and unmasked data feeds the
/// entropy coder straight from the symbol grid with no gather pass. Output
/// bytes are identical to [`compress_plain_alloc_baseline`] — the arena only
/// changes where the intermediate buffers live, never what is written.
pub fn compress_plain(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    eb_abs: f64,
    config: &PipelineConfig,
    out: &mut ByteWriter,
    arena: &mut ScratchArena,
) -> Result<PlainStats, ClizError> {
    let (stats, buf) = encode_plain(data, mask, eb_abs, config, out, arena)?;
    arena.recycle_f32(buf);
    Ok(stats)
}

/// [`compress_plain`] that also hands back the section's reconstruction in
/// `data`'s layout: at every valid point, the value [`decompress_plain`]
/// will decode from the bytes written, bit for bit (the walk's in-place
/// buffer, un-permuted; un-fusing is a reshape). A masked point keeps its
/// value from `data`. The periodic encoder takes its residual against this
/// instead of decoding the template it has just encoded.
pub(crate) fn compress_plain_with_recon(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    eb_abs: f64,
    config: &PipelineConfig,
    out: &mut ByteWriter,
    arena: &mut ScratchArena,
) -> Result<(PlainStats, Grid<f32>), ClizError> {
    let (stats, buf) = encode_plain(data, mask, eb_abs, config, out, arena)?;
    let perm = &config.permutation;
    let working = Grid::from_vec(data.shape().permuted(perm), buf);
    let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
    let recon = if identity {
        working
    } else {
        working.unpermuted(perm)
    };
    Ok((stats, recon))
}

/// The plain pipeline behind [`compress_plain`]: writes the section and
/// returns its stats and the walk's buffer, the reconstruction in the
/// working layout.
fn encode_plain(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    eb_abs: f64,
    config: &PipelineConfig,
    out: &mut ByteWriter,
    arena: &mut ScratchArena,
) -> Result<(PlainStats, Vec<f32>), ClizError> {
    // 1. Physical permutation (data and mask travel together). The identity
    //    permutation is the common tuned outcome and must not copy: borrow
    //    the caller's grid, materialize only a genuinely permuted layout.
    let identity = config.permutation.iter().enumerate().all(|(i, &p)| i == p);
    let permuted_storage: Option<Grid<f32>> =
        (!identity).then(|| data.permuted(&config.permutation));
    let working: &Grid<f32> = permuted_storage.as_ref().unwrap_or(data);
    let mask_active = match mask {
        Some(m) => config.use_mask && !m.is_all_valid(),
        None => false,
    };
    let wmask_storage: Option<MaskMap> = match mask {
        Some(m) if mask_active && !identity => Some(m.permuted(&config.permutation)),
        _ => None,
    };
    let wmask: Option<&MaskMap> = if mask_active {
        wmask_storage.as_ref().or(mask)
    } else {
        None
    };
    let mask_slice = wmask.map(|m| m.as_slice());

    // 2. Fusion: pure reshape of the working layout.
    let fused = fuse_shape(working.shape(), config.fusion);
    let dims = fused.dims().to_vec();

    // 3. Predict + quantize into a raster-order symbol grid. The prediction
    //    buffer must be a mutable copy (the predictor overwrites it with the
    //    reconstruction), but its backing store is recycled across calls.
    //    A masked section's stretches are built once, here, and drive the
    //    walk and the symbol gather.
    let quantizer = LinearQuantizer::new(eb_abs);
    let stretches = mask_slice.map(|m| Stretches::new(m, dims[dims.len() - 1]));
    let params = match (mask_slice, &stretches) {
        (Some(m), Some(st)) => InterpParams::with_stretches(config.fitting, m, st),
        _ => InterpParams::new(config.fitting),
    };
    let mut buf = arena.take_f32();
    buf.extend_from_slice(working.as_slice());
    let mut symbols = arena.take_u32();
    symbols.resize(buf.len(), 0);
    let escapes = predict_quantize(&mut buf, &dims, &params, &quantizer, &mut symbols);

    // 4. Optional classification (may auto-disable).
    let mut class: Option<Classification> = None;
    if config.classification {
        if let Some(h_len) = classification_plane(&dims) {
            let spec = ClassifySpec {
                lambda: config.lambda,
                ..ClassifySpec::default()
            };
            let c = classify(&symbols, h_len, mask_slice, spec);
            if !c.is_trivial() {
                apply_shifts(&mut symbols, &c, mask_slice);
                class = Some(c);
            }
        }
    }

    // 5. Entropy-code the valid symbols. Without a mask every symbol is
    //    valid, so the coder reads the symbol grid in place — the gather
    //    pass (and its full-size allocation) only runs for masked data, and
    //    copies whole stretches.
    let mut gathered = arena.take_u32();
    let valid_symbols: &[u32] = match &stretches {
        Some(st) => {
            st.gather(&symbols, &mut gathered);
            &gathered
        }
        None => &symbols,
    };
    let stream = match &class {
        Some(c) => {
            let groups = c.group_sequence(symbols.len(), mask_slice);
            multi_encode(valid_symbols, &groups, 2)
        }
        None => huffman::encode_stream(valid_symbols),
    };

    // 6. Literals for escapes, in raster order over valid positions. The
    //    walk counted them, so a section without one skips the scan.
    let mut literals = Vec::with_capacity(escapes * 4);
    if escapes > 0 {
        for (i, (&s, &v)) in symbols.iter().zip(&buf).enumerate() {
            if s == ESCAPE && mask_slice.is_none_or(|m| m[i]) {
                literals.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    debug_assert_eq!(literals.len(), escapes * 4);

    // 7. Assemble payload and squeeze with the lossless backend.
    let mut payload = ByteWriter::new();
    match &class {
        Some(c) => payload.block(&c.marker_bytes()),
        None => payload.block(&[]),
    }
    payload.block(&stream);
    payload.raw(&literals);
    let packed = cliz_lossless::compress(&payload.finish());

    // 8. Section header + payload.
    for &p in &config.permutation {
        out.u8(p as u8);
    }
    out.u8(config.fusion.start as u8);
    out.u8(config.fusion.len as u8);
    out.u8(fitting_to_u8(config.fitting));
    out.u8(class.is_some() as u8);
    out.u64(escapes as u64);
    out.block(&packed);

    arena.recycle_u32(symbols);
    arena.recycle_u32(gathered);

    let stats = PlainStats {
        escapes,
        classification_used: class.is_some(),
        payload_bytes: packed.len(),
    };
    Ok((stats, buf))
}

/// Frozen pre-optimization reference implementation of [`compress_plain`]:
/// clones the grid even for identity permutations, allocates every scratch
/// buffer fresh, and always gathers valid symbols. Kept verbatim as the
/// differential oracle the parallel/arena tests compare bytes against. Do
/// not "optimize" this function — its independence from the optimized path
/// *is* its purpose.
#[doc(hidden)]
pub fn compress_plain_alloc_baseline(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    eb_abs: f64,
    config: &PipelineConfig,
    out: &mut ByteWriter,
) -> Result<PlainStats, ClizError> {
    let identity = config.permutation.iter().enumerate().all(|(i, &p)| i == p);
    let working = if identity {
        data.clone()
    } else {
        data.permuted(&config.permutation)
    };
    let wmask: Option<MaskMap> = match mask {
        Some(m) if config.use_mask && !m.is_all_valid() => Some(if identity {
            m.clone()
        } else {
            m.permuted(&config.permutation)
        }),
        _ => None,
    };
    let mask_slice = wmask.as_ref().map(|m| m.as_slice());

    let fused = fuse_shape(working.shape(), config.fusion);
    let dims = fused.dims().to_vec();

    let quantizer = LinearQuantizer::new(eb_abs);
    let params = match mask_slice {
        Some(m) => InterpParams::with_mask(config.fitting, m),
        None => InterpParams::new(config.fitting),
    };
    let mut buf = working.as_slice().to_vec();
    let mut symbols = vec![0u32; buf.len()];
    let escapes = predict_quantize(&mut buf, &dims, &params, &quantizer, &mut symbols);

    let mut class: Option<Classification> = None;
    if config.classification {
        if let Some(h_len) = classification_plane(&dims) {
            let spec = ClassifySpec {
                lambda: config.lambda,
                ..ClassifySpec::default()
            };
            let c = classify(&symbols, h_len, mask_slice, spec);
            if !c.is_trivial() {
                apply_shifts(&mut symbols, &c, mask_slice);
                class = Some(c);
            }
        }
    }

    let valid_symbols: Vec<u32> = match mask_slice {
        Some(m) => symbols
            .iter()
            .zip(m)
            .filter(|&(_, &v)| v)
            .map(|(&s, _)| s)
            .collect(),
        None => symbols.clone(),
    };
    let stream = match &class {
        Some(c) => {
            let groups = c.group_sequence(symbols.len(), mask_slice);
            multi_encode(&valid_symbols, &groups, 2)
        }
        None => huffman::encode_stream(&valid_symbols),
    };

    let mut literals = Vec::with_capacity(escapes * 4);
    for (i, (&s, &v)) in symbols.iter().zip(&buf).enumerate() {
        if s == ESCAPE && mask_slice.is_none_or(|m| m[i]) {
            literals.extend_from_slice(&v.to_le_bytes());
        }
    }
    debug_assert_eq!(literals.len(), escapes * 4);

    let mut payload = ByteWriter::new();
    match &class {
        Some(c) => payload.block(&c.marker_bytes()),
        None => payload.block(&[]),
    }
    payload.block(&stream);
    payload.raw(&literals);
    let packed = cliz_lossless::compress(&payload.finish());

    for &p in &config.permutation {
        out.u8(p as u8);
    }
    out.u8(config.fusion.start as u8);
    out.u8(config.fusion.len as u8);
    out.u8(fitting_to_u8(config.fitting));
    out.u8(class.is_some() as u8);
    out.u64(escapes as u64);
    out.block(&packed);

    Ok(PlainStats {
        escapes,
        classification_used: class.is_some(),
        payload_bytes: packed.len(),
    })
}

/// Decompresses one plain-pipeline section. `dims` and `eb_abs` come from the
/// container header; `mask` is the dataset mask in the *original* layout.
///
/// One symbol buffer and one validation pass: the decoded symbol count is
/// checked once against the valid-point count; without a mask the decoded
/// vector is the symbol grid itself, with one it is scattered into an arena
/// buffer. The escape count and the quantizer radius are checked by
/// [`reconstruct`]'s pre-pass, not here. The masked symbol grid and the
/// literal vector are recycled through `arena` (the output grid itself is
/// necessarily a fresh allocation — it leaves the function).
pub fn decompress_plain(
    r: &mut ByteReader,
    dims: &[usize],
    eb_abs: f64,
    mask: Option<&MaskMap>,
    fill_value: f32,
    arena: &mut ScratchArena,
) -> Result<Grid<f32>, ClizError> {
    let ndim = dims.len();
    let mut perm = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        perm.push(r.u8()? as usize);
    }
    let fusion = cliz_grid::FusionSpec {
        start: r.u8()? as usize,
        len: r.u8()? as usize,
    };
    // The spec bytes are untrusted and `fuse_shape` asserts range validity,
    // so reject an out-of-range fusion with a typed error first.
    if !fusion.is_none() && fusion.start + fusion.len > ndim {
        return Err(ClizError::Corrupt("fusion spec out of range"));
    }
    let fitting = fitting_from_u8(r.u8()?)?;
    let classification = r.u8()? != 0;
    let escapes = r.u64()? as usize;
    let packed = r.block()?;
    let payload = cliz_lossless::decompress(packed)?;
    let mut pr = ByteReader::new(&payload);
    let marker_bytes = pr.block()?;
    let stream = pr.block()?;

    // Reconstruct the working-layout mask.
    let mut seen = vec![false; ndim];
    for &p in &perm {
        if p >= ndim || seen[p] {
            return Err(ClizError::Corrupt("invalid permutation in stream"));
        }
        seen[p] = true;
    }
    // The identity permutation borrows the caller's mask.
    let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
    let permuted_shape = cliz_grid::Shape::new(dims).permuted(&perm);
    let mask = mask.filter(|m| !m.is_all_valid());
    let wmask_storage: Option<MaskMap> = mask.filter(|_| !identity).map(|m| m.permuted(&perm));
    let mask_slice = wmask_storage.as_ref().or(mask).map(|m| m.as_slice());

    let fused = fuse_shape(&permuted_shape, fusion);
    let fdims = fused.dims().to_vec();
    let total = fused.len();
    // The fused dims come from container bytes. Before the full-grid
    // buffers below are sized from them, the claimed element count must be
    // corroborated: by the caller's mask when one is present, or by the
    // decoded symbol stream otherwise (every valid symbol costs at least
    // one bit) — a flipped dimension byte must surface as Corrupt, not as
    // a giant allocation.
    match mask_slice {
        Some(m) => {
            if total != m.len() {
                return Err(ClizError::Corrupt("element count does not match mask"));
            }
        }
        None => {
            if total > stream.len().saturating_mul(8).saturating_add(8) {
                return Err(ClizError::Corrupt("element count exceeds stream size"));
            }
        }
    }
    // The section's stretches, built once: they give the valid count and
    // drive the scatter, the fill, the validation fold and the walk.
    let stretches = mask_slice.map(|m| Stretches::new(m, fdims[fdims.len() - 1]));
    let n_valid = stretches.as_ref().map_or(total, Stretches::valid_count);
    if escapes > n_valid {
        return Err(ClizError::Corrupt("escape count exceeds data size"));
    }

    // Decode the symbol stream: one symbol per valid point, checked once.
    // The markers' plane size must be the one the encoder classified over:
    // the group and shift walks index by it, and a zero plane never ends.
    let class = if classification {
        let c = Classification::from_marker_bytes(marker_bytes)
            .filter(|c| classification_plane(&fdims) == Some(c.h_len))
            .ok_or(ClizError::Corrupt("bad classification markers"))?;
        Some(c)
    } else {
        None
    };
    let valid_symbols: Vec<u32> = match &class {
        Some(c) => {
            let groups = c.group_sequence(total, mask_slice);
            multi_decode(stream, &groups).ok_or(ClizError::Corrupt("multi-huffman decode"))?
        }
        None => huffman::decode_stream(stream).ok_or(ClizError::Corrupt("huffman decode"))?,
    };
    if valid_symbols.len() != n_valid {
        return Err(ClizError::Corrupt("symbol count mismatch"));
    }

    // The symbol grid. Unmasked, the decoded vector already is it. Masked,
    // scatter into an arena buffer with placeholder bins at masked points,
    // stretch by stretch; the count check above makes the scatter exact.
    let mut symbols = match &stretches {
        None => valid_symbols,
        Some(st) => {
            let mut grid = arena.take_u32();
            grid.resize(total, cliz_quant::bin_to_symbol(0));
            st.scatter(&valid_symbols, &mut grid);
            grid
        }
    };
    if let Some(c) = &class {
        unapply_shifts(&mut symbols, c, mask_slice);
    }

    // Literals. (Error paths below drop the scratch buffers instead of
    // recycling them — a cold path missing the pool is fine, a hot path
    // littered with recycle calls is not.)
    if pr.remaining() < escapes.saturating_mul(4) {
        return Err(ClizError::Truncated);
    }
    let mut literals = arena.take_f32();
    for _ in 0..escapes {
        literals.push(pr.f32()?);
    }

    // Replay the interpolation. `reconstruct` owns the symbol validation:
    // its one pre-pass checks the escape count against the literals (so
    // against the header's count, which sized them) and every symbol
    // against the quantizer radius, before the walk writes anything.
    let params = match (mask_slice, &stretches) {
        (Some(m), Some(st)) => InterpParams::with_stretches(fitting, m, st),
        _ => InterpParams::new(fitting),
    };
    let quantizer = LinearQuantizer::new(eb_abs);
    let mut buf = vec![0.0f32; total];
    reconstruct(
        &mut buf, &fdims, &params, &quantizer, &symbols, &literals, fill_value,
    )
    .map_err(|e| match e {
        ReconstructError::LiteralCount { .. } => ClizError::Corrupt("literal/escape mismatch"),
        ReconstructError::OutOfRadius { .. } => {
            ClizError::Corrupt("symbol exceeds quantizer radius")
        }
    })?;
    // Only the masked grid came from the arena; an unmasked grid is the
    // decoder's own vector, and recycling it would grow the pool per call.
    if mask_slice.is_some() {
        arena.recycle_u32(symbols);
    }
    arena.recycle_f32(literals);

    // Un-fuse (reshape) and un-permute back to the original layout.
    let working = Grid::from_vec(permuted_shape, buf);
    let original = if identity {
        working
    } else {
        working.unpermuted(&perm)
    };
    Ok(original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::{FusionSpec, Shape};

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.11 * (k + 1) as f64).sin() * 3.0;
            }
            v as f32
        })
    }

    fn roundtrip(
        data: &Grid<f32>,
        mask: Option<&MaskMap>,
        eb: f64,
        config: &PipelineConfig,
    ) -> (Grid<f32>, PlainStats) {
        let mut arena = ScratchArena::new();
        let mut w = ByteWriter::new();
        let stats = compress_plain(data, mask, eb, config, &mut w, &mut arena).unwrap();
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let out =
            decompress_plain(&mut r, data.shape().dims(), eb, mask, -7.0, &mut arena).unwrap();
        assert_eq!(r.remaining(), 0);
        for (i, (&a, &b)) in data.as_slice().iter().zip(out.as_slice()).enumerate() {
            if mask.is_none_or(|m| m.is_valid(i)) {
                assert!(
                    (a as f64 - b as f64).abs() <= eb,
                    "bound violated at {i}: {a} vs {b}"
                );
            } else {
                assert_eq!(b, -7.0);
            }
        }
        (out, stats)
    }

    #[test]
    fn identity_pipeline_roundtrip() {
        let g = smooth(&[10, 20, 30]);
        roundtrip(&g, None, 1e-3, &PipelineConfig::default_for(3));
    }

    #[test]
    fn all_permutations_roundtrip() {
        let g = smooth(&[6, 8, 10]);
        for perm in Shape::all_permutations(3) {
            let mut c = PipelineConfig::default_for(3);
            c.permutation = perm;
            roundtrip(&g, None, 1e-3, &c);
        }
    }

    #[test]
    fn all_fusions_roundtrip() {
        let g = smooth(&[6, 8, 10]);
        for fusion in FusionSpec::candidates(3) {
            let mut c = PipelineConfig::default_for(3);
            c.fusion = fusion;
            roundtrip(&g, None, 1e-3, &c);
        }
    }

    #[test]
    fn classification_roundtrip() {
        // 8 slices over a 12x12 plane with position-dependent bias so the
        // classifier finds real structure.
        let g = Grid::from_fn(Shape::new(&[8, 12, 12]), |c| {
            let bias = ((c[1] * 12 + c[2]) % 3) as f32 * 0.002;
            (c[0] as f32 * 0.1) + bias
        });
        let mut c = PipelineConfig::default_for(3);
        c.classification = true;
        let (_, stats) = roundtrip(&g, None, 1e-4, &c);
        // Trivial maps may disable it; either way the roundtrip held. Check
        // the flag is plumbed.
        let _ = stats.classification_used;
    }

    #[test]
    fn masked_pipeline_roundtrip() {
        let mut g = smooth(&[12, 16]);
        let mut valid = vec![true; g.len()];
        for (i, (v, ok)) in g.as_mut_slice().iter_mut().zip(&mut valid).enumerate() {
            if i % 7 == 0 {
                *v = 1.0e31;
                *ok = false;
            }
        }
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let c = PipelineConfig::default_for(2);
        let (_, stats) = roundtrip(&g, Some(&mask), 1e-3, &c);
        assert!(stats.escapes <= 2, "mask leaked: {} escapes", stats.escapes);
    }

    #[test]
    fn linear_fitting_roundtrip() {
        let g = smooth(&[40, 40]);
        let mut c = PipelineConfig::default_for(2);
        c.fitting = Fitting::Linear;
        roundtrip(&g, None, 1e-3, &c);
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let g = smooth(&[500]);
        roundtrip(&g, None, 1e-4, &PipelineConfig::default_for(1));
    }

    /// A hand-built plain section: identity permutation, no fusion, linear
    /// fitting, no escapes, and the classification flag set when `markers`
    /// is non-empty.
    fn crafted_section(ndim: usize, markers: &[u8], stream: &[u8]) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.block(markers);
        payload.block(stream);
        let packed = cliz_lossless::compress(&payload.finish());
        let mut out = ByteWriter::new();
        for p in 0..ndim {
            out.u8(p as u8);
        }
        out.u8(0);
        out.u8(0);
        out.u8(fitting_to_u8(Fitting::Linear));
        out.u8(u8::from(!markers.is_empty()));
        out.u64(0);
        out.block(&packed);
        out.finish()
    }

    fn decode_crafted(
        bytes: &[u8],
        dims: &[usize],
        mask: Option<&MaskMap>,
    ) -> Result<Grid<f32>, ClizError> {
        let mut arena = ScratchArena::new();
        decompress_plain(
            &mut ByteReader::new(bytes),
            dims,
            1e-3,
            mask,
            0.0,
            &mut arena,
        )
    }

    #[test]
    fn crafted_sections_with_bad_symbol_streams_are_corrupt() {
        // [4, 4, 6]: four slices over a 24-point plane, so classification
        // qualifies; every fifth point masked.
        let dims = [4usize, 4, 6];
        let n = 96;
        let zero = cliz_quant::bin_to_symbol(0);
        let flags: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let n_valid = flags.iter().filter(|&&v| v).count();
        let mask = MaskMap::from_flags(Shape::new(&dims), flags.clone());
        let class = Classification {
            h_len: 24,
            shifts: vec![0; 24],
            groups: (0..24).map(|p| (p % 2) as u8).collect(),
        };
        let markers = class.marker_bytes();
        let plain = |len: usize| crafted_section(3, &[], &huffman::encode_stream(&vec![zero; len]));
        let classified = |len: usize| {
            let mut groups = class.group_sequence(n, Some(&flags));
            groups.resize(len, 0);
            crafted_section(3, &markers, &multi_encode(&vec![zero; len], &groups, 2))
        };

        // The crafted sections are well formed at the right lengths.
        assert!(decode_crafted(&plain(n), &dims, None).is_ok());
        assert!(decode_crafted(&plain(n_valid), &dims, Some(&mask)).is_ok());
        assert!(decode_crafted(&classified(n_valid), &dims, Some(&mask)).is_ok());

        let corrupt = |got: Result<Grid<f32>, ClizError>, what: &str| {
            assert!(matches!(got, Err(ClizError::Corrupt(_))), "{what}: {got:?}");
        };
        corrupt(
            decode_crafted(&plain(n - 1), &dims, None),
            "unmasked, one short",
        );
        corrupt(
            decode_crafted(&plain(n + 1), &dims, None),
            "unmasked, one long",
        );
        corrupt(
            decode_crafted(&plain(n_valid - 1), &dims, Some(&mask)),
            "masked, one short",
        );
        corrupt(
            decode_crafted(&plain(n_valid + 1), &dims, Some(&mask)),
            "masked, one long",
        );
        corrupt(
            decode_crafted(&classified(n_valid + 1), &dims, Some(&mask)),
            "classified masked, one long",
        );
        corrupt(
            decode_crafted(&classified(n_valid - 1), &dims, Some(&mask)),
            "classified masked, one short",
        );

        // Markers whose plane size is not the section's (24): zero used to
        // loop forever unmasked and panic masked.
        for h_len in [0usize, 5, 48] {
            let bad = Classification {
                h_len,
                shifts: vec![0; h_len],
                groups: vec![0; h_len],
            };
            for (m, len) in [(None, n), (Some(&mask), n_valid)] {
                let stream = multi_encode(&vec![zero; len], &vec![0; len], 2);
                corrupt(
                    decode_crafted(&crafted_section(3, &bad.marker_bytes(), &stream), &dims, m),
                    "markers for another plane",
                );
            }
        }

        // One symbol beyond the default radius (max symbol 65 537).
        let mut wide = vec![zero; n];
        wide[9] = 100_000;
        let section = crafted_section(3, &[], &huffman::encode_stream(&wide));
        let got = decode_crafted(&section, &dims, None);
        assert_eq!(
            got.unwrap_err(),
            ClizError::Corrupt("symbol exceeds quantizer radius")
        );
    }

    #[test]
    fn corrupt_stream_is_an_error_not_a_panic() {
        let g = smooth(&[8, 8]);
        let cfg = PipelineConfig::default_for(2);
        let mut arena = ScratchArena::new();
        let mut w = ByteWriter::new();
        compress_plain(&g, None, 1e-3, &cfg, &mut w, &mut arena).unwrap();
        let mut bytes = w.finish();
        let n = bytes.len();
        bytes.truncate(n / 2);
        let mut r = ByteReader::new(&bytes);
        assert!(decompress_plain(&mut r, &[8, 8], 1e-3, None, 0.0, &mut arena).is_err());
    }
}
