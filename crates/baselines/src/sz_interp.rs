//! SZ3-style interpolation compressor (the framework CliZ builds on, with
//! every climate-specific feature switched off).

use crate::header::{read_header, write_header, Reader};
use crate::traits::{BaselineError, Compressor};
use cliz_entropy::huffman;
use cliz_format::{spec::SZL1, FormatSpec, HeaderWriter};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_predict::{
    predict_quantize_leveled, reconstruct_leveled, Fitting, InterpParams, ReconstructError,
};
use cliz_quant::{ErrorBound, LinearQuantizer, ESCAPE};

/// Per-stride error-bound multiplier policy (1.0 = plain SZ3; QoZ tightens
/// coarse strides).
pub(crate) type EbPolicy = fn(stride: usize) -> f64;

fn flat_policy(_stride: usize) -> f64 {
    1.0
}

/// SZ3-like compressor: interpolation + quantization + Huffman + zlite.
#[derive(Clone, Copy, Debug, Default)]
pub struct SzInterp;

impl SzInterp {
    /// Picks linear vs cubic fitting by probing a centre block, mirroring
    /// SZ3's sampled predictor selection.
    pub(crate) fn pick_fitting(data: &Grid<f32>, eb: f64) -> Fitting {
        let shape = data.shape();
        // Up to ~32k points from the centre.
        let dims = shape.dims();
        let side: Vec<usize> = dims
            .iter()
            .map(|&d| {
                d.min((32_768f64).powf(1.0 / dims.len() as f64) as usize + 1)
                    .max(1)
            })
            .collect();
        let start: Vec<usize> = dims.iter().zip(&side).map(|(&d, &s)| (d - s) / 2).collect();
        let block = data.block(&start, &side);
        let q = LinearQuantizer::new(eb);
        let cost = |fitting: Fitting| -> u64 {
            let params = InterpParams::new(fitting);
            let mut buf = block.as_slice().to_vec();
            let mut symbols = vec![0u32; buf.len()];
            predict_quantize_leveled(
                &mut buf,
                block.shape().dims(),
                &params,
                &|_| q,
                &mut symbols,
            );
            symbols
                .iter()
                .map(|&s| {
                    if s == ESCAPE {
                        64
                    } else {
                        u64::from(cliz_quant::symbol_to_bin(s).unsigned_abs()).min(64)
                    }
                })
                .sum()
        };
        if cost(Fitting::Cubic) <= cost(Fitting::Linear) {
            Fitting::Cubic
        } else {
            Fitting::Linear
        }
    }
}

/// Shared encode path for SZ3 and QoZ (they differ only in the eb policy).
pub(crate) fn encode(
    data: &Grid<f32>,
    bound: ErrorBound,
    spec: &FormatSpec,
    policy: EbPolicy,
) -> Result<Vec<u8>, BaselineError> {
    let (mn, mx) = data.finite_min_max(None).unwrap_or((0.0, 0.0));
    let eb = bound.resolve(mn, mx);
    let fitting = SzInterp::pick_fitting(data, eb);

    let dims = data.shape().dims().to_vec();
    let params = InterpParams::new(fitting);
    let mut buf = data.as_slice().to_vec();
    let mut symbols = vec![0u32; buf.len()];
    let escapes = predict_quantize_leveled(
        &mut buf,
        &dims,
        &params,
        &|stride| LinearQuantizer::new(eb * policy(stride)),
        &mut symbols,
    );

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
    write_header(&mut out, spec, &dims);
    out.f64(eb);
    out.u8(match fitting {
        Fitting::Linear => 0,
        Fitting::Cubic => 1,
    });
    out.u64(escapes as u64);
    out.raw(&packed);
    Ok(out.finish())
}

pub(crate) fn decode(
    bytes: &[u8],
    spec: &FormatSpec,
    policy: EbPolicy,
) -> Result<Grid<f32>, BaselineError> {
    let mut r = Reader::new(bytes);
    let (dims, total) = read_header(&mut r, spec)?;
    let eb = r.f64()?;
    if eb.is_nan() || eb <= 0.0 {
        return Err(BaselineError::Corrupt("bad eb"));
    }
    let fitting = match r.u8()? {
        0 => Fitting::Linear,
        1 => Fitting::Cubic,
        _ => return Err(BaselineError::Corrupt("bad fitting")),
    };
    let escapes = r.len64()?;

    let payload = cliz_lossless::decompress(r.rest())?;
    let mut pr = Reader::new(&payload);
    let stream_len = pr.len64()?;
    let symbols = huffman::decode_stream(pr.take(stream_len)?)
        .ok_or(BaselineError::Corrupt("huffman decode"))?;
    if symbols.len() != total {
        return Err(BaselineError::Corrupt("symbol count"));
    }
    // The escape count itself is checked against the symbols by
    // `reconstruct_leveled`; bounding it by `total` here bounds the
    // allocation below.
    if escapes > total {
        return Err(BaselineError::Corrupt("escape count"));
    }
    let mut literals = Vec::with_capacity(escapes);
    for _ in 0..escapes {
        literals.push(pr.f32()?);
    }

    let params = InterpParams::new(fitting);
    let mut buf = vec![0.0f32; total];
    reconstruct_leveled(
        &mut buf,
        &dims,
        &params,
        &|stride| LinearQuantizer::new(eb * policy(stride)),
        &symbols,
        &literals,
        0.0,
    )
    .map_err(|e| match e {
        ReconstructError::LiteralCount { .. } => BaselineError::Corrupt("literal/escape mismatch"),
        ReconstructError::OutOfRadius { .. } => {
            BaselineError::Corrupt("symbol exceeds quantizer radius")
        }
    })?;
    Ok(Grid::from_vec(Shape::new(&dims), buf))
}

impl Compressor for SzInterp {
    fn name(&self) -> &'static str {
        "SZ3"
    }

    fn compress(
        &self,
        data: &Grid<f32>,
        _mask: Option<&MaskMap>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, BaselineError> {
        encode(data, bound, &SZL1, flat_policy)
    }

    fn decompress(
        &self,
        bytes: &[u8],
        _mask: Option<&MaskMap>,
    ) -> Result<Grid<f32>, BaselineError> {
        decode(bytes, &SZL1, flat_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.17 * (k + 1) as f64).sin() * 5.0;
            }
            v as f32
        })
    }

    #[test]
    fn roundtrip_bound_holds() {
        let g = smooth(&[12, 30, 20]);
        let sz = SzInterp;
        for eb in [1e-2, 1e-4] {
            let bytes = sz.compress(&g, None, ErrorBound::Abs(eb)).unwrap();
            let out = sz.decompress(&bytes, None).unwrap();
            for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
                assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-12));
            }
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        let g = smooth(&[16, 64, 64]);
        let bytes = SzInterp.compress(&g, None, ErrorBound::Rel(1e-3)).unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 8.0, "ratio {ratio}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(SzInterp.decompress(b"junk", None).is_err());
        let g = smooth(&[8, 8]);
        let bytes = SzInterp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        assert!(SzInterp
            .decompress(&bytes[..bytes.len() / 2], None)
            .is_err());
    }

    #[test]
    fn mask_blindness_hurts_on_fill_values() {
        // Same field twice; one copy has fill values. SZ3 must still honour
        // the bound but pays in size — this is the Sec. V-A effect.
        let clean = smooth(&[32, 32]);
        let mut dirty = clean.clone();
        for (i, v) in dirty.as_mut_slice().iter_mut().enumerate() {
            if (i / 32 + i % 32) % 4 == 0 {
                *v = 9.96921e36;
            }
        }
        let b_clean = SzInterp
            .compress(&clean, None, ErrorBound::Abs(1e-3))
            .unwrap();
        let b_dirty = SzInterp
            .compress(&dirty, None, ErrorBound::Abs(1e-3))
            .unwrap();
        assert!(
            b_dirty.len() > b_clean.len() * 2,
            "fill values should hurt: {} vs {}",
            b_dirty.len(),
            b_clean.len()
        );
        // Bound still holds pointwise, including on the fills.
        let out = SzInterp.decompress(&b_dirty, None).unwrap();
        for (a, b) in dirty.as_slice().iter().zip(out.as_slice()) {
            assert!((*a as f64 - *b as f64).abs() <= 1e-3 * (1.0 + 1e-9) || a == b);
        }
    }
}
