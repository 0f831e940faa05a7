//! QoZ 1.1-style compressor: the SZ3 framework with level-wise error-bound
//! tuning (Liu et al., SC'22).
//!
//! QoZ's observation: points predicted at coarse interpolation levels seed
//! every finer level, so storing them more precisely (a tighter bound)
//! improves *all* downstream predictions at sublinear bit cost. We apply the
//! published `eb_level = eb / α^level` rule with a cap of `eb / β`
//! (α = 1.5, β = 4 — QoZ's recommended defaults), where `level` counts up
//! from the finest stride. The user-facing bound is unaffected: every level
//! bound is ≤ `eb`.

use crate::sz_interp::{decode, encode};
use crate::traits::{BaselineError, Compressor};
use cliz_format::spec::QOZ1;
use cliz_grid::{Grid, MaskMap};
use cliz_quant::ErrorBound;

fn qoz_policy(stride: usize) -> f64 {
    if stride <= 1 {
        return 1.0;
    }
    // level = log2(stride); anchor (stride 0) gets the tightest bound.
    let level = if stride == 0 {
        16
    } else {
        usize::BITS - 1 - stride.leading_zeros()
    };
    let alpha: f64 = 1.5;
    let beta: f64 = 4.0;
    (1.0 / alpha.powi(level as i32)).max(1.0 / beta)
}

/// QoZ-like compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Qoz;

impl Compressor for Qoz {
    fn name(&self) -> &'static str {
        "QoZ1.1"
    }

    fn compress(
        &self,
        data: &Grid<f32>,
        _mask: Option<&MaskMap>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, BaselineError> {
        encode(data, bound, &QOZ1, qoz_policy)
    }

    fn decompress(
        &self,
        bytes: &[u8],
        _mask: Option<&MaskMap>,
    ) -> Result<Grid<f32>, BaselineError> {
        decode(bytes, &QOZ1, qoz_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::Shape;

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 0.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.17 * (k + 1) as f64).sin() * 5.0;
            }
            v as f32
        })
    }

    #[test]
    fn policy_tightens_coarse_levels() {
        assert_eq!(qoz_policy(1), 1.0);
        assert!(qoz_policy(2) < 1.0);
        assert!(qoz_policy(8) <= qoz_policy(2));
        assert!(qoz_policy(1 << 12) >= 0.25 - 1e-12); // β cap
        assert!(qoz_policy(0) >= 0.25 - 1e-12);
    }

    #[test]
    fn roundtrip_bound_holds() {
        let g = smooth(&[10, 40, 30]);
        for eb in [1e-2, 1e-4] {
            let bytes = Qoz.compress(&g, None, ErrorBound::Abs(eb)).unwrap();
            let out = Qoz.decompress(&bytes, None).unwrap();
            for (a, b) in g.as_slice().iter().zip(out.as_slice()) {
                assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-12));
            }
        }
    }

    #[test]
    fn qoz_stream_not_decodable_as_sz3() {
        let g = smooth(&[16, 16]);
        let bytes = Qoz.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        assert!(crate::SzInterp.decompress(&bytes, None).is_err());
    }

    #[test]
    fn qoz_improves_accuracy_at_same_nominal_bound() {
        // QoZ's tighter coarse levels should reduce RMSE vs SZ3 at equal eb.
        let g = smooth(&[24, 48, 48]);
        let eb = 1e-2;
        let rmse = |bytes: &[u8], dec: &dyn Compressor| {
            let out = dec.decompress(bytes, None).unwrap();
            let se: f64 = g
                .as_slice()
                .iter()
                .zip(out.as_slice())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum();
            (se / g.len() as f64).sqrt()
        };
        let b_sz = crate::SzInterp
            .compress(&g, None, ErrorBound::Abs(eb))
            .unwrap();
        let b_qoz = Qoz.compress(&g, None, ErrorBound::Abs(eb)).unwrap();
        let r_sz = rmse(&b_sz, &crate::SzInterp);
        let r_qoz = rmse(&b_qoz, &Qoz);
        assert!(
            r_qoz <= r_sz * 1.05,
            "QoZ rmse {r_qoz} should not exceed SZ3 rmse {r_sz}"
        );
    }
}
