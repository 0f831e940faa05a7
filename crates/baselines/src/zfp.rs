//! ZFP-style transform compressor (Lindstrom, TVCG'14), fixed-accuracy mode.
//!
//! Structure follows the published algorithm: data is cut into 4^d blocks
//! (d ≤ 3; higher-rank inputs iterate their leading axes), each block is
//! aligned to a common exponent (block floating point), quantized to
//! integers, decorrelated with ZFP's non-orthogonal lifting transform along
//! each axis, and the coefficients are stored with a per-block bit width.
//!
//! Coefficients are coded with ZFP's real embedded scheme: negabinary
//! conversion, sequency (total-degree) ordering, and per-bitplane group
//! testing from the MSB down to a per-block `kmin`. One deliberate deviation,
//! documented in DESIGN.md: the accuracy target is enforced by a per-block
//! verify-and-retry loop (decode the block, deepen `kmin` until
//! `max err ≤ eb`), which gives this implementation a *hard* error bound —
//! stock ZFP's accuracy mode is only heuristic. That strengthens, not
//! weakens, the baseline; the comparisons CliZ cares about (block exponents
//! wrecked by mask fill values, no periodicity exploitation) are unchanged.

use crate::header::{read_header, write_header, Reader};
use crate::traits::{BaselineError, Compressor};
use cliz_entropy::{BitReader, BitWriter};
use cliz_format::{spec::ZFP1, HeaderWriter};
use cliz_grid::{Grid, MaskMap, Shape};
use cliz_quant::ErrorBound;

/// Fixed-point fraction bits for block-float quantization.
const Q_BITS: i32 = 26;
/// Block side length (ZFP's 4).
const SIDE: usize = 4;

/// ZFP's forward 4-point lifting transform. Wrapping arithmetic matches the
/// reference implementation's wrap-around semantics and keeps the decode
/// side panic-free on corrupt coefficient streams.
fn fwd_lift(p: &mut [i64], offset: usize, stride: usize) {
    let mut x = p[offset];
    let mut y = p[offset + stride];
    let mut z = p[offset + 2 * stride];
    let mut w = p[offset + 3 * stride];
    x = x.wrapping_add(w) >> 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y) >> 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z) >> 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y) >> 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    p[offset] = x;
    p[offset + stride] = y;
    p[offset + 2 * stride] = z;
    p[offset + 3 * stride] = w;
}

/// ZFP's inverse lifting transform. Like the original, this undoes
/// [`fwd_lift`] only up to the low bits the `>>= 1` shears discard — a
/// ±few-integer-unit slack that the per-block verification loop absorbs
/// (the transform feeds a lossy quantizer, so bit-exactness is not needed).
fn inv_lift(p: &mut [i64], offset: usize, stride: usize) {
    let mut x = p[offset];
    let mut y = p[offset + stride];
    let mut z = p[offset + 2 * stride];
    let mut w = p[offset + 3 * stride];
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w = (w << 1).wrapping_sub(y);
    z = z.wrapping_add(x);
    x = (x << 1).wrapping_sub(z);
    y = y.wrapping_add(z);
    z = (z << 1).wrapping_sub(y);
    w = w.wrapping_add(x);
    x = (x << 1).wrapping_sub(w);
    p[offset] = x;
    p[offset + stride] = y;
    p[offset + 2 * stride] = z;
    p[offset + 3 * stride] = w;
}

/// Applies the lifting along every axis of a 4^rank block.
fn transform_block(vals: &mut [i64], rank: usize, inverse: bool) {
    debug_assert_eq!(vals.len(), SIDE.pow(rank as u32));
    // Axis strides in the block's row-major layout.
    for axis in 0..rank {
        let stride = SIDE.pow((rank - 1 - axis) as u32);
        let lines = vals.len() / SIDE;
        for l in 0..lines {
            // Enumerate line bases: indices where coordinate `axis` == 0.
            let outer = l / stride;
            let inner = l % stride;
            let base = outer * stride * SIDE + inner;
            if inverse {
                inv_lift(vals, base, stride);
            } else {
                fwd_lift(vals, base, stride);
            }
        }
    }
}

/// Negabinary mask (ZFP's NBMASK): maps signed ints to unsigned so bitplane
/// truncation rounds consistently without a sign channel.
const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

#[inline]
fn int2uint(i: i64) -> u64 {
    (i as u64).wrapping_add(NBMASK) ^ NBMASK
}

#[inline]
fn uint2int(u: u64) -> i64 {
    (u ^ NBMASK).wrapping_sub(NBMASK) as i64
}

/// Sequency (total-degree) coefficient order for a 4^rank block: transform
/// coefficients sorted by the sum of their per-axis frequencies, so the
/// energetic low-frequency coefficients go first and group testing kills
/// high-frequency planes in one bit.
fn sequency_order(rank: usize) -> &'static [usize] {
    use std::sync::OnceLock;
    static ORDERS: OnceLock<[Vec<usize>; 4]> = OnceLock::new();
    let orders = ORDERS.get_or_init(|| {
        let make = |rank: usize| {
            let n = SIDE.pow(rank as u32);
            let mut idx: Vec<usize> = (0..n).collect();
            let degree = |i: usize| {
                let mut d = 0usize;
                let mut v = i;
                for _ in 0..rank {
                    d += v % SIDE;
                    v /= SIDE;
                }
                d
            };
            idx.sort_by_key(|&i| (degree(i), i));
            idx
        };
        [make(0), make(1), make(2), make(3)]
    });
    &orders[rank]
}

/// Per-block decode used by both the verification loop and the decompressor:
/// takes negabinary coefficients in *sequency order* (planes below `kmin`
/// zeroed/never stored), un-permutes, inverse-transforms, and dequantizes.
/// Returns values in natural block order.
fn decode_block_values(nb_seq: &[u64], rank: usize, emax: i32, kmin: u32) -> Vec<f32> {
    let order = sequency_order(rank);
    let keep = if kmin == 0 {
        !0u64
    } else {
        !((1u64 << kmin) - 1)
    };
    let mut c = vec![0i64; nb_seq.len()];
    for (pos, &i) in order.iter().enumerate() {
        c[i] = uint2int(nb_seq[pos] & keep);
    }
    transform_block(&mut c, rank, true);
    let scale = 2.0f64.powi(emax + 1 - Q_BITS);
    c.iter().map(|&v| (v as f64 * scale) as f32).collect()
}

/// ZFP's embedded bitplane encoder: planes from MSB down to `kmin`, each as
/// `n` verbatim bits for already-significant coefficients plus a unary
/// group-tested remainder.
fn encode_planes(nb: &[u64], kmin: u32, w: &mut BitWriter) {
    let size = nb.len();
    let mut n = 0usize;
    for k in (kmin..64).rev() {
        // Gather plane k across coefficients (sequency order already applied).
        let mut x: u64 = 0;
        for (i, &u) in nb.iter().enumerate() {
            x += ((u >> k) & 1) << i;
        }
        // First n bits verbatim (these coefficients are already significant).
        if n > 0 {
            if n > 32 {
                w.write_bits((x & 0xFFFF_FFFF) as u32, 32);
                w.write_bits(
                    ((x >> 32) & ((1u64 << (n - 32)) - 1)) as u32,
                    (n - 32) as u32,
                );
            } else {
                w.write_bits((x & ((1u64 << n) - 1)) as u32, n as u32);
            }
            x = if n >= 64 { 0 } else { x >> n };
        }
        // Group-tested remainder: a "1" test bit promises at least one more
        // significant coefficient in this plane; each run then emits bits up
        // to and including that coefficient's "1".
        let mut m = n;
        while m < size {
            let any = x != 0;
            w.write_bit(any);
            if !any {
                break;
            }
            loop {
                let bit = x & 1 == 1;
                w.write_bit(bit);
                x >>= 1;
                m += 1;
                if bit {
                    break;
                }
            }
        }
        n = m;
    }
}

/// Mirror of [`encode_planes`].
fn decode_planes(size: usize, kmin: u32, r: &mut BitReader) -> Option<Vec<u64>> {
    let mut nb = vec![0u64; size];
    let mut n = 0usize;
    for k in (kmin..64).rev() {
        let mut x: u64 = 0;
        if n > 0 {
            if n > 32 {
                let lo = r.read_bits(32)? as u64;
                let hi = r.read_bits((n - 32) as u32)? as u64;
                x = lo | (hi << 32);
            } else {
                x = r.read_bits(n as u32)? as u64;
            }
        }
        let mut m = n;
        while m < size {
            if !r.read_bit()? {
                break;
            }
            loop {
                let bit = r.read_bit()?;
                if bit {
                    x |= 1u64 << m;
                    m += 1;
                    break;
                }
                m += 1;
                if m >= size {
                    // The group test promised a 1 that never arrived.
                    return None;
                }
            }
        }
        n = m;
        for (i, u) in nb.iter_mut().enumerate() {
            *u |= ((x >> i) & 1) << k;
        }
    }
    Some(nb)
}

/// Block encodings.
const MODE_ZERO: u32 = 0;
const MODE_CODED: u32 = 1;
const MODE_RAW: u32 = 2;

fn encode_block(vals: &[f32], rank: usize, eb: f64, w: &mut BitWriter) {
    let n = vals.len();
    debug_assert_eq!(n, SIDE.pow(rank as u32));

    let finite = vals.iter().all(|v| v.is_finite());
    let max_abs = vals.iter().fold(0.0f64, |m, &v| m.max((v as f64).abs()));
    if finite && max_abs == 0.0 {
        w.write_bits(MODE_ZERO, 2);
        return;
    }
    if !finite || max_abs >= f32::MAX as f64 / 16.0 {
        // Exponent games would overflow: ship the block verbatim.
        w.write_bits(MODE_RAW, 2);
        for &v in vals {
            w.write_u32(v.to_bits());
        }
        return;
    }

    let emax = max_abs.log2().floor() as i32;
    let scale = 2.0f64.powi(Q_BITS - 1 - emax);
    let ints: Vec<i64> = vals
        .iter()
        .map(|&v| (v as f64 * scale).round() as i64)
        .collect();
    let mut coeffs = ints.clone();
    transform_block(&mut coeffs, rank, false);

    // Negabinary, in sequency order (the plane coder assumes energetic
    // coefficients first).
    let order = sequency_order(rank);
    let nb: Vec<u64> = order.iter().map(|&i| int2uint(coeffs[i])).collect();

    // Lowest stored bitplane: estimate from the accuracy target, then verify
    // against the exact decoder reconstruction and deepen on failure.
    let step = 2.0f64.powi(emax + 1 - Q_BITS);
    let mut kmin = if eb > step {
        ((eb / step).log2().floor() as i32 - 3).max(0) as u32
    } else {
        0
    };
    loop {
        let recon = decode_block_values(&nb, rank, emax, kmin);
        let ok = vals
            .iter()
            .zip(&recon)
            .all(|(&a, &b)| ((a as f64) - (b as f64)).abs() <= eb);
        if ok {
            w.write_bits(MODE_CODED, 2);
            w.write_bits((emax + 1024) as u32, 12);
            w.write_bits(kmin, 6);
            encode_planes(&nb, kmin, w);
            return;
        }
        if kmin == 0 {
            // Even full fixed-point precision misses the target: go raw.
            w.write_bits(MODE_RAW, 2);
            for &v in vals {
                w.write_u32(v.to_bits());
            }
            return;
        }
        kmin = kmin.saturating_sub(2);
    }
}

fn decode_block(r: &mut BitReader, rank: usize) -> Result<Vec<f32>, BaselineError> {
    let n = SIDE.pow(rank as u32);
    let mode = r.read_bits(2).ok_or(BaselineError::Truncated)?;
    match mode {
        MODE_ZERO => Ok(vec![0.0; n]),
        MODE_RAW => {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(f32::from_bits(
                    r.read_u32().ok_or(BaselineError::Truncated)?,
                ));
            }
            Ok(out)
        }
        MODE_CODED => {
            let emax = r.read_bits(12).ok_or(BaselineError::Truncated)? as i32 - 1024;
            let kmin = r.read_bits(6).ok_or(BaselineError::Truncated)?;
            let nb =
                decode_planes(n, kmin, r).ok_or(BaselineError::Corrupt("bad bitplane stream"))?;
            Ok(decode_block_values(&nb, rank, emax, kmin))
        }
        _ => Err(BaselineError::Corrupt("bad block mode")),
    }
}

/// Iterates 4^r blocks over the trailing `rank` axes of `dims`, with edge
/// blocks padded by clamping coordinates (ZFP pads partial blocks too).
struct BlockIter {
    dims: Vec<usize>,
    rank: usize,
}

impl BlockIter {
    fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
            rank: dims.len().min(3),
        }
    }

    /// Number of leading slices × blocks per slice.
    fn block_origins(&self) -> Vec<Vec<usize>> {
        let ndim = self.dims.len();
        let lead = ndim - self.rank;
        // Odometer over leading axes (step 1) and block axes (step 4).
        let mut origins = Vec::new();
        let mut coords = vec![0usize; ndim];
        'outer: loop {
            origins.push(coords.clone());
            let mut a = ndim;
            loop {
                if a == 0 {
                    break 'outer;
                }
                a -= 1;
                let step = if a < lead { 1 } else { SIDE };
                coords[a] += step;
                if coords[a] < self.dims[a] {
                    break;
                }
                coords[a] = 0;
            }
        }
        origins
    }

    /// Gathers one (padded) block's values.
    // xtask-allow-fn: R5 -- block coords are clamped to dims and resolved via Shape::index_of over the grid's own shape
    fn gather(&self, data: &[f32], shape: &Shape, origin: &[usize]) -> Vec<f32> {
        let ndim = self.dims.len();
        let lead = ndim - self.rank;
        let n = SIDE.pow(self.rank as u32);
        let mut out = Vec::with_capacity(n);
        let mut c = origin.to_vec();
        for k in 0..n {
            for (j, cj) in c.iter_mut().enumerate().skip(lead) {
                let within = (k / SIDE.pow((ndim - 1 - j) as u32)) % SIDE;
                *cj = (origin[j] + within).min(self.dims[j] - 1);
            }
            out.push(data[shape.index_of(&c)]);
        }
        out
    }

    /// Scatters a decoded block back (padding lanes are dropped).
    fn scatter(&self, out: &mut [f32], shape: &Shape, origin: &[usize], vals: &[f32]) {
        let ndim = self.dims.len();
        let lead = ndim - self.rank;
        let n = SIDE.pow(self.rank as u32);
        let mut c = origin.to_vec();
        for (k, &v) in vals.iter().enumerate().take(n) {
            let mut in_bounds = true;
            for (j, cj) in c.iter_mut().enumerate().skip(lead) {
                let within = (k / SIDE.pow((ndim - 1 - j) as u32)) % SIDE;
                let pos = origin[j] + within;
                if pos >= self.dims[j] {
                    in_bounds = false;
                    break;
                }
                *cj = pos;
            }
            if in_bounds {
                out[shape.index_of(&c)] = v;
            }
        }
    }
}

/// ZFP-like fixed-accuracy compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Zfp;

impl Compressor for Zfp {
    fn name(&self) -> &'static str {
        "ZFP"
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
        let iter = BlockIter::new(&dims);

        let mut w = BitWriter::with_capacity(data.len());
        for origin in iter.block_origins() {
            let vals = iter.gather(data.as_slice(), data.shape(), &origin);
            encode_block(&vals, iter.rank, eb, &mut w);
        }
        let payload = cliz_lossless::compress(&w.finish());

        let mut out = HeaderWriter::with_capacity(payload.len() + 64);
        write_header(&mut out, &ZFP1, &dims);
        out.f64(eb);
        out.raw(&payload);
        Ok(out.finish())
    }

    fn decompress(
        &self,
        bytes: &[u8],
        _mask: Option<&MaskMap>,
    ) -> Result<Grid<f32>, BaselineError> {
        let mut rd = Reader::new(bytes);
        let (dims, _total) = read_header(&mut rd, &ZFP1)?;
        rd.skip(8)?; // eb (informational on decode)
        let payload = cliz_lossless::decompress(rd.rest())?;
        let mut r = BitReader::new(&payload);

        let shape = Shape::new(&dims);
        let total = shape.len();
        // The claimed dims must be plausible for the payload actually
        // present: every zfp block costs at least one payload bit and
        // covers at most 4^rank ≤ 4096 elements (rank ≤ 6 per the header
        // check), so a tiny crafted file cannot demand a huge allocation.
        if total
            > payload
                .len()
                .saturating_mul(8)
                .saturating_add(8)
                .saturating_mul(4096)
        {
            return Err(BaselineError::Corrupt("grid larger than payload"));
        }
        let mut out = vec![0.0f32; total];
        let iter = BlockIter::new(&dims);
        for origin in iter.block_origins() {
            let vals = decode_block(&mut r, iter.rank)?;
            iter.scatter(&mut out, &shape, &origin, &vals);
        }
        Ok(Grid::from_vec(shape, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(dims: &[usize]) -> Grid<f32> {
        Grid::from_fn(Shape::new(dims), |c| {
            let mut v = 100.0f64;
            for (k, &x) in c.iter().enumerate() {
                v += ((x as f64) * 0.19 * (k + 1) as f64).sin() * 8.0;
            }
            v as f32
        })
    }

    #[test]
    fn lift_roundtrip_near_exact() {
        // ZFP's lifting drops low bits in its `>>= 1` shears; the round-trip
        // must land within a few integer units (quantization dwarfs this).
        let patterns: Vec<[i64; 4]> = vec![
            [0, 0, 0, 0],
            [1, 2, 3, 4],
            [-1000, 999, -7, 123456],
            [i32::MAX as i64, i32::MIN as i64, 17, -17],
            [1 << 30, -(1 << 30), (1 << 29) + 7, 3],
        ];
        for p in patterns {
            let mut v = p.to_vec();
            fwd_lift(&mut v, 0, 1);
            inv_lift(&mut v, 0, 1);
            for (a, b) in v.iter().zip(p.iter()) {
                assert!((a - b).abs() <= 4, "pattern {p:?} -> {v:?}");
            }
        }
    }

    #[test]
    fn transform_block_roundtrip_near_exact_all_ranks() {
        for rank in 1..=3usize {
            let n = SIDE.pow(rank as u32);
            let orig: Vec<i64> = (0..n as i64).map(|i| (i * 37 - 100) * 1000).collect();
            let mut v = orig.clone();
            transform_block(&mut v, rank, false);
            assert_ne!(v, orig);
            transform_block(&mut v, rank, true);
            for (a, b) in v.iter().zip(orig.iter()) {
                assert!(
                    (a - b).abs() <= 16,
                    "rank {rank}: {a} vs {b} (diff {})",
                    a - b
                );
            }
        }
    }

    #[test]
    fn plane_coder_roundtrips() {
        use cliz_entropy::{BitReader, BitWriter};
        let cases: Vec<Vec<u64>> = vec![
            vec![0; 16],
            vec![1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, u64::MAX >> 1],
            (0..64).map(|i| (i as u64) << 20).collect(),
            (0..4).map(|i| int2uint(-(i as i64) * 1000)).collect(),
        ];
        for nb in cases {
            for kmin in [0u32, 5, 20] {
                let mut w = BitWriter::new();
                encode_planes(&nb, kmin, &mut w);
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                let back = decode_planes(nb.len(), kmin, &mut r).expect("decode");
                let keep = if kmin == 0 {
                    !0u64
                } else {
                    !((1u64 << kmin) - 1)
                };
                for (a, b) in nb.iter().zip(&back) {
                    assert_eq!(a & keep, *b, "kmin {kmin}");
                }
            }
        }
    }

    #[test]
    fn negabinary_roundtrips() {
        for i in [-1_000_000i64, -1, 0, 1, 7, 123_456_789, i64::MIN / 4] {
            assert_eq!(uint2int(int2uint(i)), i);
        }
    }

    #[test]
    fn sequency_order_is_a_permutation() {
        for rank in 1..=3usize {
            let mut o = sequency_order(rank).to_vec();
            o.sort_unstable();
            assert_eq!(o, (0..SIDE.pow(rank as u32)).collect::<Vec<_>>());
            // DC coefficient (index 0, total degree 0) always comes first.
            assert_eq!(sequency_order(rank)[0], 0);
        }
    }

    #[test]
    fn roundtrip_bound_holds_all_ranks() {
        for dims in [&[65usize][..], &[17, 23], &[9, 14, 18], &[3, 5, 9, 10]] {
            let g = smooth(dims);
            for eb in [1e-1, 1e-3] {
                let bytes = Zfp.compress(&g, None, ErrorBound::Abs(eb)).unwrap();
                let out = Zfp.decompress(&bytes, None).unwrap();
                for (i, (a, b)) in g.as_slice().iter().zip(out.as_slice()).enumerate() {
                    assert!(
                        ((*a as f64) - (*b as f64)).abs() <= eb,
                        "dims {dims:?} eb {eb} at {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let g = smooth(&[32, 64, 64]);
        let bytes = Zfp.compress(&g, None, ErrorBound::Abs(1e-2)).unwrap();
        let ratio = (g.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn fill_values_survive_roundtrip() {
        // Non-finite-adjacent huge values force raw blocks but stay correct.
        let mut g = smooth(&[16, 16]);
        g.as_mut_slice()[0] = 9.96921e36;
        g.as_mut_slice()[100] = f32::NAN;
        let bytes = Zfp.compress(&g, None, ErrorBound::Abs(1e-2)).unwrap();
        let out = Zfp.decompress(&bytes, None).unwrap();
        assert_eq!(out.as_slice()[0], 9.96921e36);
        assert!(out.as_slice()[100].is_nan());
    }

    #[test]
    fn zero_block_is_cheap() {
        let g = Grid::filled(Shape::new(&[64, 64]), 0.0f32);
        let bytes = Zfp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        assert!(bytes.len() < 400, "{} bytes for zeros", bytes.len());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Zfp.decompress(b"zzzz", None).is_err());
        let g = smooth(&[8, 8]);
        let bytes = Zfp.compress(&g, None, ErrorBound::Abs(1e-3)).unwrap();
        assert!(Zfp.decompress(&bytes[..bytes.len() - 3], None).is_err());
    }
}
