//! Discrete Fourier transforms: iterative radix-2 plus Bluestein for
//! arbitrary lengths.
//!
//! Climate time axes are rarely powers of two (SSH has 1032 snapshots), so
//! the arbitrary-length path matters. Bluestein re-expresses an n-point DFT
//! as a convolution of length ≥ 2n−1, which is evaluated with the radix-2
//! kernel at the next power of two.

use crate::complex::Complex;

/// In-place forward DFT (negative-exponent convention):
/// `X[k] = Σ_j x[j] e^{-2πi jk/n}`. Handles any `n ≥ 1`.
pub fn fft(x: &mut [Complex]) {
    dft(x, false);
}

/// In-place inverse DFT, normalized by `1/n` so `ifft(fft(x)) == x`.
pub fn ifft(x: &mut [Complex]) {
    dft(x, true);
    let scale = 1.0 / x.len() as f64;
    for v in x.iter_mut() {
        *v = v.scale(scale);
    }
}

fn dft(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        radix2(x, inverse);
    } else {
        bluestein(x, inverse);
    }
}

/// Iterative Cooley–Tukey radix-2 with bit-reversal permutation.
fn radix2(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    let levels = n.trailing_zeros();

    // Bit-reversal permutation.
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - levels);
        if j > i {
            x.swap(i, j);
        }
    }

    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in x.chunks_exact_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Bluestein's chirp-z transform for arbitrary n.
fn bluestein(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    let m = (2 * n - 1).next_power_of_two();
    let sign = if inverse { 1.0 } else { -1.0 };

    // Chirp c[j] = e^{sign * πi j² / n}. Compute j² mod 2n to avoid the
    // catastrophic angle blow-up for large j.
    let mut chirp = Vec::with_capacity(n);
    let two_n = 2 * n as u64;
    for j in 0..n as u64 {
        let jj = (j * j) % two_n;
        chirp.push(Complex::cis(
            sign * std::f64::consts::PI * jj as f64 / n as f64,
        ));
    }

    let mut a = vec![Complex::ZERO; m];
    for j in 0..n {
        a[j] = x[j] * chirp[j];
    }
    let mut b = vec![Complex::ZERO; m];
    b[0] = chirp[0].conj();
    for j in 1..n {
        let c = chirp[j].conj();
        b[j] = c;
        b[m - j] = c;
    }

    radix2(&mut a, false);
    radix2(&mut b, false);
    for j in 0..m {
        a[j] = a[j] * b[j];
    }
    radix2(&mut a, true);
    let scale = 1.0 / m as f64;
    for (j, out) in x.iter_mut().enumerate() {
        *out = (a[j] * chirp[j]).scale(scale);
    }
}

/// Amplitude spectrum of a real signal: returns `|X[k]|` for
/// `k = 0 ..= n/2` (the one-sided spectrum the period estimator inspects).
pub fn real_fft_magnitudes(signal: &[f64]) -> Vec<f64> {
    let mut buf: Vec<Complex> = signal.iter().map(|&v| Complex::from(v)).collect();
    fft(&mut buf);
    buf.iter()
        .take(signal.len() / 2 + 1)
        .map(|z| z.abs())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.37 - 1.0, (i * i % 7) as f64 * 0.11))
            .collect()
    }

    #[test]
    fn radix2_matches_naive() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = ramp(n);
            let mut got = x.clone();
            fft(&mut got);
            assert_close(&got, &naive_dft(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        for n in [3usize, 5, 6, 7, 12, 86, 100, 129] {
            let x = ramp(n);
            let mut got = x.clone();
            fft(&mut got);
            assert_close(&got, &naive_dft(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn inverse_roundtrip_all_lengths() {
        for n in [1usize, 2, 3, 5, 8, 12, 86, 128, 1032] {
            let x = ramp(n);
            let mut buf = x.clone();
            fft(&mut buf);
            ifft(&mut buf);
            assert_close(&buf, &x, 1e-8 * n as f64);
        }
    }

    #[test]
    fn pure_tone_has_single_peak() {
        let n = 1032;
        let freq = 86; // 12-month cycle over 1032 monthly snapshots
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * freq as f64 * t as f64 / n as f64).sin())
            .collect();
        let mags = real_fft_magnitudes(&signal);
        let peak = mags
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, freq);
    }

    #[test]
    fn dc_signal_concentrates_at_zero() {
        let mags = real_fft_magnitudes(&[5.0; 48]);
        assert!((mags[0] - 5.0 * 48.0).abs() < 1e-9);
        assert!(mags[1..].iter().all(|&m| m < 1e-9));
    }

    #[test]
    fn parseval_energy_preserved() {
        let x = ramp(100);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut spec = x.clone();
        fft(&mut spec);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 100.0;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy);
    }
}
