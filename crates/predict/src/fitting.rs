//! Fit coefficients, including the mask-aware Theorem 1 formula.
//!
//! A prediction references up to four reconstructed neighbours
//! `d0, d1, d2, d3` at offsets `−3s, −s, +s, +3s` from the target. Each
//! neighbour has a validity flag (in bounds *and* unmasked). The paper's
//! Theorem 1 gives closed-form optimal polynomial-fit coefficients for every
//! validity combination:
//!
//! ```text
//! p_i = Π_j ( v_j · M[i][j] + (1 − v_j) · B[i][j] )
//! ```
//!
//! With all four valid this reproduces the classic cubic
//! `(−1/16, 9/16, 9/16, −1/16)`; with three valid it degrades to the
//! quadratic fits of Table II; with two valid to exact linear
//! inter/extrapolation; with one to a copy; with none to zero.

/// Which fitting family the pipeline uses (auto-tuned per dataset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fitting {
    /// Two-point average of the `±s` neighbours.
    Linear,
    /// Four-point cubic over `±s, ±3s`.
    Cubic,
}

impl Fitting {
    pub fn label(&self) -> &'static str {
        match self {
            Fitting::Linear => "Linear",
            Fitting::Cubic => "Cubic",
        }
    }
}

/// Theorem 1's `M` matrix (row = coefficient index, column = validity index).
const M: [[f64; 4]; 4] = [
    [1.0, -0.5, 0.25, 0.5],
    [1.5, 1.0, 0.5, 0.75],
    [0.75, 0.5, 1.0, 1.5],
    [0.5, 0.25, -0.5, 1.0],
];

/// Theorem 1's `B` matrix: zero diagonal kills the coefficient of an invalid
/// reference; off-diagonal ones leave other factors untouched.
const B: [[f64; 4]; 4] = [
    [0.0, 1.0, 1.0, 1.0],
    [1.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 0.0],
];

/// All 16 coefficient vectors, indexed by the validity bitmask
/// `v0 | v1<<1 | v2<<2 | v3<<3`. Built once at first use.
fn coeff_table() -> &'static [[f64; 4]; 16] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f64; 4]; 16]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0.0f64; 4]; 16];
        for (bits, row) in table.iter_mut().enumerate() {
            for i in 0..4 {
                let mut p = 1.0f64;
                for j in 0..4 {
                    let v = (bits >> j & 1) as f64;
                    p *= v * M[i][j] + (1.0 - v) * B[i][j];
                }
                row[i] = p;
            }
        }
        table
    })
}

/// Cubic-fit coefficients for a validity combination, per Theorem 1.
#[inline]
pub fn cubic_coeffs(valid: [bool; 4]) -> [f64; 4] {
    let bits = valid[0] as usize
        | (valid[1] as usize) << 1
        | (valid[2] as usize) << 2
        | (valid[3] as usize) << 3;
    coeff_table()[bits]
}

/// Linear-fit coefficients over the `±s` neighbours `(d1, d2)`:
/// average when both valid, copy when one, zero when none.
#[inline]
pub fn linear_coeffs(valid: [bool; 2]) -> [f64; 2] {
    match valid {
        [true, true] => [0.5, 0.5],
        [true, false] => [1.0, 0.0],
        [false, true] => [0.0, 1.0],
        [false, false] => [0.0, 0.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn all_valid_is_classic_cubic() {
        close(
            &cubic_coeffs([true; 4]),
            &[-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0],
        );
    }

    #[test]
    fn table2_quadratic_rows() {
        // Paper Table II: validity -> coefficients with one invalid point.
        close(
            &cubic_coeffs([false, true, true, true]),
            &[0.0, 3.0 / 8.0, 3.0 / 4.0, -1.0 / 8.0],
        );
        close(
            &cubic_coeffs([true, false, true, true]),
            &[1.0 / 8.0, 0.0, 9.0 / 8.0, -1.0 / 4.0],
        );
        close(
            &cubic_coeffs([true, true, false, true]),
            &[-1.0 / 4.0, 9.0 / 8.0, 0.0, 1.0 / 8.0],
        );
        close(
            &cubic_coeffs([true, true, true, false]),
            &[-1.0 / 8.0, 3.0 / 4.0, 3.0 / 8.0, 0.0],
        );
    }

    #[test]
    fn two_valid_is_exact_linear() {
        // d1 (−s) and d2 (+s): plain average.
        close(
            &cubic_coeffs([false, true, true, false]),
            &[0.0, 0.5, 0.5, 0.0],
        );
        // d2 (+s) and d3 (+3s): extrapolate back to 0 -> 1.5·d2 − 0.5·d3.
        close(
            &cubic_coeffs([false, false, true, true]),
            &[0.0, 0.0, 1.5, -0.5],
        );
        // d0 (−3s) and d1 (−s): forward extrapolation -> −0.5·d0 + 1.5·d1.
        close(
            &cubic_coeffs([true, true, false, false]),
            &[-0.5, 1.5, 0.0, 0.0],
        );
        // d0 (−3s) and d2 (+s): interpolate -> 0.25·d0 + 0.75·d2.
        close(
            &cubic_coeffs([true, false, true, false]),
            &[0.25, 0.0, 0.75, 0.0],
        );
    }

    #[test]
    fn one_valid_is_copy() {
        for k in 0..4 {
            let mut v = [false; 4];
            v[k] = true;
            let c = cubic_coeffs(v);
            for (i, &ci) in c.iter().enumerate() {
                assert_eq!(ci, if i == k { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn none_valid_is_zero() {
        close(&cubic_coeffs([false; 4]), &[0.0; 4]);
    }

    #[test]
    fn invalid_references_always_get_zero_coefficient() {
        for bits in 0..16usize {
            let v = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0];
            let c = cubic_coeffs(v);
            for j in 0..4 {
                if !v[j] {
                    assert_eq!(c[j], 0.0, "mask bits {bits:04b}");
                }
            }
        }
    }

    /// Every coefficient vector must reproduce polynomials of the fit's
    /// degree exactly: for k >= 2 valid points the fit is exact on all
    /// polynomials of degree (#valid − 1) capped at 3, evaluated on the
    /// reference offsets −3, −1, +1, +3 with target at 0.
    #[test]
    fn polynomial_exactness() {
        let offsets = [-3.0f64, -1.0, 1.0, 3.0];
        for bits in 0..16usize {
            let v = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0];
            let nv = v.iter().filter(|&&b| b).count();
            if nv < 1 {
                continue;
            }
            let degree = (nv - 1).min(3);
            let c = cubic_coeffs(v);
            for d in 0..=degree {
                let target: f64 = 0.0f64.powi(d as i32); // 1 for d=0, else 0
                let target = if d == 0 { 1.0 } else { target };
                let fit: f64 = (0..4).map(|j| c[j] * offsets[j].powi(d as i32)).sum();
                assert!(
                    (fit - target).abs() < 1e-9,
                    "bits {bits:04b} degree {d}: fit {fit} target {target}"
                );
            }
        }
    }

    #[test]
    fn linear_coeff_cases() {
        assert_eq!(linear_coeffs([true, true]), [0.5, 0.5]);
        assert_eq!(linear_coeffs([true, false]), [1.0, 0.0]);
        assert_eq!(linear_coeffs([false, true]), [0.0, 1.0]);
        assert_eq!(linear_coeffs([false, false]), [0.0, 0.0]);
    }
}
