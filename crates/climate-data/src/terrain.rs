//! Spectral terrain synthesis.
//!
//! A smooth pseudo-topography is built as a sum of random-phase sinusoids
//! with a power-law amplitude spectrum (`1/f^β`), the classic fractal-terrain
//! recipe. Thresholding the field yields continent-like land/ocean masks;
//! its gradient magnitude provides the "roughness" that modulates local
//! variance in the generated climate variables.

use cliz_grid::{Grid, Shape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Terrain synthesis parameters.
#[derive(Clone, Copy, Debug)]
pub struct TerrainSpec {
    /// Number of sinusoidal octaves summed.
    pub modes: usize,
    /// Spectral slope β: larger = smoother terrain.
    pub beta: f64,
    /// RNG seed (fully determines the terrain).
    pub seed: u64,
}

impl Default for TerrainSpec {
    fn default() -> Self {
        Self {
            modes: 24,
            beta: 1.6,
            seed: 0xC11A_7E00,
        }
    }
}

/// Generates an `h × w` terrain height field, roughly zero-mean with O(1)
/// amplitude. Positive values read as "land", negative as "ocean";
/// the global land fraction comes out near 30% with the default threshold
/// used by the dataset generators.
pub fn terrain_field(h: usize, w: usize, spec: TerrainSpec) -> Grid<f32> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Random plane waves: frequency grows per mode, amplitude ~ 1/f^β.
    struct Mode {
        kx: f64,
        ky: f64,
        phase: f64,
        amp: f64,
    }
    let modes: Vec<Mode> = (0..spec.modes)
        .map(|m| {
            let f = 1.0 + m as f64 * 0.75;
            let theta: f64 = rng.random_range(0.0..std::f64::consts::TAU);
            Mode {
                kx: f * theta.cos(),
                ky: f * theta.sin(),
                phase: rng.random_range(0.0..std::f64::consts::TAU),
                amp: 1.0 / f.powf(spec.beta),
            }
        })
        .collect();
    let norm: f64 = modes.iter().map(|m| m.amp * m.amp).sum::<f64>().sqrt();

    Grid::from_fn(Shape::new(&[h, w]), |c| {
        let y = c[0] as f64 / h as f64 * std::f64::consts::TAU;
        let x = c[1] as f64 / w as f64 * std::f64::consts::TAU;
        let mut v = 0.0f64;
        for m in &modes {
            v += m.amp * (m.kx * x + m.ky * y + m.phase).sin();
        }
        (v / norm) as f32
    })
}

/// Central-difference gradient magnitude of a 2-D field — the "roughness"
/// driver for topography-coupled variance.
pub fn gradient_magnitude(field: &Grid<f32>) -> Grid<f32> {
    assert_eq!(field.shape().ndim(), 2);
    let dims = field.shape().dims();
    let (h, w) = (dims[0], dims[1]);
    Grid::from_fn(field.shape().clone(), |c| {
        let (r, cc) = (c[0], c[1]);
        let up = field.get(&[r.saturating_sub(1), cc]);
        let down = field.get(&[(r + 1).min(h - 1), cc]);
        let left = field.get(&[r, cc.saturating_sub(1)]);
        let right = field.get(&[r, (cc + 1).min(w - 1)]);
        (((down - up) / 2.0).powi(2) + ((right - left) / 2.0).powi(2)).sqrt()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = terrain_field(32, 48, TerrainSpec::default());
        let b = terrain_field(32, 48, TerrainSpec::default());
        assert_eq!(a, b);
        let c = terrain_field(
            32,
            48,
            TerrainSpec {
                seed: 99,
                ..TerrainSpec::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn roughly_zero_mean_unit_scale() {
        let t = terrain_field(64, 64, TerrainSpec::default());
        let mean: f64 = t.as_slice().iter().map(|&v| v as f64).sum::<f64>() / t.len() as f64;
        let var: f64 = t
            .as_slice()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / t.len() as f64;
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!(var > 0.05 && var < 5.0, "variance {var}");
    }

    #[test]
    fn land_fraction_plausible() {
        let t = terrain_field(96, 96, TerrainSpec::default());
        let land = t.as_slice().iter().filter(|&&v| v > 0.2).count();
        let frac = land as f64 / t.len() as f64;
        // Continents, not a water-world and not Pangaea-covered-everything.
        assert!(frac > 0.05 && frac < 0.6, "land fraction {frac}");
    }

    #[test]
    fn terrain_is_smooth() {
        let t = terrain_field(64, 64, TerrainSpec::default());
        let g = gradient_magnitude(&t);
        let max_grad = g.as_slice().iter().cloned().fold(0.0f32, f32::max);
        // Smooth by construction: adjacent-cell steps are small vs amplitude.
        assert!(max_grad < 1.0, "max gradient {max_grad}");
    }

    #[test]
    fn gradient_highlights_slopes() {
        // A ramp has uniform nonzero gradient; a constant has zero.
        let ramp = Grid::from_fn(Shape::new(&[8, 8]), |c| c[1] as f32);
        let g = gradient_magnitude(&ramp);
        assert!((g.get(&[4, 4]) - 1.0).abs() < 1e-6);
        let flat = Grid::filled(Shape::new(&[8, 8]), 3.0f32);
        assert!(gradient_magnitude(&flat)
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
    }
}
