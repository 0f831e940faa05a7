//! The six Table III datasets, synthesized.
//!
//! Each generator documents which paper-relevant property it engineers.
//! Dimensions default to the paper's sizes; every generator also accepts
//! explicit dims so experiments can scale down (see EXPERIMENTS.md).

use crate::terrain::{gradient_magnitude, terrain_field, TerrainSpec};
use crate::FILL_VALUE;
use cliz_grid::{Grid, MaskMap, Shape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which Table III variable a dataset instance represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Sea surface height (ocean model, monthly, masked, periodic).
    Ssh,
    /// Atmosphere temperature snapshot (26 pressure levels).
    CesmT,
    /// Atmosphere relative humidity snapshot.
    Relhum,
    /// Soil liquid water (land model, monthly, masked, periodic, 4-D).
    Soilliq,
    /// Snow/ice surface temperature (ice model, monthly, masked, periodic).
    Tsfc,
    /// Temperature around Hurricane Isabel (no mask, no periodicity).
    HurricaneT,
    /// Ocean salinity (ocean model, monthly, masked, periodic, 4-D).
    Salt,
}

impl DatasetKind {
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Ssh => "SSH",
            DatasetKind::CesmT => "CESM-T",
            DatasetKind::Relhum => "RELHUM",
            DatasetKind::Soilliq => "SOILLIQ",
            DatasetKind::Tsfc => "Tsfc",
            DatasetKind::HurricaneT => "Hurricane-T",
            DatasetKind::Salt => "SALT",
        }
    }

    /// Paper Table III dimensions, in this crate's storage order.
    pub fn paper_dims(&self) -> Vec<usize> {
        match self {
            DatasetKind::Ssh => vec![384, 320, 1032], // lat × lon × time
            DatasetKind::CesmT => vec![26, 1800, 3600], // height × lat × lon
            DatasetKind::Relhum => vec![26, 1800, 3600],
            DatasetKind::Soilliq => vec![360, 15, 96, 144], // time × depth × lat × lon
            DatasetKind::Tsfc => vec![384, 320, 360],       // lat × lon × time
            DatasetKind::HurricaneT => vec![100, 500, 500], // height × y × x
            DatasetKind::Salt => vec![30, 384, 320, 120],   // depth × lat × lon × time
        }
    }
}

/// A generated variable plus the metadata CliZ's tuner consumes.
#[derive(Clone, Debug)]
pub struct ClimateDataset {
    pub kind: DatasetKind,
    pub data: Grid<f32>,
    pub mask: Option<MaskMap>,
    /// Axis carrying time, when the variable has one.
    pub time_axis: Option<usize>,
    /// The cycle length the generator injected (12 = annual on monthly data).
    pub nominal_period: Option<usize>,
}

impl ClimateDataset {
    /// Invalid fraction, 0 when unmasked.
    pub fn invalid_fraction(&self) -> f64 {
        self.mask.as_ref().map_or(0.0, |m| m.invalid_fraction())
    }
}

/// Sea surface height, `[lat, lon, time]`. Engineering targets: land mask
/// (fill values), annual cycle along time, smooth mesoscale spatial field.
pub fn ssh(dims: &[usize; 3], seed: u64) -> ClimateDataset {
    let [nlat, nlon, ntime] = *dims;
    let terrain = terrain_field(
        nlat,
        nlon,
        TerrainSpec {
            seed,
            ..TerrainSpec::default()
        },
    );
    let rough = gradient_magnitude(&terrain);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55AA);

    let shape = Shape::new(dims);
    let n = shape.len();
    let mut data = Vec::with_capacity(n);
    let mut valid = Vec::with_capacity(n);
    for lat in 0..nlat {
        let lat_frac = lat as f64 / nlat as f64;
        // Hemispheres out of phase, stronger cycle at mid-latitudes.
        let hemi = if lat < nlat / 2 {
            0.0
        } else {
            std::f64::consts::PI
        };
        for lon in 0..nlon {
            let t2 = terrain.get(&[lat, lon]);
            let is_ocean = t2 <= 0.2;
            // Mesoscale circulation: smooth in space.
            let gyre = 0.6
                * ((lat as f64 * 0.045).sin() * (lon as f64 * 0.03).cos()
                    + 0.5 * (lon as f64 * 0.011).sin());
            let r = rough.get(&[lat, lon]) as f64;
            // Per-location seasonal amplitude/phase/harmonics keyed to the
            // local seabed: the annual cycle repeats exactly at each point
            // but differs *between* points, so spatial interpolation cannot
            // absorb it — only the template/residual split can (Sec. V-C).
            let amp = 0.15 + 0.12 * (lat_frac * std::f64::consts::PI).sin() + 0.8 * r;
            let phase = hemi + t2 as f64 * 2.0;
            let second_harmonic = 0.4 * amp * (t2 as f64 * 5.0).sin();
            for t in 0..ntime {
                if !is_ocean {
                    data.push(FILL_VALUE);
                    valid.push(false);
                    continue;
                }
                let wt = std::f64::consts::TAU * (t % 12) as f64 / 12.0;
                let season = amp * (wt + phase).sin() + second_harmonic * (2.0 * wt + phase).cos();
                let noise: f64 = rng.random_range(-1.0..1.0) * (0.002 + 0.02 * r);
                data.push((gyre + season + 1e-4 * t as f64 + noise) as f32);
                valid.push(true);
            }
        }
    }
    let data = Grid::from_vec(shape.clone(), data);
    let mask = MaskMap::from_flags(shape, valid);
    ClimateDataset {
        kind: DatasetKind::Ssh,
        data,
        mask: Some(mask),
        time_axis: Some(2),
        nominal_period: Some(12),
    }
}

/// Atmosphere temperature `[height, lat, lon]`. Engineering target: the
/// Sec. V-B anisotropy — big jumps between pressure levels (~4.4 K), tiny
/// steps along lat (~0.05 K) and lon (~0.017 K) — plus topography-coupled
/// texture near the surface (Sec. V-D).
pub fn cesm_t(dims: &[usize; 3], seed: u64) -> ClimateDataset {
    atmosphere_field(DatasetKind::CesmT, dims, seed, 255.0, 60.0, 0.15)
}

/// Atmosphere relative humidity `[height, lat, lon]`: same structure as
/// CESM-T with a noisier texture and values clamped to [0, 100].
pub fn relhum(dims: &[usize; 3], seed: u64) -> ClimateDataset {
    let mut d = atmosphere_field(DatasetKind::Relhum, dims, seed ^ 0x9e37, 55.0, 35.0, 1.2);
    for v in d.data.as_mut_slice() {
        *v = v.clamp(0.0, 100.0);
    }
    d
}

fn atmosphere_field(
    kind: DatasetKind,
    dims: &[usize; 3],
    seed: u64,
    base: f64,
    lat_amplitude: f64,
    noise_scale: f64,
) -> ClimateDataset {
    let [nh, nlat, nlon] = *dims;
    let terrain = terrain_field(
        nlat,
        nlon,
        TerrainSpec {
            seed,
            ..TerrainSpec::default()
        },
    );
    let rough = gradient_magnitude(&terrain);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA7A7);

    // Per-level profile: mean step ≈ 4.4 (paper's measured height variation),
    // alternating lapses so it is not a pure ramp.
    let mut level = vec![0.0f64; nh];
    let mut acc = base;
    for (h, l) in level.iter_mut().enumerate() {
        *l = acc;
        acc += 4.4 * if h % 7 == 3 { -0.6 } else { 1.0 };
    }
    // Lat profile: warm equator, ±lat_amplitude/2 swing.
    let latp: Vec<f64> = (0..nlat)
        .map(|i| lat_amplitude / 2.0 * ((i as f64 / nlat as f64) * std::f64::consts::PI).sin())
        .collect();
    // Lon waves: small amplitude, long wavelength.
    let lonp: Vec<f64> = (0..nlon)
        .map(|i| {
            2.5 * (i as f64 / nlon as f64 * std::f64::consts::TAU * 3.0).sin()
                + 1.5 * (i as f64 / nlon as f64 * std::f64::consts::TAU * 7.0).cos()
        })
        .collect();

    let shape = Shape::new(dims);
    let mut data = Vec::with_capacity(shape.len());
    for (h, &level_h) in level.iter().enumerate() {
        // Surface-coupled term decays with height.
        let surf_w = (-(h as f64) / 6.0).exp();
        for (lat, &lat_p) in latp.iter().enumerate() {
            for (lon, &lon_p) in lonp.iter().enumerate() {
                let topo = terrain.get(&[lat, lon]) as f64;
                let r = rough.get(&[lat, lon]) as f64;
                let noise: f64 = rng.random_range(-1.0..1.0);
                let v = level_h + lat_p + lon_p - 6.0 * topo.max(0.0) * surf_w
                    + noise * noise_scale * (0.3 + 3.0 * r) * surf_w;
                data.push(v as f32);
            }
        }
    }
    ClimateDataset {
        kind,
        data: Grid::from_vec(shape, data),
        mask: None,
        time_axis: None,
        nominal_period: None,
    }
}

/// Soil liquid water `[time, depth, lat, lon]` — the land-model variable
/// whose ocean points are all invalid (the paper notes ~70% of Earth is
/// masked for it, driving CliZ's biggest win).
pub fn soilliq(dims: &[usize; 4], seed: u64) -> ClimateDataset {
    let [ntime, ndepth, nlat, nlon] = *dims;
    let terrain = terrain_field(
        nlat,
        nlon,
        TerrainSpec {
            seed,
            ..TerrainSpec::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50_11);

    let shape = Shape::new(dims);
    let mut data = Vec::with_capacity(shape.len());
    let mut valid = Vec::with_capacity(shape.len());
    for t in 0..ntime {
        let season = (std::f64::consts::TAU * (t % 12) as f64 / 12.0).cos();
        for d in 0..ndepth {
            let depth_w = 1.0 / (1.0 + d as f64 * 0.35);
            for lat in 0..nlat {
                for lon in 0..nlon {
                    let topo = terrain.get(&[lat, lon]) as f64;
                    // Land = elevated terrain; threshold chosen so oceans +
                    // inland seas dominate, like the real variable.
                    let is_land = topo > 0.2;
                    if !is_land {
                        data.push(FILL_VALUE);
                        valid.push(false);
                        continue;
                    }
                    let wet = 18.0 * (topo - 0.2) * depth_w;
                    let cyc = 5.0 * season * depth_w;
                    let noise: f64 = rng.random_range(-0.2..0.2);
                    data.push((wet + cyc + noise).max(0.0) as f32);
                    valid.push(true);
                }
            }
        }
    }
    let mask = MaskMap::from_flags(shape.clone(), valid);
    ClimateDataset {
        kind: DatasetKind::Soilliq,
        data: Grid::from_vec(shape, data),
        mask: Some(mask),
        time_axis: Some(0),
        nominal_period: Some(12),
    }
}

/// Ocean salinity `[depth, lat, lon, time]` — a second ocean-model variable
/// sharing SSH's mask/periodicity structure, used to demonstrate the
/// paper's "one offline tuning per climate model, reused across fields"
/// workflow across *different* variables of the same model.
pub fn salt(dims: &[usize; 4], seed: u64) -> ClimateDataset {
    let [ndepth, nlat, nlon, ntime] = *dims;
    let terrain = terrain_field(
        nlat,
        nlon,
        TerrainSpec {
            seed,
            ..TerrainSpec::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A17);

    let shape = Shape::new(dims);
    let mut data = Vec::with_capacity(shape.len());
    let mut valid = Vec::with_capacity(shape.len());
    for d in 0..ndepth {
        // Halocline: salinity rises then stabilizes with depth.
        let depth_base = 33.0 + 2.0 * (1.0 - (-(d as f64) / 3.0).exp());
        // The seasonal cycle penetrates the mixed layer (slow decay).
        let season_w = (-(d as f64) / 6.0).exp();
        for lat in 0..nlat {
            let lat_frac = lat as f64 / nlat as f64;
            // Evaporation-dominated subtropics are saltier.
            let lat_term = 1.2 * (2.0 * std::f64::consts::PI * lat_frac).cos();
            for lon in 0..nlon {
                let t2 = terrain.get(&[lat, lon]);
                // Deeper cells are masked under shallow seabeds too.
                let is_water = (t2 as f64) < 0.2 - 0.05 * d as f64 / ndepth as f64;
                let phase = t2 as f64 * 3.0;
                for t in 0..ntime {
                    if !is_water {
                        data.push(FILL_VALUE);
                        valid.push(false);
                        continue;
                    }
                    let wt = std::f64::consts::TAU * (t % 12) as f64 / 12.0;
                    let season = 0.6 * season_w * (wt + phase).sin();
                    let noise: f64 = rng.random_range(-0.01..0.01);
                    data.push((depth_base + lat_term + season + noise) as f32);
                    valid.push(true);
                }
            }
        }
    }
    let mask = MaskMap::from_flags(shape.clone(), valid);
    ClimateDataset {
        kind: DatasetKind::Salt,
        data: Grid::from_vec(shape, data),
        mask: Some(mask),
        time_axis: Some(3),
        nominal_period: Some(12),
    }
}

/// Snow/ice surface temperature `[lat, lon, time]`: valid only near the
/// poles and on high terrain; strong annual cycle.
pub fn tsfc(dims: &[usize; 3], seed: u64) -> ClimateDataset {
    let [nlat, nlon, ntime] = *dims;
    let terrain = terrain_field(
        nlat,
        nlon,
        TerrainSpec {
            seed,
            ..TerrainSpec::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7afc);

    let shape = Shape::new(dims);
    let mut data = Vec::with_capacity(shape.len());
    let mut valid = Vec::with_capacity(shape.len());
    for lat in 0..nlat {
        let lat_frac = lat as f64 / nlat as f64;
        let polar = !(0.15..=0.85).contains(&lat_frac);
        // Colder toward poles.
        let lat_temp = -25.0 + 20.0 * (lat_frac * std::f64::consts::PI).sin();
        for lon in 0..nlon {
            let topo = terrain.get(&[lat, lon]) as f64;
            let icy = polar || topo > 0.75;
            for t in 0..ntime {
                if !icy {
                    data.push(FILL_VALUE);
                    valid.push(false);
                    continue;
                }
                let hemi = if lat_frac < 0.5 {
                    0.0
                } else {
                    std::f64::consts::PI
                };
                let season = 12.0 * (std::f64::consts::TAU * (t % 12) as f64 / 12.0 + hemi).cos();
                let noise: f64 = rng.random_range(-0.4..0.4);
                data.push((lat_temp - 8.0 * topo.max(0.0) + season + noise) as f32);
                valid.push(true);
            }
        }
    }
    let mask = MaskMap::from_flags(shape.clone(), valid);
    ClimateDataset {
        kind: DatasetKind::Tsfc,
        data: Grid::from_vec(shape, data),
        mask: Some(mask),
        time_axis: Some(2),
        nominal_period: Some(12),
    }
}

/// Hurricane temperature `[height, y, x]`: a warm-core vortex with spiral
/// bands — rough everywhere, no mask, no periodicity (paper Sec. VII-C3
/// notes convection destroys the topographic patterns).
pub fn hurricane_t(dims: &[usize; 3], seed: u64) -> ClimateDataset {
    let [nh, ny, nx] = *dims;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4444);
    let (cy, cx) = (ny as f64 / 2.0, nx as f64 / 2.0);
    let sigma = nx as f64 / 6.0;

    let shape = Shape::new(dims);
    let mut data = Vec::with_capacity(shape.len());
    for h in 0..nh {
        let base = 300.0 - 0.65 * h as f64;
        let core_amp = 8.0 * (-(h as f64 - nh as f64 * 0.6).powi(2) / (nh as f64)).exp();
        for y in 0..ny {
            for x in 0..nx {
                let dy = y as f64 - cy;
                let dx = x as f64 - cx;
                let r = (dx * dx + dy * dy).sqrt();
                let theta = dy.atan2(dx);
                let core = core_amp * (-(r * r) / (2.0 * sigma * sigma)).exp();
                let spiral =
                    1.5 * ((r / sigma * 4.0 - 2.0 * theta).sin()) * (-(r) / (3.0 * sigma)).exp();
                let noise: f64 = rng.random_range(-0.3..0.3);
                data.push((base + core + spiral + noise) as f32);
            }
        }
    }
    ClimateDataset {
        kind: DatasetKind::HurricaneT,
        data: Grid::from_vec(shape, data),
        mask: None,
        time_axis: None,
        nominal_period: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_grid::dimension_smoothness;

    #[test]
    fn ssh_has_mask_and_cycle() {
        let d = ssh(&[48, 40, 72], 7);
        let frac = d.invalid_fraction();
        assert!(frac > 0.05 && frac < 0.7, "land fraction {frac}");
        // Fill values only at masked positions.
        let m = d.mask.as_ref().unwrap();
        for (i, &v) in d.data.as_slice().iter().enumerate() {
            assert_eq!(v == FILL_VALUE, !m.is_valid(i));
        }
        // Annual cycle: value at (lat,lon,t) close to value at t+12.
        let mut diffs = 0.0f64;
        let mut n = 0usize;
        for lat in 0..48 {
            for t in 0..60 {
                let i = d.data.shape().index_of(&[lat, 10, t]);
                let j = d.data.shape().index_of(&[lat, 10, t + 12]);
                if m.is_valid(i) {
                    diffs += (d.data.as_slice()[i] - d.data.as_slice()[j]).abs() as f64;
                    n += 1;
                }
            }
        }
        if n > 0 {
            assert!(
                diffs / n as f64 <= 0.2,
                "periodicity too weak: {}",
                diffs / n as f64
            );
        }
    }

    #[test]
    fn cesm_t_smoothness_anisotropy() {
        let d = cesm_t(&[26, 120, 240], 7);
        let all = MaskMap::all_valid(d.data.shape().clone());
        let s = dimension_smoothness(&d.data, &all);
        // Height must be far rougher than lat/lon (paper: 4.425 vs 0.05/0.017).
        assert!(
            s[0].mean_abs_diff > 5.0 * s[1].mean_abs_diff,
            "height {} vs lat {}",
            s[0].mean_abs_diff,
            s[1].mean_abs_diff
        );
        assert!(s[0].mean_abs_diff > 5.0 * s[2].mean_abs_diff);
        // Height step magnitude in the right ballpark.
        assert!(s[0].mean_abs_diff > 2.0 && s[0].mean_abs_diff < 10.0);
    }

    #[test]
    fn relhum_in_physical_range() {
        let d = relhum(&[8, 40, 80], 3);
        assert!(d
            .data
            .as_slice()
            .iter()
            .all(|&v| (0.0..=100.0).contains(&v)));
    }

    #[test]
    fn soilliq_mostly_masked() {
        let d = soilliq(&[24, 5, 32, 48], 7);
        let frac = d.invalid_fraction();
        // Paper: ~70% of the surface is water for the land model.
        assert!(frac > 0.4, "invalid fraction {frac}");
        assert_eq!(d.time_axis, Some(0));
        assert_eq!(d.data.shape().ndim(), 4);
    }

    #[test]
    fn tsfc_polar_mask() {
        let d = tsfc(&[60, 40, 36], 7);
        let m = d.mask.as_ref().unwrap();
        // Polar rows fully valid, temperate rows mostly invalid.
        let row_valid = |lat: usize| {
            (0..40)
                .map(|lon| m.is_valid(d.data.shape().index_of(&[lat, lon, 0])) as usize)
                .sum::<usize>()
        };
        assert_eq!(row_valid(2), 40);
        assert!(row_valid(30) < 20);
    }

    #[test]
    fn hurricane_has_warm_core() {
        let d = hurricane_t(&[20, 64, 64], 7);
        let center = d.data.get(&[12, 32, 32]);
        let edge = d.data.get(&[12, 2, 2]);
        assert!(center > edge + 2.0, "core {center} vs edge {edge}");
        assert!(d.mask.is_none());
    }

    #[test]
    fn salt_shares_ocean_model_structure() {
        let d = salt(&[6, 32, 40, 36], 7);
        assert_eq!(d.data.shape().ndim(), 4);
        assert_eq!(d.time_axis, Some(3));
        assert_eq!(d.nominal_period, Some(12));
        let frac = d.invalid_fraction();
        assert!(frac > 0.1 && frac < 0.9, "invalid fraction {frac}");
        // Salinity in a physical range on valid points.
        let m = d.mask.as_ref().unwrap();
        for (i, &v) in d.data.as_slice().iter().enumerate() {
            if m.is_valid(i) {
                assert!((25.0..45.0).contains(&v), "salinity {v}");
            } else {
                assert_eq!(v, FILL_VALUE);
            }
        }
        // Deeper masks are supersets of surface masks (shallow seabeds).
        let shape = d.data.shape();
        for lat in 0..32 {
            for lon in 0..40 {
                let surf = m.is_valid(shape.index_of(&[0, lat, lon, 0]));
                let deep = m.is_valid(shape.index_of(&[5, lat, lon, 0]));
                assert!(surf || !deep, "water at depth but not surface");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = ssh(&[24, 20, 36], 42);
        let b = ssh(&[24, 20, 36], 42);
        assert_eq!(a.data, b.data);
        let c = ssh(&[24, 20, 36], 43);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn paper_dims_match_table3() {
        assert_eq!(DatasetKind::Ssh.paper_dims(), vec![384, 320, 1032]);
        assert_eq!(DatasetKind::CesmT.paper_dims(), vec![26, 1800, 3600]);
        assert_eq!(DatasetKind::Soilliq.paper_dims(), vec![360, 15, 96, 144]);
        assert_eq!(DatasetKind::HurricaneT.paper_dims(), vec![100, 500, 500]);
    }
}
