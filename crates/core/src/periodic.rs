//! Periodic component extraction (Sec. VI-D).
//!
//! Given a detected period `p` along the time axis, the data is split into a
//! *template* — the per-phase mean, with the time extent shrunk to `p` — and
//! a *residual*. Crucially the residual is taken against the **reconstructed**
//! template (the one the decoder will see), so the user-facing error bound
//! is carried entirely by the residual stage regardless of how lossily the
//! template was stored.
//!
//! Every kernel here walks the grid as *cycles* and does no index
//! arithmetic per element. In row-major order the grid is a run of outer
//! blocks, each of `dim(time_axis) × inner` elements, where `inner` is the
//! product of the dims after the time axis. Each block is cut into cycles of
//! `period × inner` elements, laid out exactly like the template's block, so
//! a cycle zips element for element with the template and no phase
//! `t % period` is ever computed. The last cycle of a block is short when
//! the period does not divide the time extent.
//!
//! The walk visits the data in ascending index order. A template cell
//! therefore still sums its values in ascending data index, as a
//! per-element walk would, so each f64 sum, and with it every template
//! byte, is the same.

use cliz_grid::{Grid, MaskMap, Shape};

/// Template shape: `dims` with the time axis shrunk to `period`.
pub fn template_shape(shape: &Shape, time_axis: usize, period: usize) -> Shape {
    let mut dims = shape.dims().to_vec();
    dims[time_axis] = period;
    Shape::new(&dims)
}

/// The cycle walk (see the module docs): for every cycle of `shape`, in
/// ascending data order, its start in the data, its start in the template
/// and its length.
fn cycles(
    shape: &Shape,
    time_axis: usize,
    period: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let inner = shape.stride(time_axis);
    let block = shape.dim(time_axis) * inner;
    let cycle = period * inner;
    (0..shape.len() / block).flat_map(move |o| {
        (0..block)
            .step_by(cycle)
            .map(move |c| (o * block + c, o * cycle, cycle.min(block - c)))
    })
}

/// Builds the per-phase mean template over the finite valid values. Masked
/// points contribute nothing, and neither do non-finite ones: one `±inf` or
/// NaN in a mean would make the cell non-finite, and with it the residual of
/// every point in its phase column, so adding the template back would turn
/// finite inputs into NaN. A non-finite value still reaches the residual
/// (`±inf − t` and `NaN − t` keep it), where the quantizer stores it as a
/// literal. A phase-position with no finite valid contributions gets 0; it
/// is invalid in the template mask only when it has no valid point at all.
pub fn build_template(
    data: &Grid<f32>,
    mask: Option<&MaskMap>,
    time_axis: usize,
    period: usize,
) -> Grid<f32> {
    let shape = data.shape();
    let mut values = Vec::new();
    template_in_layout(
        data.as_slice(),
        shape,
        mask.map(MaskMap::as_slice),
        time_axis,
        period,
        &mut values,
    );
    Grid::from_vec(template_shape(shape, time_axis, period), values)
}

/// [`build_template`] and, with a mask, [`template_mask`], over `values`,
/// row-major over `shape`, with `mask` laid like it. The template is
/// appended to `values_out` (an arena's buffer, say), row-major over
/// [`template_shape`]; the template mask's flags are returned.
///
/// Any layout works, as long as `time_axis` is the time axis of that
/// layout: the periodic encoder runs this on the walk's buffer in the
/// working (permuted) layout, where the template comes out permuted alike.
/// A template cell's values differ only in their time index, so the cycle
/// walk adds them in ascending time in every layout, and each f64 sum, and
/// with it every template value, is the one the original layout gives.
///
/// Each cycle takes three plain loops, which the compiler vectorizes where
/// one loop mixing byte flags, `u32` counts and `f64` sums did not (1.5×
/// faster on the archive workload's slabs): the counts, with each value
/// that counts copied and every other one zeroed through a `u32` bit mask;
/// the sums of those copies; and the flags' OR. A zeroed value adds `+0.0`,
/// and a sum starts at `+0.0` and can never become `−0.0`, so that leaves
/// its bits as they are.
pub(crate) fn template_in_layout(
    values: &[f32],
    shape: &Shape,
    mask: Option<&[bool]>,
    time_axis: usize,
    period: usize,
    values_out: &mut Vec<f32>,
) -> Option<Vec<bool>> {
    let t_len = template_shape(shape, time_axis, period).len();
    let mut sums = vec![0.0f64; t_len];
    let mut counts = vec![0u32; t_len];
    let mut valid = mask.map(|_| vec![false; t_len]);
    let mut kept = vec![0.0f32; (period * shape.stride(time_axis)).min(shape.len())];
    for (d, t, n) in cycles(shape, time_axis, period) {
        let (cycle, kept) = (&values[d..d + n], &mut kept[..n]);
        let counted = kept.iter_mut().zip(&mut counts[t..t + n]).zip(cycle);
        match (mask, valid.as_mut()) {
            (Some(m), Some(valid)) => {
                let flags = &m[d..d + n];
                for (((k, count), &v), &ok) in counted.zip(flags) {
                    let take = u32::from(ok & v.is_finite());
                    *count += take;
                    *k = f32::from_bits(v.to_bits() & 0u32.wrapping_sub(take));
                }
                for (cell, &ok) in valid[t..t + n].iter_mut().zip(flags) {
                    *cell |= ok;
                }
            }
            _ => {
                for ((k, count), &v) in counted {
                    let take = u32::from(v.is_finite());
                    *count += take;
                    *k = f32::from_bits(v.to_bits() & 0u32.wrapping_sub(take));
                }
            }
        }
        for (sum, &k) in sums[t..t + n].iter_mut().zip(kept.iter()) {
            *sum += f64::from(k);
        }
    }
    values_out.extend(sums.iter().zip(&counts).map(|(&s, &c)| {
        if c > 0 {
            (s / f64::from(c)) as f32
        } else {
            0.0
        }
    }));
    valid
}

/// Derives the template's validity mask from the data mask: a template
/// position is valid when at least one of its phase occurrences is. Both
/// encoder and decoder call this, so it is never serialized.
pub fn template_mask(mask: &MaskMap, time_axis: usize, period: usize) -> MaskMap {
    let shape = mask.shape();
    let t_shape = template_shape(shape, time_axis, period);
    let mut valid = vec![false; t_shape.len()];
    let flags = mask.as_slice();
    for (d, t, n) in cycles(shape, time_axis, period) {
        for (cell, &ok) in valid[t..t + n].iter_mut().zip(&flags[d..d + n]) {
            *cell |= ok;
        }
    }
    MaskMap::from_flags(t_shape, valid)
}

/// `residual = data − template[phase]`, with masked points zeroed.
pub fn subtract_template(
    data: &Grid<f32>,
    template: &Grid<f32>,
    mask: Option<&MaskMap>,
    time_axis: usize,
) -> Grid<f32> {
    let mut values = data.as_slice().to_vec();
    subtract_template_in_place(
        &mut values,
        data.shape(),
        template.as_slice(),
        mask.map(MaskMap::as_slice),
        time_axis,
        template.shape().dim(time_axis),
    );
    Grid::from_vec(data.shape().clone(), values)
}

/// [`subtract_template`] over `values` in place: `v − template[phase]` at
/// every point `mask` flags valid (every point without a mask), `0.0` at
/// the others. `values` is row-major over `shape`, `template` over `shape`
/// with `time_axis` cut to `period`, and `mask` is laid like `values`. Any
/// layout works as long as the three agree, so the periodic encoder runs
/// this on the walk's buffer in the working (permuted) layout, with the
/// template's buffer in that layout and the permuted time axis.
pub(crate) fn subtract_template_in_place(
    values: &mut [f32],
    shape: &Shape,
    template: &[f32],
    mask: Option<&[bool]>,
    time_axis: usize,
    period: usize,
) {
    apply_template(
        values,
        shape,
        template,
        mask,
        time_axis,
        period,
        |d, t, ok| {
            if ok {
                d - t
            } else {
                0.0
            }
        },
    );
}

/// `data = residual + template[phase]` (decoder side), over the residual's
/// own buffer. Masked points get `fill_value` (0 when it is NaN).
pub fn add_template(
    residual: Grid<f32>,
    template: &Grid<f32>,
    mask: Option<&MaskMap>,
    time_axis: usize,
    fill_value: f32,
) -> Grid<f32> {
    let fill = if fill_value.is_nan() { 0.0 } else { fill_value };
    let shape = residual.shape().clone();
    let mut values = residual.into_vec();
    apply_template(
        &mut values,
        &shape,
        template.as_slice(),
        mask.map(MaskMap::as_slice),
        time_axis,
        template.shape().dim(time_axis),
        |r, t, ok| {
            if ok {
                r + t
            } else {
                fill
            }
        },
    );
    Grid::from_vec(shape, values)
}

/// `v = op(v, template[phase], valid)` at every point, over the cycle walk;
/// without a mask every point is valid.
fn apply_template(
    values: &mut [f32],
    shape: &Shape,
    template: &[f32],
    mask: Option<&[bool]>,
    time_axis: usize,
    period: usize,
    op: impl Fn(f32, f32, bool) -> f32,
) {
    for (d, t, n) in cycles(shape, time_axis, period) {
        let pairs = values[d..d + n].iter_mut().zip(&template[t..t + n]);
        match mask {
            None => pairs.for_each(|(v, &tv)| *v = op(*v, tv, true)),
            Some(flags) => {
                for ((v, &tv), &ok) in pairs.zip(&flags[d..d + n]) {
                    *v = op(*v, tv, ok);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frozen per-element oracles for the three kernels: one `coords_of`
    /// and one `index_of` per element.
    mod oracle {
        use super::super::template_shape;
        use cliz_grid::{Grid, MaskMap};

        pub fn build_template(
            data: &Grid<f32>,
            mask: Option<&MaskMap>,
            time_axis: usize,
            period: usize,
        ) -> Grid<f32> {
            let shape = data.shape();
            let t_shape = template_shape(shape, time_axis, period);
            let mut sums = vec![0.0f64; t_shape.len()];
            let mut counts = vec![0u32; t_shape.len()];
            let ndim = shape.ndim();
            let mut coords = vec![0usize; ndim];
            for (i, &v) in data.as_slice().iter().enumerate() {
                if mask.is_some_and(|m| !m.is_valid(i)) || !v.is_finite() {
                    continue;
                }
                shape.coords_of(i, &mut coords);
                coords[time_axis] %= period;
                let t_idx = t_shape.index_of(&coords);
                sums[t_idx] += v as f64;
                counts[t_idx] += 1;
            }
            let values: Vec<f32> = sums
                .iter()
                .zip(&counts)
                .map(|(&s, &c)| {
                    if c > 0 {
                        (s / f64::from(c)) as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            Grid::from_vec(t_shape, values)
        }

        pub fn template_mask(mask: &MaskMap, time_axis: usize, period: usize) -> MaskMap {
            let shape = mask.shape();
            let t_shape = template_shape(shape, time_axis, period);
            let mut valid = vec![false; t_shape.len()];
            let ndim = shape.ndim();
            let mut coords = vec![0usize; ndim];
            for i in 0..shape.len() {
                if !mask.is_valid(i) {
                    continue;
                }
                shape.coords_of(i, &mut coords);
                coords[time_axis] %= period;
                valid[t_shape.index_of(&coords)] = true;
            }
            MaskMap::from_flags(t_shape, valid)
        }

        pub fn apply_template(
            input: &Grid<f32>,
            template: &Grid<f32>,
            mask: Option<&MaskMap>,
            time_axis: usize,
            fill_value: f32,
            op: impl Fn(f32, f32) -> f32,
        ) -> Grid<f32> {
            let shape = input.shape();
            let t_shape = template.shape();
            let period = t_shape.dim(time_axis);
            let ndim = shape.ndim();
            let mut coords = vec![0usize; ndim];
            let mut out = Vec::with_capacity(input.len());
            let t_buf = template.as_slice();
            for (i, &v) in input.as_slice().iter().enumerate() {
                if mask.is_some_and(|m| !m.is_valid(i)) {
                    out.push(if fill_value.is_nan() { 0.0 } else { fill_value });
                    continue;
                }
                shape.coords_of(i, &mut coords);
                coords[time_axis] %= period;
                out.push(op(v, t_buf[t_shape.index_of(&coords)]));
            }
            Grid::from_vec(shape.clone(), out)
        }
    }

    /// Seeded LCG stream for the sweep's values and masks.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Values that make summation order visible: about half are ±2^40,
    /// which cancel each other, and the rest are near 2^-20, which a partial
    /// sum holding 2^40 absorbs. A template cell summed in any order other
    /// than ascending data index then gets another mean. About one value
    /// in 16 is +inf, −inf or NaN, which the template must skip.
    fn order_sensitive_values(shape: &Shape, seed: u64) -> Grid<f32> {
        let mut state = seed;
        let values = (0..shape.len())
            .map(|_| {
                let r = lcg(&mut state);
                let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                if r >> 20 & 15 == 0 {
                    [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(r >> 24) as usize % 3]
                } else if r & 2 == 0 {
                    sign * 2f32.powi(40)
                } else {
                    sign * (1.0 + (r >> 8 & 0xFFFF) as f32 / 65536.0) * 2f32.powi(-20)
                }
            })
            .collect();
        Grid::from_vec(shape.clone(), values)
    }

    /// The sweep's masks: none, seeded random (about a quarter invalid),
    /// and random plus one fully invalid phase column (phase 1 at the
    /// origin of every other axis), whose template cell gets no value.
    fn sweep_masks(
        shape: &Shape,
        time_axis: usize,
        period: usize,
        seed: u64,
    ) -> [Option<MaskMap>; 3] {
        let mut state = seed;
        let random: Vec<bool> = (0..shape.len()).map(|_| lcg(&mut state) & 3 != 0).collect();
        let mut coords = vec![0usize; shape.ndim()];
        let column: Vec<bool> = random
            .iter()
            .enumerate()
            .map(|(i, &ok)| {
                shape.coords_of(i, &mut coords);
                let at_origin = coords
                    .iter()
                    .enumerate()
                    .all(|(a, &c)| a == time_axis || c == 0);
                ok && !(at_origin && coords[time_axis] % period == 1)
            })
            .collect();
        [
            None,
            Some(MaskMap::from_flags(shape.clone(), random)),
            Some(MaskMap::from_flags(shape.clone(), column)),
        ]
    }

    fn bits(g: &Grid<f32>) -> Vec<u32> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Ranks 1–4, every time axis, every period from 2 to len − 1 (so
    /// short final cycles occur), three masks, values with ±inf and NaN
    /// among them: the cycle walk matches the per-element oracles bit for
    /// bit.
    #[test]
    fn cycle_walk_matches_per_element_oracle() {
        let shapes: [&[usize]; 5] = [&[9], &[4, 7], &[3, 5, 6], &[3, 4, 3, 5], &[3, 4, 1, 5]];
        let fill = -999.5f32;
        let mut non_finite = [0usize; 3];
        for dims in shapes {
            let shape = Shape::new(dims);
            for time_axis in 0..dims.len() {
                for period in 2..dims[time_axis] {
                    let case = format!("{dims:?} axis {time_axis} period {period}");
                    let seed = (time_axis * 31 + period) as u64;
                    let data = order_sensitive_values(&shape, seed);
                    for v in data.as_slice() {
                        non_finite[0] += usize::from(*v == f32::INFINITY);
                        non_finite[1] += usize::from(*v == f32::NEG_INFINITY);
                        non_finite[2] += usize::from(v.is_nan());
                    }
                    for mask in sweep_masks(&shape, time_axis, period, seed) {
                        let mask = mask.as_ref();
                        let template = build_template(&data, mask, time_axis, period);
                        let want = oracle::build_template(&data, mask, time_axis, period);
                        assert_eq!(bits(&template), bits(&want), "build_template {case}");
                        if let Some(m) = mask {
                            assert_eq!(
                                template_mask(m, time_axis, period),
                                oracle::template_mask(m, time_axis, period),
                                "template_mask {case}"
                            );
                        }
                        let residual = subtract_template(&data, &template, mask, time_axis);
                        let want = oracle::apply_template(
                            &data,
                            &template,
                            mask,
                            time_axis,
                            f32::NAN,
                            |d, t| d - t,
                        );
                        assert_eq!(bits(&residual), bits(&want), "subtract_template {case}");
                        let back = add_template(residual.clone(), &template, mask, time_axis, fill);
                        let want = oracle::apply_template(
                            &residual,
                            &template,
                            mask,
                            time_axis,
                            fill,
                            |r, t| r + t,
                        );
                        assert_eq!(bits(&back), bits(&want), "add_template {case}");
                        for (i, v) in back.as_slice().iter().enumerate() {
                            if mask.is_some_and(|m| !m.is_valid(i)) {
                                assert_eq!(v.to_bits(), fill.to_bits(), "fill at {i}, {case}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            non_finite.iter().all(|&c| c > 0),
            "±inf/NaN counts {non_finite:?}"
        );
    }

    /// The residual as the periodic encoder builds it in the walk's buffer:
    /// the data permuted into the working layout, minus the template
    /// permuted likewise, along the permuted time axis, with the permuted
    /// mask. Ranks 2–4, every permutation, every time axis, every period
    /// from 2 to len − 1 (so periods that do not divide the time extent),
    /// three masks, values with ±inf and NaN: it equals
    /// [`subtract_template`]'s residual permuted, bit for bit.
    #[test]
    fn working_layout_subtraction_matches_subtract_then_permute() {
        let shapes: [&[usize]; 3] = [&[4, 7], &[3, 5, 4], &[2, 3, 1, 5]];
        let mut cases = 0;
        for dims in shapes {
            let shape = Shape::new(dims);
            for time_axis in 0..dims.len() {
                for period in 2..dims[time_axis] {
                    let seed = (time_axis * 17 + period) as u64;
                    let data = order_sensitive_values(&shape, seed);
                    for mask in sweep_masks(&shape, time_axis, period, seed) {
                        let mask = mask.as_ref();
                        let template = build_template(&data, mask, time_axis, period);
                        let residual = subtract_template(&data, &template, mask, time_axis);
                        for perm in Shape::all_permutations(dims.len()) {
                            let working_axis = perm.iter().position(|&p| p == time_axis).unwrap();
                            let mut buf = data.permuted(&perm).into_vec();
                            let wmask = mask.map(|m| m.permuted(&perm));
                            subtract_template_in_place(
                                &mut buf,
                                &shape.permuted(&perm),
                                template.permuted(&perm).as_slice(),
                                wmask.as_ref().map(MaskMap::as_slice),
                                working_axis,
                                period,
                            );
                            let want = residual.permuted(&perm);
                            let got: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                got,
                                bits(&want),
                                "{dims:?} axis {time_axis} period {period} perm {perm:?} \
                                 masked {}",
                                mask.is_some()
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 100, "{cases} cases");
    }

    /// The template and its mask as the periodic encoder builds them, from
    /// the data and mask permuted into the working layout, along the
    /// permuted time axis: ranks 1–4, every permutation, every time axis,
    /// periods that divide the time extent and periods that do not, masks
    /// none, land-like (the same along time), scattered, and scattered
    /// with a phase column that has no valid point, values with NaN and
    /// ±inf. Each equals the frozen per-element oracle's template and
    /// template mask permuted, and [`build_template`] and
    /// [`template_mask`] permuted, bit for bit.
    #[test]
    fn working_layout_template_matches_template_then_permute() {
        let shapes: [&[usize]; 5] = [&[7], &[4, 6], &[3, 5, 6], &[2, 3, 1, 8], &[3, 2, 4, 5]];
        let mut cases = 0;
        for dims in shapes {
            let shape = Shape::new(dims);
            for time_axis in 0..dims.len() {
                for period in 2..dims[time_axis] {
                    let seed = (time_axis * 13 + period) as u64 + 7;
                    let data = order_sensitive_values(&shape, seed);
                    let mut coords = vec![0usize; shape.ndim()];
                    let land: Vec<bool> = (0..shape.len())
                        .map(|i| {
                            shape.coords_of(i, &mut coords);
                            coords[time_axis] = 0;
                            shape.index_of(&coords) % 3 != 1
                        })
                        .collect();
                    let [none, scattered, column] = sweep_masks(&shape, time_axis, period, seed);
                    let land = Some(MaskMap::from_flags(shape.clone(), land));
                    if let Some(c) = &column {
                        assert!(!template_mask(c, time_axis, period).is_all_valid());
                    }
                    for mask in [none, land, scattered, column] {
                        let mask = mask.as_ref();
                        let want = oracle::build_template(&data, mask, time_axis, period);
                        let want_mask = mask.map(|m| oracle::template_mask(m, time_axis, period));
                        let public = build_template(&data, mask, time_axis, period);
                        assert_eq!(bits(&public), bits(&want));
                        for perm in Shape::all_permutations(dims.len()) {
                            let case = format!(
                                "{dims:?} axis {time_axis} period {period} perm {perm:?} \
                                 masked {}",
                                mask.is_some()
                            );
                            let working_axis = perm.iter().position(|&p| p == time_axis).unwrap();
                            let values = data.permuted(&perm);
                            let wmask = mask.map(|m| m.permuted(&perm));
                            let mut got = vec![f32::NAN; 2];
                            let got_mask = template_in_layout(
                                values.as_slice(),
                                values.shape(),
                                wmask.as_ref().map(MaskMap::as_slice),
                                working_axis,
                                period,
                                &mut got,
                            );
                            let got: Vec<u32> = got[2..].iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, bits(&want.permuted(&perm)), "template {case}");
                            assert_eq!(got, bits(&public.permuted(&perm)), "template {case}");
                            let want_flags = want_mask.as_ref().map(|m| m.permuted(&perm));
                            assert_eq!(
                                got_mask.as_deref(),
                                want_flags.as_ref().map(MaskMap::as_slice),
                                "template mask {case}"
                            );
                            let public_flags =
                                mask.map(|m| template_mask(m, time_axis, period).permuted(&perm));
                            assert_eq!(
                                got_mask.as_deref(),
                                public_flags.as_ref().map(MaskMap::as_slice),
                                "template mask {case}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 1000, "{cases} cases");
    }

    /// value = phase pattern + station offset: residual should be tiny.
    fn periodic_data(stations: usize, time: usize, period: usize) -> Grid<f32> {
        Grid::from_fn(Shape::new(&[stations, time]), |c| {
            let phase = (c[1] % period) as f32;
            10.0 * c[0] as f32 + phase * phase
        })
    }

    #[test]
    fn template_is_phase_mean() {
        let g = periodic_data(3, 24, 12);
        let t = build_template(&g, None, 1, 12);
        assert_eq!(t.shape().dims(), &[3, 12]);
        // Perfectly periodic data: template equals any one period.
        for s in 0..3 {
            for r in 0..12 {
                assert_eq!(t.get(&[s, r]), g.get(&[s, r]));
            }
        }
    }

    #[test]
    fn residual_of_perfectly_periodic_data_is_zero() {
        let g = periodic_data(4, 36, 12);
        let t = build_template(&g, None, 1, 12);
        let r = subtract_template(&g, &t, None, 1);
        assert!(r.as_slice().iter().all(|&v| v.abs() < 1e-4));
    }

    #[test]
    fn add_inverts_subtract() {
        let g = Grid::from_fn(Shape::new(&[5, 30]), |c| {
            ((c[0] * 30 + c[1]) as f32 * 0.37).sin() * 9.0
        });
        let t = build_template(&g, None, 1, 6);
        let r = subtract_template(&g, &t, None, 1);
        let back = add_template(r, &t, None, 1, 0.0);
        for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn uneven_final_period_handled() {
        // 26 timesteps, period 12: phases 0..=1 have 3 samples, rest 2.
        let g = periodic_data(2, 26, 12);
        let t = build_template(&g, None, 1, 12);
        let r = subtract_template(&g, &t, None, 1);
        let back = add_template(r, &t, None, 1, 0.0);
        for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_points_dont_pollute_template() {
        let g = periodic_data(2, 24, 12);
        // Corrupt station 0's first period and mask it out.
        let mut data = g.clone();
        let mut valid = vec![true; g.len()];
        valid[..12].fill(false);
        for tt in 0..12 {
            data.set(&[0, tt], 1.0e30);
        }
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let t = build_template(&data, Some(&mask), 1, 12);
        // Template for station 0 should come from the clean second period.
        for r in 0..12 {
            assert!(
                (t.get(&[0, r]) - g.get(&[0, r + 12])).abs() < 1e-4,
                "phase {r}"
            );
        }
    }

    #[test]
    fn non_finite_values_dont_poison_template() {
        // +inf, -inf and NaN at valid points of three phase columns, with
        // and without a mask: each cell's mean comes from its finite values
        // only. The data is perfectly periodic, so every cell must equal
        // the clean phase value.
        let clean = periodic_data(3, 36, 12);
        let mut g = clean.clone();
        for (i, v) in [
            (5usize, f32::INFINITY),
            (36 + 7, f32::NEG_INFINITY),
            (72 + 30, f32::NAN),
        ] {
            g.as_mut_slice()[i] = v;
        }
        let mut valid = vec![true; g.len()];
        valid[17] = false;
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        for mask in [None, Some(&mask)] {
            let t = build_template(&g, mask, 1, 12);
            for (k, &v) in t.as_slice().iter().enumerate() {
                let want = clean.get(&[k / 12, k % 12]);
                assert_eq!(v, want, "cell {k}, masked {}", mask.is_some());
            }
        }
    }

    #[test]
    fn template_mask_or_over_phases() {
        let shape = Shape::new(&[1, 6]);
        // Valid only at t = 4 -> phase 1 (period 3).
        let mask = MaskMap::from_flags(shape, vec![false, false, false, false, true, false]);
        let tm = template_mask(&mask, 1, 3);
        assert_eq!(tm.shape().dims(), &[1, 3]);
        assert_eq!(tm.as_slice(), &[false, true, false]);
    }

    #[test]
    fn masked_residual_positions_are_zero() {
        let g = periodic_data(2, 12, 6);
        let mut valid = vec![true; g.len()];
        valid[5] = false;
        let mask = MaskMap::from_flags(g.shape().clone(), valid);
        let t = build_template(&g, Some(&mask), 1, 6);
        let r = subtract_template(&g, &t, Some(&mask), 1);
        assert_eq!(r.as_slice()[5], 0.0);
    }
}
