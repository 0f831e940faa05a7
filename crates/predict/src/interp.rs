//! Level-by-level interpolation traversal shared by compression and
//! decompression.
//!
//! Both sides walk the identical point sequence; compression quantizes
//! `value − prediction` into a symbol grid, decompression replays the symbols
//! into reconstructions. One [`walk`] serves both, generic over a [`Side`]
//! that turns each run of predictions into values, so encode and decode
//! cannot diverge in traversal.
//!
//! A pass of the walk never reads what it writes: its targets sit at odd
//! multiples of the stride `s` along the active dimension, every reference
//! at an even multiple. The walk turns that into disjoint borrows. It hands
//! the side each pass's targets as runs — `count` targets `2s` apart along
//! the trailing dimension, one mutable slice — and computes their
//! predictions from slices that cannot overlap that run:
//!
//! * a strided pass (any dimension but the trailing one) splits each
//!   target run from its `±s` and `±3s` reference runs with
//!   `split_at_mut`; the reference runs have the target run's layout, so
//!   the stencil zips them;
//! * a trailing pass copies the line's references (its even multiples of
//!   `s`) into one hoisted buffer, padded with invalid slots so the
//!   boundary targets read whole windows, and writes the odd multiples in
//!   place.
//!
//! The side writes each target as its prediction arrives: there is no
//! scratch of values and no commit loop, and the compiler knows no stencil
//! load aliases a store. How it writes depends on the direction:
//!
//! * Decode reconstructs each target from its symbol as it is predicted,
//!   with the level's quantizer held in a local. A section whose
//!   validation pass found no escape runs a body with no escape test.
//! * Encode predicts a run into a hoisted `f64` batch, then quantizes the
//!   batch in a flat loop, writing symbols and reconstructions in place.
//!   The quantizer's long arithmetic chain then runs in a loop of its own
//!   instead of waiting on each stencil.
//!
//! Unmasked interior targets run the plain stencil, as the reference does,
//! and unmasked boundary targets run [`linear_fit`] or [`cubic_fit`] with
//! validity from bounds alone.
//!
//! A masked section is read through its [`Stretches`], the run-length form
//! of its mask, and never one flag at a time. The walk cuts each run where
//! the validity of its target or of a reference changes, so the side only
//! ever sees valid targets and has no mask test of its own:
//!
//! * an invalid stretch is skipped; its symbols get the zero-bin
//!   placeholder, or its values the fill, once per section;
//! * a strided run is cut where the intersection of the target row's and
//!   the reference rows' stretches changes, so each piece has one validity
//!   pattern and runs with Theorem 1's coefficients fixed for the piece.
//!   Where the reference rows have the target row's stretches (a mask
//!   constant along the pass's dimension), the pieces are the target's
//!   stretches and no intersection is computed;
//! * on a trailing line, the targets whose references all lie in the
//!   target's stretch run with the all-valid coefficients fixed, and only
//!   the targets near a stretch end run the per-point fit.
//!
//! Fixed or per point, every masked prediction is [`weighted`]'s sum, in
//! the frozen reference's order: never the plain stencil, which rounds
//! differently.
//!
//! Decode validates its untrusted streams in [`reconstruct`] itself: one
//! pre-pass over the valid points finds the largest symbol (against the
//! quantizer radius) and the raster position of every escape (their count
//! against the literal stream) before the walk writes anything, so
//! `recover` only ever sees in-radius bins and callers need no scan of
//! their own. A run that meets an escape recovers it as bin 0 with the
//! rest, branch-free, then writes the literals of its escapes, found by
//! binary search over those positions. [`reconstruct_leveled`] checks
//! against the smallest radius over the walk's levels, which is exact when
//! every level shares one radius, as every encoder here does. A caller
//! whose symbols came straight from a Huffman codebook says so with
//! [`InterpParams::with_codebook`]: when nothing in the book is past the
//! radius, the book's largest symbol answers the radius check, and the
//! pre-pass shrinks to a branch-free escape count per block when the book
//! holds [`ESCAPE`] and to nothing when it does not.

use crate::fitting::{cubic_coeffs, linear_coeffs, Fitting};
use crate::stretches::Stretches;
use cliz_quant::{bin_to_symbol, LinearQuantizer, ESCAPE};
use std::borrow::Cow;

/// Per-call parameters for the interpolation pass.
#[derive(Clone, Copy, Debug)]
pub struct InterpParams<'a> {
    pub fitting: Fitting,
    /// Validity per point (raster order); `None` = everything valid.
    pub mask: Option<&'a [bool]>,
    /// `mask` in run-length form, rows along the trailing dimension, when
    /// the caller has built it; the walk builds it from `mask` otherwise.
    stretches: Option<&'a Stretches>,
    /// The caller's word on the symbols it decodes with these parameters:
    /// every one is in this codebook. `None` when unchecked.
    codebook: Option<&'a [u32]>,
}

impl<'a> InterpParams<'a> {
    pub fn new(fitting: Fitting) -> Self {
        Self {
            fitting,
            mask: None,
            stretches: None,
            codebook: None,
        }
    }

    pub fn with_mask(fitting: Fitting, mask: &'a [bool]) -> Self {
        Self {
            fitting,
            mask: Some(mask),
            stretches: None,
            codebook: None,
        }
    }

    /// [`InterpParams::with_mask`] with the mask's stretches built by the
    /// caller, who reads them too (for the symbol gather, say).
    pub fn with_stretches(fitting: Fitting, mask: &'a [bool], stretches: &'a Stretches) -> Self {
        Self {
            fitting,
            mask: Some(mask),
            stretches: Some(stretches),
            codebook: None,
        }
    }

    /// These parameters with the caller's word that every valid point's
    /// symbol is in `book`: what a Huffman codebook proves of every symbol
    /// it decodes. When no symbol of `book` is past the quantizer radius,
    /// [`reconstruct`] takes the book's largest as the largest symbol and
    /// replaces its validation fold with a count of escapes, or with
    /// nothing when `book` holds no [`ESCAPE`]; otherwise the fold runs as
    /// without the word, so the same streams are accepted and rejected
    /// either way. The caller must keep its word: a symbol outside `book`
    /// goes unchecked.
    pub fn with_codebook(self, book: &'a [u32]) -> Self {
        Self {
            codebook: Some(book),
            ..self
        }
    }

    /// The section's stretches: the caller's, or built from the flags.
    fn section_stretches(&self, dims: &[usize]) -> Option<Cow<'a, Stretches>> {
        let row_len = dims.last().copied().unwrap_or(1);
        let st = match (self.stretches, self.mask) {
            (Some(st), _) => Cow::Borrowed(st),
            (None, Some(m)) => Cow::Owned(Stretches::new(m, row_len)),
            (None, None) => return None,
        };
        assert_eq!(st.row_len(), row_len, "stretch rows != trailing dimension");
        assert_eq!(
            st.len(),
            dims.iter().product::<usize>(),
            "mask/shape mismatch"
        );
        Some(st)
    }
}

/// Decode-side stream mismatch, found before the walk writes anything.
/// Containers are untrusted — these must surface as errors, never panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconstructError {
    /// The literal stream length disagrees with the escape count implied
    /// by the symbol grid.
    LiteralCount {
        expected_literals: usize,
        got_literals: usize,
    },
    /// A valid point carries a symbol whose bin lies beyond the quantizer
    /// radius (`symbol` is the largest such symbol).
    OutOfRadius { symbol: u32, radius: i32 },
}

impl std::fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::LiteralCount {
                expected_literals,
                got_literals,
            } => write!(
                f,
                "literal stream has {got_literals} value(s) but the symbol grid escapes \
                 {expected_literals}"
            ),
            Self::OutOfRadius { symbol, radius } => {
                write!(f, "symbol {symbol} exceeds quantizer radius {radius}")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

/// Row-major strides for `dims`.
fn strides_of(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Compression pass: predicts every point, writing one quantization symbol
/// per point into `symbols` (raster order) and overwriting `buf` with the
/// decoder-identical reconstruction. Masked points are skipped (their symbol
/// is a zero-bin placeholder the encoder drops; `buf` keeps the fill value).
/// At every valid point `buf` then holds what [`reconstruct`] will decode.
///
/// Returns the escape (literal) count. Escaped points keep their original
/// value in `buf`; collect literals by scanning `symbols` for [`ESCAPE`].
pub fn predict_quantize(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer: &LinearQuantizer,
    symbols: &mut [u32],
) -> usize {
    // The uniform-quantizer path is the pipeline's hot path: the quantizer
    // is captured by value, so no level pays a dynamic call.
    let q = *quantizer;
    encode(buf, dims, params, move |_| q, symbols)
}

/// [`predict_quantize`] with a per-level quantizer: `quantizer_for(stride)`
/// supplies the quantizer used at interpolation stride `stride` (the anchor
/// point is stride 0). QoZ-style compressors tighten coarse levels this way;
/// any returned bound ≤ the advertised user bound keeps the global contract.
/// The decoder must be driven with the identical policy
/// ([`reconstruct_leveled`]).
///
/// `quantizer_for` must be a pure function of `stride`: both passes ask it
/// once per interpolation level and keep the answer for the level's points,
/// so the exact number of invocations is unspecified.
pub fn predict_quantize_leveled(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer_for: &dyn Fn(usize) -> LinearQuantizer,
    symbols: &mut [u32],
) -> usize {
    encode(buf, dims, params, quantizer_for, symbols)
}

/// The encode walk behind both `predict_quantize` entry points.
fn encode(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    levels: impl Fn(usize) -> LinearQuantizer,
    symbols: &mut [u32],
) -> usize {
    let expected: usize = dims.iter().product();
    assert_eq!(buf.len(), expected, "buffer/shape mismatch");
    assert_eq!(symbols.len(), expected, "symbol grid/shape mismatch");
    if let Some(m) = params.mask {
        assert_eq!(m.len(), expected);
    }
    let stretches = params.section_stretches(dims);
    if let Some(st) = &stretches {
        // The zero-bin placeholder the encoder drops; the walk never
        // visits a masked point.
        st.fill_invalid(symbols, bin_to_symbol(0));
    }
    let mut side = Encode {
        q: levels(0),
        levels,
        symbols,
        batch: Vec::new(),
        escapes: 0,
    };
    walk(dims, params.fitting, stretches.as_deref(), buf, &mut side);
    side.escapes
}

/// Decompression pass: replays `symbols` (raster order) into `buf`.
/// `literals` supplies escape values in raster order. Masked points receive
/// `fill_value`.
///
/// Fails, without touching a single element, when the literal stream length
/// disagrees with the escape count in `symbols`, or when a valid point's
/// symbol lies beyond the quantizer radius — the streams come from an
/// untrusted container. This is the decoder's one validation pass: callers
/// need not scan the symbols themselves, and [`LinearQuantizer::recover`]
/// only ever sees in-radius bins.
pub fn reconstruct(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer: &LinearQuantizer,
    symbols: &[u32],
    literals: &[f32],
    fill_value: f32,
) -> Result<(), ReconstructError> {
    // As in `predict_quantize`: the quantizer is captured by value.
    let q = *quantizer;
    decode(buf, dims, params, move |_| q, symbols, literals, fill_value)
}

/// [`reconstruct`] with a per-level quantizer mirroring
/// [`predict_quantize_leveled`].
///
/// The radius check assumes one radius for the whole walk: every symbol is
/// checked against the smallest `max_symbol()` over the walk's levels
/// (stride 0 and each power of two the walk visits; `quantizer_for` is pure,
/// so that is one call per level). Every encoder in this workspace uses the
/// same radius at every level (QoZ varies only the bound), so for them the
/// check is exact; a policy that widened the radius at some level would see
/// its wider bins rejected there.
pub fn reconstruct_leveled(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    quantizer_for: &dyn Fn(usize) -> LinearQuantizer,
    symbols: &[u32],
    literals: &[f32],
    fill_value: f32,
) -> Result<(), ReconstructError> {
    decode(
        buf,
        dims,
        params,
        quantizer_for,
        symbols,
        literals,
        fill_value,
    )
}

/// The decode walk behind both `reconstruct` entry points: validation,
/// the masked fill, then the walk.
fn decode(
    buf: &mut [f32],
    dims: &[usize],
    params: &InterpParams,
    levels: impl Fn(usize) -> LinearQuantizer,
    symbols: &[u32],
    literals: &[f32],
    fill_value: f32,
) -> Result<(), ReconstructError> {
    let expected: usize = dims.iter().product();
    assert_eq!(buf.len(), expected);
    assert_eq!(symbols.len(), expected);
    if let Some(m) = params.mask {
        assert_eq!(m.len(), expected);
    }
    let stretches = params.section_stretches(dims);

    // Validate both streams before writing anything: the container may
    // disagree with its own symbol grid, and `recover` takes in-radius bins
    // as an invariant. A caller's codebook within the radius answers the
    // radius check without the fold; the escapes are then only counted, and
    // only when the book holds one.
    let radius = level_strides(dims).fold(i32::MAX, |r, s| r.min(levels(s).radius()));
    let mut at = Vec::new();
    let book = params
        .codebook
        .map(|b| (b, b.iter().copied().max().unwrap_or(0)));
    let largest = match book {
        Some((b, top)) if top <= bin_to_symbol(radius) => {
            if b.contains(&ESCAPE) {
                find_escapes(symbols, stretches.as_deref(), &mut at);
            }
            top
        }
        _ => scan_symbols(symbols, stretches.as_deref(), &mut at),
    };
    if literals.len() != at.len() {
        return Err(ReconstructError::LiteralCount {
            expected_literals: at.len(),
            got_literals: literals.len(),
        });
    }
    if largest > bin_to_symbol(radius) {
        return Err(ReconstructError::OutOfRadius {
            symbol: largest,
            radius,
        });
    }

    // Masked points get the fill value, which the walk never overwrites;
    // with no mask there is nothing to do.
    if let Some(st) = &stretches {
        st.fill_invalid(buf, fill_value);
    }

    let mut side = Decode {
        q: levels(0),
        levels,
        symbols,
        escapes: (!at.is_empty()).then_some(Escapes { at, literals }),
    };
    walk(dims, params.fitting, stretches.as_deref(), buf, &mut side);
    Ok(())
}

/// The decoder's one pass over the symbols of the valid points: returns
/// the largest symbol, and pushes the raster position of every escape onto
/// `escapes` in ascending order ([`escape_blocks`]).
fn scan_symbols(symbols: &[u32], mask: Option<&Stretches>, escapes: &mut Vec<usize>) -> u32 {
    let tally = |(n, largest): (usize, u32), s: u32| (n + usize::from(s == ESCAPE), largest.max(s));
    let mut largest = 0u32;
    escape_blocks(symbols, mask, escapes, |block| {
        let (n, top) = block.iter().copied().fold((0, 0), tally);
        largest = largest.max(top);
        n > 0
    });
    largest
}

/// [`scan_symbols`] for symbols whose largest is already known: the escape
/// positions alone. An escape count with no maximum vectorises on the
/// baseline x86-64 target, which has no packed `u32` max.
fn find_escapes(symbols: &[u32], mask: Option<&Stretches>, escapes: &mut Vec<usize>) {
    escape_blocks(symbols, mask, escapes, |block| {
        block.iter().fold(0u32, |n, &s| n + u32::from(s == ESCAPE)) > 0
    });
}

/// Reads the symbols of the valid points, stretch by stretch (the whole
/// grid when unmasked; a masked point's symbol is never read), in blocks
/// that `holds_escape` folds branch-free; only a block it says holds an
/// escape is read again, and the raster position of each of its escapes
/// is pushed onto `escapes` in ascending order.
fn escape_blocks(
    symbols: &[u32],
    mask: Option<&Stretches>,
    escapes: &mut Vec<usize>,
    mut holds_escape: impl FnMut(&[u32]) -> bool,
) {
    const BLOCK: usize = 256;
    let mut fold = |from: usize, run: &[u32]| {
        for (b, block) in run.chunks(BLOCK).enumerate() {
            if holds_escape(block) {
                let hits = block.iter().enumerate().filter(|&(_, &s)| s == ESCAPE);
                escapes.extend(hits.map(|(k, _)| from + b * BLOCK + k));
            }
        }
    };
    match mask {
        None => fold(0, symbols),
        Some(st) => {
            for r in st.valid_ranges() {
                fold(r.start, &symbols[r]);
            }
        }
    }
}

/// The walk's first level stride: the largest power of two strictly below
/// the longest dimension, so the first level predicts at least one point
/// along it. `None` when no dimension exceeds 1 (the walk visits only the
/// anchor).
fn top_stride(dims: &[usize]) -> Option<usize> {
    let max_dim = dims.iter().copied().max().unwrap_or(1);
    if max_dim <= 1 {
        return None;
    }
    let mut s = 1usize;
    while s * 2 < max_dim {
        s *= 2;
    }
    Some(s)
}

/// Every stride the walk enters: 0 for the anchor, then each level from
/// [`top_stride`] down to 1.
fn level_strides(dims: &[usize]) -> impl Iterator<Item = usize> {
    std::iter::once(0).chain(std::iter::successors(top_stride(dims), |&s| {
        (s > 1).then_some(s / 2)
    }))
}

/// One direction of the walk: what becomes of a run's targets once their
/// predictions are known.
trait Side {
    /// Enters the level of stride `s` (0 for the anchor); every run until
    /// the next call belongs to it.
    fn level(&mut self, s: usize);

    /// Consumes one run. `tgt[0]` is the target at raster index `start` and
    /// the run's other targets follow every `step` elements to the end of
    /// `tgt` (whose length is one past the last target); the elements in
    /// between are not the side's to touch. `preds` yields one prediction
    /// per target, in order. Every target of a run is valid: the walk cuts
    /// masked points out of its runs.
    fn run(&mut self, tgt: &mut [f32], start: usize, step: usize, preds: impl Iterator<Item = f64>);
}

/// The encode side: quantizes each target against its prediction, storing
/// its symbol and overwriting it with the decoder-identical reconstruction
/// (an escape keeps its exact value).
struct Encode<'a, L> {
    levels: L,
    /// The current level's quantizer.
    q: LinearQuantizer,
    symbols: &'a mut [u32],
    /// One run's predictions, hoisted so every run reuses one allocation.
    /// Sized indexed storage, not `push`: the capacity branch and length
    /// update inside `push` cost ~3 ns/pt in the interior loops (measured).
    batch: Vec<f64>,
    escapes: usize,
}

impl<L: Fn(usize) -> LinearQuantizer> Side for Encode<'_, L> {
    fn level(&mut self, s: usize) {
        self.q = (self.levels)(s);
    }

    fn run(
        &mut self,
        tgt: &mut [f32],
        start: usize,
        step: usize,
        preds: impl Iterator<Item = f64>,
    ) {
        let q = self.q;
        let n = tgt.len().div_ceil(step);
        if self.batch.len() < n {
            self.batch.resize(n, 0.0);
        }
        // Predict phase: the whole run into the batch.
        let batch = &mut self.batch[..n];
        for (slot, pred) in batch.iter_mut().zip(preds) {
            *slot = pred;
        }
        // Quantize phase: one flat loop over the batch, in place. The
        // branch-free select form stores unconditionally; on escape it
        // hands back the original value.
        let span = start..start + tgt.len();
        let cells = tgt
            .chunks_mut(step)
            .zip(self.symbols[span].chunks_mut(step))
            .zip(batch.iter());
        let mut escapes = 0usize;
        for ((t, sym), &pred) in cells {
            let (symbol, recon, ok) = q.quantize_select(t[0], pred);
            sym[0] = symbol;
            t[0] = recon;
            escapes += usize::from(!ok);
        }
        self.escapes += escapes;
    }
}

/// The decode side: replays each target's symbol against its prediction.
struct Decode<'a, L> {
    levels: L,
    /// The current level's quantizer.
    q: LinearQuantizer,
    symbols: &'a [u32],
    /// `None` when the section has no escape.
    escapes: Option<Escapes<'a>>,
}

/// A section's escapes: their raster positions, ascending, and their
/// literals in the same order (the container stores literals in raster
/// order).
struct Escapes<'a> {
    at: Vec<usize>,
    literals: &'a [f32],
}

impl Escapes<'_> {
    /// Writes its literal over every escape among a run's targets: `tgt[0]`
    /// at raster index `start`, the others every `step` elements. An escape
    /// between them is another pass's target. The validation pass matched
    /// the two lengths, so the literals always reach.
    fn write_literals(&self, tgt: &mut [f32], start: usize, step: usize) {
        let from = self.at.partition_point(|&p| p < start);
        let to = self.at.partition_point(|&p| p < start + tgt.len());
        let literals = self.literals.get(from..to).unwrap_or_default();
        for (&p, &v) in self.at[from..to].iter().zip(literals) {
            if (p - start).is_multiple_of(step) {
                tgt[p - start] = v;
            }
        }
    }
}

impl<L: Fn(usize) -> LinearQuantizer> Side for Decode<'_, L> {
    fn level(&mut self, s: usize) {
        self.q = (self.levels)(s);
    }

    fn run(
        &mut self,
        tgt: &mut [f32],
        start: usize,
        step: usize,
        preds: impl Iterator<Item = f64>,
    ) {
        let q = self.q;
        let span = start..start + tgt.len();
        let cells = tgt.chunks_mut(step).zip(self.symbols[span].chunks(step));
        // Two bodies. The validation pass saw every valid symbol, so with no
        // escapes none is one. With escapes, every target is recovered as
        // if escape-free, an escape as bin 0, with no branch; a run that
        // met an escape then writes its literals over those targets. A pass
        // never reads what it writes, so the overwrite comes in time.
        match &self.escapes {
            None => {
                for ((t, sym), pred) in cells.zip(preds) {
                    t[0] = q.recover(sym[0], pred);
                }
            }
            Some(esc) => {
                let zero = bin_to_symbol(0);
                let mut met = false;
                for ((t, sym), pred) in cells.zip(preds) {
                    let escape = sym[0] == ESCAPE;
                    met |= escape;
                    t[0] = q.recover(if escape { zero } else { sym[0] }, pred);
                }
                if met {
                    esc.write_literals(tgt, start, step);
                }
            }
        }
    }
}

/// The traversal skeleton: hands `side` every point exactly once, in runs
/// (see [`Side::run`]), each with its fit predictions computed from
/// already-visited (reconstructed) neighbours.
///
/// Order: the all-zero anchor first (predicted as 0.0), then levels with
/// strides `s = 2^L … 1`; within a level, dimensions in ascending index
/// order (the caller controls effective order by physically permuting data).
/// A (level, dimension) pass predicts the points at odd multiples of `s`
/// along its dimension `d`, on the lattice of multiples of `s` along the
/// dimensions before `d` (already refined this level) and of `2s` along
/// those after it. Within a pass the order is a cache-aware choice, and
/// immaterial to the results, because a pass never reads what it writes:
/// every fit reference sits at an even multiple of `s` along `d`.
///
/// Each pass is cut into runs along the trailing dimension:
///
/// * A strided pass (`d` before the trailing dimension) takes the target
///   planes along `d` in ascending order and, within each, one run per row
///   of the trailing dimension: targets `2s` apart. Rows advance along the
///   contiguous trailing dims, so every stream steps through memory in
///   order ([`strided_run`]).
/// * A trailing pass takes one run per line: the odd multiples of `s` on
///   it ([`trailing_line`]).
///
/// The rows and lines come from an odometer over the remaining dimensions
/// ([`for_each_row`]); no list of them is built. On a masked grid
/// (`mask`, the section's stretches) each run goes to the masked kernels
/// ([`strided_run_masked`], [`trailing_line_masked`]), which hand the side
/// only its valid targets.
// xtask-allow-fn: R5 -- callers assert dims product == buf.len() (>= 1 for any shape the pipeline accepts), so the anchor exists
fn walk<S: Side>(
    dims: &[usize],
    fitting: Fitting,
    mask: Option<&Stretches>,
    buf: &mut [f32],
    side: &mut S,
) {
    // Anchor point: nothing is known yet, predict zero.
    side.level(0);
    let anchor_valid = mask.is_none_or(|st| st.row(0).first().is_some_and(|&(a, _)| a == 0));
    if anchor_valid {
        side.run(&mut buf[..1], 0, 1, std::iter::once(0.0));
    }
    let Some(mut s) = top_stride(dims) else {
        return;
    };

    let strides = strides_of(dims);
    let last = dims.len() - 1;
    let trailing_len = dims[last];
    // Odometer scratch and the trailing passes' reference buffers, shared
    // across every pass.
    let mut coords = vec![0usize; dims.len()];
    let mut line = Line::default();
    loop {
        side.level(s);
        for d in 0..dims.len() {
            if dims[d] <= s {
                continue; // no odd multiples of s inside this dimension
            }
            // The run length along the trailing dimension: one past the
            // last of its `count` targets, `2s` apart.
            let count = trailing_len.div_ceil(2 * s);
            let pass = Pass {
                fitting,
                dim_len: dims[d],
                dim_stride: strides[d],
                s,
                span: (count - 1) * 2 * s + 1,
            };
            if d == last {
                for_each_row(dims, &strides, &mut coords, d, s, |base| match mask {
                    None => trailing_line(buf, &pass, base, &mut line, side),
                    Some(st) => trailing_line_masked(buf, &pass, st, base, &mut line, side),
                });
            } else {
                let mut i = s;
                while i < pass.dim_len {
                    let plane = i * pass.dim_stride;
                    for_each_row(dims, &strides, &mut coords, d, s, |base| match mask {
                        None => strided_run(buf, &pass, i, base + plane, side),
                        Some(st) => strided_run_masked(buf, &pass, st, i, base + plane, side),
                    });
                    i += 2 * s;
                }
            }
        }
        if s == 1 {
            break;
        }
        s /= 2;
    }
}

/// Calls `f` with the raster index of the first element of every row of a
/// pass along dimension `d` at level `s`: every combination of the
/// coordinates other than `d`'s and the trailing dimension's, on the
/// level's lattice (multiples of `s` before `d`, of `2s` after it), the
/// trailing-most coordinate advancing fastest.
fn for_each_row(
    dims: &[usize],
    strides: &[usize],
    coords: &mut [usize],
    d: usize,
    s: usize,
    mut f: impl FnMut(usize),
) {
    let last = dims.len() - 1;
    coords.fill(0);
    let mut base = 0usize;
    loop {
        f(base);
        let mut e = last;
        loop {
            if e == 0 {
                return;
            }
            e -= 1;
            if e == d {
                continue;
            }
            let step = if e < d { s } else { 2 * s };
            coords[e] += step;
            base += step * strides[e];
            if coords[e] < dims[e] {
                break;
            }
            base -= coords[e] * strides[e];
            coords[e] = 0;
        }
    }
}

/// One (level, dimension) pass's geometry: targets sit at odd multiples of
/// `s` along a dimension of length `dim_len` and element stride
/// `dim_stride`. `span` is a strided pass's run length along the trailing
/// dimension.
struct Pass {
    fitting: Fitting,
    dim_len: usize,
    dim_stride: usize,
    s: usize,
    span: usize,
}

/// Splits a strided run from its reference runs: the `span` elements from
/// raster index `start`, mutable, and the same run on the planes `−3s, −s,
/// +s, +3s` away, `plane` elements per `s`. A reference plane outside the
/// grid (`bounds` as [`cubic_bounds`] gives them) is stood in for by the
/// `−s` run.
#[inline(always)]
fn split_refs(
    buf: &mut [f32],
    start: usize,
    span: usize,
    plane: usize,
    (lo3, hi1, hi3): (bool, bool, bool),
) -> (&mut [f32], [&[f32]; 4]) {
    let (below, rest) = buf.split_at_mut(start);
    let (tgt, above) = rest.split_at_mut(span);
    // `above[x]` is element `start + span + x`.
    let m1 = &below[start - plane..][..span];
    let r = [
        if lo3 {
            &below[start - 3 * plane..][..span]
        } else {
            m1
        },
        m1,
        if hi1 {
            &above[plane - span..][..span]
        } else {
            m1
        },
        if hi3 {
            &above[3 * plane - span..][..span]
        } else {
            m1
        },
    ];
    (tgt, r)
}

/// One run of a strided pass: the targets on target plane `i` (an odd
/// multiple of `s` along the pass's dimension) that start at raster index
/// `start` and lie `2s` apart along the trailing dimension.
///
/// The `±s` and `±3s` reference runs are the same run on the planes `i ± s`
/// and `i ± 3s`, `s · dim_stride` elements per plane away. Since
/// `dim_stride` is at least the trailing length, which is at least `span`,
/// they sit wholly below or above the target run: one `split_at_mut` on
/// each side of it makes the run mutable and the references shared
/// ([`split_refs`]). The interior/boundary split is per plane: a plane with
/// every reference in bounds runs the plain stencil, a boundary plane the
/// fit with the plane's coefficients.
fn strided_run<S: Side>(buf: &mut [f32], pass: &Pass, i: usize, start: usize, side: &mut S) {
    let &Pass {
        fitting,
        dim_len,
        dim_stride,
        s,
        span,
    } = pass;
    let step = 2 * s;
    let bounds = cubic_bounds(i, s, dim_len);
    let (lo3, hi1, hi3) = bounds;
    let (tgt, r) = split_refs(buf, start, span, s * dim_stride, bounds);
    match fitting {
        Fitting::Linear if hi1 => {
            let preds = column2([r[1], r[2]], step).map(linear_interior);
            side.run(tgt, start, step, preds);
        }
        Fitting::Cubic if lo3 && hi3 => {
            side.run(tgt, start, step, column4(r, step).map(cubic_interior));
        }
        Fitting::Linear => {
            let v = [true, hi1];
            let c = linear_coeffs(v);
            let preds = column2([r[1], r[2]], step).map(|d| weighted(d, v, c));
            side.run(tgt, start, step, preds);
        }
        Fitting::Cubic => {
            let v = [lo3, true, hi1, hi3];
            let c = cubic_coeffs(v);
            side.run(
                tgt,
                start,
                step,
                column4(r, step).map(|d| weighted(d, v, c)),
            );
        }
    }
}

/// What a masked strided run knows of one reference row.
enum RefRow<'a> {
    /// Not read: outside the grid, or outside the fitting's stencil.
    Unused,
    /// The target row's twin (same stretches): valid at every target.
    Twin,
    /// The row's stretches, from the first that may still hold a target's
    /// reference.
    Spans(&'a [(usize, usize)]),
}

/// [`strided_run`] on a masked grid, `st` the section's stretches.
///
/// The run's targets are the target row's stretches; each is cut where a
/// reference row's validity changes, so every piece has one validity
/// pattern and runs the fit with that pattern's coefficients fixed. A
/// reference row with the target row's stretches, which is every row when
/// the mask is constant along the pass's dimension, is valid wherever a
/// target is and cuts nothing. An invalid stretch never reaches the side.
#[inline(never)]
fn strided_run_masked<S: Side>(
    buf: &mut [f32],
    pass: &Pass,
    st: &Stretches,
    i: usize,
    start: usize,
    side: &mut S,
) {
    let &Pass {
        fitting,
        dim_len,
        dim_stride,
        s,
        span,
    } = pass;
    let row = start / st.row_len();
    let spans = st.row(row);
    if spans.is_empty() {
        return;
    }
    let step = 2 * s;
    let plane = s * dim_stride;
    let (lo3, hi1, hi3) = cubic_bounds(i, s, dim_len);
    let (tgt, r) = split_refs(buf, start, span, plane, (lo3, hi1, hi3));
    let used = match fitting {
        Fitting::Linear => [false, true, hi1, false],
        Fitting::Cubic => [lo3, true, hi1, hi3],
    };
    let rows_per_plane = plane / st.row_len();
    let mut refs: [RefRow; 4] = std::array::from_fn(|n| {
        if !used[n] {
            return RefRow::Unused;
        }
        let ref_row = match n {
            0 => row - 3 * rows_per_plane,
            1 => row - rows_per_plane,
            2 => row + rows_per_plane,
            _ => row + 3 * rows_per_plane,
        };
        let ref_spans = st.row(ref_row);
        if ref_spans == spans {
            RefRow::Twin
        } else {
            RefRow::Spans(ref_spans)
        }
    });
    // The targets at offsets `x0..x1` of the run, with the validity `v` of
    // their `−3s, −s, +s, +3s` references.
    let mut piece = |x0: usize, x1: usize, v: [bool; 4]| {
        let (k0, k1) = (x0.div_ceil(step), x1.div_ceil(step));
        if k0 >= k1 {
            return;
        }
        let (first, last) = (k0 * step, (k1 - 1) * step);
        let run = &mut tgt[first..=last];
        let r = r.map(|refs| &refs[first..=last]);
        match fitting {
            Fitting::Linear => {
                let v = [v[1], v[2]];
                let c = linear_coeffs(v);
                let preds = column2([r[1], r[2]], step).map(|d| weighted(d, v, c));
                side.run(run, start + first, step, preds);
            }
            Fitting::Cubic => {
                let c = cubic_coeffs(v);
                let preds = column4(r, step).map(|d| weighted(d, v, c));
                side.run(run, start + first, step, preds);
            }
        }
    };
    for &(a, b) in spans {
        let mut x = a;
        while x < b {
            // The piece `x..cut`, on which no row's validity changes.
            let mut cut = b;
            let mut v = [false; 4];
            for (valid, ref_row) in v.iter_mut().zip(&mut refs) {
                match ref_row {
                    RefRow::Unused => {}
                    RefRow::Twin => *valid = true,
                    RefRow::Spans(rest) => {
                        while rest.first().is_some_and(|&(_, end)| end <= x) {
                            *rest = &rest[1..];
                        }
                        if let Some(&(lo, hi)) = rest.first() {
                            *valid = lo <= x;
                            cut = cut.min(if lo <= x { hi } else { lo });
                        }
                    }
                }
            }
            piece(x, cut, v);
            x = cut;
        }
    }
}

/// The hoisted buffers of the trailing passes: one line's references (its
/// even multiples of `s`) with one invalid slot before them and two after,
/// and their validity. Target `k` of the line then reads its `−3s, −s, +s,
/// +3s` references, bounds included, as the window `k..k + 4`.
#[derive(Default)]
struct Line {
    refs: Vec<f32>,
    valid: Vec<bool>,
}

impl Line {
    /// Copies the references of `row`, every `step`-th element from the
    /// first, between the padding slots, and returns their count. Their
    /// validity is the caller's to set.
    fn load(&mut self, row: &[f32], step: usize) -> usize {
        let refs = &mut self.refs;
        refs.clear();
        refs.push(0.0);
        refs.extend(row.iter().step_by(step));
        let nref = refs.len() - 1;
        refs.extend([0.0, 0.0]);
        nref
    }
}

/// One line of a trailing pass: the points at odd multiples of `s` on the
/// line whose coordinate-0 element sits at raster index `base`.
///
/// The line's references are copied into `line` first, so the targets are
/// written in place while the stencil reads the copy. The interior targets
/// — every target whose references are all in bounds, which is all but the
/// outermost one to three — run the plain stencil over the copy's windows,
/// and the boundary targets run [`linear_fit`] / [`cubic_fit`] with the
/// padding as validity. Each segment is one run.
// xtask-allow-fn: R5 -- the line base..base + dim_len lies inside the grid (base is a row start, dim_len the trailing length); segment bounds come from the target count
fn trailing_line<S: Side>(
    buf: &mut [f32],
    pass: &Pass,
    base: usize,
    line: &mut Line,
    side: &mut S,
) {
    let &Pass {
        fitting,
        dim_len,
        s,
        ..
    } = pass;
    let step = 2 * s;
    let row = &mut buf[base..base + dim_len];
    let nref = line.load(row, step);
    let Line { refs, valid } = line;
    valid.clear();
    valid.push(false);
    valid.resize(nref + 1, true);
    valid.extend([false, false]);

    let start = base + s;
    let tgt = &mut row[s..];
    let count = tgt.len().div_ceil(step);
    let fits = |a: usize| refs[a..].windows(4).zip(valid[a..].windows(4));
    match fitting {
        Fitting::Linear => {
            // Targets 0..nref - 1 have both references; the last target
            // lacks its +s one when the line ends on it.
            let interior = nref - 1;
            let pairs = refs[1..=nref]
                .windows(2)
                .map(|w| linear_interior([w[0], w[1]]));
            segment(side, tgt, start, step, 0..interior, pairs);
            segment(
                side,
                tgt,
                start,
                step,
                interior..count,
                fits(interior).map(window_linear),
            );
        }
        Fitting::Cubic => {
            // Target 0 lacks its −3s reference; targets 1..=nref - 3 have
            // all four; the rest lack a + reference.
            let interior = nref.saturating_sub(3);
            segment(side, tgt, start, step, 0..1, fits(0).map(window_cubic));
            let quads = refs[1..interior + 4].windows(4);
            let quads = quads.map(|w| cubic_interior([w[0], w[1], w[2], w[3]]));
            segment(side, tgt, start, step, 1..1 + interior, quads);
            segment(
                side,
                tgt,
                start,
                step,
                1 + interior..count,
                fits(1 + interior).map(window_cubic),
            );
        }
    }
}

/// [`trailing_line`] on a masked grid, `st` the section's stretches.
///
/// The references' validity is read from the line's stretches. Only the
/// targets in a stretch reach the side, stretch by stretch: those whose
/// references all lie in their stretch run the fit with the all-valid
/// coefficients fixed, and only those nearer a stretch end, whose stencil
/// may cross into the fill or past the line, run [`linear_fit`] /
/// [`cubic_fit`] per point.
// xtask-allow-fn: R5 -- as trailing_line; stretch ends are at most dim_len, so every window and target range stays inside the line's buffers
#[inline(never)]
fn trailing_line_masked<S: Side>(
    buf: &mut [f32],
    pass: &Pass,
    st: &Stretches,
    base: usize,
    line: &mut Line,
    side: &mut S,
) {
    let &Pass {
        fitting,
        dim_len,
        s,
        ..
    } = pass;
    let spans = st.row(base / dim_len);
    if spans.is_empty() {
        return;
    }
    let step = 2 * s;
    let row = &mut buf[base..base + dim_len];
    let nref = line.load(row, step);
    let Line { refs, valid } = line;
    valid.clear();
    valid.resize(nref + 3, false);
    for &(a, b) in spans {
        valid[1 + a.div_ceil(step)..1 + b.div_ceil(step)].fill(true);
    }

    let start = base + s;
    let tgt = &mut row[s..];
    let fits = |a: usize| refs[a..].windows(4).zip(valid[a..].windows(4));
    for &(a, b) in spans {
        // Target `k` sits at offset `s + 2s·k`: `k0..k1` lie in the
        // stretch, and `lo..hi` have their whole stencil in it too.
        let k0 = a.saturating_sub(s).div_ceil(step);
        let k1 = b.saturating_sub(s).div_ceil(step);
        let (lo, hi) = match fitting {
            Fitting::Linear => (a.div_ceil(step), b.saturating_sub(2 * s).div_ceil(step)),
            Fitting::Cubic => (
                (a + 2 * s).div_ceil(step),
                b.saturating_sub(4 * s).div_ceil(step),
            ),
        };
        let lo = lo.clamp(k0, k1);
        let hi = hi.clamp(lo, k1);
        match fitting {
            Fitting::Linear => {
                let c = linear_coeffs([true; 2]);
                let pairs = refs[1 + lo..]
                    .windows(2)
                    .map(|w| weighted([w[0], w[1]], [true; 2], c));
                segment(side, tgt, start, step, k0..lo, fits(k0).map(window_linear));
                segment(side, tgt, start, step, lo..hi, pairs);
                segment(side, tgt, start, step, hi..k1, fits(hi).map(window_linear));
            }
            Fitting::Cubic => {
                let c = cubic_coeffs([true; 4]);
                let quads = refs[lo..]
                    .windows(4)
                    .map(|w| weighted([w[0], w[1], w[2], w[3]], [true; 4], c));
                segment(side, tgt, start, step, k0..lo, fits(k0).map(window_cubic));
                segment(side, tgt, start, step, lo..hi, quads);
                segment(side, tgt, start, step, hi..k1, fits(hi).map(window_cubic));
            }
        }
    }
}

/// [`linear_fit`] for a trailing target over its padded window of
/// references and their validity (see [`Line`]).
#[inline(always)]
fn window_linear((d, v): (&[f32], &[bool])) -> f64 {
    match (d, v) {
        ([_, d1, d2, _], [_, v1, v2, _]) => linear_fit([*d1, *d2], [*v1, *v2]),
        _ => 0.0,
    }
}

/// [`cubic_fit`] for a trailing target over its padded window of
/// references and their validity (see [`Line`]).
#[inline(always)]
fn window_cubic((d, v): (&[f32], &[bool])) -> f64 {
    match (d, v) {
        (&[d0, d1, d2, d3], &[v0, v1, v2, v3]) => cubic_fit([d0, d1, d2, d3], [v0, v1, v2, v3]),
        _ => 0.0,
    }
}

/// Hands `side` targets `targets` of a trailing line's run `tgt` (`step`
/// apart from raster index `start`) as one run, if there are any.
fn segment<S: Side>(
    side: &mut S,
    tgt: &mut [f32],
    start: usize,
    step: usize,
    targets: std::ops::Range<usize>,
    preds: impl Iterator<Item = f64>,
) {
    if targets.start < targets.end {
        let first = targets.start * step;
        let run = &mut tgt[first..=(targets.end - 1) * step];
        side.run(run, start + first, step, preds);
    }
}

/// Every `step`-th element of two runs laid out alike, paired.
fn column2(r: [&[f32]; 2], step: usize) -> impl Iterator<Item = [f32; 2]> + '_ {
    let [a, b] = r;
    a.chunks(step)
        .zip(b.chunks(step))
        .map(|(a, b)| [a[0], b[0]])
}

/// Every `step`-th element of four runs laid out alike, as quadruples.
fn column4(r: [&[f32]; 4], step: usize) -> impl Iterator<Item = [f32; 4]> + '_ {
    let [a, b, c, d] = r;
    let rows = a
        .chunks(step)
        .zip(b.chunks(step))
        .zip(c.chunks(step))
        .zip(d.chunks(step));
    rows.map(|(((a, b), c), d)| [a[0], b[0], c[0], d[0]])
}

/// The linear stencil with both references in bounds (the frozen
/// reference's interior expression).
#[inline(always)]
fn linear_interior([a, b]: [f32; 2]) -> f64 {
    0.5 * (a as f64 + b as f64)
}

/// The cubic stencil with all four references in bounds (the frozen
/// reference's interior expression).
#[inline(always)]
fn cubic_interior([d0, d1, d2, d3]: [f32; 4]) -> f64 {
    let (d0, d1, d2, d3) = (d0 as f64, d1 as f64, d2 as f64, d3 as f64);
    (9.0 / 16.0) * (d1 + d2) - (1.0 / 16.0) * (d0 + d3)
}

/// Linear fit over the `−s, +s` references `d`: each counts when `v` says
/// so (in bounds, and valid on masked grids). Sums `0.0 + c·d` over the
/// counted references only, in ascending offset order, with
/// [`linear_coeffs`] — the frozen reference's exact operation order, so
/// every bit is the same.
#[inline(always)]
fn linear_fit(d: [f32; 2], v: [bool; 2]) -> f64 {
    weighted(d, v, linear_coeffs(v))
}

/// Cubic fit over the `−3s, −s, +s, +3s` references `d`, with `v` as in
/// [`linear_fit`]: the 4-bit validity code picks Theorem 1's coefficients
/// via [`cubic_coeffs`], summed as [`weighted`] does, bit-identical to the
/// frozen reference's.
#[inline(always)]
fn cubic_fit(d: [f32; 4], v: [bool; 4]) -> f64 {
    weighted(d, v, cubic_coeffs(v))
}

/// `0.0 + c·d` over the references `v` counts, in ascending offset order.
///
/// The sum is branch-free: an uncounted reference adds `+0.0`, which leaves
/// the sum's bits unchanged because a sum that starts at `+0.0` is never
/// `−0.0`. Its value may be anything — a stand-in for a reference out of
/// bounds, or a masked fill that makes the product non-finite — since the
/// product is discarded.
#[inline(always)]
fn weighted<const N: usize>(d: [f32; N], v: [bool; N], c: [f64; N]) -> f64 {
    let mut p = 0.0f64;
    for k in 0..N {
        let t = c[k] * d[k] as f64;
        p += if v[k] { t } else { 0.0 };
    }
    p
}

/// Whether a target at coordinate `i` of a dimension of length `dim_len`
/// has its `−3s`, `+s` and `+3s` references in bounds (the `−s` one always
/// is).
#[inline(always)]
fn cubic_bounds(i: usize, s: usize, dim_len: usize) -> (bool, bool, bool) {
    (i >= 3 * s, i + s < dim_len, i + 3 * s < dim_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliz_quant::bin_to_symbol;

    /// Full round-trip helper: compress then decompress, assert error bound.
    fn roundtrip(
        data: &[f32],
        dims: &[usize],
        fitting: Fitting,
        mask: Option<&[bool]>,
        eb: f64,
    ) -> (Vec<f32>, usize) {
        let q = LinearQuantizer::new(eb);
        let params = match mask {
            Some(m) => InterpParams::with_mask(fitting, m),
            None => InterpParams::new(fitting),
        };
        let mut buf = data.to_vec();
        let mut symbols = vec![0u32; data.len()];
        let escapes = predict_quantize(&mut buf, dims, &params, &q, &mut symbols);

        // Literals in raster order = original values at escape positions.
        let literals: Vec<f32> = symbols
            .iter()
            .enumerate()
            .filter(|&(i, &s)| s == ESCAPE && mask.is_none_or(|m| m[i]))
            .map(|(i, _)| data[i])
            .collect();
        assert_eq!(literals.len(), escapes);

        let mut out = vec![0.0f32; data.len()];
        reconstruct(&mut out, dims, &params, &q, &symbols, &literals, -999.0).unwrap();

        for (i, (&orig, &rec)) in data.iter().zip(&out).enumerate() {
            if mask.is_none_or(|m| m[i]) {
                assert!(
                    (orig as f64 - rec as f64).abs() <= eb,
                    "bound violated at {i}: {orig} vs {rec}"
                );
                // Encoder's in-place reconstruction must equal decoder output.
                assert_eq!(buf[i], rec, "enc/dec divergence at {i}");
            } else {
                assert_eq!(rec, -999.0, "masked point not filled at {i}");
            }
        }
        (out, escapes)
    }

    fn smooth_3d(dims: &[usize]) -> Vec<f32> {
        let (a, b, c) = (dims[0], dims[1], dims[2]);
        let mut v = Vec::with_capacity(a * b * c);
        for i in 0..a {
            for j in 0..b {
                for k in 0..c {
                    let x = i as f64 / a as f64;
                    let y = j as f64 / b as f64;
                    let z = k as f64 / c as f64;
                    v.push((10.0 * (x * 3.1).sin() + 5.0 * (y * 2.0).cos() + z * z) as f32);
                }
            }
        }
        v
    }

    #[test]
    fn roundtrip_1d_linear() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32 * 0.3).sin() * 4.0).collect();
        roundtrip(&data, &[100], Fitting::Linear, None, 1e-3);
    }

    #[test]
    fn roundtrip_1d_cubic() {
        let data: Vec<f32> = (0..257).map(|i| (i as f32 * 0.1).cos() * 7.0).collect();
        roundtrip(&data, &[257], Fitting::Cubic, None, 1e-4);
    }

    #[test]
    fn roundtrip_2d_both_fittings() {
        let dims = [33, 47];
        let data: Vec<f32> = (0..33 * 47)
            .map(|i| {
                let (r, c) = (i / 47, i % 47);
                ((r as f32 * 0.2).sin() + (c as f32 * 0.15).cos()) * 3.0
            })
            .collect();
        roundtrip(&data, &dims, Fitting::Linear, None, 1e-3);
        roundtrip(&data, &dims, Fitting::Cubic, None, 1e-3);
    }

    #[test]
    fn roundtrip_3d() {
        let dims = [6, 20, 24];
        let data = smooth_3d(&dims);
        roundtrip(&data, &dims, Fitting::Cubic, None, 1e-3);
    }

    #[test]
    fn roundtrip_4d() {
        let dims = [3, 5, 8, 13];
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| ((i % 97) as f32 * 0.21).sin()).collect();
        roundtrip(&data, &dims, Fitting::Linear, None, 1e-3);
    }

    #[test]
    fn smooth_data_mostly_zero_bins() {
        let dims = [16, 64, 64];
        let data = smooth_3d(&dims);
        let q = LinearQuantizer::new(1e-2);
        let params = InterpParams::new(Fitting::Cubic);
        let mut buf = data.clone();
        let mut symbols = vec![0u32; data.len()];
        let escapes = predict_quantize(&mut buf, &dims, &params, &q, &mut symbols);
        // The anchor escapes (value >> eb against prediction 0); smoothness
        // keeps everything else in tiny bins.
        assert!(escapes <= 4, "{escapes} escapes");
        let zero = bin_to_symbol(0);
        let near: usize = symbols
            .iter()
            .filter(|&&s| s != ESCAPE && s <= zero + 4)
            .count();
        assert!(
            near as f64 / data.len() as f64 > 0.9,
            "only {near}/{} small bins",
            data.len()
        );
    }

    #[test]
    fn single_point_grid() {
        roundtrip(&[42.0], &[1], Fitting::Cubic, None, 1e-6);
    }

    #[test]
    fn tiny_grids() {
        for dims in [&[2usize][..], &[3], &[2, 2], &[1, 5], &[2, 1, 3]] {
            let n: usize = dims.iter().product();
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 1.7 - 3.0).collect();
            roundtrip(&data, dims, Fitting::Linear, None, 1e-3);
            roundtrip(&data, dims, Fitting::Cubic, None, 1e-3);
        }
    }

    #[test]
    fn masked_roundtrip_ignores_fill_values() {
        // A smooth field with a block of huge fill values (like CESM land).
        let dims = [24, 24];
        let mut data: Vec<f32> = (0..576)
            .map(|i| {
                let (r, c) = (i / 24, i % 24);
                ((r as f32 * 0.3).sin() + (c as f32 * 0.25).cos()) * 2.0
            })
            .collect();
        let mut mask = vec![true; 576];
        for r in 8..16 {
            for c in 8..16 {
                data[r * 24 + c] = 1.0e32; // fill value
                mask[r * 24 + c] = false;
            }
        }
        let (_, escapes) = roundtrip(&data, &dims, Fitting::Cubic, Some(&mask), 1e-3);
        // Fill values must not leak into predictions: with the mask active the
        // valid region is smooth, so escapes stay at the anchor only.
        assert!(escapes <= 2, "mask leak caused {escapes} escapes");
    }

    #[test]
    fn unmasked_fill_values_wreck_prediction() {
        // Control experiment for the test above: WITHOUT the mask the huge
        // values must cause many escapes/large bins — this asymmetry is the
        // paper's motivation for mask-aware prediction.
        let dims = [24, 24];
        let mut data: Vec<f32> = (0..576)
            .map(|i| {
                let (r, c) = (i / 24, i % 24);
                ((r as f32 * 0.3).sin() + (c as f32 * 0.25).cos()) * 2.0
            })
            .collect();
        for r in 8..16 {
            for c in 8..16 {
                data[r * 24 + c] = 1.0e32;
            }
        }
        let q = LinearQuantizer::new(1e-3);
        let params = InterpParams::new(Fitting::Cubic);
        let mut buf = data.clone();
        let mut symbols = vec![0u32; data.len()];
        let escapes = predict_quantize(&mut buf, &dims, &params, &q, &mut symbols);
        assert!(escapes > 30, "expected fill-value damage, got {escapes}");
    }

    #[test]
    fn fully_masked_grid() {
        let dims = [4, 4];
        let data = vec![1.0e32f32; 16];
        let mask = vec![false; 16];
        roundtrip(&data, &dims, Fitting::Linear, Some(&mask), 1e-3);
    }

    #[test]
    fn rough_data_roundtrips_via_escapes() {
        // Pseudo-random rough data: predictions fail, escapes must save it.
        let mut state = 7u64;
        let data: Vec<f32> = (0..500)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as f32 / 1e4) * if state & 1 == 0 { 1.0 } else { -1.0 }
            })
            .collect();
        roundtrip(&data, &[500], Fitting::Cubic, None, 1e-9);
    }

    #[test]
    fn literal_mismatch_is_an_error_not_a_panic() {
        let q = LinearQuantizer::new(1e-3);
        let params = InterpParams::new(Fitting::Linear);
        let mut data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.4).sin()).collect();
        data[17] = 1.0e30; // far beyond any bin: guaranteed escape
        let mut buf = data.clone();
        let mut symbols = vec![0u32; 64];
        let escapes = predict_quantize(&mut buf, &[64], &params, &q, &mut symbols);
        assert!(escapes >= 1);

        let mut out = vec![0.0f32; 64];
        // Too few literals…
        let err = reconstruct(&mut out, &[64], &params, &q, &symbols, &[], -1.0).unwrap_err();
        let ReconstructError::LiteralCount {
            expected_literals,
            got_literals,
        } = err
        else {
            panic!("wrong variant: {err:?}");
        };
        assert_eq!(expected_literals, escapes);
        assert_eq!(got_literals, 0);
        // …and too many.
        let too_many = vec![0.0f32; escapes + 3];
        assert!(reconstruct(&mut out, &[64], &params, &q, &symbols, &too_many, -1.0).is_err());
    }

    #[test]
    fn out_of_radius_symbol_is_an_error_and_leaves_buf_untouched() {
        let q = LinearQuantizer::new(1e-3);
        let max = q.max_symbol();
        let params = InterpParams::new(Fitting::Cubic);
        let mut symbols = vec![cliz_quant::bin_to_symbol(0); 64];
        // The largest in-radius symbol decodes.
        symbols[9] = max;
        let mut out = vec![0.0f32; 64];
        reconstruct(&mut out, &[8, 8], &params, &q, &symbols, &[], 0.0).unwrap();

        symbols[9] = max + 1;
        symbols[40] = 100_000;
        let mut out = vec![-3.5f32; 64];
        let err = reconstruct(&mut out, &[8, 8], &params, &q, &symbols, &[], 0.0).unwrap_err();
        assert_eq!(
            err,
            ReconstructError::OutOfRadius {
                symbol: 100_000,
                radius: q.radius()
            }
        );
        assert!(
            out.iter().all(|&v| v == -3.5),
            "buf written before the check"
        );

        // Leveled: the check uses the smallest radius over the walk's levels
        // (strides 0, 4, 2, 1 on an 8-wide grid), so a symbol that fits the
        // anchor's radius but not stride 2's is rejected.
        let narrow = |stride: usize| {
            LinearQuantizer::with_radius(1e-3, if stride == 2 { 100 } else { 1 << 15 })
        };
        symbols[40] = cliz_quant::bin_to_symbol(0);
        symbols[9] = cliz_quant::bin_to_symbol(101);
        let err = reconstruct_leveled(&mut out, &[8, 8], &params, &narrow, &symbols, &[], 0.0)
            .unwrap_err();
        assert_eq!(
            err,
            ReconstructError::OutOfRadius {
                symbol: cliz_quant::bin_to_symbol(101),
                radius: 100
            }
        );
        assert!(
            out.iter().all(|&v| v == -3.5),
            "buf written before the check"
        );

        // A masked point's symbol is never recovered, so it is not checked.
        symbols[9] = 100_000;
        let keep: Vec<bool> = (0..64).map(|i| i != 9).collect();
        let masked = InterpParams::with_mask(Fitting::Cubic, &keep);
        reconstruct(&mut out, &[8, 8], &masked, &q, &symbols, &[], 0.0).unwrap();
    }

    /// The hoisted kernel must be bit-identical to the frozen pre-rewrite
    /// reference: same escape count, same symbol grid, same in-place
    /// reconstruction (compared as raw f32 bits, so even sign-of-zero or
    /// NaN-payload drift would fail).
    #[test]
    fn matches_frozen_reference_bit_for_bit() {
        use crate::reference::{ref_predict_quantize, ref_predict_quantize_leveled};

        // (dims, data, mask)
        type Case = (Vec<usize>, Vec<f32>, Option<Vec<bool>>);
        let mut cases: Vec<Case> = Vec::new();
        // Smooth 3-D field (the bench shape, scaled down).
        cases.push((vec![6, 20, 24], smooth_3d(&[6, 20, 24]), None));
        // Rough data: escape-heavy.
        let mut state = 7u64;
        let rough: Vec<f32> = (0..500)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as f32 / 1e4) * if state & 1 == 0 { 1.0 } else { -1.0 }
            })
            .collect();
        cases.push((vec![500], rough, None));
        // Masked 2-D field with a fill-value block.
        let mut data: Vec<f32> = (0..33 * 47)
            .map(|i| {
                let (r, c) = (i / 47, i % 47);
                ((r as f32 * 0.2).sin() + (c as f32 * 0.15).cos()) * 3.0
            })
            .collect();
        let mut mask = vec![true; 33 * 47];
        for r in 10..20 {
            for c in 15..30 {
                data[r * 47 + c] = 1.0e32;
                mask[r * 47 + c] = false;
            }
        }
        cases.push((vec![33, 47], data, Some(mask)));
        // Tiny and degenerate shapes exercise every boundary arm.
        for dims in [
            &[1usize][..],
            &[2],
            &[3],
            &[7],
            &[2, 2],
            &[1, 5],
            &[2, 1, 3],
            &[257],
        ] {
            let n: usize = dims.iter().product();
            let d: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
            cases.push((dims.to_vec(), d, None));
        }

        for (dims, data, mask) in &cases {
            for fitting in [Fitting::Linear, Fitting::Cubic] {
                for eb in [1e-3f64, 1e-6] {
                    let params = match mask {
                        Some(m) => InterpParams::with_mask(fitting, m),
                        None => InterpParams::new(fitting),
                    };
                    let q = LinearQuantizer::new(eb);
                    let n = data.len();

                    let mut buf_new = data.clone();
                    let mut sym_new = vec![0u32; n];
                    let esc_new = predict_quantize(&mut buf_new, dims, &params, &q, &mut sym_new);

                    let mut buf_ref = data.clone();
                    let mut sym_ref = vec![0u32; n];
                    let esc_ref =
                        ref_predict_quantize(&mut buf_ref, dims, &params, &q, &mut sym_ref);

                    let tag = format!("dims {dims:?} {fitting:?} eb {eb}");
                    assert_eq!(esc_new, esc_ref, "escapes diverged: {tag}");
                    assert_eq!(sym_new, sym_ref, "symbol grid diverged: {tag}");
                    for (i, (a, b)) in buf_new.iter().zip(&buf_ref).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "reconstruction bits diverged at {i}: {tag}"
                        );
                    }

                    // Leveled variant with a stride-dependent (pure) policy.
                    let qf = |stride: usize| LinearQuantizer::new(eb * (stride + 1) as f64);
                    let mut buf_new = data.clone();
                    let mut sym_new = vec![0u32; n];
                    let esc_new =
                        predict_quantize_leveled(&mut buf_new, dims, &params, &qf, &mut sym_new);
                    let mut buf_ref = data.clone();
                    let mut sym_ref = vec![0u32; n];
                    let esc_ref = ref_predict_quantize_leveled(
                        &mut buf_ref,
                        dims,
                        &params,
                        &qf,
                        &mut sym_ref,
                    );
                    assert_eq!(esc_new, esc_ref, "leveled escapes diverged: {tag}");
                    assert_eq!(sym_new, sym_ref, "leveled symbols diverged: {tag}");
                    for (i, (a, b)) in buf_new.iter().zip(&buf_ref).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "leveled reconstruction diverged at {i}: {tag}"
                        );
                    }
                }
            }
        }
    }

    /// Seeded LCG stream for the oracle sweep.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// The sweep's shapes: every rank-1 and rank-2 shape with dims 1–9,
    /// seeded rank-3 and rank-4 shapes with dims 1–9, one shape per rank
    /// with a dimension of at least 17 (so a line holds interior points at
    /// several levels), and three rank-3 shapes whose trailing lines hold
    /// at least 32 stride-1 targets, even and odd in length, so every run
    /// body's full width and every tail length run at strides 1 and 2.
    fn sweep_shapes() -> Vec<Vec<usize>> {
        let mut shapes: Vec<Vec<usize>> = (1..=9).map(|a| vec![a]).collect();
        for a in 1..=9 {
            for b in 1..=9 {
                shapes.push(vec![a, b]);
            }
        }
        let mut state = 0x5EED;
        for rank in [3usize, 4] {
            for _ in 0..(if rank == 3 { 24 } else { 12 }) {
                shapes.push(
                    (0..rank)
                        .map(|_| 1 + lcg(&mut state) as usize % 9)
                        .collect(),
                );
            }
        }
        shapes.extend([vec![19], vec![17, 3], vec![2, 18, 5], vec![3, 2, 2, 17]]);
        shapes.extend([vec![3, 5, 64], vec![2, 9, 65], vec![3, 40, 41]]);
        shapes
    }

    /// Smooth values with sparse spikes (escapes), a few non-finite valid
    /// values, and fills at masked points that cycle through a CESM-style
    /// huge value, ±inf and NaN — a masked stencil must never let a fill
    /// reach a prediction.
    fn sweep_values(n: usize, mask: Option<&[bool]>, state: &mut u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let r = lcg(state);
                if mask.is_some_and(|m| !m[i]) {
                    return [1.0e35, f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 4];
                }
                match r % 97 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3..=8 => (r >> 8) as f32,
                    _ => ((i as f32) * 0.37).sin() * 3.0 + (r % 1000) as f32 * 1e-4,
                }
            })
            .collect()
    }

    /// The sweep's masks with stretches, for a shape `dims`, each with the
    /// dims it applies to:
    ///
    /// * stretches that start and end at every offset of a 16-lane block
    ///   along the trailing axis (row `r`'s block `b` keeps lanes `k mod 16`
    ///   up to `7k + 5 mod 16`, wrapping, for `k = r + b`);
    /// * coasts at the first and last targets of runs: the first point and
    ///   the last two of every other trailing row are invalid, and the third
    ///   and third-last of every third;
    /// * all-invalid trailing rows between all-valid ones;
    /// * one invalid point, the last;
    /// * on rank-3 shapes, a 2-D land mask repeated along the leading axis,
    ///   under every permutation of the axes (the permuted shape comes with
    ///   it), so the axis the mask is constant along takes every position.
    fn stretch_masks(dims: &[usize]) -> Vec<(Vec<usize>, Vec<bool>)> {
        let n: usize = dims.iter().product();
        let l = dims[dims.len() - 1];
        let by_row = |f: &dyn Fn(usize, usize) -> bool| -> Vec<bool> {
            (0..n).map(|i| f(i / l, i % l)).collect()
        };
        let lanes = |r: usize, x: usize| {
            let k = r + x / 16;
            let (a, e, o) = (k % 16, (7 * k + 5) % 16, x % 16);
            if a < e {
                (a..e).contains(&o)
            } else {
                o >= a || o < e
            }
        };
        let run_ends = |r: usize, x: usize| {
            let ends = (x == 0 || x + 1 == l || x + 2 == l) && r % 2 == 1;
            let inner = (x == 2 || x + 3 == l) && r.is_multiple_of(3);
            !(ends || inner)
        };
        let mut masks: Vec<(Vec<usize>, Vec<bool>)> = [
            by_row(&lanes),
            by_row(&run_ends),
            by_row(&|r, _| r % 3 != 1),
            (0..n).map(|i| i + 1 != n).collect(),
        ]
        .into_iter()
        .map(|m| (dims.to_vec(), m))
        .collect();
        if let &[a, b, c] = dims {
            let land = |j: usize, k: usize| {
                let (y, x) = (j as f64, k as f64);
                (0.9 * y).sin() + (0.7 * x).cos() + 0.3 * (0.5 * y * x).sin() < 0.2
            };
            for perm in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let pd = perm.map(|p| dims[p]);
                let mut m = vec![false; n];
                for i in 0..a {
                    for j in 0..b {
                        for k in 0..c {
                            let q = perm.map(|p| [i, j, k][p]);
                            m[(q[0] * pd[1] + q[1]) * pd[2] + q[2]] = land(j, k);
                        }
                    }
                }
                masks.push((pd.to_vec(), m));
            }
        }
        masks
    }

    /// Oracle sweep for the walk: escapes, symbols and buffer bits against
    /// the frozen reference, plain and leveled, over ranks 1–4, the masks
    /// (none; random with valid share 0.1, 0.5 and 0.9; all valid but
    /// present; all invalid; and [`stretch_masks`]), both fittings and two
    /// bounds. The decoder must reproduce the encoder's buffer bits at
    /// valid points and the fill at masked points, bit for bit as the
    /// frozen decoder does, and a literal stream one value short or long
    /// must be a `ReconstructError` on every arm; given the grid's codebook
    /// ([`InterpParams::with_codebook`]), `reconstruct` must give the same
    /// bits and the same errors. Then escape placements the data never
    /// isolates — the anchor alone, the last point alone, every point —
    /// decode on both decoders from crafted symbol grids.
    #[test]
    fn oracle_sweep_matches_frozen_reference() {
        use crate::reference::{
            ref_predict_quantize, ref_predict_quantize_leveled, ref_reconstruct,
            ref_reconstruct_leveled,
        };

        let fill = -777.0f32;
        // The stretch masks draw their values from a stream of their own,
        // so the other masks see the values they always have.
        let mut state = 0xC11Du64;
        let mut stretch_state = 0x57E7C4u64;
        for shape in sweep_shapes() {
            let n: usize = shape.iter().product();
            let mut cases: Vec<(Vec<usize>, Option<Vec<bool>>, bool)> =
                vec![(shape.clone(), None, false)];
            for share in [10u64, 50, 90] {
                let m = (0..n).map(|_| lcg(&mut state) % 100 < share).collect();
                cases.push((shape.clone(), Some(m), false));
            }
            cases.push((shape.clone(), Some(vec![true; n]), false));
            cases.push((shape.clone(), Some(vec![false; n]), false));
            let stretchy = stretch_masks(&shape).into_iter();
            cases.extend(stretchy.map(|(dims, m)| (dims, Some(m), true)));
            for (dims, mask, stretchy) in &cases {
                let state = if *stretchy {
                    &mut stretch_state
                } else {
                    &mut state
                };
                let data = sweep_values(n, mask.as_deref(), state);
                for fitting in [Fitting::Linear, Fitting::Cubic] {
                    let params = match mask {
                        Some(m) => InterpParams::with_mask(fitting, m),
                        None => InterpParams::new(fitting),
                    };
                    for eb in [1e-2f64, 1e-5] {
                        let tag = format!(
                            "dims {dims:?} {fitting:?} eb {eb} mask {:?}",
                            mask.as_ref().map(|m| m.iter().filter(|&&v| v).count())
                        );
                        let q = LinearQuantizer::new(eb);
                        let qf = |stride: usize| LinearQuantizer::new(eb * (stride + 1) as f64);

                        let mut buf = data.clone();
                        let mut sym = vec![0u32; n];
                        let esc = predict_quantize(&mut buf, dims, &params, &q, &mut sym);
                        let mut ref_buf = data.clone();
                        let mut ref_sym = vec![0u32; n];
                        let ref_esc =
                            ref_predict_quantize(&mut ref_buf, dims, &params, &q, &mut ref_sym);
                        assert_eq!(esc, ref_esc, "escapes: {tag}");
                        assert_eq!(sym, ref_sym, "symbols: {tag}");
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&buf), bits(&ref_buf), "buffer bits: {tag}");

                        let mut lvl_buf = data.clone();
                        let mut lvl_sym = vec![0u32; n];
                        let lvl_esc = predict_quantize_leveled(
                            &mut lvl_buf,
                            dims,
                            &params,
                            &qf,
                            &mut lvl_sym,
                        );
                        let mut ref_buf = data.clone();
                        let mut ref_sym = vec![0u32; n];
                        let ref_esc = ref_predict_quantize_leveled(
                            &mut ref_buf,
                            dims,
                            &params,
                            &qf,
                            &mut ref_sym,
                        );
                        assert_eq!(lvl_esc, ref_esc, "leveled escapes: {tag}");
                        assert_eq!(lvl_sym, ref_sym, "leveled symbols: {tag}");
                        assert_eq!(bits(&lvl_buf), bits(&ref_buf), "leveled bits: {tag}");

                        let valid = |i: usize| mask.as_ref().is_none_or(|m| m[i]);
                        let literals = |s: &[u32]| -> Vec<f32> {
                            (0..n)
                                .filter(|&i| s[i] == ESCAPE && valid(i))
                                .map(|i| data[i])
                                .collect()
                        };
                        let check = |out: &[f32], enc: &[f32], what: &str| {
                            for i in 0..n {
                                let want = if valid(i) { enc[i] } else { fill };
                                assert_eq!(
                                    out[i].to_bits(),
                                    want.to_bits(),
                                    "{what} at {i}: {tag}"
                                );
                            }
                        };
                        let lits = literals(&sym);
                        assert_eq!(lits.len(), esc, "literal count: {tag}");
                        let mut out = vec![0.0f32; n];
                        reconstruct(&mut out, dims, &params, &q, &sym, &lits, fill).unwrap();
                        check(&out, &buf, "reconstruct");
                        let book = codebook_of(&sym);
                        let booked = params.with_codebook(&book);
                        let mut book_out = vec![0.0f32; n];
                        reconstruct(&mut book_out, dims, &booked, &q, &sym, &lits, fill).unwrap();
                        assert_eq!(bits(&book_out), bits(&out), "with codebook: {tag}");
                        let mut ref_out = vec![0.0f32; n];
                        ref_reconstruct(&mut ref_out, dims, &params, &q, &sym, &lits, fill)
                            .unwrap();
                        assert_eq!(bits(&out), bits(&ref_out), "ref_reconstruct: {tag}");
                        let lvl_lits = literals(&lvl_sym);
                        reconstruct_leveled(
                            &mut out, dims, &params, &qf, &lvl_sym, &lvl_lits, fill,
                        )
                        .unwrap();
                        check(&out, &lvl_buf, "reconstruct_leveled");
                        ref_reconstruct_leveled(
                            &mut ref_out,
                            dims,
                            &params,
                            &qf,
                            &lvl_sym,
                            &lvl_lits,
                            fill,
                        )
                        .unwrap();
                        assert_eq!(bits(&out), bits(&ref_out), "ref_reconstruct_leveled: {tag}");

                        let mut long = lits.clone();
                        long.push(0.0);
                        let short = &lits[..lits.len().saturating_sub(1)];
                        for bad in [&long[..], short] {
                            if bad.len() == esc {
                                continue;
                            }
                            let err = reconstruct(&mut out, dims, &params, &q, &sym, bad, fill)
                                .unwrap_err();
                            assert_eq!(
                                err,
                                ReconstructError::LiteralCount {
                                    expected_literals: esc,
                                    got_literals: bad.len()
                                },
                                "{tag}"
                            );
                            let booked_err =
                                reconstruct(&mut out, dims, &booked, &q, &sym, bad, fill);
                            assert_eq!(booked_err, Err(err), "with codebook: {tag}");
                        }
                    }
                }
                for placement in ["anchor", "last", "every"] {
                    escape_placement_decodes_as_frozen(dims, mask.as_deref(), placement, state);
                }
            }
        }
    }

    /// The distinct symbols of `sym`: a codebook that holds every one.
    fn codebook_of(sym: &[u32]) -> Vec<u32> {
        let mut book = sym.to_vec();
        book.sort_unstable();
        book.dedup();
        book
    }

    /// Decodes a crafted symbol grid — small pseudo-random bins, with
    /// escapes at `placement` ("anchor": raster index 0, "last": the last
    /// point, "every": every point) — on both decoders and both fittings,
    /// plain and leveled, and with the grid's codebook, and compares the
    /// bits. An escape at a masked point is no escape, so it takes no
    /// literal.
    fn escape_placement_decodes_as_frozen(
        dims: &[usize],
        mask: Option<&[bool]>,
        placement: &str,
        state: &mut u64,
    ) {
        use crate::reference::{ref_reconstruct, ref_reconstruct_leveled};

        let n: usize = dims.iter().product();
        let escaped = |i: usize| match placement {
            "anchor" => i == 0,
            "last" => i + 1 == n,
            _ => true,
        };
        let sym: Vec<u32> = (0..n)
            .map(|i| {
                let bin = (lcg(state) % 9) as i32 - 4;
                if escaped(i) {
                    ESCAPE
                } else {
                    bin_to_symbol(bin)
                }
            })
            .collect();
        let lits: Vec<f32> = (0..n)
            .filter(|&i| escaped(i) && mask.is_none_or(|m| m[i]))
            .map(|_| (lcg(state) % 2000) as f32 * 0.01 - 10.0)
            .collect();
        let q = LinearQuantizer::new(1e-3);
        let qf = |stride: usize| LinearQuantizer::new(1e-3 * (stride + 1) as f64);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for fitting in [Fitting::Linear, Fitting::Cubic] {
            let params = match mask {
                Some(m) => InterpParams::with_mask(fitting, m),
                None => InterpParams::new(fitting),
            };
            let tag = format!(
                "dims {dims:?} {fitting:?} escapes at {placement}, masked {}",
                mask.is_some()
            );
            let mut out = vec![0.0f32; n];
            let mut ref_out = vec![0.0f32; n];
            reconstruct(&mut out, dims, &params, &q, &sym, &lits, -5.0).unwrap();
            ref_reconstruct(&mut ref_out, dims, &params, &q, &sym, &lits, -5.0).unwrap();
            assert_eq!(bits(&out), bits(&ref_out), "{tag}");
            let book = codebook_of(&sym);
            let booked = params.with_codebook(&book);
            reconstruct(&mut out, dims, &booked, &q, &sym, &lits, -5.0).unwrap();
            assert_eq!(bits(&out), bits(&ref_out), "with codebook, {tag}");
            reconstruct_leveled(&mut out, dims, &params, &qf, &sym, &lits, -5.0).unwrap();
            ref_reconstruct_leveled(&mut ref_out, dims, &params, &qf, &sym, &lits, -5.0).unwrap();
            assert_eq!(bits(&out), bits(&ref_out), "leveled, {tag}");
        }
    }

    /// The fits sum `0.0 + c·d` over the valid references in ascending
    /// offset order, as the frozen reference does. f32 values
    /// times Theorem 1's dyadic coefficients usually sum exactly in f64,
    /// so the sweep above cannot see the order; these references span 2^40
    /// to 2^-20 with full mantissas, where the sum rounds and another
    /// order gives other bits. Every validity pattern and bounds case is
    /// checked against that sum written out, with a non-finite stand-in at
    /// every reference the fit must not count (a masked fill, or the
    /// walk's padding past a line end); the all-valid code with a reference
    /// out of bounds is an unmasked boundary point.
    #[test]
    fn fits_sum_in_reference_order() {
        let d = [
            f32::from_bits(0x5380_0001),
            0.1f32 + f32::EPSILON,
            -0.3f32,
            f32::from_bits(0x3580_0003),
        ];
        let in_order = |refs: &[(bool, f64, f32)]| {
            let mut p = 0.0f64;
            for &(ok, c, v) in refs {
                if ok {
                    p += c * v as f64;
                }
            }
            p
        };
        let stand_in = |v: &[bool], k: usize| {
            if v[k] {
                d[k]
            } else {
                [f32::NAN, f32::INFINITY][k % 2]
            }
        };
        let mut order_visible = false;
        for code in 0..16usize {
            let m: [bool; 4] = std::array::from_fn(|k| code >> k & 1 == 1);
            // Every bounds case a target can meet: +3s in bounds only if +s is.
            for (hi1, hi3) in [(true, true), (true, false), (false, false)] {
                for lo3 in [true, false] {
                    let v = [lo3 & m[0], m[1], hi1 & m[2], hi3 & m[3]];
                    let c = cubic_coeffs(v);
                    let refs: Vec<_> = (0..4).map(|k| (v[k], c[k], d[k])).collect();
                    let want = in_order(&refs);
                    let reversed: Vec<_> = refs.iter().rev().copied().collect();
                    order_visible |= in_order(&reversed).to_bits() != want.to_bits();
                    let got = cubic_fit(std::array::from_fn(|k| stand_in(&v, k)), v);
                    let case = format!("code {code:04b}, bounds {lo3} {hi1} {hi3}");
                    assert_eq!(got.to_bits(), want.to_bits(), "cubic, {case}");
                }
            }
            for hi in [true, false] {
                let v = [m[1], hi & m[2]];
                let c = linear_coeffs(v);
                let want = in_order(&[(v[0], c[0], d[1]), (v[1], c[1], d[2])]);
                let four = [false, v[0], v[1], false];
                let got = linear_fit([stand_in(&four, 1), stand_in(&four, 2)], v);
                assert_eq!(got.to_bits(), want.to_bits(), "linear, code {code:04b}");
            }
        }
        assert!(order_visible, "no pattern distinguishes summation orders");
    }

    #[test]
    fn cubic_beats_linear_on_smooth_curves() {
        let data: Vec<f32> = (0..1024)
            .map(|i| ((i as f64) * 0.01).sin() as f32 * 100.0)
            .collect();
        let q = LinearQuantizer::new(1e-4);
        let sum_mag = |fitting| {
            let params = InterpParams::new(fitting);
            let mut buf = data.clone();
            let mut symbols = vec![0u32; data.len()];
            predict_quantize(&mut buf, &[1024], &params, &q, &mut symbols);
            symbols
                .iter()
                .filter(|&&s| s != ESCAPE)
                .map(|&s| cliz_quant::symbol_to_bin(s).unsigned_abs() as u64)
                .sum::<u64>()
        };
        let lin = sum_mag(Fitting::Linear);
        let cub = sum_mag(Fitting::Cubic);
        assert!(cub < lin, "cubic bins {cub} !< linear bins {lin}");
    }
}
