//! Packing FP32 matrices into BFP-native operands: integer mantissas plus
//! per-group shared-exponent scales, **without materializing the
//! dequantized f32 copy** — and, for a matrix that is itself a view of
//! other data, without materializing the f32 matrix either.
//!
//! These kernels are the crate's one tensor converter: one `i8` mantissa
//! per value and one f32 scale (`2^(E-m+1)`) per group. A downstream kernel
//! reconstructs each value as `mantissa as f32 * scale`, and so does
//! [`crate::fake_quantize_matrix`], which packs and writes that product
//! back in place: the expression the per-group fake-quantize loop evaluates
//! on the same integer rounding (both call `kernel::quantize_plain`;
//! DESIGN.md §9), so its bits.
//!
//! The two kernels (one per [`GroupAxis`]) read their input through a
//! [`RowSource`], tile by tile: [`DenseRows`] lends a slice's rows without
//! copying ([`pack_matrix`]), and [`FillRows`] produces rows on demand —
//! the `im2col` patch matrix of a conv layer — into a staging tile of at
//! most `g × 256` values, so the paper's converter position (between memory
//! and the array, Fig 14) is reproduced: the tensor is converted on its way
//! out of memory and no FP32 patch matrix exists ([`pack_rows`]). The
//! `AlongCol` kernel writes its output in the order the integer GEMM
//! kernels read it ([`ColPanels`]), so that operand is never relaid.
//!
//! Packing is restricted to the cases where the per-group loop takes its
//! plain path for every group, so the reconstruction identity holds with no
//! further argument:
//!
//! * mantissa width `m ≤ 7`, so signed mantissas fit `i8` (`|M| ≤ 127`);
//! * every input value is a normal number or zero — NaN/infinity/subnormal
//!   inputs force the general (f64) path, whose subnormal-scale rounding an
//!   `i8 × f32` pair cannot replay.
//!
//! [`pack_rows`] detects both conditions draw-free, over exactly the
//! matrix's values — a prescan of a slice that holds them, or a check of
//! each tile as it is staged — and returns the [`Refusal`] that names
//! which one failed, having consumed **no** stochastic-rounding noise
//! (noise is positional), so the caller's
//! fallback — the per-group walk of [`crate::fake_quantize_matrix`], then
//! the dense GEMM — draws from an unperturbed source. Each element draws at
//! its own offset either way.

use crate::format::BfpFormat;
use crate::group::ExponentWindow;
use crate::kernel::{
    check_noise_bits, decompose, exponent_of_parts, plain_group_params, quantize_plain, scan_group,
    with_round_op, NearestOp, Noise, RoundOp, Stochastic8Op, StochasticOp, TruncateOp,
};
use crate::rng::CounterBits;
use crate::rounding::Rounding;
use crate::tensor_quant::{GroupAxis, QuantStats};
use std::ops::Range;

/// Widest mantissa packable into `i8` storage (`2^7 - 1 = 127 = i8::MAX`).
pub const MAX_PACKED_MANTISSA_BITS: u32 = 7;

/// Why [`pack_rows`] refused a matrix. Each reason is found without
/// drawing noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The format's mantissa is wider than [`MAX_PACKED_MANTISSA_BITS`].
    Wide,
    /// The matrix holds a NaN or an infinity (whatever else it holds).
    NonFinite,
    /// The matrix holds a subnormal value, and nothing non-finite.
    Subnormal,
}

impl Refusal {
    /// A short lowercase name, e.g. for a metric label.
    pub fn label(self) -> &'static str {
        match self {
            Refusal::Wide => "wide",
            Refusal::NonFinite => "nonfinite",
            Refusal::Subnormal => "subnormal",
        }
    }
}

/// Minimum elements each extra worker must be handed before a pack shards.
/// A scoped spawn + join measures ≈ 18 µs (2-vCPU Xeon), which is
/// ≈ 16 k elements at the 1.0–1.1 ns/element the nearest pack runs at
/// (`pack_m4_nearest_ns`; 8-bit SR ≈ 1.4): below this a worker costs more
/// to start than it takes off the pass. The threshold bounds the loss, it
/// does not promise a gain.
const MIN_ELEMS_PER_WORKER: usize = 1 << 14;

/// Effective worker count for a sharded pack: capped so every worker gets
/// at least [`MIN_ELEMS_PER_WORKER`] elements, never below one.
fn effective_workers(workers: usize, numel: usize) -> usize {
    workers.min(numel / MIN_ELEMS_PER_WORKER).max(1)
}

/// Length of each stripe when a pack shards `len` rows (`AlongRow`) or
/// columns (`AlongCol`) across `workers` threads, a multiple of `granule`:
/// one row, so stripe-local groups match the unsharded kernel's, or one
/// [`ColPanels::WIDTH`]-column panel, so stripe outputs are whole panels.
fn stripe_len(len: usize, granule: usize, workers: usize) -> usize {
    len.div_ceil(granule).div_ceil(workers) * granule
}

/// A BFP-packed matrix: signed integer mantissas plus per-group scales.
///
/// For [`GroupAxis::AlongRow`] the mantissas are row-major `rows × cols` and
/// the scales a row-major `rows × ceil(cols/g)` matrix
/// (`scale_of(i, j) = scales[i * gpr + j / g]`). For [`GroupAxis::AlongCol`]
/// both come in the column-panel order of [`ColPanels`], the order the
/// integer GEMM kernels read a column-grouped operand in, with every
/// mantissa biased by `+128`.
///
/// # Guarantees consumed by integer-domain kernels
///
/// Downstream consumers that multiply mantissas as integers (the
/// `fast_tensor` integer-domain qGEMM, DESIGN.md §11) rely on two
/// invariants that every packing path upholds:
///
/// * **Mantissa range**: `|mantissa| ≤ 2^m − 1 ≤ 127` — the value
///   `-128` never occurs, because magnitudes are clamped to the format's
///   `max_magnitude()` *before* the sign is applied. A product of two
///   mantissas therefore fits `i16` (`≤ 127² = 16 129`). The kernels'
///   i32 segment bound (`⌊i32::MAX / 128²⌋ = 131 071` products) does not
///   lean on this: it holds for any `i8`.
/// * **Scale values**: every scale is either an *exact power of two*
///   (`2^(E−m+1)` with `E` a representable normal exponent, so the f32 has
///   an all-zero significand field) or exactly `0.0` for an all-zero
///   group. A product of two scales is thus itself exact in f32 (no
///   rounding), which is what lets the integer kernels factor the scales
///   out of the inner product without changing the result.
#[derive(Debug, Clone)]
pub struct PackedData {
    /// One byte per value: `AlongRow`, the row-major signed mantissas;
    /// `AlongCol`, the [`ColPanels`] bytes.
    pub mantissas: Vec<i8>,
    /// Per-group scales `2^(E - m + 1)` (`0.0` for all-zero groups), in the
    /// axis's order.
    pub scales: Vec<f32>,
    /// The same counters the per-group fake-quantize loop produces.
    pub stats: QuantStats,
}

/// The order an `AlongCol` pack writes a `rows × cols` matrix in (groups of
/// `group` rows down each column): the order in which the integer GEMM
/// kernels' dot-product instructions read a right-hand operand
/// (`vpdpbusd`, `vpmaddwd` and the AMX `tdpbsud` tiles; DESIGN.md §9), so a
/// packed operand is multiplied where it lies.
///
/// The columns are cut into panels of [`ColPanels::WIDTH`] (the last one
/// padded). Panel `q` holds [`ColPanels::quad_rows`] *quad rows* of 64
/// bytes, each group block taking `⌈g/4⌉` of them: byte `4c + s` of the
/// block-`b` quad row `w` is the mantissa at row `b·g + 4w + s`, column
/// `16q + c`, biased by `+128` (`m ^ i8::MIN`, the unsigned operand of
/// `vpdpbusd`). Rows past a group or past the matrix, and columns past it,
/// hold the biased zero `i8::MIN`, so a group is a whole number of quad
/// rows and a panel a whole number of groups. The scales follow the same
/// panels: panel `q`'s `⌈rows/g⌉ × 16`, block `b`'s scale of column
/// `16q + c` at `16b + c`, `0.0` past the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColPanels {
    /// Row count of the matrix (the reduction depth of a GEMM operand).
    pub rows: usize,
    /// Column count of the matrix.
    pub cols: usize,
    /// Rows per group.
    pub group: usize,
}

impl ColPanels {
    /// Columns per panel.
    pub const WIDTH: usize = 16;

    /// Bytes per quad row: four rows of [`ColPanels::WIDTH`] columns.
    pub const QUAD: usize = 4 * Self::WIDTH;

    /// Group blocks down each column.
    pub fn blocks(&self) -> usize {
        self.rows.div_ceil(self.group)
    }

    /// Quad rows per group block, `⌈g/4⌉`.
    pub fn quads_per_block(&self) -> usize {
        self.group.div_ceil(4)
    }

    /// Quad rows per panel.
    pub fn quad_rows(&self) -> usize {
        self.blocks() * self.quads_per_block()
    }

    /// Panel count.
    pub fn panels(&self) -> usize {
        self.cols.div_ceil(Self::WIDTH)
    }

    /// Mantissa bytes of the layout.
    pub fn len(&self) -> usize {
        self.panels() * self.quad_rows() * Self::QUAD
    }

    /// Whether the layout holds no byte.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scales of the layout.
    pub fn scales(&self) -> usize {
        self.panels() * self.blocks() * Self::WIDTH
    }

    /// Index of the byte holding the value at `(i, j)`.
    pub fn index(&self, i: usize, j: usize) -> usize {
        let (b, r) = (i / self.group, i % self.group);
        let row = j / Self::WIDTH * self.quad_rows() + b * self.quads_per_block() + r / 4;
        row * Self::QUAD + j % Self::WIDTH * 4 + r % 4
    }

    /// Index of the scale of the group holding `(i, j)`.
    pub fn scale_index(&self, i: usize, j: usize) -> usize {
        (j / Self::WIDTH * self.blocks() + i / self.group) * Self::WIDTH + j % Self::WIDTH
    }

    /// The signed mantissa at `(i, j)` of the layout's `bytes`.
    pub fn mantissa(&self, bytes: &[i8], i: usize, j: usize) -> i8 {
        bytes[self.index(i, j)] ^ i8::MIN
    }
}

/// A row-major `rows × cols` f32 matrix the pack kernels read tile by tile:
/// either one that exists in memory ([`DenseRows`], which lends its rows
/// without copying) or a *virtual* one whose rows are produced on demand
/// into a small staging buffer ([`FillRows`]) — e.g. the `im2col` patch
/// matrix gathered straight from an NCHW tensor, which then never exists in
/// f32 (DESIGN.md §9). `Sync` because a sharded pass reads it from every
/// stripe.
pub trait RowSource: Sync {
    /// Row count of the matrix.
    fn rows(&self) -> usize;

    /// Column count of the matrix.
    fn cols(&self) -> usize;

    /// The tile of rows `row0 .. row0 + nrows` × columns
    /// `col0 .. col0 + ncols` as `(data, stride)`: row `k` of the tile is
    /// `data[k * stride..][..ncols]`. A source that holds the matrix lends
    /// it and leaves `stage` alone; one that produces rows on demand writes
    /// every element of the tile into `stage` (growing it as needed) and
    /// lends that.
    fn tile<'a>(
        &'a self,
        row0: usize,
        nrows: usize,
        col0: usize,
        ncols: usize,
        stage: &'a mut Vec<f32>,
    ) -> (&'a [f32], usize);

    /// A slice holding exactly the matrix's values — up to order, repetition
    /// and exact zeros, none of which the prescan's maximum-magnitude and
    /// plainness reduction can see — if the source has one. Without it the
    /// kernels check plainness on each tile they stage, and a windowed pack
    /// first walks the rows through [`RowSource::tile`] for the maximum.
    fn values(&self) -> Option<&[f32]>;
}

/// The [`RowSource`] of a matrix that exists: a borrowed row-major slice.
#[derive(Debug, Clone, Copy)]
pub struct DenseRows<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> DenseRows<'a> {
    /// Views `data` as a row-major `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        DenseRows { data, rows, cols }
    }
}

impl RowSource for DenseRows<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    #[inline(always)]
    fn tile<'a>(
        &'a self,
        row0: usize,
        _nrows: usize,
        col0: usize,
        _ncols: usize,
        _stage: &'a mut Vec<f32>,
    ) -> (&'a [f32], usize) {
        (&self.data[row0 * self.cols + col0..], self.cols)
    }

    fn values(&self) -> Option<&[f32]> {
        Some(self.data)
    }
}

/// The [`RowSource`] of a virtual matrix whose rows a *filler* produces on
/// demand: `fill(row, col0, out)` writes columns `col0 .. col0 + out.len()`
/// of `row` into `out` — every element of it, since the staging tile it is
/// handed is reused.
pub struct FillRows<'a, F> {
    rows: usize,
    cols: usize,
    fill: F,
    values: Option<&'a [f32]>,
}

impl<'a, F: Fn(usize, usize, &mut [f32]) + Sync> FillRows<'a, F> {
    /// A `rows × cols` matrix produced by `fill`. `values` is the slice
    /// [`RowSource::values`] reports — one holding exactly the matrix's
    /// values up to order, repetition and exact zeros, if the caller has
    /// one (pass `None` when unsure: the pack then goes by the rows alone).
    pub fn new(rows: usize, cols: usize, fill: F, values: Option<&'a [f32]>) -> Self {
        FillRows {
            rows,
            cols,
            fill,
            values,
        }
    }
}

impl<F: Fn(usize, usize, &mut [f32]) + Sync> RowSource for FillRows<'_, F> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn tile<'a>(
        &'a self,
        row0: usize,
        nrows: usize,
        col0: usize,
        ncols: usize,
        stage: &'a mut Vec<f32>,
    ) -> (&'a [f32], usize) {
        stage.resize(nrows * ncols, 0.0);
        for (k, row) in stage.chunks_mut(ncols.max(1)).enumerate() {
            (self.fill)(row0 + k, col0, row);
        }
        (stage, ncols)
    }

    fn values(&self) -> Option<&[f32]> {
        self.values
    }
}

/// Packs a row-major `rows × cols` slice: [`pack_rows`] over [`DenseRows`].
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`, or as [`pack_rows`] does.
#[allow(clippy::too_many_arguments)] // mirrors the converter signature
pub fn pack_matrix(
    data: &[f32],
    rows: usize,
    cols: usize,
    axis: GroupAxis,
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
    use_window: bool,
) -> Result<PackedData, Refusal> {
    let src = DenseRows::new(data, rows, cols);
    pack_rows(&src, axis, fmt, rounding, noise, use_window)
}

/// Packs the matrix `src` describes into BFP mantissas + scales with groups
/// along `axis`, or returns the [`Refusal`] when a pair `i8 × f32` cannot
/// reproduce the per-group loop's bits (mantissa wider than
/// [`MAX_PACKED_MANTISSA_BITS`], or any non-normal non-zero value).
///
/// A refusal consumes nothing — `noise` is positional — so the caller's
/// [`crate::fake_quantize_matrix`] fallback over the same [`Noise`]
/// quantizes exactly as if packing had never been tried. Either way the
/// element at `(i, j)` draws at offset `noise.base + i·cols + j`.
///
/// When `use_window` is set, the shared exponents are clamped into an
/// `e`-bit [`ExponentWindow`] anchored at the matrix-wide maximum exponent.
///
/// # Panics
///
/// Panics if `rounding` is `Stochastic` with `noise_bits` outside `1..=31`.
pub fn pack_rows<S: RowSource>(
    src: &S,
    axis: GroupAxis,
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
    use_window: bool,
) -> Result<PackedData, Refusal> {
    check_noise_bits(rounding);
    if fmt.mantissa_bits() > MAX_PACKED_MANTISSA_BITS {
        return Err(Refusal::Wide);
    }
    // Draw-free prescan: the packed path requires every group to take the
    // per-group loop's plain path, which holds exactly when every
    // value is a normal number or zero (window clamping only ever *raises*
    // a group exponent toward the matrix maximum, so `e ∈ [natural, 127]`
    // is automatic). The scan also yields the matrix maximum for the window.
    let scan = match src.values() {
        Some(values) => Some(scan_group(values)),
        // The window is anchored at the matrix maximum, which must be known
        // before the first group is quantized: walk the rows for it.
        None if use_window => Some(scan_rows(src)),
        // Plainness alone the kernels check tile by tile as they stage
        // them, so a source that produces its rows is read once.
        None => None,
    };
    let (max_bits, plain) = scan.unwrap_or((0, true));
    if !plain {
        return Err(non_plain(src));
    }
    let window = use_window.then(|| ExponentWindow {
        reference_exponent: if max_bits == 0 {
            0
        } else {
            let (sig, p) = decompose(max_bits);
            exponent_of_parts(sig, p)
        },
        exponent_bits: fmt.exponent_bits(),
    });
    let check_plain = scan.is_none();
    with_round_op!(rounding, op => pack_sharded(src, axis, fmt, op, noise, window, check_plain))
        .ok_or_else(|| non_plain(src))
}

/// Names what makes a refused matrix non-plain: walks its values (the
/// slice [`RowSource::values`] lends, or the rows one at a time) for a NaN
/// or an infinity, and calls it subnormal when there is none. Runs only
/// after a refusal.
fn non_plain<S: RowSource>(src: &S) -> Refusal {
    let finite = |values: &[f32]| values.iter().all(|v| v.is_finite());
    let all_finite = match src.values() {
        Some(values) => finite(values),
        None => {
            let cols = src.cols();
            let mut stage = Vec::new();
            (0..src.rows()).all(|r| finite(&src.tile(r, 1, 0, cols, &mut stage).0[..cols]))
        }
    };
    if all_finite {
        Refusal::Subnormal
    } else {
        Refusal::NonFinite
    }
}

/// [`scan_group`] over the rows of `src`, staged one at a time.
fn scan_rows<S: RowSource>(src: &S) -> (u32, bool) {
    let cols = src.cols();
    let mut stage = Vec::new();
    let (mut max_bits, mut plain) = (0u32, true);
    for r in 0..src.rows() {
        let (row, _) = src.tile(r, 1, 0, cols, &mut stage);
        let (row_max, row_plain) = scan_group(&row[..cols]);
        max_bits = max_bits.max(row_max);
        plain &= row_plain;
    }
    (max_bits, plain)
}

/// Packing sharded across `noise.workers` threads: `AlongRow` in stripes
/// of rows, `AlongCol` in stripes of whole panels ([`stripe_len`]). Stripe
/// outputs concatenate exactly because both layouts are stored stripe by
/// stripe — row-major rows, panel-major panels; every stripe addresses its
/// noise by absolute element offset. `None` when `check_plain` is set and
/// some stripe staged a value that is neither normal nor zero.
fn pack_sharded<S: RowSource, R: RoundOp + Sync>(
    src: &S,
    axis: GroupAxis,
    fmt: BfpFormat,
    round: &R,
    noise: Noise,
    window: Option<ExponentWindow>,
    check_plain: bool,
) -> Option<PackedData> {
    let Noise { rng, base, workers } = noise;
    let kernel = |stripe: Range<usize>| {
        let mut bits = CounterBits::new(rng, base);
        match axis {
            GroupAxis::AlongRow => {
                pack_along_row(src, stripe, fmt, round, &mut bits, window, check_plain)
            }
            GroupAxis::AlongCol => {
                pack_along_col(src, stripe, fmt, round, &mut bits, window, check_plain)
            }
        }
    };
    let (len, granule) = match axis {
        GroupAxis::AlongRow => (src.rows(), 1),
        GroupAxis::AlongCol => (src.cols(), ColPanels::WIDTH),
    };
    let workers = effective_workers(workers, src.rows() * src.cols());
    if workers == 1 {
        return kernel(0..len);
    }
    let stripe = stripe_len(len, granule, workers);
    let parts: Option<Vec<PackedData>> = std::thread::scope(|scope| {
        let kernel = &kernel;
        let handles: Vec<_> = (0..len)
            .step_by(stripe)
            .map(|start| scope.spawn(move || kernel(start..len.min(start + stripe))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pack worker panicked"))
            .collect()
    });
    let mut parts = parts?.into_iter();
    let mut out = parts.next().expect("at least one stripe");
    for p in parts {
        out.mantissas.extend_from_slice(&p.mantissas);
        out.scales.extend_from_slice(&p.scales);
        out.stats.merge(p.stats);
    }
    Some(out)
}

/// Columns per staged tile. Measured on the c8 16×16 patch rows of
/// `bench_json` (interleaved binaries, floor of six): 128 is 12–17 % slower
/// (half a 16×16 plane per source call), and 256, 512 and 1024 sit within 5 %
/// of one another — so the smallest of the plateau, which keeps a `g = 16`
/// `AlongCol` tile at 16 KiB of f32 plus 2 KiB of per-column state, inside
/// L1d next to the output rows.
const COL_TILE: usize = 256;

/// The element loop of the `AlongRow` kernel: quantizes the run of plain
/// (normal-or-zero) values whose first element sits at noise `offset`,
/// `values[i]` against `t_base[i]`, into `out[i]`. Under 8-bit stochastic
/// rounding the run's draws are prefetched into `noise` in bulk; other
/// stochastic widths draw at the cursor. The arithmetic is
/// `fake_quantize_group_plain`'s, so `out[i] as f32 * scale` reproduces its
/// written f32s bit for bit. The zero and saturation counters are
/// loop-carried sums the vectorizer keeps in registers and reduces once per
/// run.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the lanes' inputs, outputs and format
fn pack_lanes<R: RoundOp>(
    values: &[f32],
    t_base: &[i32],
    noise: &mut [u8],
    out: &mut [i8],
    offset: usize,
    max_mag: u32,
    round: &R,
    bits: &mut CounterBits,
    stats: &mut QuantStats,
) {
    let n = values.len();
    let (t_base, noise, out) = (&t_base[..n], &mut noise[..n], &mut out[..n]);
    bits.seek(offset as u64, 1);
    if R::NOISE8 {
        bits.fill8(noise);
    }
    let (mut zeros, mut saturated) = (0u32, 0u32);
    // Indexed, not zipped: a four-way zip whose noise lane is dead (the
    // deterministic modes) did not vectorize.
    for i in 0..n {
        let r = if R::NOISE8 {
            noise[i] as u32
        } else {
            round.draw(bits)
        };
        let (mag, man) = quantize_plain(values[i].to_bits(), t_base[i], max_mag, round, r);
        zeros += (mag == 0) as u32;
        saturated += (mag == max_mag) as u32; // max_mag >= 1, disjoint from 0
        out[i] = man as i8;
    }
    stats.zeros += zeros as u64;
    stats.saturated += saturated as u64;
}

/// Largest magnitude bit pattern of a group of plain values.
#[inline(always)]
fn group_max(values: &[f32]) -> u32 {
    values
        .iter()
        .fold(0, |max, v| max.max(v.to_bits() & 0x7FFF_FFFF))
}

/// The group width whose maximum scan gets a fixed-width body: the paper's
/// `g = 16`, the only group size the training and serving paths use. With
/// the length a runtime value the `AlongRow` rows read 6–18 % slower
/// (`pack_m4_nearest_ns`-shaped operands, floor of six interleaved runs).
const FIXED_GROUP: usize = 16;

/// `AlongRow` packing of source rows `row0 .. row1`: groups are contiguous
/// within each row, which is staged and packed one segment of whole groups
/// (about [`COL_TILE`] columns) at a time — the groups' shared exponents are
/// spread to one `t_base` per lane, then the segment takes [`pack_lanes`].
/// With `check_plain`, `None` at the first staged segment holding a value
/// that is neither normal nor zero.
fn pack_along_row<S: RowSource, R: RoundOp>(
    src: &S,
    rows: Range<usize>,
    fmt: BfpFormat,
    round: &R,
    bits: &mut CounterBits,
    window: Option<ExponentWindow>,
    check_plain: bool,
) -> Option<PackedData> {
    let cols = src.cols();
    let g = fmt.group_size();
    let m = fmt.mantissa_bits();
    let max_mag = fmt.max_magnitude() as u32;
    let gpr = cols.div_ceil(g).max(1);
    let nrows = rows.len();
    let mut mans = vec![0i8; nrows * cols];
    let mut scales = vec![0.0f32; nrows * gpr];
    let mut stats = QuantStats {
        groups: nrows * cols.div_ceil(g),
        ..QuantStats::default()
    };
    let seg = (COL_TILE / g).max(1) * g;
    let mut stage = Vec::new();
    let mut t_base = vec![0i32; seg];
    let mut noise = vec![0u8; seg]; // a segment's bulk draws (8-bit SR only)
    let rows_out = mans.chunks_mut(cols.max(1)).zip(scales.chunks_mut(gpr));
    for (r, (man_row, scale_row)) in rows.zip(rows_out) {
        let segments = man_row.chunks_mut(seg).zip(scale_row.chunks_mut(seg / g));
        for (c0, (out, seg_scales)) in (0..cols).step_by(seg).zip(segments) {
            let (values, _) = src.tile(r, 1, c0, out.len(), &mut stage);
            let values = &values[..out.len()];
            if check_plain && !scan_group(values).1 {
                return None;
            }
            let groups = values.chunks(g).zip(t_base.chunks_mut(g));
            for ((vals, t), scale) in groups.zip(seg_scales) {
                // Same scan both ways; the first is inlined at a constant
                // length ([`FIXED_GROUP`]).
                let max_bits = match <&[f32; FIXED_GROUP]>::try_from(vals) {
                    Ok(vals) => group_max(vals),
                    Err(_) => group_max(vals),
                };
                let (t_group, s) = plain_group_params(max_bits, m, window);
                t.fill(t_group);
                *scale = s;
            }
            let offset = r * cols + c0;
            pack_lanes(
                values, &t_base, &mut noise, out, offset, max_mag, round, bits, &mut stats,
            );
        }
    }
    Some(PackedData {
        mantissas: mans,
        scales,
        stats,
    })
}

/// `AlongCol` packing of source columns `cols` (whole panels from a panel
/// edge) into their [`ColPanels`]: lane-wise over `g`-row ×
/// [`COL_TILE`]-column tiles — every column group of a tile quantized
/// simultaneously, tiled so that a source producing rows on demand stages
/// `g × COL_TILE` values, never the matrix. Each group's rows are then
/// written four at a time as the panels' quad rows ([`quad_rows`]). Element
/// order is free because nearest/truncate rounding draws no bits and
/// stochastic rounding keys its noise on element offsets; each tile row's
/// draws are taken in one run before its panels are written. With
/// `check_plain`, `None` at the first staged tile holding a value that is
/// neither normal nor zero.
fn pack_along_col<S: RowSource, R: RoundOp>(
    src: &S,
    cols: Range<usize>,
    fmt: BfpFormat,
    round: &R,
    bits: &mut CounterBits,
    window: Option<ExponentWindow>,
    check_plain: bool,
) -> Option<PackedData> {
    const W: usize = ColPanels::WIDTH;
    let (rows, width) = (src.rows(), src.cols());
    let g = fmt.group_size();
    let m = fmt.mantissa_bits();
    let max_mag = fmt.max_magnitude() as u32;
    let layout = ColPanels {
        rows,
        cols: cols.len(),
        group: g,
    };
    let (qpb, panel_rows, nblocks) = (
        layout.quads_per_block(),
        layout.quad_rows(),
        layout.blocks(),
    );
    let mut mans = vec![i8::MIN; layout.len()];
    let mut scales = vec![0.0f32; layout.scales()];
    let mut stats = QuantStats {
        groups: layout.blocks() * cols.len(),
        ..QuantStats::default()
    };
    let mut stage = Vec::new();
    let mut col_max = [0u32; COL_TILE];
    let mut t_base = [0i32; COL_TILE];
    let mut tile_scales = [0.0f32; COL_TILE];
    // A tile's draws, row by row: bulk 8-bit draws, or other widths'.
    let tile_noise = |on: bool| if on { g.min(rows) * COL_TILE } else { 0 };
    let mut noise8 = vec![0u8; tile_noise(R::NOISE8)];
    let mut noise = vec![0u32; tile_noise(R::DRAWS && !R::NOISE8)];
    for (bb, block) in (0..rows).step_by(g).enumerate() {
        let rb = g.min(rows - block);
        for c0 in cols.clone().step_by(COL_TILE) {
            let tw = COL_TILE.min(cols.end - c0);
            let (tile, stride) = src.tile(block, rb, c0, tw, &mut stage);
            let col_max = &mut col_max[..tw];
            col_max.fill(0);
            for k in 0..rb {
                let values = &tile[k * stride..][..tw];
                if check_plain && !scan_group(values).1 {
                    return None;
                }
                for (mx, &v) in col_max.iter_mut().zip(values) {
                    *mx = (*mx).max(v.to_bits() & 0x7FFF_FFFF);
                }
            }
            let params = t_base.iter_mut().zip(&mut tile_scales).zip(col_max.iter());
            // Without a window the loop is branch-free and vectorizes: a
            // shared `window` argument kept it scalar, 15 % of the pack.
            match window {
                None => params.for_each(|((t, s), &mx)| (*t, *s) = plain_group_params(mx, m, None)),
                Some(_) => {
                    params.for_each(|((t, s), &mx)| (*t, *s) = plain_group_params(mx, m, window))
                }
            }
            for k in 0..rb {
                bits.seek(((block + k) * width + c0) as u64, 1);
                if R::NOISE8 {
                    bits.fill8(&mut noise8[k * COL_TILE..][..tw]);
                } else if R::DRAWS {
                    for r in &mut noise[k * COL_TILE..][..tw] {
                        *r = round.draw(bits);
                    }
                }
            }
            let j0 = c0 - cols.start; // a panel edge: COL_TILE is whole panels
            for p0 in (0..tw).step_by(W) {
                let (q, w) = ((j0 + p0) / W, W.min(tw - p0));
                let scales = &mut scales[(q * nblocks + bb) * W..][..w];
                scales.copy_from_slice(&tile_scales[p0..p0 + w]);
                let out = &mut mans[(q * panel_rows + bb * qpb) * ColPanels::QUAD..];
                let group = Group {
                    tile: &tile[p0..],
                    stride,
                    rows: rb,
                    width: w,
                    t_base: &t_base[p0..],
                    noise8: noise8.get(p0..).unwrap_or_default(),
                    noise: noise.get(p0..).unwrap_or_default(),
                    max_mag,
                };
                quad_rows(group, &mut out[..qpb * ColPanels::QUAD], round, &mut stats);
            }
        }
    }
    Some(PackedData {
        mantissas: mans,
        scales,
        stats,
    })
}

/// One group of one panel's columns of a tile, as the lane body reads it:
/// `rows` tile rows of `width ≤ 16` values (`tile[k * stride..]`), their
/// columns' `t_base`, each tile row's draws (`COL_TILE` apart) and the
/// format's `max_mag`.
#[derive(Clone, Copy)]
struct Group<'a> {
    tile: &'a [f32],
    stride: usize,
    rows: usize,
    width: usize,
    t_base: &'a [i32],
    noise8: &'a [u8],
    noise: &'a [u32],
    max_mag: u32,
}

/// Quantizes one group of one panel's columns into the group's quad rows
/// of `out` ([`panel_quads`]). A panel narrower than 16 columns is first
/// copied into a zero-padded one; the padding quantizes to the biased
/// zero, and its zero counts are taken back.
#[inline(always)]
fn quad_rows<R: RoundOp>(group: Group, out: &mut [i8], round: &R, stats: &mut QuantStats) {
    const W: usize = ColPanels::WIDTH;
    let (w, rows) = (group.width, group.rows);
    if w == W {
        return panel_quads(group, out, round, stats);
    }
    let mut tile = vec![0.0f32; rows * W];
    let mut t_base = [0i32; W];
    t_base[..w].copy_from_slice(&group.t_base[..w]);
    let mut noise8 = vec![0u8; if R::NOISE8 { rows * COL_TILE } else { 0 }];
    let mut noise = vec![
        0u32;
        if R::DRAWS && !R::NOISE8 {
            rows * COL_TILE
        } else {
            0
        }
    ];
    for k in 0..rows {
        tile[k * W..][..w].copy_from_slice(&group.tile[k * group.stride..][..w]);
        if R::NOISE8 {
            noise8[k * COL_TILE..][..w].copy_from_slice(&group.noise8[k * COL_TILE..][..w]);
        } else if R::DRAWS {
            noise[k * COL_TILE..][..w].copy_from_slice(&group.noise[k * COL_TILE..][..w]);
        }
    }
    let padded = Group {
        tile: &tile,
        stride: W,
        width: W,
        t_base: &t_base,
        noise8: &noise8,
        noise: &noise,
        ..group
    };
    panel_quads(padded, out, round, stats);
    stats.zeros -= ((W - w) * rows) as u64;
}

/// The panel writer's lane body on the host's widest lanes: sixteen on an
/// AVX-512 (F, BW and VL) host, eight otherwise ([`lane_body`]). Out of
/// line, so its slices keep their no-alias guarantee whatever the caller
/// inlined: inlined into a pack over an im2col source it ran 4× slower.
#[inline(never)]
fn panel_quads<R: RoundOp>(group: Group, out: &mut [i8], round: &R, stats: &mut QuantStats) {
    #[cfg(target_arch = "x86_64")]
    if wide_lanes() && !eight_lanes_forced() {
        // SAFETY: `wide_lanes` confirmed AVX-512F, -BW and -VL at runtime.
        #[allow(unsafe_code)]
        return unsafe { panel_quads_x16(group, out, round, stats) };
    }
    lane_body::<R, 8>(group, out, round, stats)
}

/// Whether the host runs AVX-512F, AVX-512BW and AVX-512VL — the features
/// [`panel_quads_x16`] is compiled for — detected once.
#[cfg(target_arch = "x86_64")]
fn wide_lanes() -> bool {
    static WIDE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *WIDE.get_or_init(|| {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("avx512vl")
    })
}

#[cfg(test)]
thread_local! {
    /// Set by a test to run the eight-lane body on this thread whatever
    /// the host runs ([`eight_lanes_forced`]).
    static EIGHT_LANES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether a test asked this thread for the eight-lane body, which every
/// host without AVX-512 runs; never outside the crate's tests.
#[cfg(target_arch = "x86_64")]
fn eight_lanes_forced() -> bool {
    #[cfg(test)]
    return EIGHT_LANES.get();
    #[cfg(not(test))]
    false
}

/// [`lane_body`] at sixteen lanes, compiled for AVX-512: one register per
/// array, where the x86-64-v3 build spills at sixteen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn panel_quads_x16<R: RoundOp>(group: Group, out: &mut [i8], round: &R, stats: &mut QuantStats) {
    lane_body::<R, 16>(group, out, round, stats)
}

/// The panel writer's lane body, written once over the lane count `L`
/// (8 or 16): for one group of one panel, `16 / L` column blocks of `L`
/// lanes each quantize four rows at a time and gather their mantissas
/// into `L` `u32` lanes of a quad row (`m ^ 0x80` per byte) — fixed-width
/// arrays the vectorizer keeps in one register each. Every rounding mode
/// takes it. Rows past the group keep the biased zero `out` already holds.
#[inline(always)]
fn lane_body<R: RoundOp, const L: usize>(
    group: Group,
    out: &mut [i8],
    round: &R,
    stats: &mut QuantStats,
) {
    let Group {
        tile,
        stride,
        rows,
        max_mag,
        ..
    } = group;
    // Per-lane counters, reduced once per panel: reduced per row, they
    // cost as much as the row's arithmetic.
    let (mut zeros, mut saturated) = ([0u32; L], [0u32; L]);
    for c0 in (0..ColPanels::WIDTH).step_by(L) {
        let t_base: &[i32; L] = group.t_base[c0..c0 + L].try_into().expect("a full panel");
        for (quad, dst) in out.chunks_exact_mut(ColPanels::QUAD).enumerate() {
            let first = 4 * quad;
            if first >= rows {
                break;
            }
            let mut words = [0u32; L];
            for s in 0..(rows - first).min(4) {
                let k = first + s;
                let values: &[f32; L] = tile[k * stride + c0..][..L].try_into().expect("L");
                let noise: [u32; L] = if R::NOISE8 {
                    let drawn = &group.noise8[k * COL_TILE + c0..][..L];
                    <&[u8; L]>::try_from(drawn).expect("L").map(u32::from)
                } else if R::DRAWS {
                    *<&[u32; L]>::try_from(&group.noise[k * COL_TILE + c0..][..L]).expect("L")
                } else {
                    [0; L]
                };
                // Indexed, not zipped: see `pack_lanes`.
                for c in 0..L {
                    let (mag, man) =
                        quantize_plain(values[c].to_bits(), t_base[c], max_mag, round, noise[c]);
                    // `mag == 0` and `mag == max_mag` (`mag ≤ max_mag`,
                    // `max_mag ≥ 1`) as arithmetic: counted from compares,
                    // the lanes' counters compiled to ~40 shuffles.
                    zeros[c] += 1 - mag.min(1);
                    saturated[c] += (mag + 1).saturating_sub(max_mag);
                    words[c] |= (man as u32 & 0xFF) << (8 * s);
                }
            }
            let bytes = words.map(|w| (w ^ 0x8080_8080).to_le_bytes());
            for (d, &b) in dst[4 * c0..][..4 * L].iter_mut().zip(bytes.as_flattened()) {
                *d = b as i8;
            }
        }
    }
    stats.zeros += zeros.iter().sum::<u32>() as u64;
    stats.saturated += saturated.iter().sum::<u32>() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::BfpGroup;
    use crate::rng::CounterRng;
    use rand::{Rng, SeedableRng};

    fn noise() -> Noise {
        Noise {
            rng: CounterRng::new(0xACE1),
            base: 5,
            workers: 1,
        }
    }

    /// `(mantissa, scale)` of every element of `p`, row-major.
    fn elements(
        p: &PackedData,
        rows: usize,
        cols: usize,
        axis: GroupAxis,
        g: usize,
    ) -> Vec<(i8, f32)> {
        let gpr = cols.div_ceil(g).max(1);
        let panels = ColPanels {
            rows,
            cols,
            group: g,
        };
        (0..rows * cols)
            .map(|idx| {
                let (i, j) = (idx / cols, idx % cols);
                match axis {
                    GroupAxis::AlongRow => (p.mantissas[idx], p.scales[i * gpr + j / g]),
                    GroupAxis::AlongCol => (
                        panels.mantissa(&p.mantissas, i, j),
                        p.scales[panels.scale_index(i, j)],
                    ),
                }
            })
            .collect()
    }

    fn dequantize(p: &PackedData, rows: usize, cols: usize, axis: GroupAxis, g: usize) -> Vec<f32> {
        let elements = elements(p, rows, cols, axis, g).into_iter();
        elements.map(|(man, scale)| man as f32 * scale).collect()
    }

    fn rand_data(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(-4.0f32..4.0) * 2.0f32.powi(rng.gen_range(-12..6)))
            .collect()
    }

    /// The independent reference: one [`BfpGroup`] per group, as
    /// `(reconstruction, stats)`. `rand_data` holds no zero, so every element
    /// draws exactly once, and a cursor seeked to the group's first offset
    /// with the group's stride hands each element the noise at its own offset.
    fn bfp_group_reference(
        data: &[f32],
        rows: usize,
        cols: usize,
        axis: GroupAxis,
        fmt: BfpFormat,
        rounding: Rounding,
        windowed: bool,
    ) -> (Vec<f32>, QuantStats) {
        assert!(data.iter().all(|&v| v != 0.0));
        let window = windowed.then(|| ExponentWindow::from_values(data, fmt.exponent_bits()));
        let g = fmt.group_size();
        // Each group as (first index, stride, length).
        let groups: Vec<(usize, usize, usize)> = match axis {
            GroupAxis::AlongRow => (0..rows)
                .flat_map(|r| {
                    (0..cols)
                        .step_by(g)
                        .map(move |c| (r * cols + c, 1, g.min(cols - c)))
                })
                .collect(),
            GroupAxis::AlongCol => (0..rows)
                .step_by(g)
                .flat_map(|r| (0..cols).map(move |c| (r * cols + c, cols, g.min(rows - r))))
                .collect(),
        };
        let mut bits = CounterBits::new(noise().rng, noise().base);
        let mut out = vec![f32::NAN; rows * cols];
        let mut stats = QuantStats::default();
        for (first, stride, len) in groups {
            let idx: Vec<usize> = (0..len).map(|k| first + k * stride).collect();
            let values: Vec<f32> = idx.iter().map(|&i| data[i]).collect();
            bits.seek(first as u64, stride as u64);
            let q = BfpGroup::quantize(&values, fmt, rounding, &mut bits, window);
            stats.groups += 1;
            for ((&i, &man), v) in idx.iter().zip(q.mantissas()).zip(q.dequantize()) {
                out[i] = v;
                stats.zeros += (man == 0) as u64;
                stats.saturated += (man.unsigned_abs() == fmt.max_magnitude() as u32) as u64;
            }
        }
        (out, stats)
    }

    #[test]
    fn packed_reconstruction_and_stats_match_bfp_groups() {
        for (rows, cols) in [(1usize, 1usize), (3, 17), (16, 16), (7, 33), (8, 24)] {
            let data = rand_data(rows * cols, (rows * 31 + cols) as u64);
            for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
                for (fmt, rounding) in [
                    (BfpFormat::high(), Rounding::Nearest),
                    (BfpFormat::low(), Rounding::Nearest),
                    (BfpFormat::low(), Rounding::Truncate),
                    (BfpFormat::new(5, 7, 8).unwrap(), Rounding::Nearest),
                    (BfpFormat::high(), Rounding::STOCHASTIC8),
                    (BfpFormat::mid(), Rounding::Stochastic { noise_bits: 3 }),
                ] {
                    for windowed in [false, true] {
                        let ctx = format!("({rows}x{cols}) {axis:?} {fmt} {rounding:?} {windowed}");
                        let (want, want_stats) =
                            bfp_group_reference(&data, rows, cols, axis, fmt, rounding, windowed);
                        let packed =
                            pack_matrix(&data, rows, cols, axis, fmt, rounding, noise(), windowed)
                                .expect("plain data must pack");
                        assert_eq!(packed.stats, want_stats, "{ctx}");
                        let got = dequantize(&packed, rows, cols, axis, fmt.group_size());
                        for (idx, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(w.to_bits(), g.to_bits(), "{ctx} @{idx}");
                        }
                    }
                }
            }
        }
    }

    /// Both widths of the panel writer's lane body — eight lanes, which
    /// every host without AVX-512 runs, and the host's own — write the
    /// per-group reference's panels, value for value and count for count,
    /// and the same bytes: shapes off the 16-column panel, depths under a
    /// quad, every group of whole quads the kernels take, and the nearest,
    /// truncating, 8-bit and other-width stochastic bodies.
    #[test]
    fn eight_lane_and_host_panels_match_bfp_groups() {
        let along = GroupAxis::AlongCol;
        for (rows, cols) in [(1usize, 5usize), (3, 17), (16, 16), (33, 40), (47, 7)] {
            let data = rand_data(rows * cols, (rows * 53 + cols) as u64);
            for g in [4, 8, 16, 32] {
                for (m, rounding) in [
                    (4, Rounding::Nearest),
                    (3, Rounding::Truncate),
                    (4, Rounding::STOCHASTIC8),
                    (5, Rounding::Stochastic { noise_bits: 5 }),
                ] {
                    let fmt = BfpFormat::new(g, m, 8).expect("a valid format");
                    let ctx = format!("({rows}x{cols}) g={g} {rounding:?}");
                    let pack = |eight: bool| {
                        EIGHT_LANES.set(eight);
                        let p =
                            pack_matrix(&data, rows, cols, along, fmt, rounding, noise(), false);
                        EIGHT_LANES.set(false);
                        p.expect("plain data must pack")
                    };
                    let (host, eight) = (pack(false), pack(true));
                    let (want, want_stats) =
                        bfp_group_reference(&data, rows, cols, along, fmt, rounding, false);
                    for p in [&host, &eight] {
                        assert_eq!(p.stats, want_stats, "{ctx}");
                        let got = dequantize(p, rows, cols, along, g);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                    }
                    assert_eq!(eight.mantissas, host.mantissas, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn non_plain_inputs_refuse_to_pack() {
        for (bad, why) in [
            (f32::NAN, Refusal::NonFinite),
            (f32::NEG_INFINITY, Refusal::NonFinite),
            (1e-40f32, Refusal::Subnormal),
        ] {
            let data = vec![1.0f32, bad, 0.5, -2.0];
            let got = pack_matrix(
                &data,
                2,
                2,
                GroupAxis::AlongRow,
                BfpFormat::high(),
                Rounding::STOCHASTIC8,
                noise(),
                false,
            );
            assert_eq!(got.err(), Some(why), "{bad} must force the fallback");
        }
        // A subnormal beside a NaN: the non-finite value names the refusal,
        // from a source that lends its values and from one that stages rows.
        let data = [1e-40f32, 1.0, f32::NAN, 0.5];
        let fill = |r: usize, c0: usize, out: &mut [f32]| {
            out.copy_from_slice(&data[r * 2 + c0..][..out.len()]);
        };
        for values in [Some(&data[..]), None] {
            let src = FillRows::new(2, 2, fill, values);
            let got = pack_rows(
                &src,
                GroupAxis::AlongCol,
                BfpFormat::high(),
                Rounding::Nearest,
                noise(),
                false,
            );
            assert_eq!(got.err(), Some(Refusal::NonFinite));
        }
    }

    #[test]
    fn wide_mantissas_refuse_to_pack() {
        let data = vec![1.0f32; 16];
        let fmt = BfpFormat::new(16, 8, 3).unwrap();
        let got = pack_matrix(
            &data,
            1,
            16,
            GroupAxis::AlongRow,
            fmt,
            Rounding::Nearest,
            noise(),
            false,
        );
        assert_eq!(got.err(), Some(Refusal::Wide));
    }

    #[test]
    fn packed_invariants_hold_for_integer_kernels() {
        // The integer-domain qGEMM (fast_tensor, DESIGN.md §11) multiplies
        // mantissas as i8×i8 and multiplies scale pairs in f32, which is
        // exact when every scale is an exact power of two or 0.0; the
        // packers also keep |man| ≤ 127 (never -128) — pin both invariants
        // across formats, roundings and axes.
        let data = rand_data(24 * 24, 17);
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            for (fmt, rounding) in [
                (BfpFormat::high(), Rounding::Nearest),
                (BfpFormat::mid(), Rounding::STOCHASTIC8),
                (BfpFormat::low(), Rounding::Truncate),
                (BfpFormat::new(7, 7, 5).unwrap(), Rounding::Nearest),
            ] {
                let packed =
                    pack_matrix(&data, 24, 24, axis, fmt, rounding, noise(), true).unwrap();
                let cap = fmt.max_magnitude() as i16;
                assert!(cap <= 127);
                for (m, _) in elements(&packed, 24, 24, axis, fmt.group_size()) {
                    assert!((m as i16).abs() <= cap, "{axis:?} {fmt}: mantissa {m}");
                }
                for &s in &packed.scales {
                    let pow2 = s > 0.0 && s.to_bits() & 0x7F_FFFF == 0;
                    assert!(s == 0.0 || pow2, "{axis:?} {fmt}: scale {s} not 2^k or 0");
                }
            }
        }
    }

    #[test]
    fn all_zero_matrix_packs_to_zero_scales() {
        let data = vec![0.0f32; 32];
        let packed = pack_matrix(
            &data,
            2,
            16,
            GroupAxis::AlongRow,
            BfpFormat::high(),
            Rounding::Nearest,
            noise(),
            true,
        )
        .unwrap();
        assert!(packed.scales.iter().all(|&s| s == 0.0));
        assert!(packed.mantissas.iter().all(|&m| m == 0));
        assert_eq!(packed.stats.zeros, 32);
    }
}
