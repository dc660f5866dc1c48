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
//! The two kernels (one per [`GroupAxis`]) read their input as *lanes* of a
//! [`RowSource`], in place: [`DenseRows`] is a slice's own rows, and
//! `fast_tensor::Im2colRows` a conv layer's patch matrix read straight from
//! the NCHW tensor — the paper's converter position (between memory and the
//! array, Fig 14): no FP32 patch matrix exists ([`pack_rows`]). The
//! `AlongCol` kernel writes the order the integer GEMM kernels read
//! ([`ColPanels`]), so that operand is never relaid.
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
//! matrix's values, and returns the [`Refusal`] that names which one failed,
//! having consumed **no** stochastic-rounding noise (noise is positional),
//! so the caller's fallback — the per-group walk of
//! [`crate::fake_quantize_matrix`], then the dense GEMM — draws from an
//! unperturbed source.

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
/// A scoped spawn + join measures 19–25 µs (2-vCPU Xeon), ≈ 30–40 k
/// elements at the 0.5–0.6 ns/element the nearest column-grouped pack of a
/// conv operand runs at (dense and row-grouped 0.7–1.0, 8-bit SR ≈
/// 1.1–1.4): below this a worker costs more to start than it takes off the
/// pass. The threshold bounds the loss, it does not promise a gain.
const MIN_ELEMS_PER_WORKER: usize = 1 << 15;

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

/// Lane `c` of one row's [`ColPanels::WIDTH`]-column panel: where its value
/// lies in the source's [`RowSource::values`] slice, or that the matrix
/// holds a zero there. Lanes past the matrix's last column are invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    /// Offset of each lane's value in [`RowSource::values`]; read only
    /// where the lane is valid.
    pub offsets: [i32; ColPanels::WIDTH],
    /// Bit `c` set when lane `c` holds `values()[offsets[c]]`; clear where
    /// the matrix holds a zero (a conv's padding) and past its last column.
    pub valid: u16,
    /// Whether `offsets[c] == offsets[0] + c` for every lane, valid or not:
    /// the panel row is then one masked contiguous load, else a gather.
    pub contiguous: bool,
}

/// A row-major `rows × cols` f32 matrix whose elements are read in place
/// from one slice: either the matrix itself ([`DenseRows`]) or a *view* of
/// other data — e.g. the `im2col` patch matrix of an NCHW tensor, which then
/// never exists in f32 (DESIGN.md §9). `Sync` because a sharded pass reads
/// it from every stripe.
pub trait RowSource: Sync {
    /// Row count of the matrix.
    fn rows(&self) -> usize;

    /// Column count of the matrix.
    fn cols(&self) -> usize;

    /// The slice every lane reads. Its length must fit `i32`; a valid lane
    /// whose offset lies outside it reads `0.0`.
    fn values(&self) -> &[f32];

    /// Whether every element of [`RowSource::values`] is some valid lane's,
    /// so that the slice holds the matrix's values up to order, repetition
    /// and exact zeros, which the prescan cannot see; else the kernels
    /// check each group they load, and a window walks the rows first.
    fn covers_values(&self) -> bool;

    /// The lanes of row `row`, columns `col0 .. col0 + 16` (`col0` a panel
    /// edge).
    fn lanes(&self, row: usize, col0: usize) -> Lanes;

    /// Row `row` as one run of [`RowSource::values`], if it lies there
    /// whole: the `AlongRow` kernel then reads it without loading lanes.
    fn row(&self, _row: usize) -> Option<&[f32]> {
        None
    }
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

    fn values(&self) -> &[f32] {
        self.data
    }

    fn covers_values(&self) -> bool {
        true
    }

    fn row(&self, row: usize) -> Option<&[f32]> {
        Some(&self.data[row * self.cols..][..self.cols])
    }

    #[inline(always)]
    fn lanes(&self, row: usize, col0: usize) -> Lanes {
        const IOTA: [i32; ColPanels::WIDTH] =
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
        let first = (row * self.cols + col0) as i32;
        let left = (self.cols - col0).min(ColPanels::WIDTH) as u32;
        Lanes {
            offsets: IOTA.map(|c| first.wrapping_add(c)),
            valid: (u32::MAX >> (32 - left)) as u16,
            contiguous: true,
        }
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
/// Panics if `rounding` is `Stochastic` with `noise_bits` outside `1..=31`,
/// or if `src.values()` is longer than `i32::MAX`.
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
    assert!(
        src.values().len() <= i32::MAX as usize,
        "lane offsets are i32"
    );
    // Draw-free prescan: the packed path requires every group to take the
    // per-group loop's plain path, which holds exactly when every
    // value is a normal number or zero (window clamping only ever *raises*
    // a group exponent toward the matrix maximum, so `e ∈ [natural, 127]`
    // is automatic). The scan also yields the matrix maximum for the window;
    // without a window, a source that does not cover its slice is checked
    // group by group as the kernels load it, so it is read once.
    let check_plain = !src.covers_values() && !use_window;
    let (mut max_bits, mut plain) = (0, true);
    if !check_plain {
        each_chunk(src, |values| {
            let (chunk_max, chunk_plain) = scan_group(values);
            (max_bits, plain) = (max_bits.max(chunk_max), plain && chunk_plain);
        });
    }
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
    with_round_op!(rounding, op => {
        let pass = Pass { src, fmt, round: op, window, check_plain };
        pack_sharded(&pass, axis, noise)
    })
    .ok_or_else(|| non_plain(src))
}

/// Names what makes a refused matrix non-plain: walks its values for a NaN
/// or an infinity, and calls it subnormal when there is none. Runs only
/// after a refusal.
fn non_plain<S: RowSource>(src: &S) -> Refusal {
    let mut nonfinite = false;
    each_chunk(src, |values| {
        nonfinite |= values.iter().any(|v| !v.is_finite())
    });
    [Refusal::Subnormal, Refusal::NonFinite][usize::from(nonfinite)]
}

/// Hands `f` the matrix's values: the source's slice when every element of
/// it is read ([`RowSource::covers_values`]), else each row, loaded.
fn each_chunk<S: RowSource>(src: &S, mut f: impl FnMut(&[f32])) {
    const W: usize = ColPanels::WIDTH;
    let (cols, values) = (src.cols(), src.values());
    if src.covers_values() {
        return f(values);
    }
    let mut row = vec![0.0f32; cols.next_multiple_of(W)];
    for r in 0..src.rows() {
        for (col0, out) in (0..cols).step_by(W).zip(row.chunks_exact_mut(W)) {
            out.copy_from_slice(&load::<8>(values, &src.lanes(r, col0)));
        }
        f(&row[..cols]);
    }
}

/// One pack's inputs besides its stripe and noise cursor.
struct Pass<'a, S, R> {
    src: &'a S,
    fmt: BfpFormat,
    round: &'a R,
    window: Option<ExponentWindow>,
    /// Set when no prescan saw the values: each group is checked as loaded.
    check_plain: bool,
}

/// Packing sharded across `noise.workers` threads: `AlongRow` in stripes
/// of rows, `AlongCol` in stripes of whole panels ([`stripe_len`]). Stripe
/// outputs concatenate exactly because both layouts are stored stripe by
/// stripe — row-major rows, panel-major panels; every stripe addresses its
/// noise by absolute element offset. `None` when `check_plain` is set and
/// some stripe loaded a value that is neither normal nor zero.
fn pack_sharded<S: RowSource, R: RoundOp + Sync>(
    pass: &Pass<S, R>,
    axis: GroupAxis,
    noise: Noise,
) -> Option<PackedData> {
    let Noise { rng, base, workers } = noise;
    // Sixteen lanes on an AVX-512 (F, BW and VL) host, else eight, each
    // kernel one body over the lane count `L`; read here, so a forced width
    // reaches every stripe.
    let wide = wide_lanes();
    let kernel = |range: Range<usize>| {
        let mut bits = CounterBits::new(rng, base);
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide_lanes` confirmed AVX-512F, -BW and -VL.
            #[allow(unsafe_code)]
            return unsafe { stripe_x16(pass, axis, range, &mut bits) };
        }
        match axis {
            GroupAxis::AlongRow => pack_along_row::<S, R, 8>(pass, range, &mut bits),
            GroupAxis::AlongCol => pack_along_col::<S, R, 8>(pass, range, &mut bits),
        }
    };
    let (len, granule) = match axis {
        GroupAxis::AlongRow => (pass.src.rows(), 1),
        GroupAxis::AlongCol => (pass.src.cols(), ColPanels::WIDTH),
    };
    let workers = effective_workers(workers, pass.src.rows() * pass.src.cols());
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

/// A stripe at sixteen lanes, compiled for AVX-512: one register per lane
/// array, where the x86-64-v3 build spills at sixteen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn stripe_x16<S: RowSource, R: RoundOp>(
    pass: &Pass<S, R>,
    axis: GroupAxis,
    range: Range<usize>,
    bits: &mut CounterBits,
) -> Option<PackedData> {
    match axis {
        GroupAxis::AlongRow => pack_along_row::<S, R, 16>(pass, range, bits),
        GroupAxis::AlongCol => pack_along_col::<S, R, 16>(pass, range, bits),
    }
}

/// Whether this thread's packs run sixteen lanes: the host runs AVX-512F,
/// -BW and -VL (detected once) and no test forced eight
/// ([`force_eight_lanes`]).
fn wide_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static WIDE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let host = *WIDE.get_or_init(|| {
            std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("avx512bw")
                && std::is_x86_feature_detected!("avx512vl")
        });
        host && !EIGHT_LANES.get()
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

thread_local! {
    static EIGHT_LANES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test support: makes the packs this thread starts run the eight-lane
/// body, which every host without AVX-512 runs, whatever this host runs
/// (`false` restores the host's width). Bits do not depend on the width.
#[doc(hidden)]
pub fn force_eight_lanes(on: bool) {
    EIGHT_LANES.set(on);
}

/// The panel row `lanes` describes, read in place from `values`, `0.0` in
/// every invalid lane: [`load_lanes`] `L` at a time, from the first offset
/// where all sixteen are consecutive and inside `values`.
#[inline(always)]
fn load<const L: usize>(values: &[f32], lanes: &Lanes) -> [f32; ColPanels::WIDTH] {
    const W: usize = ColPanels::WIDTH;
    let at = usize::try_from(lanes.offsets[0]).ok();
    let run = at.filter(|&at| lanes.contiguous && at + W <= values.len());
    let mut out = [0.0f32; W];
    for h in (0..W).step_by(L) {
        *lane_mut(&mut out, h) = load_lanes::<L>(values, lanes, h, run);
    }
    out
}

/// Lanes `h .. h + L` of `lanes` (`L` is 8 or 16): each valid lane's value,
/// `0.0` in every other lane — one masked load from `values[run + h ..]`
/// where the caller found the panel row consecutive and inside `values`
/// from `run`, a masked gather otherwise. Either way only what the caller
/// or the gather checked is read, and a lane whose offset lies outside
/// `values` reads `0.0`, so a wrong source cannot read out of bounds.
#[inline(always)]
fn load_lanes<const L: usize>(
    values: &[f32],
    lanes: &Lanes,
    h: usize,
    run: Option<usize>,
) -> [f32; L] {
    let mut out = [0.0f32; L];
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `L == 16` runs only inside `stripe_x16` (AVX-512F/BW/VL
    // confirmed), `L == 8` only where AVX2 is compiled in; a load from
    // `run` reads `values[run + h .. run + h + L]`, inside the slice since
    // `load` checked `run + 16 <= values.len()`, a gather only the lanes
    // whose offsets are inside, and `out` holds `L` floats.
    unsafe {
        use std::arch::x86_64::*;
        let (base, len) = (values.as_ptr(), values.len() as i32);
        let offsets = lanes.offsets.as_ptr().add(h);
        if L == 16 {
            let off = _mm512_loadu_si512(offsets.cast());
            let v = if let Some(at) = run {
                _mm512_maskz_loadu_ps(lanes.valid, base.add(at + h))
            } else {
                let k = lanes.valid & _mm512_cmplt_epu32_mask(off, _mm512_set1_epi32(len));
                _mm512_mask_i32gather_ps(_mm512_setzero_ps(), k, off, base, 4)
            };
            _mm512_storeu_ps(out.as_mut_ptr(), v);
            return out;
        }
        #[cfg(target_feature = "avx2")]
        if L == 8 {
            let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let valid = _mm256_set1_epi32(i32::from(lanes.valid >> h));
            let valid = _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(valid, bit), bit));
            let v = if let Some(at) = run {
                _mm256_and_ps(_mm256_loadu_ps(base.add(at + h)), valid)
            } else {
                let off = _mm256_loadu_si256(offsets.cast());
                let lo = _mm256_cmpgt_epi32(off, _mm256_set1_epi32(-1));
                let hi = _mm256_cmpgt_epi32(_mm256_set1_epi32(len), off);
                let k = _mm256_and_ps(valid, _mm256_castsi256_ps(_mm256_and_si256(lo, hi)));
                _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, off, k, 4)
            };
            _mm256_storeu_ps(out.as_mut_ptr(), v);
            return out;
        }
    }
    for (c, v) in (h..).zip(&mut out) {
        let at = run.map_or(usize::try_from(lanes.offsets[c]).ok(), |at| Some(at + c));
        let at = at.filter(|_| lanes.valid >> c & 1 != 0);
        *v = at.and_then(|i| values.get(i).copied()).unwrap_or(0.0);
    }
    out
}

/// Columns per row segment of the `AlongRow` kernel, before rounding to
/// whole groups and panels. Measured on the c8 16×16 patch rows of
/// `bench_json` (interleaved binaries, floor of six): 128 is 12–17 % slower,
/// and 256, 512 and 1024 sit within 5 % of one another.
const ROW_SEGMENT: usize = 256;

/// The element loop of the `AlongRow` kernel: quantizes the run of plain
/// values whose first element sits at noise `offset`, `values[i]` against
/// `t_base[i]`, into `out[i]` — 8-bit draws prefetched in bulk, other
/// widths drawn at the cursor — with `fake_quantize_group_plain`'s
/// arithmetic, so `out[i] as f32 * scale` is its f32, bit for bit.
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

/// `AlongRow` packing of source rows `rows`: groups are contiguous within
/// each row, which is loaded and packed one segment of whole groups and
/// whole panels (about [`ROW_SEGMENT`] columns) at a time — the segment's
/// lanes land in a scratch row, the groups' shared exponents are spread to
/// one `t_base` per lane, then the segment takes [`pack_lanes`]. With
/// `check_plain`, `None` at the first segment holding a value that is
/// neither normal nor zero.
#[inline(always)]
fn pack_along_row<S: RowSource, R: RoundOp, const L: usize>(
    pass: &Pass<S, R>,
    rows: Range<usize>,
    bits: &mut CounterBits,
) -> Option<PackedData> {
    const W: usize = ColPanels::WIDTH;
    let (src, fmt, round, window) = (pass.src, pass.fmt, pass.round, pass.window);
    let (cols, source) = (src.cols(), src.values());
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
    // Whole groups and whole panels: a multiple of `lcm(g, W)`.
    let lcm = g << (W.trailing_zeros() - g.trailing_zeros().min(W.trailing_zeros()));
    let seg = (ROW_SEGMENT / lcm).max(1) * lcm;
    let mut stage = vec![0.0f32; seg];
    let mut t_base = vec![0i32; seg];
    let mut noise = vec![0u8; seg]; // a segment's bulk draws (8-bit SR only)
    let rows_out = mans.chunks_mut(cols.max(1)).zip(scales.chunks_mut(gpr));
    for (r, (man_row, scale_row)) in rows.zip(rows_out) {
        let segments = man_row.chunks_mut(seg).zip(scale_row.chunks_mut(seg / g));
        for (c0, (out, seg_scales)) in (0..cols).step_by(seg).zip(segments) {
            let values = match src.row(r) {
                Some(row) => &row[c0..][..out.len()],
                None => {
                    let panels = stage
                        .chunks_exact_mut(W)
                        .zip((c0..c0 + out.len()).step_by(W));
                    for (panel, col0) in panels {
                        panel.copy_from_slice(&load::<L>(source, &src.lanes(r, col0)));
                    }
                    &stage[..out.len()]
                }
            };
            if pass.check_plain && !scan_group(values).1 {
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
/// edge) into their [`ColPanels`], panel by panel and group by group: each
/// group's `g` rows of the panel are loaded as lanes ([`load`]) with the
/// columns' maxima taken on the way, then quantized four rows at a time
/// into the panel's quad rows, appended in layout order — every byte
/// written once, the biased-zero padding past the group and the matrix
/// included. Lanes past the last column load `0.0` and their zero counts
/// are taken back. With `check_plain`, `None` at the first group holding a
/// value that is neither normal nor zero.
#[inline(always)]
fn pack_along_col<S: RowSource, R: RoundOp, const L: usize>(
    pass: &Pass<S, R>,
    cols: Range<usize>,
    bits: &mut CounterBits,
) -> Option<PackedData> {
    const W: usize = ColPanels::WIDTH;
    let (src, fmt, round, window) = (pass.src, pass.fmt, pass.round, pass.window);
    let (rows, width) = (src.rows(), src.cols());
    let g = fmt.group_size();
    let m = fmt.mantissa_bits();
    let max_mag = fmt.max_magnitude() as u32;
    let layout = ColPanels {
        rows,
        cols: cols.len(),
        group: g,
    };
    let mut mans: Vec<i8> = Vec::with_capacity(layout.len());
    let mut scales: Vec<f32> = Vec::with_capacity(layout.scales());
    let mut stats = QuantStats {
        groups: layout.blocks() * cols.len(),
        ..QuantStats::default()
    };
    // One group's lanes and its draws, row by row.
    let quads = layout.quads_per_block();
    let mut group = vec![[0.0f32; W]; g.min(rows)];
    let mut noise = vec![[0u32; W]; if R::DRAWS { g.min(rows) } else { 0 }];
    // Zero counts of lanes outside the matrix, taken back at the end.
    let mut padding = 0u64;
    for col0 in cols.clone().step_by(W) {
        let w = W.min(cols.end - col0);
        for block in (0..rows).step_by(g) {
            let rb = g.min(rows - block);
            let max = load_rows::<S, L>(src, block, col0, &mut group[..rb]);
            // The rows' draws (8-bit: all sixteen; lanes past the matrix
            // hold `0.0`, which rounds to zero against any).
            for (k, drawn) in noise.iter_mut().take(rb).enumerate() {
                let first = ((block + k) * width + col0) as u64;
                if R::NOISE8 {
                    *drawn = bits.draws16(first).map(u32::from);
                } else {
                    bits.seek(first, 1);
                    drawn[..w].iter_mut().for_each(|d| *d = round.draw(bits));
                }
            }
            if pass.check_plain && !group[..rb].iter().all(|row| scan_group(row).1) {
                return None;
            }
            let (mut t_base, mut scale) = ([0i32; W], [0.0f32; W]);
            let params = t_base.iter_mut().zip(&mut scale).zip(max);
            // Without a window the loop is branch-free and vectorizes: a
            // shared `window` argument kept it scalar, 15 % of the pack.
            match window {
                None => params.for_each(|((t, s), mx)| (*t, *s) = plain_group_params(mx, m, None)),
                window => {
                    params.for_each(|((t, s), mx)| (*t, *s) = plain_group_params(mx, m, window))
                }
            }
            scales.extend_from_slice(&scale);
            // Quads holding rows of the group; the rest are padding.
            let live = rb.div_ceil(4);
            let rows = (&group[..rb], &noise[..]);
            let counts = quad_rows::<R, L>(rows, &t_base, (max_mag, round), &mut mans);
            for _ in live..quads {
                mans.extend_from_slice(&[i8::MIN; ColPanels::QUAD]);
            }
            stats.zeros += counts.0;
            stats.saturated += counts.1;
            padding += (4 * live * W - rb * w) as u64;
        }
    }
    stats.zeros -= padding;
    Some(PackedData {
        mantissas: mans,
        scales,
        stats,
    })
}

/// Loads rows `row0 ..` of the panel at `col0` into `group` (one lane array
/// per row) and returns each column's largest magnitude bit pattern.
/// `group` is a `&mut` of its own, so the compiler knows no store to it
/// moves the source's tables.
#[inline(always)]
fn load_rows<S: RowSource, const L: usize>(
    src: &S,
    row0: usize,
    col0: usize,
    group: &mut [[f32; ColPanels::WIDTH]],
) -> [u32; ColPanels::WIDTH] {
    let values = src.values();
    let mut max = [0u32; ColPanels::WIDTH];
    for (k, row) in group.iter_mut().enumerate() {
        *row = load::<L>(values, &src.lanes(row0 + k, col0));
        for h in (0..ColPanels::WIDTH).step_by(L) {
            let (v, max) = (lane_ref::<_, L>(row, h), lane_mut::<_, L>(&mut max, h));
            for c in 0..L {
                max[c] = max[c].max(v[c].to_bits() & 0x7FFF_FFFF);
            }
        }
    }
    max
}

/// Quantizes one group of one panel — `group`'s rows against their
/// columns' `t_base`, each row with its `noise` (none for the deterministic
/// modes) — and appends the group's quad rows holding them to `out`: `16/L`
/// column blocks of `L` lanes each gather four rows' mantissas into `L`
/// `u32` lanes (`m ^ 0x80` per byte), fixed-width arrays the vectorizer
/// keeps in one register each. Returns the `(zeros, saturated)` counts of
/// the bytes written, padding included.
#[inline(always)]
fn quad_rows<R: RoundOp, const L: usize>(
    (group, noise): (&[[f32; ColPanels::WIDTH]], &[[u32; ColPanels::WIDTH]]),
    t_base: &[i32; ColPanels::WIDTH],
    (max_mag, round): (u32, &R),
    out: &mut Vec<i8>,
) -> (u64, u64) {
    const W: usize = ColPanels::WIDTH;
    // Zeros and saturations are counted on the written bytes, 64 at a time:
    // the biased zero, and the biased `±max_mag`.
    let (sat_hi, sat_lo) = (0x80 + max_mag as u8, 0x80 - max_mag as u8);
    let (mut zeros, mut saturated) = (0u64, 0u64);
    for (quad, rows) in group.chunks(4).enumerate() {
        let mut words = [0u32; W];
        for h in (0..W).step_by(L) {
            let t_base: &[i32; L] = lane_ref(t_base, h);
            let words = lane_mut::<_, L>(&mut words, h);
            // Rows past the group keep the biased zero. (At eight lanes a
            // constant four rows were vectorized across the rows, 1.7×
            // slower.)
            for (s, row) in rows.iter().enumerate() {
                let values: &[f32; L] = lane_ref(row, h);
                let noise: [u32; L] = match noise.get(4 * quad + s) {
                    Some(drawn) => *lane_ref(drawn, h),
                    None => [0; L],
                };
                // Indexed, not zipped: see `pack_lanes`.
                for c in 0..L {
                    let raw = values[c].to_bits();
                    let (_, man) = quantize_plain(raw, t_base[c], max_mag, round, noise[c]);
                    words[c] |= (man as u32 & 0xFF) << (8 * s);
                }
            }
        }
        let bytes = words.map(|w| (w ^ 0x8080_8080).to_le_bytes());
        let bytes: &[u8; ColPanels::QUAD] = bytes.as_flattened().try_into().expect("a quad");
        let count = |hit: fn(u8, u8, u8) -> bool| {
            let hits = bytes.iter().map(|&b| u8::from(hit(b, sat_hi, sat_lo)));
            u64::from(hits.sum::<u8>())
        };
        zeros += count(|b, _, _| b == 0x80);
        saturated += count(|b, hi, lo| (b == hi) | (b == lo));
        out.extend_from_slice(&bytes.map(|b| b as i8));
    }
    (zeros, saturated)
}

/// Lanes `h .. h + L` of a panel-wide array.
#[inline(always)]
fn lane_ref<T, const L: usize>(panel: &[T; ColPanels::WIDTH], h: usize) -> &[T; L] {
    panel[h..h + L].try_into().expect("L lanes")
}

/// Lanes `h .. h + L` of a panel-wide array, mutably.
#[inline(always)]
fn lane_mut<T, const L: usize>(panel: &mut [T; ColPanels::WIDTH], h: usize) -> &mut [T; L] {
    (&mut panel[h..h + L]).try_into().expect("L lanes")
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
                        force_eight_lanes(eight);
                        let p =
                            pack_matrix(&data, rows, cols, along, fmt, rounding, noise(), false);
                        force_eight_lanes(false);
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
        // from a source that vouches for its slice and from one whose
        // groups are checked as they load.
        let data = [1e-40f32, 1.0, f32::NAN, 0.5];
        for covers in [true, false] {
            let src = Transposed {
                data: &data,
                rows: 2,
                cols: 2,
                covers,
            };
            for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
                let fmt = BfpFormat::high();
                let got = pack_rows(&src, axis, fmt, Rounding::Nearest, noise(), false);
                assert_eq!(got.err(), Some(Refusal::NonFinite));
            }
        }
    }

    /// The transpose of a row-major `cols × rows` slice as a `rows × cols`
    /// source: every panel row a strided gather.
    struct Transposed<'a> {
        data: &'a [f32],
        rows: usize,
        cols: usize,
        covers: bool,
    }

    impl RowSource for Transposed<'_> {
        fn rows(&self) -> usize {
            self.rows
        }

        fn cols(&self) -> usize {
            self.cols
        }

        fn values(&self) -> &[f32] {
            self.data
        }

        fn covers_values(&self) -> bool {
            self.covers
        }

        fn lanes(&self, row: usize, col0: usize) -> Lanes {
            let left = self.cols - col0;
            Lanes {
                offsets: std::array::from_fn(|c| ((col0 + c) * self.rows + row) as i32),
                valid: if left >= 16 {
                    u16::MAX
                } else {
                    (1 << left) - 1
                },
                contiguous: self.rows == 1,
            }
        }
    }

    /// A gathering source packs as the matrix it views does, at both lane
    /// widths, on both axes, vouched for or checked group by group.
    #[test]
    fn gathered_lanes_pack_as_the_materialized_matrix() {
        for (rows, cols) in [(1usize, 5usize), (5, 1), (7, 33), (40, 17), (16, 48)] {
            let data = rand_data(rows * cols, (rows * 7 + cols) as u64);
            let transposed: Vec<f32> = (0..rows * cols)
                .map(|i| data[i % cols * rows + i / cols])
                .collect();
            for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
                for (fmt, rounding) in [
                    (BfpFormat::high(), Rounding::STOCHASTIC8),
                    (BfpFormat::new(5, 3, 8).unwrap(), Rounding::Nearest),
                    (
                        BfpFormat::new(32, 6, 8).unwrap(),
                        Rounding::Stochastic { noise_bits: 7 },
                    ),
                ] {
                    let want =
                        pack_matrix(&transposed, rows, cols, axis, fmt, rounding, noise(), false)
                            .unwrap();
                    for (covers, eight) in [(true, false), (false, false), (false, true)] {
                        let src = Transposed {
                            data: &data,
                            rows,
                            cols,
                            covers,
                        };
                        force_eight_lanes(eight);
                        let got = pack_rows(&src, axis, fmt, rounding, noise(), false).unwrap();
                        force_eight_lanes(false);
                        let ctx = format!("({rows}x{cols}) {axis:?} {fmt} {covers} {eight}");
                        assert_eq!(got.mantissas, want.mantissas, "{ctx}");
                        assert_eq!(got.scales, want.scales, "{ctx}");
                        assert_eq!(got.stats, want.stats, "{ctx}");
                    }
                }
            }
        }
    }

    /// A row-major matrix, with sixteen spare values behind it, whose
    /// sources claim consecutive lanes but give lanes `8..` offsets far
    /// outside the slice: the kernels read a consecutive panel row from
    /// its first offset, the one `load` bounds-checked, at both widths.
    struct Consecutive<'a> {
        data: &'a [f32],
        rows: usize,
        cols: usize,
    }

    impl RowSource for Consecutive<'_> {
        fn rows(&self) -> usize {
            self.rows
        }

        fn cols(&self) -> usize {
            self.cols
        }

        fn values(&self) -> &[f32] {
            self.data
        }

        fn covers_values(&self) -> bool {
            false
        }

        fn lanes(&self, row: usize, col0: usize) -> Lanes {
            let first = (row * self.cols + col0) as i32;
            let left = (self.cols - col0).min(16);
            Lanes {
                offsets: std::array::from_fn(|c| {
                    [first + c as i32, i32::MAX - c as i32][usize::from(c >= 8)]
                }),
                valid: (u32::MAX >> (32 - left)) as u16,
                contiguous: true,
            }
        }
    }

    #[test]
    fn consecutive_lanes_read_from_the_checked_offset() {
        let (rows, cols) = (5, 40);
        let data = rand_data(rows * cols + 16, 61);
        let src = Consecutive {
            data: &data,
            rows,
            cols,
        };
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            let (fmt, rounding) = (BfpFormat::high(), Rounding::STOCHASTIC8);
            let matrix = &data[..rows * cols];
            let want = pack_matrix(matrix, rows, cols, axis, fmt, rounding, noise(), false);
            let want = want.unwrap();
            for eight in [false, true] {
                force_eight_lanes(eight);
                let got = pack_rows(&src, axis, fmt, rounding, noise(), false).unwrap();
                force_eight_lanes(false);
                assert_eq!(got.mantissas, want.mantissas, "{axis:?} {eight}");
                assert_eq!(got.scales, want.scales, "{axis:?} {eight}");
            }
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
