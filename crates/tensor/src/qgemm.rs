//! GEMMs over packed-BFP operands.
//!
//! A [`PackedMat`] holds a BFP operand the way the paper's datapath does:
//! one signed `i8` mantissa per value plus one power-of-two scale per
//! group, a quarter of the f32 footprint. [`qmatmul`], [`qmatmul_nt`] and
//! [`qmatmul_tn`] multiply two [`Operand`]s, each dense or packed, by one
//! rule ([`runs_integer`]):
//!
//! * a packed×packed pair whose groups both run along the reduction axis
//!   runs the integer kernels (DESIGN.md §11): exact `i8×i8→i32` mantissa
//!   dot products per reduction segment, one f32 scale multiply-accumulate
//!   per segment in ascending segment order — the software realization of
//!   the fMAC pipeline modeled by `fast_hw`'s `fmac` module, and what the
//!   `qgemm_int` kernels document bit for bit. They run on the host's
//!   tile matrix unit (AMX-INT8 `tdpbsud`) for the products it speeds up,
//!   on its 8-bit dot-product instruction (AVX-VNNI `vpdpbusd`) where it
//!   has one, on AVX2 `vpmaddwd` otherwise, and on portable scalar code
//!   off x86-64; [`int_kernel`] names the widest, and the choice never
//!   moves a bit;
//! * every other pair — a dense operand, groups off the reduction axis, a
//!   segment past [`MAX_INT_SEGMENT`] — dequantizes its packed side once
//!   ([`Operand::to_dense`]) and runs the dense kernels of
//!   [`crate::matmul`]: one serial ascending-`k` chain per element, so the
//!   bits are those of quantize-copy + dense GEMM (DESIGN.md §9).
//!
//! Both are deterministic: bit-identical across worker counts, the
//! SIMD/scalar dispatch, and replicas.

use std::borrow::Cow;

use fast_bfp::packed::ColPanels;

use crate::qgemm_int::{self, AWords};
use crate::tensor::Tensor;
use crate::{matmul, matmul_nt, matmul_tn};

/// Longest reduction segment whose worst-case `i8×i8` products
/// (`(−128) · (−128)` each: [`PackedMat::new`] takes any `i8`) are
/// guaranteed to fit an `i32` accumulator: `⌊(2³¹ − 1) / 128²⌋ = 131 071`
/// values. Packed groups are far shorter in practice (the BFP format zoo
/// tops out at 16); pairs whose groups exceed this run the dense kernels on
/// their dequantized copies.
pub const MAX_INT_SEGMENT: usize = (i32::MAX as usize) / (128 * 128);

/// How quantization groups (one scale each) run through a [`PackedMat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackLayout {
    /// Groups are contiguous within each row: `scale(i, j) = s[i][j / g]`.
    /// The layout of an operand quantized along its rows (reduction runs
    /// along the column index).
    RowGroups,
    /// Groups run down each column: `scale(i, j) = s[i / g][j]`. The layout
    /// of an operand quantized along its columns.
    ColGroups,
}

/// A BFP-packed matrix: signed `i8` mantissas plus per-group scales. The
/// represented value at `(i, j)` is exactly
/// `mantissa(i, j) as f32 * scale(i, j)`.
///
/// A [`PackLayout::RowGroups`] matrix stores its mantissas and scales
/// row-major; a [`PackLayout::ColGroups`] one stores both in the column
/// panels the integer kernels read a right-hand operand from (DESIGN.md §9:
/// 16-column panels of biased k-quad rows, whole groups deep, then the
/// panel's block scales), so no product ever restages it.
#[derive(Debug, Clone)]
pub struct PackedMat {
    rows: usize,
    cols: usize,
    group: usize,
    layout: PackLayout,
    /// `RowGroups`: row-major mantissas. `ColGroups`: the panels'
    /// mantissas, each biased by `+128` (`m ^ i8::MIN`).
    mans: Vec<i8>,
    /// Scales in the same order.
    scales: Vec<f32>,
    /// A `RowGroups` matrix's k-quad words, staged once by
    /// [`PackedMat::with_a_words`].
    words: Option<AWords>,
}

impl PackedMat {
    /// A [`PackLayout::RowGroups`] matrix from its row-major mantissas and
    /// scales, as `fast_bfp::packed`'s `AlongRow` pack writes them.
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`, `mans.len() != rows * cols`, or the scale
    /// count is not `rows × ceil(cols/g)` (at least one scale slot is kept
    /// for a zero-width row).
    pub fn new(rows: usize, cols: usize, group: usize, mans: Vec<i8>, scales: Vec<f32>) -> Self {
        assert!(group > 0, "group size must be positive");
        assert_eq!(mans.len(), rows * cols, "mantissa count mismatch");
        let want_scales = rows * cols.div_ceil(group).max(1);
        assert_eq!(scales.len(), want_scales, "scale count mismatch");
        PackedMat {
            rows,
            cols,
            group,
            layout: PackLayout::RowGroups,
            mans,
            scales,
            words: None,
        }
    }

    /// A [`PackLayout::ColGroups`] matrix from its column panels, as
    /// `fast_bfp::packed`'s `AlongCol` pack writes them (its `ColPanels`):
    /// `bytes` the biased mantissas, `scales` the panels' block scales.
    ///
    /// # Panics
    ///
    /// Panics if `group == 0` or either length is not the layout's.
    pub fn from_col_panels(
        rows: usize,
        cols: usize,
        group: usize,
        bytes: Vec<i8>,
        scales: Vec<f32>,
    ) -> Self {
        assert!(group > 0, "group size must be positive");
        let p = ColPanels { rows, cols, group };
        assert_eq!(bytes.len(), p.len(), "panel byte count mismatch");
        assert_eq!(scales.len(), p.scales(), "panel scale count mismatch");
        PackedMat {
            rows,
            cols,
            group,
            layout: PackLayout::ColGroups,
            mans: bytes,
            scales,
            words: None,
        }
    }

    /// Stages a [`PackLayout::RowGroups`] matrix's k-quad words and block
    /// sums once, so every product with it as the left-hand side reads
    /// them instead of converting its rows again (DESIGN.md §11) — for an
    /// operand multiplied many times unchanged, a frozen conv weight, at
    /// about one byte more per value. Any other matrix, and every matrix
    /// whose group the vector kernels do not take on this host, comes back
    /// unchanged.
    pub fn with_a_words(mut self) -> Self {
        self.words = AWords::stage(&self);
        self
    }

    /// The column panels a [`PackLayout::ColGroups`] matrix is stored in.
    pub(crate) fn col_panels(&self) -> ColPanels {
        ColPanels {
            rows: self.rows,
            cols: self.cols,
            group: self.group,
        }
    }

    /// The words [`PackedMat::with_a_words`] staged, if any.
    pub(crate) fn a_words(&self) -> Option<&AWords> {
        self.words.as_ref()
    }

    /// Stored row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Stored column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Values per group (one shared scale each).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Which way groups run through the matrix.
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// The stored mantissa bytes, in the layout's order (see
    /// [`PackedMat`]).
    pub(crate) fn bytes(&self) -> &[i8] {
        &self.mans
    }

    /// The stored scales, in the layout's order.
    pub(crate) fn stored_scales(&self) -> &[f32] {
        &self.scales
    }

    /// The signed mantissa at `(i, j)`. Quantizers bound it by the
    /// mantissa width (`|m| ≤ 127` at the 8-bit cap); the integer kernels'
    /// overflow bound ([`MAX_INT_SEGMENT`]) holds for any `i8`, `−128`
    /// included.
    pub fn mantissa(&self, i: usize, j: usize) -> i8 {
        match self.layout {
            PackLayout::RowGroups => self.mans[i * self.cols + j],
            PackLayout::ColGroups => self.col_panels().mantissa(&self.mans, i, j),
        }
    }

    /// The scale of the group holding `(i, j)`. Quantizers emit exact
    /// powers of two (or `0.0` for all-zero groups), so a product of two
    /// scales is itself exact — see `fast_bfp::packed`.
    pub fn scale(&self, i: usize, j: usize) -> f32 {
        match self.layout {
            PackLayout::RowGroups => {
                self.scales[i * self.cols.div_ceil(self.group).max(1) + j / self.group]
            }
            PackLayout::ColGroups => self.scales[self.col_panels().scale_index(i, j)],
        }
    }

    /// Heap bytes held by the packed representation (mantissas + scales,
    /// plus staged words when there are some) — the serving working set a
    /// frozen packed weight occupies, versus `4 * rows * cols` for the
    /// dense f32 copy.
    pub fn heap_bytes(&self) -> usize {
        self.mans.len() + 4 * self.scales.len() + self.words.as_ref().map_or(0, AWords::heap_bytes)
    }

    /// The dequantized value at `(i, j)` — bit-identical to the f32 fake
    /// quantization would have written.
    pub fn value(&self, i: usize, j: usize) -> f32 {
        self.mantissa(i, j) as f32 * self.scale(i, j)
    }

    /// Materializes the dense dequantized tensor, [`PackedMat::value`] at
    /// every position: the operand a pair the integer kernels cannot take
    /// multiplies on the dense kernels.
    pub fn to_tensor(&self) -> Tensor {
        let (c, g) = (self.cols, self.group);
        let mut out = vec![0.0f32; self.rows * c];
        let rows = out.chunks_exact_mut(c.max(1)).enumerate();
        match self.layout {
            PackLayout::RowGroups => {
                for (i, row) in rows {
                    let mans = &self.mans[i * c..][..c];
                    let srow = &self.scales[i * c.div_ceil(g).max(1)..];
                    for ((o, m), &s) in row.chunks_mut(g).zip(mans.chunks(g)).zip(srow) {
                        for (o, &mv) in o.iter_mut().zip(m) {
                            *o = mv as f32 * s;
                        }
                    }
                }
            }
            PackLayout::ColGroups => {
                // Row `i`'s first column in the panels; each further
                // panel is a constant stride on.
                let p = self.col_panels();
                for (i, row) in rows {
                    let (man0, scale0) = (p.index(i, 0), p.scale_index(i, 0));
                    let (man_stride, scale_stride) = (p.index(0, 16), p.scale_index(0, 16));
                    for (j, o) in row.iter_mut().enumerate() {
                        let (q, lane) = (j / 16, j % 16);
                        let man = self.mans[man0 + q * man_stride + 4 * lane] ^ i8::MIN;
                        *o = man as f32 * self.scales[scale0 + q * scale_stride + lane];
                    }
                }
            }
        }
        Tensor::from_vec(vec![self.rows, c], out)
    }
}

/// A GEMM operand: a dense f32 tensor or a packed-BFP matrix.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// Dense row-major f32 storage.
    Dense(&'a Tensor),
    /// Packed mantissa + scale storage.
    Packed(&'a PackedMat),
}

impl<'a> Operand<'a> {
    /// `(rows, cols)` of the stored matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dense operand is not rank-2.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Operand::Dense(t) => {
                assert_eq!(t.rank(), 2, "GEMM operands must be rank-2");
                (t.shape()[0], t.shape()[1])
            }
            Operand::Packed(p) => (p.rows, p.cols),
        }
    }

    /// The operand as a dense tensor: borrowed when it is dense, dequantized
    /// once ([`PackedMat::to_tensor`]) when it is packed.
    pub fn to_dense(self) -> Cow<'a, Tensor> {
        match self {
            Operand::Dense(t) => Cow::Borrowed(t),
            Operand::Packed(p) => Cow::Owned(p.to_tensor()),
        }
    }
}

/// GEMM orientation — how the two operands are stored. Each output element
/// is one product of a row of `A` and a column of `B` along the reduction
/// axis `k` in all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orient {
    /// `C = A·B` (forward GEMMs).
    Nn,
    /// `C = A·Bᵀ`, `B` stored `n×k` (`∇A = ∇O·Wᵀ`, attention scores).
    Nt,
    /// `C = Aᵀ·B`, `A` stored `k×m` (`∇W = Aᵀ·∇O`).
    Tn,
}

/// The packed pair the integer kernels take in orientation `orient`: both
/// operands packed, each with its groups along the reduction axis, and
/// every reduction segment within [`MAX_INT_SEGMENT`].
fn integer_pair<'a>(
    orient: Orient,
    a: Operand<'a>,
    b: Operand<'a>,
) -> Option<(&'a PackedMat, &'a PackedMat)> {
    use PackLayout::{ColGroups, RowGroups};
    let (Operand::Packed(x), Operand::Packed(y)) = (a, b) else {
        return None;
    };
    let (la, lb, k) = match orient {
        Orient::Nn => (RowGroups, ColGroups, x.cols),
        Orient::Nt => (RowGroups, RowGroups, x.cols),
        Orient::Tn => (ColGroups, ColGroups, x.rows),
    };
    (x.layout == la && y.layout == lb && qgemm_int::segment_bound_ok(k, x.group, y.group))
        .then_some((x, y))
}

/// The widest integer micro-kernel this host runs, detected once: `"amx"`
/// (`tdpbsud` tiles for the products of four rows or more whose B is
/// column-grouped — `Nn` and `Tn` — and `vpdpbusd` for every other
/// product, as on an `"avxvnni"` host), `"avxvnni"` (`vpdpbusd` over
/// k-quads), `"avx2"` (`vpmaddwd` over the same k-quads, widened) or
/// `"scalar"`; the vector kernels take groups that are a multiple of four. Every kernel
/// returns the same bits; this names which ones produced a timing
/// (DESIGN.md §11).
pub fn int_kernel() -> &'static str {
    match qgemm_int::host_kernel() {
        Some(qgemm_int::MicroKernel::Tile) => "amx",
        Some(qgemm_int::MicroKernel::Dpbusd) => "avxvnni",
        Some(qgemm_int::MicroKernel::Madd) => "avx2",
        None => "scalar",
    }
}

/// Whether `a`·`b` in orientation `orient` runs on the integer kernels —
/// the dispatch rule of [`qmatmul`], [`qmatmul_nt`] and [`qmatmul_tn`];
/// `false` means the dense kernels run on the dequantized operands.
pub fn runs_integer(orient: Orient, a: Operand<'_>, b: Operand<'_>) -> bool {
    integer_pair(orient, a, b).is_some()
}

/// `C (m×n) = A (m×k) · B (k×n)`. The integer path needs `A` in
/// [`PackLayout::RowGroups`] and `B` in [`PackLayout::ColGroups`]; any other
/// pair is [`matmul`] on the dequantized operands.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul(a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (ka, kb) = (a.dims().1, b.dims().0);
    assert_eq!(ka, kb, "qmatmul inner dimensions disagree: {ka} vs {kb}");
    match integer_pair(Orient::Nn, a, b) {
        Some((x, y)) => qgemm_int::int_nn(x, y),
        None => matmul(&a.to_dense(), &b.to_dense()),
    }
}

/// `C (m×n) = A (m×k) · Bᵀ` with `B` stored `n×k`. The integer path needs
/// both operands in [`PackLayout::RowGroups`] (both store the reduction
/// along their rows); any other pair is [`matmul_nt`] on the dequantized
/// operands.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul_nt(a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (ka, kb) = (a.dims().1, b.dims().1);
    assert_eq!(ka, kb, "qmatmul_nt inner dimensions disagree: {ka} vs {kb}");
    match integer_pair(Orient::Nt, a, b) {
        Some((x, y)) => qgemm_int::int_nt(x, y),
        None => matmul_nt(&a.to_dense(), &b.to_dense()),
    }
}

/// `C (m×n) = Aᵀ · B` with `A` stored `k×m`, `B` stored `k×n`. The integer
/// path needs both operands in [`PackLayout::ColGroups`] (the reduction
/// runs down their columns); any other pair is [`matmul_tn`] on the
/// dequantized operands.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul_tn(a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (ka, kb) = (a.dims().0, b.dims().0);
    assert_eq!(ka, kb, "qmatmul_tn inner dimensions disagree: {ka} vs {kb}");
    match integer_pair(Orient::Tn, a, b) {
        Some((x, y)) => qgemm_int::int_tn(x, y),
        None => matmul_tn(&a.to_dense(), &b.to_dense()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A random `PackedMat` with 4-bit mantissas.
    fn random_pack(rows: usize, cols: usize, layout: PackLayout, seed: u64) -> PackedMat {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mans = (0..rows * cols).map(|_| rng.gen_range(-15..=15)).collect();
        let n_scales = match layout {
            PackLayout::RowGroups => rows * cols.div_ceil(16).max(1),
            PackLayout::ColGroups => rows.div_ceil(16).max(1) * cols,
        };
        let scales = (0..n_scales)
            .map(|_| 2.0f32.powi(rng.gen_range(-12..4)))
            .collect();
        match layout {
            PackLayout::RowGroups => PackedMat::new(rows, cols, 16, mans, scales),
            PackLayout::ColGroups => {
                crate::col_grouped::col_grouped(rows, cols, 16, &mans, &scales)
            }
        }
    }

    #[test]
    fn packed_mat_accessors_and_working_set() {
        for layout in [PackLayout::RowGroups, PackLayout::ColGroups] {
            let p = random_pack(6, 20, layout, 61);
            let dense = p.to_tensor();
            for i in 0..6 {
                for j in 0..20 {
                    assert_eq!(p.value(i, j).to_bits(), dense.at2(i, j).to_bits());
                }
            }
            assert_eq!(
                (p.rows(), p.cols(), p.group(), p.layout()),
                (6, 20, 16, layout)
            );
            // One byte per value plus one f32 scale per group — for a
            // column-grouped matrix, of its column panels: two 16-column
            // panels of one 16-row group (four 64-byte quad rows) and 16
            // scales each.
            let want = match layout {
                PackLayout::RowGroups => 6 * 20 + 4 * 6 * 2,
                PackLayout::ColGroups => 2 * (4 * 64 + 4 * 16),
            };
            assert_eq!(p.heap_bytes(), want, "{layout:?}");
        }
        // Whole panels and groups: well under the dense f32 footprint.
        for layout in [PackLayout::RowGroups, PackLayout::ColGroups] {
            let p = random_pack(32, 48, layout, 62);
            assert!(p.heap_bytes() * 3 < 4 * 32 * 48, "{layout:?}");
        }
    }

    #[test]
    fn only_reduction_grouped_packed_pairs_run_integer() {
        use Operand::{Dense as D, Packed as P};
        use PackLayout::{ColGroups as C, RowGroups as R};
        let (ar, ac) = (random_pack(5, 40, R, 111), random_pack(5, 40, C, 112));
        let (br, bc) = (random_pack(40, 9, R, 113), random_pack(40, 9, C, 114));
        let dense = ar.to_tensor();
        assert!(runs_integer(Orient::Nn, P(&ar), P(&bc)));
        assert!(!runs_integer(Orient::Nn, D(&dense), P(&bc)));
        assert!(!runs_integer(Orient::Nn, P(&ar), P(&br)));
        assert!(!runs_integer(Orient::Nn, P(&ac), P(&bc)));
        assert!(runs_integer(Orient::Nt, P(&ar), P(&ar)));
        assert!(!runs_integer(Orient::Nt, P(&ar), P(&ac)));
        assert!(!runs_integer(Orient::Tn, P(&br), P(&br)));
        assert!(runs_integer(Orient::Tn, P(&bc), P(&bc)));
        // Off the integer path the result is the dense chain on the
        // dequantized operands, bit for bit.
        let want = matmul(&ar.to_tensor(), &br.to_tensor());
        assert_eq!(qmatmul(P(&ar), P(&br)), want);
        assert_eq!(qmatmul(D(&dense), P(&br)), want);
    }

    /// All-`−128` operands with one segment as long as the integer kernels
    /// take, on the scalar (odd group) and the vector (group a multiple of
    /// four: the host's widest micro-kernel) `Nn` path and in the other two
    /// orientations: `k · 128²` fits the `i32` sum. One value longer it
    /// would not (`2³¹`), so that pair runs the dense kernels — and still
    /// reads the exact sum.
    #[test]
    fn the_longest_integer_segment_holds_all_minus_128() {
        use Operand::Packed as P;
        let bound = MAX_INT_SEGMENT;
        assert_eq!(bound, 131_071);
        for (k, g) in [(bound, bound), (bound, bound + 1), (bound + 1, bound + 1)] {
            let row = PackedMat::new(1, k, g, vec![-128; k], vec![1.0]);
            let col = crate::col_grouped::col_grouped(k, 1, g, &vec![-128; k], &[1.0]);
            assert_eq!(runs_integer(Orient::Nn, P(&row), P(&col)), k <= bound);
            let want = [(k * 128 * 128) as f32];
            assert_eq!(qmatmul(P(&row), P(&col)).data(), want, "nn k={k} g={g}");
            assert_eq!(qmatmul_nt(P(&row), P(&row)).data(), want, "nt k={k} g={g}");
            assert_eq!(qmatmul_tn(P(&col), P(&col)).data(), want, "tn k={k} g={g}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn dimension_mismatch_panics() {
        let pa = random_pack(2, 3, PackLayout::RowGroups, 71);
        let pb = random_pack(4, 2, PackLayout::ColGroups, 72);
        let _ = qmatmul(Operand::Packed(&pa), Operand::Packed(&pb));
    }
}
