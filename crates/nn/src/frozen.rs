//! Frozen-weight quantization caches for inference serving (DESIGN.md §8).
//!
//! During training, every GEMM re-quantizes the FP32 master weights because
//! Algorithm 1 may reassign the layer's format between iterations. At
//! inference both the weights and the format assignment are frozen, so each
//! weight operand can be converted FP32 → BFP **once** and replayed on
//! every request. [`FrozenWeight`] owns that cached copy for one layer
//! operand as a plan-[`Prepared`] operand: for packable BFP formats that is
//! the *packed* representation (`i8` mantissas + per-group scales, ~¼ of
//! the dense f32 footprint — the serving working set shrinks accordingly),
//! for everything else a quantized dense tensor.
//!
//! Correctness invariants:
//!
//! * the cache is consulted only when [`Session::freeze_weights`] is set
//!   (never during training);
//! * any weight update invalidates it — weight-bearing layers bump their
//!   version in `visit_params`, the only mutable access path optimizers
//!   have — as does any change of format or grouping axis;
//! * cache builds use a deterministic noise source, so every replica of a
//!   model quantizes to bit-identical weights regardless of request order,
//!   and for deterministic rounding the cached operand is bit-identical to
//!   what the training-path forward would have produced.
//!
//! [`Session::freeze_weights`]: crate::Session

use crate::qgemm::{quantize_operand, Prepared};
use crate::quant::NumericFormat;
use fast_bfp::{CounterRng, GroupAxis, Noise, QuantStats};
use fast_tensor::Tensor;

/// Seed of the noise frozen builds draw from (only SR weight formats draw)
/// — the constant the hardware LFSR powers up with. Fixed, so the noise
/// depends only on the build, never on the session or on request order.
const FROZEN_SEED: u64 = 0xACE1;

/// The noise a frozen build draws from, positioned at element offset `base`.
fn frozen_noise(base: u64) -> Noise {
    Noise {
        rng: CounterRng::new(FROZEN_SEED),
        base,
        workers: 1,
    }
}

/// A cached quantized copy of one weight operand.
///
/// The cache is stale whenever the owning layer's weight version, the
/// numeric format, or the grouping axis differ from the last build; `get`
/// then rebuilds from the FP32 master copy. Repeat hits return the cached
/// [`Prepared`] operand with no allocation or quantization work.
#[derive(Debug, Default)]
pub(crate) struct FrozenWeight {
    /// Weight version: bumped by the owning layer on every mutable weight
    /// access (parameter visitation / direct accessor).
    version: u64,
    /// `(format, axis, per_row, version)` of the current build, if any.
    built: Option<(NumericFormat, GroupAxis, bool, u64)>,
    /// The cached GEMM operand.
    prepared: Option<Prepared>,
}

impl FrozenWeight {
    /// Records a (potential) weight mutation, invalidating the cache.
    pub fn mark_dirty(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Returns the cached quantized weight operand shaped `rows × cols`,
    /// rebuilding from `master` if the weights, the format, or the axis
    /// changed since the last build. A packed weight grouped down its
    /// columns (a `Dense` weight, the right-hand side of its product) is
    /// packed in the integer kernels' panel order; one grouped along its
    /// rows (a conv weight, the left-hand side) has its k-quad words and
    /// block sums staged with it, so no request converts either again
    /// (DESIGN.md §9, §11).
    ///
    /// Builds draw from a freshly seeded deterministic source (see
    /// `frozen_noise`), so rebuilds and replicas are deterministic — see
    /// DESIGN.md §8 and §12.
    pub fn get(
        &mut self,
        master: &Tensor,
        rows: usize,
        cols: usize,
        fmt: NumericFormat,
        axis: GroupAxis,
    ) -> &Prepared {
        let key = (fmt, axis, false, self.version);
        if self.built != Some(key) || self.prepared.is_none() {
            let mut stats = QuantStats::default(); // build-once cost, unmetered
            let (prepared, _) = quantize_operand(
                frozen_noise(0),
                &mut stats,
                master.data(),
                rows,
                cols,
                fmt,
                axis,
            );
            self.prepared = Some(prepared.with_a_words());
            self.built = Some(key);
        }
        self.prepared.as_ref().expect("frozen operand just built")
    }

    /// Like [`FrozenWeight::get`], but quantizes every row as an
    /// *independent* `1 × cols` matrix with groups along the row, yielding a
    /// dense operand.
    ///
    /// [`DepthwiseConv2d`](crate::DepthwiseConv2d) quantizes each channel's
    /// kernel row separately, so windowed formats take a per-row exponent
    /// window; a single `rows × cols` build would wrongly share one window
    /// across all channels. The rows are later re-sliced into per-channel
    /// `1 × k²` GEMM operands, so this cache stays dense.
    pub fn get_per_row(
        &mut self,
        master: &Tensor,
        rows: usize,
        cols: usize,
        fmt: NumericFormat,
    ) -> &Prepared {
        let key = (fmt, GroupAxis::AlongRow, true, self.version);
        if self.built != Some(key) || self.prepared.is_none() {
            let mut buf = master.data().to_vec();
            for (r, row) in buf.chunks_mut(cols).enumerate() {
                // Row `r` draws at positions `r·cols ..`, matching the
                // element offsets of the whole-matrix builds — each row
                // still takes its own exponent window because it is
                // quantized as an independent `1 × cols` matrix.
                let noise = frozen_noise((r * cols) as u64);
                fmt.quantize_slice(row, 1, cols, GroupAxis::AlongRow, noise);
            }
            self.prepared = Some(Prepared::Dense(Tensor::from_vec(vec![rows, cols], buf)));
            self.built = Some(key);
        }
        self.prepared.as_ref().expect("frozen operand just built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bfp::BfpFormat;

    fn master() -> Tensor {
        Tensor::from_vec(
            vec![2, 16],
            (0..32).map(|i| 0.013 * i as f32 - 0.2).collect(),
        )
    }

    #[test]
    fn hit_returns_same_values_without_rebuild() {
        let w = master();
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let mut fz = FrozenWeight::default();
        let first = fz.get(&w, 2, 16, fmt, GroupAxis::AlongRow).to_tensor();
        let second = fz.get(&w, 2, 16, fmt, GroupAxis::AlongRow).to_tensor();
        assert_eq!(first, second);
        // And it matches a direct quantization of the master copy.
        let mut direct = w.clone();
        fmt.quantize_matrix(&mut direct, GroupAxis::AlongRow, frozen_noise(0));
        assert_eq!(first, direct);
    }

    #[test]
    fn packable_bfp_weights_are_cached_packed() {
        let w = master();
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let mut fz = FrozenWeight::default();
        let prepared = fz.get(&w, 2, 16, fmt, GroupAxis::AlongRow);
        assert!(
            matches!(prepared, Prepared::Packed(_)),
            "m=4 BFP must freeze packed"
        );
        // The packed working set is well under the dense f32 footprint.
        assert!(prepared.heap_bytes() < 4 * 32);
        // FP32 weights freeze dense.
        let mut fz2 = FrozenWeight::default();
        assert!(matches!(
            fz2.get(&w, 2, 16, NumericFormat::Fp32, GroupAxis::AlongRow),
            Prepared::Dense(_)
        ));
    }

    #[test]
    fn dirty_mark_triggers_rebuild_from_new_master() {
        let mut w = master();
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let mut fz = FrozenWeight::default();
        let before = fz.get(&w, 2, 16, fmt, GroupAxis::AlongRow).to_tensor();
        w.data_mut()[0] += 1.0;
        // Without the mark the stale copy would be served.
        fz.mark_dirty();
        let after = fz.get(&w, 2, 16, fmt, GroupAxis::AlongRow).to_tensor();
        assert_ne!(before, after);
    }

    #[test]
    fn format_change_invalidates() {
        let w = master();
        let mut fz = FrozenWeight::default();
        let high = fz
            .get(
                &w,
                2,
                16,
                NumericFormat::bfp_nearest(BfpFormat::high()),
                GroupAxis::AlongRow,
            )
            .to_tensor();
        let low = fz
            .get(
                &w,
                2,
                16,
                NumericFormat::bfp_nearest(BfpFormat::low()),
                GroupAxis::AlongRow,
            )
            .to_tensor();
        assert_ne!(high, low, "m=4 vs m=2 must differ on this data");
    }

    #[test]
    fn axis_change_invalidates() {
        let w = Tensor::from_vec(
            vec![16, 16],
            (0..256i32).map(|i| 2.0f32.powi(-(i % 23))).collect(),
        );
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let mut fz = FrozenWeight::default();
        let by_row = fz.get(&w, 16, 16, fmt, GroupAxis::AlongRow).to_tensor();
        let by_col = fz.get(&w, 16, 16, fmt, GroupAxis::AlongCol).to_tensor();
        assert_ne!(by_row, by_col);
    }

    /// The cached weight's mantissas and scales in a fresh matrix, which
    /// stages nothing (a column-grouped matrix never stages words).
    fn unstaged(w: &fast_tensor::qgemm::PackedMat) -> fast_tensor::qgemm::PackedMat {
        use fast_tensor::qgemm::{PackLayout, PackedMat};
        if w.layout() == PackLayout::ColGroups {
            return w.clone();
        }
        let (rows, cols, g) = (w.rows(), w.cols(), w.group());
        let mans = (0..rows * cols).map(|x| w.mantissa(x / cols, x % cols));
        let scales = (0..rows * cols.div_ceil(g))
            .map(|x| w.scale(x / cols.div_ceil(g), x % cols.div_ceil(g) * g));
        PackedMat::new(rows, cols, g, mans.collect(), scales.collect())
    }

    /// Bytes a cached weight holds beyond its mantissas and scales — its
    /// staged words — after checking that a product of five rows or
    /// columns with it equals the product with [`unstaged`]'s copy, bit
    /// for bit: the words are the current weight's, not a previous
    /// build's.
    fn staged_bytes(w: &Prepared) -> usize {
        use fast_tensor::qgemm::{
            qmatmul, qmatmul_nt, Operand::Packed as P, PackLayout, PackedMat,
        };
        let Prepared::Packed(w) = w else {
            panic!("expected a packed weight");
        };
        let (plain, g) = (unstaged(w), w.group());
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mans = |n: usize| (0..n).map(|i| (i * 37 % 31) as i8 - 15).collect();
        match w.layout() {
            PackLayout::RowGroups => {
                let k = w.cols();
                let y = PackedMat::new(5, k, g, mans(5 * k), vec![0.5; 5 * k.div_ceil(g)]);
                let (got, want) = (qmatmul_nt(P(w), P(&y)), qmatmul_nt(P(&plain), P(&y)));
                assert_eq!(bits(got), bits(want));
            }
            PackLayout::ColGroups => {
                let k = w.rows();
                let x = PackedMat::new(5, k, g, mans(5 * k), vec![0.5; 5 * k.div_ceil(g)]);
                assert_eq!(bits(qmatmul(P(&x), P(w))), bits(qmatmul(P(&x), P(&plain))));
            }
        }
        w.heap_bytes() - plain.heap_bytes()
    }

    #[test]
    fn row_grouped_weights_stage_their_words_again_on_every_rebuild() {
        // 40 rows of k = 24 (two groups of 16, the last short): two blocks
        // of four k-quad words a row, and one block sum per block.
        let mut w = Tensor::from_vec(
            vec![40, 24],
            (0..960)
                .map(|i| ((i * 29) % 41) as f32 * 0.05 - 1.0)
                .collect(),
        );
        let words = match fast_tensor::qgemm::int_kernel() {
            "scalar" => 0,
            _ => 4 * (40 * 2 * 4 + 40 * 2),
        };
        let (high, low) = (BfpFormat::high(), BfpFormat::low());
        let (col, row) = (GroupAxis::AlongCol, GroupAxis::AlongRow);
        let mut fz = FrozenWeight::default();
        let check = |fz: &mut FrozenWeight, w: &Tensor, fmt: BfpFormat, axis| {
            staged_bytes(fz.get(w, 40, 24, NumericFormat::bfp_nearest(fmt), axis))
        };
        assert_eq!(check(&mut fz, &w, high, row), words);
        // A weight update.
        w.data_mut()[0] += 1.0;
        fz.mark_dirty();
        assert_eq!(check(&mut fz, &w, high, row), words);
        // A format change.
        assert_eq!(check(&mut fz, &w, low, row), words);
        // Groups down the columns: the pack is the kernels' layout, with
        // nothing beside it; and back.
        assert_eq!(check(&mut fz, &w, low, col), 0);
        assert_eq!(check(&mut fz, &w, low, row), words);
        // A group of no whole k-quads is not one the vector kernels take.
        let odd = BfpFormat::new(5, 4, 3).unwrap();
        assert_eq!(check(&mut fz, &w, odd, row), 0);
    }

    #[test]
    fn sr_builds_draw_the_fixed_frozen_noise_whatever_the_session_seed() {
        use crate::{Dense, Layer, LayerPrecision, QuantControlled, Session};
        use fast_bfp::{fake_quantize_matrix, Rounding};
        use rand::SeedableRng;
        // An SR *weight* format under FP32 activations: the frozen output is
        // exactly `x · Wq`, so it pins the cached operand itself.
        let mut r = rand::rngs::StdRng::seed_from_u64(7);
        let mut layer = Dense::new(16, 8, false, &mut r);
        *layer.precision_mut() = LayerPrecision {
            weights: NumericFormat::bfp_stochastic(BfpFormat::high()),
            activations: NumericFormat::Fp32,
            gradients: NumericFormat::Fp32,
        };
        let x = Tensor::from_vec(
            vec![3, 16],
            (0..48)
                .map(|i| ((i * 31) % 19) as f32 * 0.04 - 0.3)
                .collect(),
        );
        let mut wq = layer.weights().clone();
        fake_quantize_matrix(
            wq.data_mut(),
            16,
            8,
            GroupAxis::AlongCol,
            BfpFormat::high(),
            Rounding::STOCHASTIC8,
            Noise {
                rng: CounterRng::new(0xACE1),
                base: 0,
                workers: 1,
            },
            false,
        );
        let want = fast_tensor::matmul(&x, &wq);
        for seed in [1, 2] {
            let mut s = Session::inference(seed);
            assert_eq!(layer.forward(&x, &mut s), want, "seed {seed}");
        }
        // Per-row builds replay too.
        let w = master();
        let fmt = NumericFormat::bfp_stochastic(BfpFormat::high());
        let p1 = FrozenWeight::default()
            .get_per_row(&w, 2, 16, fmt)
            .to_tensor();
        let p2 = FrozenWeight::default()
            .get_per_row(&w, 2, 16, fmt)
            .to_tensor();
        assert_eq!(p1, p2);
    }
}
