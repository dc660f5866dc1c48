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
    /// changed since the last build. A packed weight that is the right-hand
    /// side of an `Nn` product (groups down its columns, an even group) is
    /// also laid out in the integer kernel's panel order, so no request
    /// re-stages it (DESIGN.md §9).
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
            let prepared = quantize_operand(
                frozen_noise(0),
                &mut stats,
                master.data(),
                rows,
                cols,
                fmt,
                axis,
            );
            self.prepared = Some(prepared.with_nn_panels());
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

    /// Bytes a cached weight holds beyond its mantissas and scales: its
    /// panel layout.
    fn panel_bytes(p: &Prepared) -> usize {
        match p {
            Prepared::Packed(w) => w.heap_bytes() - w.mantissas().len() - 4 * w.scales().len(),
            Prepared::Dense(_) => 0,
        }
    }

    /// A batch of five times the cached weight reads its panel layout, if
    /// it has one, and must equal the product with a copy of the weight's
    /// mantissas and scales that has none, bit for bit: the layout is the
    /// current weight's, not a previous build's.
    fn assert_panels_current(w: &Prepared) {
        use fast_tensor::qgemm::{qmatmul, Operand::Packed as P, PackLayout, PackedMat};
        let Prepared::Packed(w) = w else {
            panic!("expected a packed weight");
        };
        let (m, k, g) = (5, w.rows(), w.group());
        let unlaid = PackedMat::new(
            k,
            w.cols(),
            g,
            w.layout(),
            w.mantissas().to_vec(),
            w.scales().to_vec(),
        );
        let mans = (0..m * k).map(|i| (i * 37 % 31) as i8 - 15).collect();
        let scales = vec![0.5; m * k.div_ceil(g)];
        let x = PackedMat::new(m, k, g, PackLayout::RowGroups, mans, scales);
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(qmatmul(P(&x), P(w))), bits(qmatmul(P(&x), P(&unlaid))));
    }

    #[test]
    fn column_grouped_weights_are_laid_out_again_on_every_rebuild() {
        // k = 40 (three groups of 16, the last short), n = 24 (a full
        // panel and a tail): two panels of 3 × 16 scales each, plus 20
        // k-pairs × 32 bytes in the `madd` layout, or three whole groups
        // of 4 k-quads × 64 bytes in the quad layout.
        let mut w = Tensor::from_vec(
            vec![40, 24],
            (0..960)
                .map(|i| ((i * 29) % 41) as f32 * 0.05 - 1.0)
                .collect(),
        );
        let laid_bytes = match fast_tensor::qgemm::int_kernel() {
            "scalar" => 0,
            "avx2" => 2 * (20 * 32 + 4 * 3 * 16),
            _ => 2 * (3 * 4 * 64 + 4 * 3 * 16),
        };
        let (high, low) = (BfpFormat::high(), BfpFormat::low());
        let (col, row) = (GroupAxis::AlongCol, GroupAxis::AlongRow);
        let mut fz = FrozenWeight::default();
        let check = |fz: &mut FrozenWeight, w: &Tensor, fmt: BfpFormat, axis| {
            let p = fz.get(w, 40, 24, NumericFormat::bfp_nearest(fmt), axis);
            assert_panels_current(p);
            panel_bytes(p)
        };
        assert_eq!(check(&mut fz, &w, high, col), laid_bytes);
        // A weight update.
        w.data_mut()[0] += 1.0;
        fz.mark_dirty();
        assert_eq!(check(&mut fz, &w, high, col), laid_bytes);
        // A format change.
        assert_eq!(check(&mut fz, &w, low, col), laid_bytes);
        // Groups along the rows: no `Nn` right-hand side, no layout; and
        // back.
        assert_eq!(check(&mut fz, &w, low, row), 0);
        assert_eq!(check(&mut fz, &w, low, col), laid_bytes);
        // An odd group is not a layout the vector kernel takes.
        let odd = BfpFormat::new(5, 4, 3).unwrap();
        assert_eq!(check(&mut fz, &w, odd, col), 0);
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
