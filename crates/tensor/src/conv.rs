//! Convolution lowered onto GEMM via im2col (paper Fig 3's matrix view).
//!
//! A convolution layer's three training computations all become GEMMs over
//! the im2col matrix `cols` of shape `K × P` with `K = C·k·k` (reduction
//! dim) and `P = B·OH·OW` (output positions):
//!
//! * forward:        `O (O_c×P)  = W (O_c×K) · cols (K×P)`
//! * weight gradient: `∇W (O_c×K) = ∇O (O_c×P) · colsᵀ`
//! * input gradient:  `∇cols (K×P) = Wᵀ · ∇O`, then [`col2im`].
//!
//! [`im2col`] and [`col2im`] are one loop nest — `(b, c, kh, kw, oy)` outer,
//! a row of `OW` positions inner — with a copy in one and an add in the
//! other; at unit stride the in-bounds run of a row is a contiguous slice, so
//! both move whole spans rather than bounds-checked elements.

use crate::matmul::{matmul, matmul_nt, matmul_tn};
use crate::tensor::Tensor;
use fast_bfp::packed::{ColPanels, Lanes, RowSource};
use std::cell::RefCell;
use std::sync::Arc;

/// Geometry of a 2-D convolution with square kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dDims {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl Conv2dDims {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// GEMM reduction dimension `K = C·k·k`.
    pub fn k_dim(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// GEMM position dimension `P = B·OH·OW`.
    pub fn p_dim(&self) -> usize {
        self.batch * self.out_h() * self.out_w()
    }

    fn validate(&self) {
        assert!(
            self.kernel > 0 && self.stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            self.in_h + 2 * self.pad >= self.kernel && self.in_w + 2 * self.pad >= self.kernel,
            "kernel {k} larger than padded input {h}x{w}",
            k = self.kernel,
            h = self.in_h + 2 * self.pad,
            w = self.in_w + 2 * self.pad
        );
    }
}

/// The im2col matrix of an NCHW input as a *virtual* row-major `(K, P)`
/// matrix, the one definition of the patch geometry. A consumer that reads
/// the matrix once reads it in place: as a [`RowSource`] (the BFP pack
/// kernels, DESIGN.md §9), element `(krow, p)` is the input at a per-row
/// offset for `krow = (c, kh, kw)` plus a per-column offset for
/// `p = (b, oy, ox)`, valid where the patch pixel lies inside the image;
/// [`Im2colRows::fill_row`] copies any column range of any row out, and
/// [`im2col`] is that filler applied to every row.
#[derive(Debug, Clone)]
pub struct Im2colRows<'a> {
    input: &'a [f32],
    d: Conv2dDims,
    tables: Arc<LaneTables>,
}

/// The lane tables of one patch geometry, built once per thread and
/// geometry ([`LaneTables::of`]): a served request or a training step runs
/// the same few convs again and again. Rebuilt on every call instead,
/// batch-1 ResNet serving read p50 1.19 ms against 1.00 cached (six
/// alternating 10 s pairs, 6/6); the ResNet training step, whose packs are
/// larger, read the same either way (3/6).
#[derive(Debug)]
struct LaneTables {
    /// Per 16-column panel: each column's input offset of its patch's
    /// `(kh, kw) = (0, 0)` pixel, `b·C·H·W + y·W + x` with
    /// `(y, x) = (oy, ox)·stride − pad` (consecutive past `P`), and whether
    /// the panel's offsets are consecutive (one masked load).
    panels: Vec<([i32; ColPanels::WIDTH], bool)>,
    /// Per kernel tap `(kh, kw)`, per panel: bit `c` set when column `c`'s
    /// patch pixel `(y + kh, x + kw)` lies inside the image; clear past `P`.
    masks: Vec<u16>,
    /// Per row `(c, kh, kw)`: the input offset `c·H·W + kh·W + kw` and the
    /// index of its tap's first mask.
    rows: Vec<[u32; 2]>,
}

impl LaneTables {
    /// Geometries whose tables a thread keeps, most recently used last.
    /// The busiest thread seen, batch-1 ResNet serving's main thread, builds
    /// 16 (eight convs at batches 1 and 4), its server workers 8 each and
    /// the ResNet training thread 8: twice that, so a cycle of geometries
    /// one longer than the cache, which would miss every time, is far off.
    const CACHED: usize = 32;

    /// This thread's tables for geometry `d` (whose `out_c` they ignore).
    fn of(d: Conv2dDims) -> Arc<LaneTables> {
        thread_local! {
            static CACHE: RefCell<Vec<(Conv2dDims, Arc<LaneTables>)>> =
                const { RefCell::new(Vec::new()) };
        }
        let key = Conv2dDims { out_c: 0, ..d };
        CACHE.with_borrow_mut(|cache| {
            let tables = match cache.iter().position(|(k, _)| *k == key) {
                Some(at) => cache.remove(at).1,
                None => Arc::new(LaneTables::build(d)),
            };
            if cache.len() == Self::CACHED {
                cache.remove(0);
            }
            cache.push((key, Arc::clone(&tables)));
            tables
        })
    }

    fn build(d: Conv2dDims) -> LaneTables {
        const W: usize = ColPanels::WIDTH;
        let (oh, ow, k) = (d.out_h(), d.out_w(), d.kernel);
        let plane = d.in_h * d.in_w;
        let npanels = d.p_dim().div_ceil(W);
        let mut panels = Vec::with_capacity(npanels);
        // Per panel, the `kh` masks then the `kw` masks, combined below.
        let mut axes = vec![0u16; npanels * 2 * k];
        // The taps `t < k` whose pixel `o + t` lies inside `0..n`.
        let taps = |o: i32, n: usize| {
            let k = k as i32;
            (-o).clamp(0, k) as usize..(n as i32 - o).clamp(0, k) as usize
        };
        let contiguous =
            |off: &[i32; W]| off.iter().enumerate().all(|(c, &o)| o == off[0] + c as i32);
        let (mut off, mut lane) = ([0i32; W], 0);
        for b in 0..d.batch {
            for oy in 0..oh {
                let y = (oy * d.stride) as i32 - d.pad as i32;
                for ox in 0..ow {
                    let x = (ox * d.stride) as i32 - d.pad as i32;
                    off[lane] = (b * d.in_c * plane) as i32 + y * d.in_w as i32 + x;
                    let m = &mut axes[2 * k * panels.len()..][..2 * k];
                    taps(y, d.in_h).for_each(|kh| m[kh] |= 1 << lane);
                    taps(x, d.in_w).for_each(|kw| m[k + kw] |= 1 << lane);
                    lane += 1;
                    if lane == W {
                        panels.push((off, contiguous(&off)));
                        lane = 0;
                    }
                }
            }
        }
        if lane > 0 {
            // The last panel's lanes past `P` run on, invalid in every row.
            (lane..W).for_each(|c| off[c] = off[c - 1] + 1);
            panels.push((off, contiguous(&off)));
        }
        let masks = (0..k * k)
            .flat_map(|tap| {
                let axes = &axes;
                (0..npanels).map(move |q| axes[2 * k * q + tap / k] & axes[2 * k * q + k + tap % k])
            })
            .collect();
        let rows = (0..d.k_dim())
            .map(|krow| {
                let (c, tap) = (krow / (k * k), krow % (k * k));
                let off = c * plane + tap / k * d.in_w + tap % k;
                [off as u32, (tap * npanels) as u32]
            })
            .collect();
        LaneTables {
            panels,
            masks,
            rows,
        }
    }
}

impl<'a> Im2colRows<'a> {
    /// The patch matrix of `input` under geometry `d`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `(batch, in_c, in_h, in_w)`, or holds
    /// more than `i32::MAX / 2` values.
    pub fn new(input: &'a Tensor, d: Conv2dDims) -> Self {
        d.validate();
        assert_eq!(
            input.shape(),
            &[d.batch, d.in_c, d.in_h, d.in_w],
            "input shape does not match conv dims"
        );
        assert!(input.numel() <= i32::MAX as usize / 2, "input too large");
        Im2colRows {
            input: input.data(),
            d,
            tables: LaneTables::of(d),
        }
    }

    /// The NCHW input buffer the patches are cut from.
    pub fn input(&self) -> &'a [f32] {
        self.input
    }

    /// Whether every input element lies in at least one patch, so that the
    /// matrix's value set is the input's plus the padding zeros. False when
    /// the stride skips rows or columns (stride > kernel) or the last patch
    /// stops short of the trailing ones.
    pub fn covers_input(&self) -> bool {
        let d = self.d;
        let axis_covered = |n_in: usize, n_out: usize| {
            (d.stride <= d.kernel || n_out == 1)
                && (n_out - 1) * d.stride + d.kernel >= n_in + d.pad
        };
        axis_covered(d.in_h, d.out_h()) && axis_covered(d.in_w, d.out_w())
    }

    /// Writes columns `p0 .. p0 + out.len()` of matrix row `krow` into `out`
    /// — every element, padding as explicit zeros.
    ///
    /// A row is `B` planes of `OH` spans of `OW` positions; row
    /// `krow = (c, kh, kw)` reads image row `oy·stride + kh − pad` of channel
    /// `c` shifted by `kw − pad`, so each span's in-bounds run is one
    /// contiguous copy at unit stride and one strided gather otherwise. Where
    /// the image rows are as wide as the spans (`OW = in_w` at unit stride —
    /// every "same" convolution) consecutive runs are also consecutive in
    /// the image, and a plane's runs merge into one copy with the
    /// `|kw − pad|`-wide seams between them re-zeroed: one 64-float copy
    /// instead of eight 8-float ones on an 8×8 plane (`im2col_c8_ns` and the
    /// stage table of DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics if `krow >= K` or the column range runs past `P`.
    pub fn fill_row(&self, krow: usize, p0: usize, out: &mut [f32]) {
        let d = self.d;
        let (oh, ow) = (d.out_h(), d.out_w());
        let p1 = p0 + out.len();
        assert!(
            krow < d.k_dim() && p1 <= d.p_dim(),
            "patch range out of bounds"
        );
        let (c, kh, kw) = (
            krow / (d.kernel * d.kernel),
            krow / d.kernel % d.kernel,
            krow % d.kernel,
        );
        // Output coordinates `o` whose source `o·stride + k − pad` is inside
        // `0..n_in`, as a half-open range: the same for every plane and span.
        let in_bounds = |k: usize, n_in: usize, n_out: usize| {
            let lo = d.pad.saturating_sub(k).div_ceil(d.stride).min(n_out);
            let hi = (n_in + d.pad).saturating_sub(k).div_ceil(d.stride);
            (lo, hi.clamp(lo, n_out))
        };
        let (oy_lo, oy_hi) = in_bounds(kh, d.in_h, oh);
        let (ox_lo, ox_hi) = in_bounds(kw, d.in_w, ow);
        out.fill(0.0);
        if out.is_empty() || oy_lo == oy_hi || ox_lo == ox_hi {
            return;
        }
        let plane = oh * ow;
        let merged = d.stride == 1 && ow == d.in_w;
        for b in p0 / plane..=(p1 - 1) / plane {
            let img = &self.input[(b * d.in_c + c) * d.in_h * d.in_w..][..d.in_h * d.in_w];
            // This plane's window of the column range, in plane-local
            // positions `j = oy·OW + ox`; `dst[j − ja]` is position `j`.
            let (ja, jb) = (
                p0.max(b * plane) - b * plane,
                p1.min((b + 1) * plane) - b * plane,
            );
            let dst = &mut out[b * plane + ja - p0..][..jb - ja];
            if merged {
                // Source index of position `j` is `j + (kh − pad)·in_w + kw − pad`.
                let lo = (oy_lo * ow + ox_lo).max(ja);
                let hi = ((oy_hi - 1) * ow + ox_hi).min(jb);
                if lo < hi {
                    let src = lo + kh * d.in_w + kw - d.pad * d.in_w - d.pad;
                    dst[lo - ja..hi - ja].copy_from_slice(&img[src..][..hi - lo]);
                    // The copy also carried the pixels between one span's
                    // run and the next: re-zero those columns, each a
                    // strided walk over the spans it crosses inside `lo..hi`.
                    for ox in (0..ox_lo).chain(ox_hi..ow) {
                        let spans =
                            lo.saturating_sub(ox).div_ceil(ow)..hi.saturating_sub(ox).div_ceil(ow);
                        for oy in spans {
                            dst[oy * ow + ox - ja] = 0.0;
                        }
                    }
                }
                continue;
            }
            for oy in oy_lo.max(ja / ow)..oy_hi.min(jb.div_ceil(ow)) {
                let (lo, hi) = ((oy * ow + ox_lo).max(ja), (oy * ow + ox_hi).min(jb));
                if lo >= hi {
                    continue;
                }
                let iy = oy * d.stride + kh - d.pad;
                let ix = (lo - oy * ow) * d.stride + kw - d.pad;
                let (run, src) = (&mut dst[lo - ja..hi - ja], &img[iy * d.in_w + ix..]);
                if d.stride == 1 {
                    run.copy_from_slice(&src[..hi - lo]);
                } else {
                    // Sliced to the last pixel read, so the indexed gather
                    // carries no bounds check (a `step_by` zip read 15 %
                    // slower than the parent's loop).
                    let src = &src[..(hi - lo - 1) * d.stride + 1];
                    for (i, o) in run.iter_mut().enumerate() {
                        *o = src[i * d.stride];
                    }
                }
            }
        }
    }
}

impl RowSource for Im2colRows<'_> {
    fn rows(&self) -> usize {
        self.d.k_dim()
    }

    fn cols(&self) -> usize {
        self.d.p_dim()
    }

    fn values(&self) -> &[f32] {
        self.input
    }

    fn covers_values(&self) -> bool {
        self.covers_input()
    }

    /// Row `krow = (c, kh, kw)` reads pixel `(y + kh, x + kw)` of channel
    /// `c` for the column whose patch origin is `(y, x)`.
    #[inline(always)]
    fn lanes(&self, krow: usize, col0: usize) -> Lanes {
        let (q, t) = (col0 / ColPanels::WIDTH, &*self.tables);
        let [row_off, masks] = t.rows[krow];
        let (offsets, contiguous) = &t.panels[q];
        Lanes {
            offsets: offsets.map(|o| o.wrapping_add(row_off as i32)),
            valid: t.masks[masks as usize + q],
            contiguous: *contiguous,
        }
    }
}

/// Unfolds an NCHW `input` into the im2col matrix of shape `(K, P)`.
///
/// # Panics
///
/// Panics if `input` is not `(batch, in_c, in_h, in_w)`.
pub fn im2col(input: &Tensor, d: Conv2dDims) -> Tensor {
    let _span = fast_telemetry::span!("tensor.im2col");
    let rows = Im2colRows::new(input, d);
    let (k_dim, p_dim) = (d.k_dim(), d.p_dim());
    let mut cols = vec![0.0f32; k_dim * p_dim];
    for (krow, row) in cols.chunks_mut(p_dim.max(1)).enumerate() {
        rows.fill_row(krow, 0, row);
    }
    Tensor::from_vec(vec![k_dim, p_dim], cols)
}

/// Folds an im2col-shaped gradient `(K, P)` back to an NCHW tensor, summing
/// contributions of overlapping patches (the adjoint of [`im2col`]).
///
/// Same loop nest as [`im2col`] with source and destination swapped, so each
/// input pixel receives its `(kh, kw)` contributions in one fixed order and
/// the f32 sums do not depend on how a row's run is added.
///
/// # Panics
///
/// Panics if `cols` is not `(K, P)` for the given dims.
pub fn col2im(cols: &Tensor, d: Conv2dDims) -> Tensor {
    let _span = fast_telemetry::span!("tensor.col2im");
    d.validate();
    assert_eq!(
        cols.shape(),
        &[d.k_dim(), d.p_dim()],
        "cols shape does not match conv dims"
    );
    let (oh, ow) = (d.out_h(), d.out_w());
    let p_dim = d.p_dim();
    let mut out = Tensor::zeros(vec![d.batch, d.in_c, d.in_h, d.in_w]);
    let od = out.data_mut();
    let cd = cols.data();
    for b in 0..d.batch {
        for c in 0..d.in_c {
            for kh in 0..d.kernel {
                for kw in 0..d.kernel {
                    let krow = (c * d.kernel + kh) * d.kernel + kw;
                    for oy in 0..oh {
                        let iy = (oy * d.stride + kh) as isize - d.pad as isize;
                        if iy < 0 || iy >= d.in_h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        let img_row =
                            &mut od[((b * d.in_c + c) * d.in_h + iy) * d.in_w..][..d.in_w];
                        let col_row = &cd[krow * p_dim + (b * oh + oy) * ow..][..ow];
                        if d.stride == 1 {
                            // Unit stride: the in-bounds run of `im2col`'s
                            // copy, as one contiguous slice add.
                            let shift = kw as isize - d.pad as isize;
                            let ox_lo = (-shift).max(0) as usize;
                            let ox_hi = (d.in_w as isize - shift).clamp(0, ow as isize) as usize;
                            if ox_lo < ox_hi {
                                let dst_lo = (ox_lo as isize + shift) as usize;
                                let dst = &mut img_row[dst_lo..dst_lo + (ox_hi - ox_lo)];
                                for (o, &g) in dst.iter_mut().zip(&col_row[ox_lo..ox_hi]) {
                                    *o += g;
                                }
                            }
                        } else {
                            for (ox, &g) in col_row.iter().enumerate() {
                                let ix = (ox * d.stride + kw) as isize - d.pad as isize;
                                if ix < 0 || ix >= d.in_w as isize {
                                    continue;
                                }
                                img_row[ix as usize] += g;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Convolution forward pass: returns the NCHW output
/// `(batch, out_c, OH, OW)`.
///
/// `weight` is `(out_c, in_c, k, k)`; flattened row-major this is exactly
/// the `O_c × K` GEMM operand.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, d: Conv2dDims) -> Tensor {
    let cols = im2col(input, d);
    conv2d_from_cols(&cols, weight, d)
}

/// Forward pass when the caller has already built (and possibly quantized)
/// the im2col matrix.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d_from_cols(cols: &Tensor, weight: &Tensor, d: Conv2dDims) -> Tensor {
    assert_eq!(
        weight.shape(),
        &[d.out_c, d.in_c, d.kernel, d.kernel],
        "weight shape does not match conv dims"
    );
    let w_mat = weight.clone().reshape(vec![d.out_c, d.k_dim()]);
    let out_mat = matmul(&w_mat, cols); // (out_c, P)
    gemm_out_to_nchw(&out_mat, d)
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input, NCHW.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the weights, `(out_c, in_c, k, k)`.
    pub grad_weight: Tensor,
}

/// Convolution backward pass from an NCHW `grad_output`.
///
/// `cols` must be the im2col matrix used in the forward pass (quantized or
/// not — the caller controls fidelity); `weight` likewise.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d_backward(
    grad_output: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    d: Conv2dDims,
) -> ConvGrads {
    let (oh, ow) = (d.out_h(), d.out_w());
    assert_eq!(grad_output.shape(), &[d.batch, d.out_c, oh, ow]);
    let g_mat = nchw_to_gemm_out(grad_output, d); // (out_c, P)
    let w_mat = weight.clone().reshape(vec![d.out_c, d.k_dim()]);
    // ∇W = ∇O · colsᵀ  (reduction over P).
    let grad_w = matmul_nt(&g_mat, cols).reshape(vec![d.out_c, d.in_c, d.kernel, d.kernel]);
    // ∇cols = Wᵀ · ∇O  (reduction over out_c).
    let grad_cols = matmul_tn(&w_mat, &g_mat);
    let grad_input = col2im(&grad_cols, d);
    ConvGrads {
        grad_input,
        grad_weight: grad_w,
    }
}

/// Reorders a `(out_c, P)` GEMM result into NCHW `(batch, out_c, OH, OW)`.
///
/// # Panics
///
/// Panics if `out_mat` is not `(out_c, P)` for the given dims.
pub fn gemm_out_to_nchw(out_mat: &Tensor, d: Conv2dDims) -> Tensor {
    assert_eq!(
        out_mat.shape(),
        &[d.out_c, d.p_dim()],
        "GEMM output shape mismatch"
    );
    let (oh, ow) = (d.out_h(), d.out_w());
    let p_dim = d.p_dim();
    let hw = oh * ow;
    // For a fixed (o, b) pair both layouts are contiguous over (y, x), and
    // batch-major iteration emits the NCHW buffer in order: plane copies
    // into an uninitialized buffer, no zero fill.
    let mut data = Vec::with_capacity(d.batch * d.out_c * hw);
    let md = out_mat.data();
    for b in 0..d.batch {
        for o in 0..d.out_c {
            data.extend_from_slice(&md[o * p_dim + b * hw..][..hw]);
        }
    }
    Tensor::from_vec(vec![d.batch, d.out_c, oh, ow], data)
}

/// Reorders an NCHW gradient into the `(out_c, P)` GEMM layout.
///
/// # Panics
///
/// Panics if `g` is not `(batch, out_c, OH, OW)` for the given dims.
pub fn nchw_to_gemm_out(g: &Tensor, d: Conv2dDims) -> Tensor {
    assert_eq!(
        g.shape(),
        &[d.batch, d.out_c, d.out_h(), d.out_w()],
        "NCHW shape mismatch"
    );
    let (oh, ow) = (d.out_h(), d.out_w());
    let p_dim = d.p_dim();
    let hw = oh * ow;
    // The adjoint reordering of [`gemm_out_to_nchw`]: plane copies, emitted
    // in channel-major order so the output buffer is built sequentially.
    let mut out = Vec::with_capacity(d.out_c * p_dim);
    let gd = g.data();
    for o in 0..d.out_c {
        for b in 0..d.batch {
            out.extend_from_slice(&gd[(b * d.out_c + o) * hw..][..hw]);
        }
    }
    Tensor::from_vec(vec![d.out_c, p_dim], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    /// Direct (quadruple-loop) convolution reference.
    fn conv_ref(input: &Tensor, weight: &Tensor, d: Conv2dDims) -> Tensor {
        let (oh, ow) = (d.out_h(), d.out_w());
        let mut out = Tensor::zeros(vec![d.batch, d.out_c, oh, ow]);
        for b in 0..d.batch {
            for o in 0..d.out_c {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = 0.0f32;
                        for c in 0..d.in_c {
                            for kh in 0..d.kernel {
                                for kw in 0..d.kernel {
                                    let iy = (y * d.stride + kh) as isize - d.pad as isize;
                                    let ix = (x * d.stride + kw) as isize - d.pad as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= d.in_h as isize
                                        || ix >= d.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at4(b, c, iy as usize, ix as usize)
                                        * weight.at4(o, c, kh, kw);
                                }
                            }
                        }
                        let i = ((b * d.out_c + o) * oh + y) * ow + x;
                        out.data_mut()[i] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv_matches_direct_reference() {
        for (stride, pad, k) in [(1, 0, 1), (1, 1, 3), (2, 1, 3), (1, 2, 5)] {
            let d = Conv2dDims {
                batch: 2,
                in_c: 3,
                in_h: 8,
                in_w: 8,
                out_c: 4,
                kernel: k,
                stride,
                pad,
            };
            let input = rand_tensor(vec![2, 3, 8, 8], 1);
            let weight = rand_tensor(vec![4, 3, k, k], 2);
            let got = conv2d(&input, &weight, d);
            let want = conv_ref(&input, &weight, d);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.data().iter().zip(want.data()) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "{a} vs {b} (k={k} s={stride} p={pad})"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property that makes the conv backward pass correct.
        let d = Conv2dDims {
            batch: 1,
            in_c: 2,
            in_h: 6,
            in_w: 6,
            out_c: 1,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let x = rand_tensor(vec![1, 2, 6, 6], 3);
        let y = rand_tensor(vec![d.k_dim(), d.p_dim()], 4);
        let ax = im2col(&x, d);
        let aty = col2im(&y, d);
        let lhs: f64 = ax
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(aty.data())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let d = Conv2dDims {
            batch: 1,
            in_c: 2,
            in_h: 5,
            in_w: 5,
            out_c: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let input = rand_tensor(vec![1, 2, 5, 5], 5);
        let weight = rand_tensor(vec![3, 2, 3, 3], 6);
        // Loss = sum(conv output); then dL/dout = ones.
        let cols = im2col(&input, d);
        let ones = Tensor::full(vec![1, 3, d.out_h(), d.out_w()], 1.0);
        let grads = conv2d_backward(&ones, &cols, &weight, d);

        let eps = 1e-3f32;
        // Check a scattering of weight coordinates.
        for idx in [0usize, 7, 20, 35, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let lp: f32 = conv2d(&input, &wp, d).data().iter().sum();
            let lm: f32 = conv2d(&input, &wm, d).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_weight.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "weight[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // And input coordinates.
        for idx in [0usize, 11, 24, 49] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let lp: f32 = conv2d(&ip, &weight, d).data().iter().sum();
            let lm: f32 = conv2d(&im, &weight, d).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_input.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "input[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn output_geometry() {
        let d = Conv2dDims {
            batch: 1,
            in_c: 1,
            in_h: 7,
            in_w: 9,
            out_c: 1,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(d.out_h(), 4);
        assert_eq!(d.out_w(), 5);
        assert_eq!(d.k_dim(), 9);
        assert_eq!(d.p_dim(), 20);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with identity channel mixing.
        let d = Conv2dDims {
            batch: 1,
            in_c: 2,
            in_h: 4,
            in_w: 4,
            out_c: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input = rand_tensor(vec![1, 2, 4, 4], 9);
        let mut weight = Tensor::zeros(vec![2, 2, 1, 1]);
        weight.data_mut()[0] = 1.0; // out0 <- in0
        weight.data_mut()[3] = 1.0; // out1 <- in1
        let out = conv2d(&input, &weight, d);
        assert_eq!(out.data(), input.data());
    }
}
