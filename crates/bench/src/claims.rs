//! The paper's claims as checked verdicts (DESIGN.md §4).
//!
//! Each [`Claim`] names its figure or table, states what the paper says,
//! fixes the relation the measurement must satisfy (with the tolerance the
//! paper's own wording gives), and measures it. Deterministic claims run
//! once and are exact. Training claims run every arm on the same three
//! [`SEEDS`], and [`Verdict::of`] turns the per-seed outcomes into
//! *reproduced*, *not reproduced* or *underpowered*. A claim that is not
//! reproduced is reported as such.
//!
//! Runs shared by several claims are trained once per [`Lab`].

use crate::formats::format;
use crate::runner::{run_images, RunCfg, TrainRun};
use crate::suite::Workload;
use crate::workloads::{resnet20, ImageTask, DATA_SEED};
use crate::Scale;
use fast_bfp::dot::{dot_chunked, dot_dequantized, dot_f32, dot_parts};
use fast_bfp::packed::{pack_matrix, PackedData};
use fast_bfp::stats::exponent_gap_histogram;
use fast_bfp::{
    exponent_of, BfpFormat, BfpGroup, ChunkedGroup, CounterRng, GroupAxis, Lfsr16, Noise, Rounding,
};
use fast_core::{FixedPolicy, LayerwisePolicy, PrecisionTrace, TemporalPolicy};
use fast_hw::{fast_breakdown, ComponentShare, FmacCell, MacKind};
use fast_nn::{quant_layer_count, Layer, LayerPrecision, NumericFormat, Sequential, TrainHook};
use fast_tensor::qgemm::{qmatmul, Operand, PackedMat};
use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;

/// The seeds every training claim runs each of its arms on.
pub const SEEDS: [u64; 3] = [11, 22, 33];

/// What a claim's relation came to across its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The relation held on every trial.
    Reproduced,
    /// The relation failed on every trial.
    NotReproduced,
    /// The relation held on some trials and failed on others.
    Underpowered,
}

impl Verdict {
    /// The verdict rule of DESIGN.md §4 over per-trial outcomes.
    pub fn of(holds: &[bool]) -> Verdict {
        if holds.iter().all(|&h| h) {
            Verdict::Reproduced
        } else if holds.iter().any(|&h| h) {
            Verdict::Underpowered
        } else {
            Verdict::NotReproduced
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Reproduced => "reproduced",
            Verdict::NotReproduced => "not reproduced",
            Verdict::Underpowered => "underpowered",
        })
    }
}

/// One evaluation of a claim's relation: one seed's runs, or the single
/// evaluation of a deterministic claim.
struct Trial {
    measured: String,
    holds: bool,
}

fn trial(measured: String, holds: bool) -> Trial {
    Trial { measured, holds }
}

/// One entry of the ledger.
pub struct Claim {
    /// Stable id, the `--claim` argument of `paper`.
    pub id: &'static str,
    /// The figure, table or section of the paper.
    pub source: &'static str,
    /// What the paper says.
    pub paper: &'static str,
    /// The relation the measurement must satisfy, with its tolerance.
    pub relation: &'static str,
    measure: fn(&mut Lab) -> Vec<Trial>,
}

/// A claim's measurement and verdict.
pub struct Finding {
    /// The claim checked.
    pub claim: &'static Claim,
    /// The measured quantities, one `;`-separated part per trial.
    pub measured: String,
    /// The verdict over the trials.
    pub verdict: Verdict,
}

impl Claim {
    /// Measures the claim and judges it.
    pub fn check(&'static self, lab: &mut Lab) -> Finding {
        let trials = (self.measure)(lab);
        let holds: Vec<bool> = trials.iter().map(|t| t.holds).collect();
        let measured: Vec<String> = trials.into_iter().map(|t| t.measured).collect();
        Finding {
            claim: self,
            measured: measured.join("; "),
            verdict: Verdict::of(&holds),
        }
    }
}

/// The Markdown table header `paper` prints above the rows.
pub const HEADER: &str = "| claim | source | paper | relation | measured | verdict |\n\
                          |---|---|---|---|---|---|";

impl Finding {
    /// The finding as one Markdown table row.
    pub fn row(&self) -> String {
        let c = self.claim;
        format!(
            "| `{}` | {} | {} | {} | {} | {} |",
            c.id, c.source, c.paper, c.relation, self.measured, self.verdict
        )
    }
}

/// Memoizes the training runs claims share, at one [`Scale`].
pub struct Lab {
    scale: Scale,
    runs: HashMap<String, Box<dyn Any>>,
}

impl Lab {
    /// An empty lab at `scale`.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            runs: HashMap::new(),
        }
    }

    /// The value `run` computes for `key`, computed on first request only.
    fn memo<T: Clone + 'static>(&mut self, key: String, run: impl FnOnce(Scale) -> T) -> T {
        let scale = self.scale;
        let value = self.runs.entry(key).or_insert_with_key(|key| {
            eprintln!("[paper] training {key}");
            Box::new(run(scale))
        });
        value
            .downcast_ref::<T>()
            .expect("a memo key holds one type")
            .clone()
    }
}

/// Parses `paper`'s arguments into the claims to check and the scale.
///
/// # Errors
///
/// An unknown argument, claim id or scale value, with a message naming the
/// accepted set.
pub fn parse_args(args: &[String]) -> Result<(Vec<&'static Claim>, Scale), String> {
    let mut claims: Vec<&'static Claim> = CLAIMS.iter().collect();
    let mut scale = Scale::Quick;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--claim" => {
                let id = value?;
                let ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
                let known = claim(id).ok_or(format!(
                    "unknown claim {id:?}: accepted ids are {}",
                    ids.join("|")
                ))?;
                claims = vec![known];
            }
            "--scale" => scale = Scale::parse(value?)?,
            other => {
                return Err(format!(
                    "unknown argument {other:?}: usage is paper [--claim ID] [--scale quick|full]"
                ))
            }
        }
    }
    Ok((claims, scale))
}

/// The claim with id `id`.
pub fn claim(id: &str) -> Option<&'static Claim> {
    CLAIMS.iter().find(|c| c.id == id)
}

/// The ledger: the deterministic claims first, then the training claims.
pub static CLAIMS: [Claim; 23] = [
    Claim {
        id: "fig2-storage",
        source: "Fig 2",
        paper: "LowBFP and HighBFP store \"3.2 and 6.2 bits\" per value",
        relation: "both within 0.05 bit, the paper's one printed decimal",
        measure: fig2_storage,
    },
    Claim {
        id: "fig5-dot",
        source: "Fig 5",
        paper: "a BFP dot product is one integer dot product of the mantissas and one \
                exponent addition: (14, -2, -7, 1)·(4, -9, 11, 0) at exponents 2 and 4",
        relation: "integer part -3; value equals the dequantized dot product exactly",
        measure: fig5_dot,
    },
    Claim {
        id: "fig13-passes",
        source: "Fig 13",
        paper: "a 4-bit × 2-bit product takes (4/2)·(2/2) = 2 fMAC passes",
        relation: "2 passes; value bit-identical to the direct dot product",
        measure: fig13_passes,
    },
    Claim {
        id: "thm1-sr-mean",
        source: "Theorem 1 / Fig 8",
        paper: "stochastic rounding is unbiased, E[SR(x)] = x, for x = 2/3",
        relation: "mean over one LFSR period within 2^-8 of 2/3 (q = 2^8 noise levels)",
        measure: thm1_sr_mean,
    },
    Claim {
        id: "table3-area",
        source: "Table III",
        paper: "area: systolic array 47.79 %, memory 40.34 %, accumulator 6.63 %, \
                BFP converter 4.56 %, data generator 0.68 %",
        relation: "the model ranks the five components in the paper's order",
        measure: table3_area,
    },
    Claim {
        id: "table4-area",
        source: "Table IV",
        paper: "area per 16-element unit relative to the fMAC: INT8 3.8×, HFP8 4.1×, \
                INT12 5.6×, bfloat16 9.6×, FP16 10.6×",
        relation: "the gate model's ratios rise in that order, all above 1×",
        measure: table4_area,
    },
    Claim {
        id: "fmac-int-kernel",
        source: "Fig 11 / Fig 13",
        paper: "the fMAC computes BFP dot products as integer chunk passes, one group \
                at a time, accumulated in FP32",
        relation: "an FmacCell reloaded per k-group equals qgemm_int on every output \
                   element, bit for bit",
        measure: fmac_int_kernel,
    },
    Claim {
        id: "fig6-grad-gap",
        source: "Fig 6",
        paper: "gradients spread much further below the shared exponent than weights \
                and activations",
        relation: "mean gap at g=16: G above both W and A",
        measure: fig6_grad_gap,
    },
    Claim {
        id: "fig6-group-gap",
        source: "Fig 6",
        paper: "the gap grows with the group size g ∈ {8, 16, 32}",
        relation: "mean gap rises g=8 < g=16 < g=32 for each of W, A, G",
        measure: fig6_group_gap,
    },
    Claim {
        id: "fig9-temporal",
        source: "Fig 9 (temporal)",
        paper: "Low-to-High beats High-to-Low when BFP m=3 and FP32 swap halfway \
                through training",
        relation: "final accuracy Low-to-High > High-to-Low",
        measure: |lab| fig9(lab, false),
    },
    Claim {
        id: "fig9-layerwise",
        source: "Fig 9 (layerwise)",
        paper: "Low-to-High beats High-to-Low when BFP m=3 and FP32 split the layers \
                at half depth",
        relation: "final accuracy Low-to-High > High-to-Low",
        measure: |lab| fig9(lab, true),
    },
    Claim {
        id: "fig17-progress",
        source: "Fig 17",
        paper: "FAST-Adaptive raises precision as training progresses",
        relation: "mean legend index over all layers: last third of iterations > first third",
        measure: fig17_progress,
    },
    Claim {
        id: "fig17-depth",
        source: "Fig 17",
        paper: "FAST-Adaptive gives deeper layers higher precision",
        relation: "mean legend index over the run: deeper half of layers > shallower half",
        measure: fig17_depth,
    },
    Claim {
        id: "fig18-mantissa",
        source: "Fig 18",
        paper: "accuracy rises with mantissa bits",
        relation: "best accuracy at g=16: m=2 < m=3 < m=4",
        measure: fig18_mantissa,
    },
    Claim {
        id: "fig18-group",
        source: "Fig 18",
        paper: "smaller groups quantize better at fixed m: g=8 ≥ g=16 ≥ g=32",
        relation: "best accuracy at m=4: g=8 ≥ g=16 ≥ g=32",
        measure: fig18_group,
    },
    Claim {
        id: "fig19-fp32",
        source: "Fig 19",
        paper: "FAST-Adaptive reaches the target accuracy first; FP32 takes 8.51× its time",
        relation: "FAST reaches 85 % of the pair's best accuracy in less simulated time \
                   than FP32",
        measure: |lab| reaches_first(lab, Workload::ResNet18, "FP32"),
    },
    Claim {
        id: "fig19-midbfp",
        source: "Fig 19",
        paper: "MidBFP takes 1.86× FAST-Adaptive's time to the target",
        relation: "FAST reaches 85 % of the pair's best accuracy in less simulated time \
                   than MidBFP",
        measure: |lab| reaches_first(lab, Workload::ResNet18, "MidBFP"),
    },
    Claim {
        id: "fig20-resnet18",
        source: "Fig 20",
        paper: "FAST-Adaptive trains fastest on every workload, FP32 6-9× slower",
        relation: "on ResNet-18, FAST reaches the target before FP32",
        measure: |lab| reaches_first(lab, Workload::ResNet18, "FP32"),
    },
    Claim {
        id: "fig20-transformer",
        source: "Fig 20",
        paper: "FAST-Adaptive trains fastest on every workload, FP32 6-9× slower",
        relation: "on the Transformer, FAST reaches the target before FP32",
        measure: |lab| reaches_first(lab, Workload::Transformer, "FP32"),
    },
    Claim {
        id: "fig20-yolov2",
        source: "Fig 20",
        paper: "FAST-Adaptive trains fastest on every workload, FP32 6-9× slower",
        relation: "on YOLOv2, FAST reaches the target before FP32",
        measure: |lab| reaches_first(lab, Workload::Yolo, "FP32"),
    },
    Claim {
        id: "table2-highbfp",
        source: "Table II",
        paper: "HighBFP matches FP32 (ResNet-18: 68.57 vs 68.60 %; MidBFP 68.10 %)",
        relation: "best accuracy HighBFP > FP32 - 0.5 pt, closer than the paper's MidBFP",
        measure: table2_highbfp,
    },
    Claim {
        id: "table2-lowbfp",
        source: "Table II",
        paper: "LowBFP falls below HighBFP (ResNet-18: 63.10 vs 68.57 %)",
        relation: "best accuracy LowBFP < HighBFP",
        measure: table2_lowbfp,
    },
    Claim {
        id: "sr-ablation-m2",
        source: "§III-C",
        paper: "\"using stochastic rounding in conjunction with BFP is critical to model \
                accuracy\"",
        relation: "best accuracy at m=2: SR gradients > nearest-rounded gradients",
        measure: sr_ablation_m2,
    },
];

fn fig2_storage(_: &mut Lab) -> Vec<Trial> {
    let low = BfpFormat::low().storage_bits_per_value();
    let high = BfpFormat::high().storage_bits_per_value();
    let holds = (low - 3.2).abs() <= 0.05 && (high - 6.2).abs() <= 0.05;
    vec![trial(format!("{low:.4} and {high:.4} bits"), holds)]
}

fn fig5_dot(_: &mut Lab) -> Vec<Trial> {
    let fmt = BfpFormat::new(4, 5, 8).expect("valid format");
    let a = BfpGroup::from_parts(fmt, 2, vec![14, -2, -7, 1]);
    let b = BfpGroup::from_parts(fmt, 4, vec![4, -9, 11, 0]);
    let (sum, exp) = dot_parts(&a, &b);
    let value = dot_f32(&a, &b);
    let holds = sum == -3 && value == dot_dequantized(&a, &b);
    vec![trial(format!("{sum} × 2^{exp} = {value}"), holds)]
}

fn fig13_passes(_: &mut Lab) -> Vec<Trial> {
    let group = |xs: &[f32], m| {
        BfpGroup::quantize_nearest(xs, BfpFormat::new(4, m, 8).expect("valid format"))
    };
    let x = group(&[1.0, 0.5, -0.75, 0.25], 4);
    let y = group(&[0.5, -1.0, 0.5, 1.0], 2);
    let chunked = |g: &BfpGroup| ChunkedGroup::from_group(g).expect("even width");
    let r = dot_chunked(&chunked(&x), &chunked(&y));
    let direct = dot_f32(&x, &y);
    let (passes, value) = (r.passes, r.value);
    let holds = passes == 2 && value.to_bits() == direct.to_bits();
    vec![trial(
        format!("{passes} passes, {value} vs {direct}"),
        holds,
    )]
}

fn thm1_sr_mean(_: &mut Lab) -> Vec<Trial> {
    // One 8-bit draw per rounding; 65 535 draws walk the whole LFSR period.
    let x = 2.0 / 3.0;
    let mut lfsr = Lfsr16::new(0xACE1);
    let draws = 65_535;
    let sum: i64 = (0..draws)
        .map(|_| Rounding::STOCHASTIC8.round(x, &mut lfsr))
        .sum();
    let mean = sum as f64 / draws as f64;
    let holds = (mean - x).abs() < 2f64.powi(-8);
    vec![trial(format!("mean {mean:.5} over {draws} draws"), holds)]
}

fn table3_area(_: &mut Lab) -> Vec<Trial> {
    let rows = fast_breakdown();
    let rank = |share: fn(&ComponentShare) -> f64| {
        let mut ranked: Vec<&ComponentShare> = rows.iter().collect();
        ranked.sort_by(|a, b| share(b).total_cmp(&share(a)));
        ranked.iter().map(|r| r.name).collect::<Vec<_>>()
    };
    let holds = rank(|r| r.area_percent) == rank(|r| r.paper_area_percent);
    let shares: Vec<String> = rows
        .iter()
        .map(|r| format!("{} {:.2} %", r.name, r.area_percent))
        .collect();
    vec![trial(shares.join(", "), holds)]
}

fn table4_area(_: &mut Lab) -> Vec<Trial> {
    let ratios: Vec<f64> = MacKind::TABLE4
        .iter()
        .map(|m| m.model_area_ratio())
        .collect();
    let holds = ratios.windows(2).all(|w| w[0] < w[1]);
    let shown: Vec<String> = MacKind::TABLE4[1..]
        .iter()
        .zip(&ratios[1..])
        .map(|(m, r)| format!("{} {r:.2}×", m.name()))
        .collect();
    vec![trial(shown.join(", "), holds)]
}

fn fmac_int_kernel(_: &mut Lab) -> Vec<Trial> {
    // A (m×k) at 4 mantissa bits against B (k×n) at 2, groups of 16 along
    // the reduction; k leaves a short last group.
    let (m, k, n, g) = (8, 72, 24, 16);
    let pack = |rows, cols, axis, bits, phase: f32| -> PackedData {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (i as f32 * 0.37 + phase).sin())
            .collect();
        let fmt = BfpFormat::new(g, bits, 8).expect("valid format");
        let noise = Noise {
            rng: CounterRng::new(0),
            base: 0,
            workers: 1,
        };
        pack_matrix(
            &data,
            rows,
            cols,
            axis,
            fmt,
            Rounding::Nearest,
            noise,
            false,
        )
        .expect("normal values pack")
    };
    let (a, b) = (
        pack(m, k, GroupAxis::AlongRow, 4, 0.0),
        pack(k, n, GroupAxis::AlongCol, 2, 1.0),
    );
    let pa = PackedMat::new(m, k, g, a.mantissas, a.scales);
    let pb = PackedMat::from_col_panels(k, n, g, b.mantissas, b.scales);
    let (oa, ob) = (Operand::Packed(&pa), Operand::Packed(&pb));
    let c = qmatmul(oa, ob);
    // A packed group as the chunked group an fMAC holds: scale 2^(E-m+1).
    let chunked = |mantissas: Vec<i32>, scale: f32, bits: u32| {
        let fmt = BfpFormat::new(g, bits, 8).expect("valid format");
        let e = exponent_of(scale).map_or(0, |e| e + bits as i32 - 1);
        ChunkedGroup::from_group(&BfpGroup::from_parts(fmt, e, mantissas)).expect("even width")
    };
    let mut cell = FmacCell::new();
    let mut differ = 0;
    for i in 0..m {
        for j in 0..n {
            cell.reset_accumulator();
            for k0 in (0..k).step_by(g) {
                let ks = k0..(k0 + g).min(k);
                let aw = ks.clone().map(|p| pa.mantissa(i, p) as i32);
                let bx = ks.map(|p| pb.mantissa(p, j) as i32);
                cell.load_weight(chunked(aw.collect(), pa.scale(i, k0), 4));
                cell.consume(&chunked(bx.collect(), pb.scale(k0, j), 2));
            }
            differ += usize::from(cell.accumulator().to_bits() != c.data()[i * n + j].to_bits());
        }
    }
    let (elements, passes) = (m * n, cell.passes());
    let measured = format!("{differ} of {elements} elements differ; {passes} passes");
    vec![trial(measured, differ == 0)]
}

/// Trials of one measurement per seed.
fn per_seed(lab: &mut Lab, mut seed_trial: impl FnMut(&mut Lab, u64) -> Trial) -> Vec<Trial> {
    SEEDS.iter().map(|&seed| seed_trial(lab, seed)).collect()
}

/// Epochs of the ResNet-20 experiments (Figs 6, 9, 18, the SR ablation).
fn r20_epochs(scale: Scale) -> usize {
    scale.pick(6, 20)
}

/// Trains the ResNet-20 analogue under `cfg` and the hook `hook(iterations)`
/// makes.
fn train_r20<H: TrainHook>(
    scale: Scale,
    seed: u64,
    symmetric: bool,
    cfg: RunCfg,
    hook: impl FnOnce(usize) -> H,
) -> (TrainRun, H) {
    let task = ImageTask::at(scale);
    let data = task.dataset(DATA_SEED);
    let mut hook = hook(cfg.epochs * data.train_len().div_ceil(cfg.batch));
    let model = resnet20(task.classes, symmetric, seed);
    (run_images(model, &data, &cfg, &mut hook, None), hook)
}

/// Mean exponent gaps `[W, A, G][g = 8, 16, 32]` of the middle quantized
/// layer at iteration `at`.
struct GapProbe {
    at: usize,
    gaps: [[f64; 3]; 3],
}

impl TrainHook for GapProbe {
    fn wants_sensitivity(&self) -> bool {
        true
    }

    fn after_backward(&mut self, iter: usize, model: &mut Sequential) {
        if iter != self.at {
            return;
        }
        let middle = quant_layer_count(model) / 2;
        let (mut idx, gaps) = (0, &mut self.gaps);
        model.visit_quant(&mut |q| {
            if idx == middle {
                let tensors = [Some(q.weight()), q.last_input(), q.last_grad_output()];
                for (row, t) in gaps.iter_mut().zip(tensors) {
                    let t = t.expect("a layer holds its input and gradient after backward");
                    for (gap, g) in row.iter_mut().zip([8, 16, 32]) {
                        *gap = exponent_gap_histogram(t.data(), g, 16).mean_gap;
                    }
                }
            }
            idx += 1;
        });
    }
}

/// Fig 6's gaps, read halfway through FP32 training: the run is the first
/// half of the ResNet-20 schedule.
fn gaps(lab: &mut Lab, seed: u64) -> [[f64; 3]; 3] {
    lab.memo(format!("ResNet-20/FP32 half schedule/{seed}"), |scale| {
        let full = RunCfg::images(r20_epochs(scale), seed);
        let cfg = RunCfg {
            epochs: full.epochs / 2,
            ..full
        };
        let probe = |iters: usize| GapProbe {
            at: iters - 1,
            gaps: Default::default(),
        };
        train_r20(scale, seed, false, cfg, probe).1.gaps
    })
}

fn fig6_grad_gap(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let [w, a, g] = gaps(lab, seed).map(|row| row[1]);
        trial(format!("G {g:.2}, W {w:.2}, A {a:.2}"), g > w && g > a)
    })
}

fn fig6_group_gap(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let gaps = gaps(lab, seed);
        let rising = gaps.iter().all(|r| r[0] < r[1] && r[1] < r[2]);
        let [w, a, g] = gaps.map(|r| format!("{:.2}/{:.2}/{:.2}", r[0], r[1], r[2]));
        trial(format!("W {w}, A {a}, G {g}"), rising)
    })
}

fn fig9(lab: &mut Lab, layerwise: bool) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let [low_first, high_first] = [1, 0].map(|low_first: usize| {
            let order = ["High-to-Low", "Low-to-High"][low_first];
            let kind = if layerwise { "layerwise" } else { "temporal" };
            lab.memo(format!("ResNet-20/{kind} {order}/{seed}"), |scale| {
                let cfg = RunCfg::images(r20_epochs(scale), seed);
                let run = if layerwise {
                    let policy = [LayerwisePolicy::high_to_low, LayerwisePolicy::low_to_high];
                    train_r20(scale, seed, true, cfg, |_| policy[low_first]()).0
                } else {
                    let policy = [TemporalPolicy::high_to_low, TemporalPolicy::low_to_high];
                    train_r20(scale, seed, false, cfg, policy[low_first]).0
                };
                run.final_quality()
            })
        });
        let measured = format!("{low_first:.1} vs {high_first:.1} %");
        trial(measured, low_first > high_first)
    })
}

/// The precision trace of FAST-Adaptive ResNet-18 on its default schedule.
fn fast_trace(lab: &mut Lab, seed: u64) -> PrecisionTrace {
    adaptive(lab, Workload::ResNet18, seed, 0).1
}

/// Mean legend index over `layers` and iterations `iters`.
fn legend(trace: &PrecisionTrace, layers: Range<usize>, iters: Range<usize>) -> f64 {
    let n = layers.len() as f64;
    let sum: f64 = layers
        .map(|l| trace.mean_legend_index(l, iters.start, iters.end))
        .sum();
    sum / n
}

fn iterations(trace: &PrecisionTrace) -> usize {
    trace.samples.last().map_or(1, |(i, _)| i + 1)
}

fn fig17_progress(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let trace = fast_trace(lab, seed);
        let (layers, end) = (trace.layer_count(), iterations(&trace));
        let first = legend(&trace, 0..layers, 0..end / 3);
        let last = legend(&trace, 0..layers, 2 * end / 3..end);
        trial(format!("{first:.2} → {last:.2}"), last > first)
    })
}

fn fig17_depth(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let trace = fast_trace(lab, seed);
        let (layers, end) = (trace.layer_count(), iterations(&trace));
        let shallow = legend(&trace, 0..layers / 2, 0..end);
        let deep = legend(&trace, layers / 2..layers, 0..end);
        trial(format!("{shallow:.2} → {deep:.2}"), deep > shallow)
    })
}

/// Best accuracy of ResNet-20 under one BFP format `(g, m, e = 3)`: weights
/// and activations nearest-rounded, gradients stochastically rounded unless
/// `sr` is off.
fn bfp_best(lab: &mut Lab, seed: u64, g: usize, m: u32, sr: bool) -> f64 {
    let grads = if sr { "SR" } else { "nearest" };
    lab.memo(format!("ResNet-20/g={g} m={m} {grads}/{seed}"), |scale| {
        let fmt = BfpFormat::new(g, m, 3).expect("valid format");
        let precision = LayerPrecision {
            weights: NumericFormat::bfp_nearest(fmt),
            activations: NumericFormat::bfp_nearest(fmt),
            gradients: if sr {
                NumericFormat::bfp_stochastic(fmt)
            } else {
                NumericFormat::bfp_nearest(fmt)
            },
        };
        let cfg = RunCfg::images(r20_epochs(scale), seed);
        let run = train_r20(scale, seed, false, cfg, |_| FixedPolicy { precision }).0;
        run.best_quality()
    })
}

fn shown(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
    format!("{} %", parts.join(" / "))
}

fn fig18_mantissa(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let acc = [2, 3, 4].map(|m| bfp_best(lab, seed, 16, m, true));
        trial(shown(&acc), acc[0] < acc[1] && acc[1] < acc[2])
    })
}

fn fig18_group(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let acc = [8, 16, 32].map(|g| bfp_best(lab, seed, g, 4, true));
        trial(shown(&acc), acc[0] >= acc[1] && acc[1] >= acc[2])
    })
}

fn sr_ablation_m2(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let acc = [true, false].map(|sr| bfp_best(lab, seed, 16, 2, sr));
        trial(shown(&acc), acc[0] > acc[1])
    })
}

/// A workload trained under the Table II format `name`.
fn fixed(lab: &mut Lab, wl: Workload, name: &str, seed: u64, extra: usize) -> TrainRun {
    let key = format!("{}/{name} +{extra} epochs/{seed}", wl.name());
    lab.memo(key, |scale| wl.run_fixed(scale, &format(name), seed, extra))
}

/// A workload trained under FAST-Adaptive, with its precision trace.
fn adaptive(lab: &mut Lab, wl: Workload, seed: u64, extra: usize) -> (TrainRun, PrecisionTrace) {
    let key = format!("{}/FAST-Adaptive +{extra} epochs/{seed}", wl.name());
    lab.memo(key, |scale| {
        let (run, controller) = wl.run_adaptive(scale, seed, extra);
        (run, controller.trace)
    })
}

fn secs(t: Option<f64>) -> String {
    t.map_or("never".to_string(), |t| format!("{t:.3}"))
}

/// Whether FAST-Adaptive reaches the target before the `other` format, on
/// runs extended so slow starters can still reach it.
fn reaches_first(lab: &mut Lab, wl: Workload, other: &str) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let extra = lab.scale.pick(6, 8);
        let fast = adaptive(lab, wl, seed, extra).0;
        let base = fixed(lab, wl, other, seed, extra);
        let target = 0.85 * fast.best_quality().max(base.best_quality());
        let (tf, tb) = (fast.time_to_quality(target), base.time_to_quality(target));
        let holds = match (tf, tb) {
            (Some(f), Some(b)) => f < b,
            (f, b) => f.is_some() && b.is_none(),
        };
        let measured = format!("{} vs {} s to {target:.1} %", secs(tf), secs(tb));
        trial(measured, holds)
    })
}

fn table2_highbfp(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let [high, fp32] =
            ["HighBFP", "FP32"].map(|f| fixed(lab, Workload::ResNet18, f, seed, 0).best_quality());
        trial(shown(&[high, fp32]), high > fp32 - 0.5)
    })
}

fn table2_lowbfp(lab: &mut Lab) -> Vec<Trial> {
    per_seed(lab, |lab, seed| {
        let [low, high] = ["LowBFP", "HighBFP"]
            .map(|f| fixed(lab, Workload::ResNet18, f, seed, 0).best_quality());
        trial(shown(&[low, high]), low < high)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn verdict_rule() {
        assert_eq!(Verdict::of(&[true, true, true]), Verdict::Reproduced);
        assert_eq!(Verdict::of(&[false, false, false]), Verdict::NotReproduced);
        assert_eq!(Verdict::of(&[true, false, true]), Verdict::Underpowered);
        assert_eq!(Verdict::of(&[true]), Verdict::Reproduced);
        assert_eq!(Verdict::of(&[false]), Verdict::NotReproduced);
    }

    #[test]
    fn parser_accepts_known_arguments() {
        let (claims, scale) = parse_args(&[]).unwrap();
        assert_eq!((claims.len(), scale), (CLAIMS.len(), Scale::Quick));
        let (claims, scale) = parse_args(&args("--claim fig17-progress --scale full")).unwrap();
        assert_eq!(claims.len(), 1);
        assert_eq!((claims[0].id, scale), ("fig17-progress", Scale::Full));
    }

    #[test]
    fn parser_rejects_typos_naming_the_accepted_set() {
        for (line, names) in [
            ("--scal full", "--claim ID"),
            ("--scale Full", "quick|full"),
            ("--claim fig17", "fig17-progress|"),
            ("--claim", "needs a value"),
            ("quick", "--scale quick|full"),
        ] {
            let why = parse_args(&args(line)).map(|_| ()).unwrap_err();
            assert!(why.contains(names), "{line}: {why}");
        }
    }

    #[test]
    fn ids_are_unique_and_rows_are_single_lines() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len());
        for c in &CLAIMS {
            for text in [c.source, c.paper, c.relation] {
                assert!(!text.contains('|') && !text.contains('\n'), "{}", c.id);
            }
        }
    }
}
