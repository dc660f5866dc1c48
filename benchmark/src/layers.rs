//! Per-layer numbers of a traced run, from two sources: the benchmark's own
//! spans, and the program's existing span histograms and counters read from
//! its registries before and after the traced phase.

use crate::metrics::{Values, PER_LAYER};
use crate::spans::{self_times_ns, Tracer};
use fast_telemetry::{LatencyHistogram, Snapshot, SnapshotValue};
use std::collections::BTreeMap;

/// What the program's registries recorded between two snapshots.
pub struct Delta {
    pub before: Snapshot,
    pub after: Snapshot,
}

fn counter_in(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.get(name, labels) {
        Some(SnapshotValue::Counter(v)) => *v,
        _ => 0,
    }
}

fn hist_in(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> LatencyHistogram {
    match snap.get(name, labels) {
        Some(SnapshotValue::Histogram(h)) => (**h).clone(),
        _ => LatencyHistogram::default(),
    }
}

impl Delta {
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        (counter_in(&self.after, name, labels) - counter_in(&self.before, name, labels)) as f64
    }

    /// The samples recorded between the snapshots, bucket by bucket.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> LatencyHistogram {
        let (after, before) = (
            hist_in(&self.after, name, labels),
            hist_in(&self.before, name, labels),
        );
        let was: BTreeMap<usize, u64> = before.nonzero_buckets().collect();
        let buckets = after
            .nonzero_buckets()
            .map(|(i, n)| (i, n - was.get(&i).copied().unwrap_or(0)));
        LatencyHistogram::from_buckets(buckets, after.sum_ns() - before.sum_ns())
            .expect("bucket indices come from a histogram")
    }

    /// Total time of one of the program's own span sites, ms.
    fn span_ms(&self, span: &str) -> f64 {
        self.hist("fast_span_ns", &[("span", span)]).sum_ns() as f64 / 1e6
    }

    pub fn gauge_after(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.after.get(name, labels) {
            Some(SnapshotValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hist_ms(h: &LatencyHistogram, p: f64) -> f64 {
    h.percentile_ns(p).map_or(0.0, |ns| ns as f64 / 1e6)
}

/// A collector of per-layer values; [`Layers::finish`] lays them out in
/// declaration order, with 0 for every metric whose layer did no work.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn finish(&self) -> Values {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }

    /// Set-up stages, from the `setup` span tree.
    pub fn add_setup(&mut self, tracer: &Tracer) {
        let ms = |name: &str| tracer.total_ns(name) as f64 / 1e6;
        self.set("data.generate_s", ms("data.generate") / 1e3);
        self.set("ckpt.encode_ms", ms("ckpt.encode"));
        self.set("ckpt.decode_ms", ms("ckpt.decode"));
        self.set("serve.compile_warm_ms", ms("serve.compile_warm"));
    }

    /// The training step's parts, as mean ms per traced step, and how much
    /// of the step no part accounts for.
    pub fn add_train_spans(&mut self, tracer: &Tracer) {
        let steps = tracer.count("train.step");
        if steps == 0 {
            return;
        }
        let per_step = |name: &str| tracer.total_ns(name) as f64 / 1e6 / steps as f64;
        self.set("nn.forward_ms", per_step("nn.forward"));
        self.set("nn.loss_ms", per_step("nn.loss"));
        self.set("nn.backward_ms", per_step("nn.backward"));
        self.set("nn.optimizer_ms", per_step("nn.optimizer"));
        self.set(
            "core.controller_ms",
            per_step("core.before_iteration") + per_step("core.after_backward"),
        );
        let own: u64 = tracer
            .spans()
            .iter()
            .zip(self_times_ns(tracer.spans()))
            .filter(|(s, _)| s.name == "train.step")
            .map(|(_, own)| own)
            .sum();
        self.set(
            "nn.step_unattributed_pct",
            100.0 * ratio(own as f64, tracer.total_ns("train.step") as f64),
        );
    }

    /// Exact counts of a training run: steps until the 20-step mean loss is
    /// under `target` (0 if it never is), and what the precision policy did.
    pub fn add_training_run(
        &mut self,
        losses: &[f64],
        target: f64,
        mantissas: &[Vec<(u32, u32, u32)>],
    ) {
        let reached = losses
            .windows(20)
            .position(|w| w.iter().sum::<f64>() / 20.0 < target)
            .map_or(0, |first| first + 20);
        self.set("nn.steps_to_target", reached as f64);
        let changes: usize = mantissas
            .windows(2)
            .map(|w| {
                w[0].iter()
                    .zip(&w[1])
                    .map(|(a, b)| {
                        usize::from(a.0 != b.0) + usize::from(a.1 != b.1) + usize::from(a.2 != b.2)
                    })
                    .sum::<usize>()
            })
            .sum();
        self.set("core.precision_changes", changes as f64);
        let bits: Vec<f64> = mantissas
            .iter()
            .flatten()
            .flat_map(|&(w, a, g)| [f64::from(w), f64::from(a), f64::from(g)])
            .collect();
        self.set(
            "core.mean_mantissa_bits",
            ratio(bits.iter().sum(), bits.len() as f64),
        );
    }

    /// Kernel time and exact work per measured unit, from the program's own
    /// span sites and counters on the global registry.
    pub fn add_kernels(&mut self, d: &Delta, units: usize, sr_draws: u64) {
        let units = units as f64;
        self.set("nn.qgemm_prepare_ms", d.span_ms("qgemm.prepare") / units);
        let execute_ms = d.span_ms("qgemm.execute.replay") + d.span_ms("qgemm.execute.integer");
        self.set("tensor.qgemm_execute_ms", execute_ms / units);
        self.set("tensor.im2col_ms", d.span_ms("tensor.im2col") / units);
        self.set("tensor.col2im_ms", d.span_ms("tensor.col2im") / units);
        self.set("tensor.im2row_ms", d.span_ms("tensor.im2row") / units);
        let by_mode = |name: &str, mode: &str| d.counter(name, &[("mode", mode)]);
        let integer_gemms = by_mode("fast_qgemm_gemms_total", "integer");
        let gemms = integer_gemms + by_mode("fast_qgemm_gemms_total", "replay");
        let macs = by_mode("fast_qgemm_macs_total", "integer")
            + by_mode("fast_qgemm_macs_total", "replay");
        self.set("tensor.gemms_per_unit", gemms / units);
        self.set("tensor.macs_per_unit", macs / units);
        self.set("tensor.gmacs_per_s", ratio(macs / 1e9, execute_ms / 1e3));
        self.set("tensor.integer_gemm_share", ratio(integer_gemms, gemms));
        let elements =
            |repr: &str| d.counter("fast_quant_operand_elements_total", &[("repr", repr)]);
        let (dense, packed, borrowed) =
            (elements("dense"), elements("packed"), elements("borrowed"));
        self.set("bfp.quant_elements_per_unit", (dense + packed) / units);
        self.set(
            "bfp.packed_operand_share",
            ratio(packed, dense + packed + borrowed),
        );
        self.set("bfp.sr_draws_per_unit", sr_draws as f64 / units);
    }

    /// The server's own account of the traced phase, from its per-model
    /// series. `unit_mean_ms` is the client-side mean of the same requests:
    /// what neither queue residency nor service accounts for is dispatch.
    pub fn add_server(&mut self, d: &Delta, unit_mean_ms: f64, max_batch: usize) {
        let model = &[("model", "default")][..];
        let queue = d.hist("fast_serve_queue_ns", model);
        let service = d.hist("fast_serve_service_ns", model);
        self.set("serve.service_ms.p50", hist_ms(&service, 0.50));
        self.set("serve.service_ms.p95", hist_ms(&service, 0.95));
        self.set("serve.queue_wait_ms.p50", hist_ms(&queue, 0.50));
        self.set("serve.queue_wait_ms.p95", hist_ms(&queue, 0.95));
        let mean_ms = |h: &LatencyHistogram| h.mean_ns().unwrap_or(0.0) / 1e6;
        self.set(
            "serve.dispatch_overhead_ms.mean",
            unit_mean_ms - mean_ms(&queue) - mean_ms(&service),
        );
        let batches = d.counter("fast_serve_batches_total", model);
        self.set(
            "serve.mean_batch",
            ratio(d.counter("fast_serve_samples_total", model), batches),
        );
        self.set("serve.full_batch_share", full_batch_share(d, max_batch));
        self.set(
            "serve.peak_queue_depth",
            d.gauge_after("fast_serve_peak_queue_depth", model),
        );
        self.set("serve.shed", d.counter("fast_serve_shed_total", model));
        self.set(
            "serve.deadline_missed",
            d.counter("fast_serve_deadline_missed_total", model),
        );
        self.set("serve.failed", d.counter("fast_serve_failed_total", model));
    }
}

/// Share of executed batches that carried `max_batch` samples. The batch-fill
/// histogram is exact below 16 samples, and `max_batch` is 8.
pub fn full_batch_share(d: &Delta, max_batch: usize) -> f64 {
    let fills = d.hist("fast_serve_batch_samples", &[("model", "default")]);
    let full: u64 = fills
        .nonzero_buckets()
        .filter(|&(fill, _)| fill == max_batch)
        .map(|(_, n)| n)
        .sum();
    ratio(full as f64, fills.count() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_telemetry::Registry;

    #[test]
    fn a_delta_holds_only_what_was_recorded_between_the_snapshots() {
        let registry = Registry::new();
        let hits = registry.counter("t_hits_total", "hits", &[("mode", "a")]);
        let lat = registry.histogram("t_lat_ns", "latency", &[]);
        hits.add(3);
        lat.record(1_000);
        lat.record(5);
        let before = registry.snapshot();
        hits.add(4);
        lat.record(5);
        lat.record(5);
        lat.record(2_000_000);
        let d = Delta {
            before,
            after: registry.snapshot(),
        };
        assert_eq!(d.counter("t_hits_total", &[("mode", "a")]), 4.0);
        assert_eq!(d.counter("t_hits_total", &[("mode", "b")]), 0.0);
        let h = d.hist("t_lat_ns", &[]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 2_000_010);
        assert_eq!(h.percentile_ns(0.5), Some(5));
        assert_eq!(d.hist("t_missing", &[]).count(), 0);
    }

    #[test]
    fn undeclared_metrics_read_zero_and_declared_order_is_kept() {
        let mut l = Layers::default();
        l.set("host.calib_ms", 1.5);
        let out = l.finish();
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out[0], ("data.generate_s", 0.0));
        assert_eq!(out.last(), Some(&("host.calib_ms", 1.5)));
    }

    #[test]
    fn steps_to_target_counts_to_the_end_of_the_first_window_under_it() {
        let mut losses = vec![2.0; 30];
        losses.extend(vec![0.1; 40]);
        let mut l = Layers::default();
        // Window [i, i+20) has mean 2 - 1.9*k/20 with k low entries; it is
        // under 1.0 from k = 11, i.e. the window ending at step 41.
        l.add_training_run(&losses, 1.0, &[]);
        assert_eq!(l.get("nn.steps_to_target"), 41.0);
        l.add_training_run(&losses, 0.01, &[]);
        assert_eq!(l.get("nn.steps_to_target"), 0.0);
        let m = vec![vec![(2, 2, 2), (4, 2, 2)], vec![(2, 4, 2), (4, 2, 4)]];
        l.add_training_run(&losses, 1.0, &m);
        assert_eq!(l.get("core.precision_changes"), 2.0);
        assert_eq!(l.get("core.mean_mantissa_bits"), 32.0 / 12.0);
    }
}
