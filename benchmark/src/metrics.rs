//! The benchmark's vocabulary: every metric name, unit and direction, as
//! `BENCHMARK.json` declares them (a unit test holds the two together).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "unit_ms.p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "unit_ms.p95",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics, grouped by the crate they watch; printed with
/// `--trace 1`. A layer that does no work on a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 45] = [
    // fast_data
    layer("data.generate_s", "s", "lower"),
    // fast_nn
    layer("nn.forward_ms", "ms", "lower"),
    layer("nn.loss_ms", "ms", "lower"),
    layer("nn.backward_ms", "ms", "lower"),
    layer("nn.optimizer_ms", "ms", "lower"),
    layer("nn.qgemm_prepare_ms", "ms", "lower"),
    layer("nn.step_unattributed_pct", "%", "lower"),
    layer("nn.steps_to_target", "count", "lower"),
    // fast_core
    layer("core.controller_ms", "ms", "lower"),
    layer("core.precision_changes", "count", "lower"),
    layer("core.mean_mantissa_bits", "bits", "lower"),
    // fast_tensor
    layer("tensor.qgemm_execute_ms", "ms", "lower"),
    layer("tensor.im2col_ms", "ms", "lower"),
    layer("tensor.col2im_ms", "ms", "lower"),
    layer("tensor.im2row_ms", "ms", "lower"),
    layer("tensor.gemms_per_unit", "count", "lower"),
    layer("tensor.macs_per_unit", "count", "lower"),
    layer("tensor.gmacs_per_s", "GMAC/s", "higher"),
    layer("tensor.integer_gemm_share", "ratio", "higher"),
    // fast_bfp
    layer("bfp.quant_elements_per_unit", "count", "lower"),
    layer("bfp.packed_operand_share", "ratio", "higher"),
    layer("bfp.sr_draws_per_unit", "count", "lower"),
    // fast_ckpt
    layer("ckpt.encode_ms", "ms", "lower"),
    layer("ckpt.decode_ms", "ms", "lower"),
    layer("ckpt.artifact_kb", "kB", "lower"),
    // fast_serve
    layer("serve.compile_warm_ms", "ms", "lower"),
    layer("serve.direct_infer_b1_ms.p50", "ms", "lower"),
    layer("serve.direct_infer_b8_ms.p50", "ms", "lower"),
    layer("serve.service_ms.p50", "ms", "lower"),
    layer("serve.service_ms.p95", "ms", "lower"),
    layer("serve.queue_wait_ms.p50", "ms", "lower"),
    layer("serve.queue_wait_ms.p95", "ms", "lower"),
    layer("serve.dispatch_overhead_ms.mean", "ms", "lower"),
    layer("serve.mean_batch", "count", "higher"),
    layer("serve.full_batch_share", "ratio", "higher"),
    layer("serve.peak_queue_depth", "count", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.deadline_missed", "count", "lower"),
    layer("serve.failed", "count", "lower"),
    layer("serve.open_half_cap.p50_ms", "ms", "lower"),
    layer("serve.open_half_cap.p95_ms", "ms", "lower"),
    layer("serve.open_gen_late_ms.max", "ms", "lower"),
    // fast_telemetry
    layer("telemetry.trace_overhead_pct", "%", "lower"),
    // the machine
    layer("host.unit_ms_p95_all", "ms", "lower"),
    layer("host.calib_ms", "ms", "lower"),
];

/// Named values in declaration order, as one run reports them.
pub type Values = Vec<(&'static str, f64)>;

#[cfg(test)]
pub mod tests {
    use super::*;
    use fast_harness::json::Json;

    /// Whether `name` is a legal metric or workload name under the benchmark
    /// contract: starts with a letter or digit, at most 64 of letters, digits,
    /// `_`, `.` and `-`.
    pub fn is_contract_name(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(legal)
    }

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` missing"))
    }

    #[test]
    fn printed_names_match_benchmark_json_exactly() {
        let doc = declared();
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (want, got) in END_TO_END.iter().zip(e2e) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
            assert!(want.bound <= 0.25, "the contract allows no wider bound");
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (want, got) in PER_LAYER.iter().zip(layers) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), crate::workloads::SPECS.len());
        for (want, got) in crate::workloads::SPECS.iter().zip(workloads) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
    }

    #[test]
    fn names_and_units_use_only_the_contract_alphabet() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(is_contract_name(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit `{unit}`");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!is_contract_name(".hidden") && !is_contract_name("a b") && !is_contract_name(""));
    }
}
