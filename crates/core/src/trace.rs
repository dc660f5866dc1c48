//! Precision traces — the data behind paper Fig 17's heat map — and the
//! cost ordering of the eight (W, A, G) settings.

/// A per-layer (W, A, G) mantissa-width setting, each 2 or 4 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Setting {
    /// Weight mantissa bits.
    pub w: u32,
    /// Activation mantissa bits.
    pub a: u32,
    /// Gradient mantissa bits.
    pub g: u32,
}

impl Setting {
    /// All eight settings in the paper's Fig 17 legend order (ascending
    /// computational cost).
    pub fn legend_order() -> [Setting; 8] {
        [
            Setting { w: 2, a: 2, g: 2 },
            Setting { w: 2, a: 4, g: 2 },
            Setting { w: 4, a: 2, g: 2 },
            Setting { w: 2, a: 2, g: 4 },
            Setting { w: 4, a: 4, g: 2 },
            Setting { w: 2, a: 4, g: 4 },
            Setting { w: 4, a: 2, g: 4 },
            Setting { w: 4, a: 4, g: 4 },
        ]
    }

    /// Relative per-iteration cost of a setting:
    /// `m_W·m_A + λ1·m_G·m_W + λ2·m_G·m_A` with `λ1 = 1.5, λ2 = 1.25`.
    ///
    /// The three GEMMs contribute `m_W·m_A` (forward), `m_G·m_W` (∇A) and
    /// `m_G·m_A` (∇W) chunk passes; the gradient terms carry extra weight
    /// because ∇O is converted with stochastic rounding and read by both
    /// backward GEMMs ("gradients are used multiple times during the
    /// backward pass", Section VI-A), and the ∇A GEMM sits on the
    /// inter-layer critical path. This reproduces the paper's published
    /// order exactly (see `legend_order_is_cost_sorted`).
    pub fn cost(&self) -> f64 {
        let (w, a, g) = (self.w as f64, self.a as f64, self.g as f64);
        w * a + 1.5 * g * w + 1.25 * g * a
    }

    /// A setting decoded from stored widths.
    ///
    /// # Errors
    ///
    /// A width other than 2 or 4: no legend index exists for it.
    pub(crate) fn from_widths(w: u32, a: u32, g: u32) -> Result<Setting, String> {
        let s = Setting { w, a, g };
        if [w, a, g].iter().all(|bits| matches!(bits, 2 | 4)) {
            Ok(s)
        } else {
            Err(format!("setting {s} has a width other than 2 or 4"))
        }
    }

    /// Index of this setting within the legend order.
    ///
    /// # Panics
    ///
    /// Panics if the widths are not each 2 or 4.
    pub fn legend_index(&self) -> usize {
        Setting::legend_order()
            .iter()
            .position(|s| s == self)
            .expect("setting widths must each be 2 or 4")
    }
}

impl std::fmt::Display for Setting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.w, self.a, self.g)
    }
}

/// A recorded history of per-layer settings over training (Fig 17).
#[derive(Debug, Clone, Default)]
pub struct PrecisionTrace {
    /// Layer labels in execution order.
    pub layer_labels: Vec<String>,
    /// `(iteration, settings-per-layer)` samples.
    pub samples: Vec<(usize, Vec<Setting>)>,
}

impl PrecisionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PrecisionTrace::default()
    }

    /// Records one iteration's settings.
    pub fn record(&mut self, iter: usize, settings: Vec<Setting>) {
        self.samples.push((iter, settings));
    }

    /// Number of layers traced.
    pub fn layer_count(&self) -> usize {
        self.samples.first().map(|(_, s)| s.len()).unwrap_or(0)
    }

    /// Mean legend index per layer over a window of iterations — the
    /// summary statistic showing precision growth over depth/time.
    pub fn mean_legend_index(&self, layer: usize, from_iter: usize, to_iter: usize) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for (it, settings) in &self.samples {
            if *it >= from_iter && *it < to_iter {
                sum += settings[layer].legend_index() as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Encodes the trace into the checkpoint wire form (little-endian,
    /// length-prefixed): labels, then `(iteration, settings)` samples. A
    /// resumed run's Fig 17 heat map continues seamlessly from the
    /// pre-checkpoint history.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.layer_labels.len() as u32).to_le_bytes());
        for label in &self.layer_labels {
            out.extend_from_slice(&(label.len() as u32).to_le_bytes());
            out.extend_from_slice(label.as_bytes());
        }
        out.extend_from_slice(&(self.samples.len() as u32).to_le_bytes());
        for (iter, settings) in &self.samples {
            out.extend_from_slice(&(*iter as u64).to_le_bytes());
            out.extend_from_slice(&(settings.len() as u32).to_le_bytes());
            for s in settings {
                for field in [s.w, s.a, s.g] {
                    out.extend_from_slice(&field.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes a [`PrecisionTrace::to_wire`] encoding.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field — truncation, trailing
    /// bytes, a non-UTF-8 label, a width other than 2 or 4, or a sample
    /// whose layer count differs from the first sample's (the readers
    /// index every sample by layer); never panics.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], String> {
            let out = bytes
                .get(pos..pos + n)
                .ok_or_else(|| "precision trace encoding truncated".to_string())?;
            pos += n;
            Ok(out)
        };
        fn u32_at(b: &[u8]) -> u32 {
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        }
        let mut trace = PrecisionTrace::new();
        let label_count = u32_at(take(4)?);
        for _ in 0..label_count {
            let len = u32_at(take(4)?) as usize;
            let body = take(len)?;
            trace.layer_labels.push(
                String::from_utf8(body.to_vec()).map_err(|_| "label is not UTF-8".to_string())?,
            );
        }
        let sample_count = u32_at(take(4)?);
        for _ in 0..sample_count {
            let b = take(8)?;
            let iter =
                u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]) as usize;
            let len = u32_at(take(4)?) as usize;
            if let Some((_, first)) = trace.samples.first() {
                if len != first.len() {
                    return Err(format!(
                        "sample at iteration {iter} has {len} layers, the first has {}",
                        first.len()
                    ));
                }
            }
            let mut settings = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                let b = take(12)?;
                settings.push(Setting::from_widths(
                    u32_at(&b[0..4]),
                    u32_at(&b[4..8]),
                    u32_at(&b[8..12]),
                )?);
            }
            trace.samples.push((iter, settings));
        }
        if pos != bytes.len() {
            return Err("trailing bytes after precision trace".to_string());
        }
        Ok(trace)
    }

    /// Renders an ASCII heat map: one row per layer (deepest at top, as in
    /// Fig 17), one column per sampled iteration bucket; cells show the
    /// legend index 0–7.
    ///
    /// Always emits at least one line: an empty trace — no samples, zero
    /// buckets, *or* samples recorded over zero layers (a model with no
    /// quantized layers) — renders as a `(empty trace)` placeholder line,
    /// so callers can split on lines unconditionally.
    pub fn render_ascii(&self, buckets: usize) -> String {
        // The zero-layer guard matters: samples recorded from a model with
        // no quantized layers used to render as the empty string, and
        // consumers taking the first line (`ascii.lines().next()`) panicked.
        if self.samples.is_empty() || buckets == 0 || self.layer_count() == 0 {
            return String::from("(empty trace)\n");
        }
        let layers = self.layer_count();
        let max_iter = self.samples.last().expect("non-empty").0 + 1;
        let mut out = String::new();
        for layer in (0..layers).rev() {
            let label = self
                .layer_labels
                .get(layer)
                .cloned()
                .unwrap_or_else(|| format!("layer {layer}"));
            out.push_str(&format!("{label:>20} |"));
            for b in 0..buckets {
                let from = b * max_iter / buckets;
                let to = ((b + 1) * max_iter / buckets).max(from + 1);
                let mean = self.mean_legend_index(layer, from, to);
                out.push_str(&format!("{}", mean.round() as usize));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legend_order_is_cost_sorted() {
        // The paper's Fig 17 legend orders settings by computational cost:
        // (2,2,2) < (2,4,2) < (4,2,2) < (2,2,4) < (4,4,2) < (2,4,4)
        // < (4,2,4) < (4,4,4). Our cost model must reproduce it strictly.
        let order = Setting::legend_order();
        for w in order.windows(2) {
            assert!(
                w[0].cost() < w[1].cost(),
                "{} (cost {}) !< {} (cost {})",
                w[0],
                w[0].cost(),
                w[1],
                w[1].cost()
            );
        }
    }

    #[test]
    fn legend_index_roundtrip() {
        for (i, s) in Setting::legend_order().iter().enumerate() {
            assert_eq!(s.legend_index(), i);
        }
    }

    #[test]
    fn trace_statistics() {
        let mut t = PrecisionTrace::new();
        t.layer_labels = vec!["l0".into(), "l1".into()];
        let low = Setting { w: 2, a: 2, g: 2 };
        let high = Setting { w: 4, a: 4, g: 4 };
        for it in 0..10 {
            let s = if it < 5 { low } else { high };
            t.record(it, vec![low, s]);
        }
        assert_eq!(t.layer_count(), 2);
        assert_eq!(t.mean_legend_index(0, 0, 10), 0.0);
        assert_eq!(t.mean_legend_index(1, 5, 10), 7.0);
        let ascii = t.render_ascii(2);
        assert!(ascii.contains("l1"));
        // Deepest layer (l1) rendered first. `render_ascii` guarantees at
        // least one line, so taking the first cannot fail.
        let first_line = ascii.lines().next().expect("render emits a line");
        assert!(first_line.contains("l1"));
    }

    #[test]
    fn wire_codec_roundtrips_and_rejects_garbage() {
        let mut t = PrecisionTrace::new();
        t.layer_labels = vec!["conv3x3(2->6)".into(), "dense(64->3)".into()];
        t.record(
            0,
            vec![Setting { w: 2, a: 2, g: 2 }, Setting { w: 4, a: 2, g: 4 }],
        );
        t.record(
            7,
            vec![Setting { w: 4, a: 4, g: 4 }, Setting { w: 2, a: 4, g: 2 }],
        );
        let enc = t.to_wire();
        let back = PrecisionTrace::from_wire(&enc).unwrap();
        assert_eq!(back.layer_labels, t.layer_labels);
        assert_eq!(back.samples, t.samples);
        // Empty trace round-trips too.
        let empty = PrecisionTrace::new();
        assert_eq!(
            PrecisionTrace::from_wire(&empty.to_wire()).unwrap().samples,
            empty.samples
        );
        // Truncations and trailing garbage are errors, not panics.
        for cut in 0..enc.len() {
            assert!(PrecisionTrace::from_wire(&enc[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = enc;
        padded.push(0);
        assert!(PrecisionTrace::from_wire(&padded).is_err());
        // A width with no legend index, and a sample shorter than the
        // first, are decode errors — not panics in `legend_index` or an
        // out-of-bounds layer index later.
        let mut odd = t.clone();
        odd.samples[1].1[0].g = 3;
        let err = PrecisionTrace::from_wire(&odd.to_wire()).unwrap_err();
        assert!(err.contains("width other than 2 or 4"), "{err}");
        let mut ragged = t.clone();
        ragged.samples[1].1.pop();
        let err = PrecisionTrace::from_wire(&ragged.to_wire()).unwrap_err();
        assert!(err.contains("has 1 layers, the first has 2"), "{err}");
    }

    #[test]
    fn empty_traces_always_render_a_line() {
        // Regression: every degenerate trace must render the placeholder
        // line — consumers take `ascii.lines().next()` unconditionally, and
        // a zero-layer trace (samples recorded from a model with no
        // quantized layers) used to render as the empty string and panic
        // them.
        let no_samples = PrecisionTrace::new();
        let mut zero_layers = PrecisionTrace::new();
        for it in 0..3 {
            zero_layers.record(it, Vec::new());
        }
        let some = Setting { w: 2, a: 2, g: 2 };
        let mut zero_buckets = PrecisionTrace::new();
        zero_buckets.record(0, vec![some]);
        for (name, trace, buckets) in [
            ("no samples", &no_samples, 4),
            ("zero layers", &zero_layers, 4),
            ("zero buckets", &zero_buckets, 0),
        ] {
            let ascii = trace.render_ascii(buckets);
            let first = ascii.lines().next();
            assert_eq!(first, Some("(empty trace)"), "{name}");
        }
    }
}
