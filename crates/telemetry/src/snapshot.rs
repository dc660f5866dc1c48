//! Exportable registry snapshots and their JSON wire format.
//!
//! A [`Snapshot`] is a point-in-time copy of every series in a
//! [`Registry`](crate::Registry). The JSON encoding is self-round-tripping
//! ([`Snapshot::to_json`] → [`Snapshot::from_json`] → the same snapshot):
//! histograms travel as their raw non-zero `(bucket, count)` pairs rather
//! than lossy quantiles, so snapshots from different processes can still be
//! merged bucket-wise after the fact. Counters and histogram sums are
//! `u64`s and travel exactly ([`Json::uint`]).

use crate::hist::LatencyHistogram;
use crate::json::Json;
use crate::registry::render_f64;

/// One metric series captured at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs identifying the series within the family.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SnapshotValue,
}

/// The captured value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Full histogram contents (boxed: a histogram is ~4 KiB, three orders
    /// of magnitude larger than the scalar variants).
    Histogram(Box<LatencyHistogram>),
}

/// A point-in-time copy of every series in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Captured series in registry iteration order (sorted by name, then
    /// by labels).
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Looks up a series by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotValue> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == want)
            .map(|e| &e.value)
    }

    /// Encodes the snapshot as JSON.
    pub fn to_json(&self) -> String {
        let entries = self.entries.iter().map(|e| {
            let labels = e
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect();
            let mut fields = vec![
                ("name".to_string(), Json::Str(e.name.clone())),
                ("labels".to_string(), Json::Obj(labels)),
            ];
            let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
            match &e.value {
                SnapshotValue::Counter(v) => {
                    fields.extend([kind("counter"), ("value".to_string(), Json::uint(*v))]);
                }
                SnapshotValue::Gauge(v) => {
                    // Non-finite gauges travel as strings; JSON has no NaN.
                    let value = if v.is_finite() {
                        Json::Num(*v)
                    } else {
                        Json::Str(render_f64(*v))
                    };
                    fields.extend([kind("gauge"), ("value".to_string(), value)]);
                }
                SnapshotValue::Histogram(h) => {
                    let buckets = h
                        .nonzero_buckets()
                        .map(|(idx, c)| Json::Arr(vec![Json::uint(idx as u64), Json::uint(c)]))
                        .collect();
                    fields.extend([
                        kind("histogram"),
                        ("count".to_string(), Json::uint(h.count())),
                        ("sum_ns".to_string(), Json::uint(h.sum_ns())),
                        ("buckets".to_string(), Json::Arr(buckets)),
                    ]);
                }
            }
            Json::Obj(fields)
        });
        Json::Obj(vec![
            ("version".to_string(), Json::Num(1.0)),
            ("entries".to_string(), Json::Arr(entries.collect())),
        ])
        .render()
    }

    /// Decodes a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text)?;
        let items = field(&doc, "entries")?
            .as_arr()
            .ok_or("`entries` must be an array")?;
        let mut entries = Vec::with_capacity(items.len());
        for e in items {
            let name = field(e, "name")?
                .as_str()
                .ok_or("`name` must be a string")?
                .to_string();
            let mut labels = Vec::new();
            if let Some(l) = e.get("labels") {
                let Json::Obj(pairs) = l else {
                    return Err("`labels` must be an object".to_string());
                };
                for (k, v) in pairs {
                    let v = v.as_str().ok_or("label values must be strings")?;
                    labels.push((k.clone(), v.to_string()));
                }
            }
            labels.sort();
            let uint = |key: &str| {
                field(e, key)?
                    .as_u64()
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
            };
            let value = match field(e, "kind")?.as_str() {
                Some("counter") => SnapshotValue::Counter(uint("value")?),
                Some("gauge") => {
                    let v = field(e, "value")?;
                    SnapshotValue::Gauge(match (v.as_f64(), v.as_str()) {
                        (Some(f), _) => f,
                        (_, Some("NaN")) => f64::NAN,
                        (_, Some("+Inf")) => f64::INFINITY,
                        (_, Some("-Inf")) => f64::NEG_INFINITY,
                        _ => return Err("gauge `value` must be a number".to_string()),
                    })
                }
                Some("histogram") => {
                    let sum = uint("sum_ns")?;
                    let buckets = field(e, "buckets")?
                        .as_arr()
                        .ok_or("`buckets` must be an array")?;
                    let mut pairs = Vec::with_capacity(buckets.len());
                    for b in buckets {
                        let pair = match b.as_arr() {
                            Some([idx, c]) => idx.as_u64().zip(c.as_u64()),
                            _ => None,
                        };
                        let (idx, c) = pair.ok_or("bucket must be an [index, count] pair")?;
                        pairs.push((idx as usize, c));
                    }
                    SnapshotValue::Histogram(Box::new(LatencyHistogram::from_buckets(pairs, sum)?))
                }
                Some(other) => return Err(format!("unknown metric kind `{other}`")),
                None => return Err("`kind` must be a string".to_string()),
            };
            entries.push(SnapshotEntry {
                name,
                labels,
                value,
            });
        }
        Ok(Snapshot { entries })
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut h = LatencyHistogram::default();
        for v in [3u64, 17, 1000, 123_456_789, u64::MAX] {
            h.record(v);
        }
        Snapshot {
            entries: vec![
                SnapshotEntry {
                    name: "fast_req_total".to_string(),
                    labels: vec![("model".to_string(), "mlp \"v2\"\\n".to_string())],
                    value: SnapshotValue::Counter(u64::MAX),
                },
                SnapshotEntry {
                    name: "fast_loss".to_string(),
                    labels: vec![],
                    value: SnapshotValue::Gauge(-1.0986122886681098),
                },
                SnapshotEntry {
                    name: "fast_lat_ns".to_string(),
                    labels: vec![("model".to_string(), "mlp".to_string())],
                    value: SnapshotValue::Histogram(Box::new(h)),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // And re-encoding the parse is byte-identical (canonical form).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn non_finite_gauges_round_trip() {
        let snap = Snapshot {
            entries: vec![
                SnapshotEntry {
                    name: "g1".into(),
                    labels: vec![],
                    value: SnapshotValue::Gauge(f64::INFINITY),
                },
                SnapshotEntry {
                    name: "g2".into(),
                    labels: vec![],
                    value: SnapshotValue::Gauge(f64::NEG_INFINITY),
                },
            ],
        };
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // NaN compares unequal by definition; check it decodes as NaN.
        let nan = Snapshot {
            entries: vec![SnapshotEntry {
                name: "g".into(),
                labels: vec![],
                value: SnapshotValue::Gauge(f64::NAN),
            }],
        };
        let back = Snapshot::from_json(&nan.to_json()).unwrap();
        match back.entries[0].value {
            SnapshotValue::Gauge(v) => assert!(v.is_nan()),
            _ => panic!("expected gauge"),
        }
    }

    #[test]
    fn get_looks_up_by_name_and_labels() {
        let snap = sample_snapshot();
        assert_eq!(
            snap.get("fast_req_total", &[("model", "mlp \"v2\"\\n")]),
            Some(&SnapshotValue::Counter(u64::MAX))
        );
        assert_eq!(snap.get("fast_req_total", &[]), None);
        assert!(matches!(
            snap.get("fast_loss", &[]),
            Some(SnapshotValue::Gauge(_))
        ));
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"entries\": 3}",
            "{\"entries\": [{\"name\": \"x\"}]}",
            "{\"entries\": [{\"name\": \"x\", \"kind\": \"blob\", \"value\": 1}]} ",
            "{\"entries\": [{\"name\": \"x\", \"kind\": \"histogram\", \"sum_ns\": 0, \"buckets\": [[9999, 1]]}]}",
        ] {
            assert!(Snapshot::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
