//! Benchmark-side spans: name, start, end, the span that caused it, and the
//! unit (step or request) it belongs to. Spans are recorded around the
//! benchmark's calls into each layer's public functions, kept in memory
//! while the run is timed, and written to `benchmark/out/trace_<workload>.json`
//! when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open or closed span: its index in recording order.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Spans of one step or one request share this identifier.
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// The most spans written to the trace file; the in-memory log that the
/// per-layer numbers come from is never cut.
const FILE_SPAN_CAP: usize = 20_000;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Reserved up front so that no traced unit pays for the log
            // growing; untouched capacity is not resident.
            spans: Vec::with_capacity(1 << 20),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, unit: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            unit,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, unit);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The trace file's contents: a header, then one span per line. Times are
    /// ns since the tracer was made; `parent` is the `id` of the span that
    /// caused this one, `unit` the step or request both belong to.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let written = self.spans.len().min(FILE_SPAN_CAP);
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \"spans_written\": {written}, \"spans\": [\n",
            self.spans.len()
        );
        for (id, s) in self.spans.iter().take(written).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.unit,
                s.start_ns,
                s.end_ns,
                if id + 1 < written { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span, in recording order: its duration minus the part
/// of its interval that its child spans cover. Children that overlap each
/// other, or stick out of the parent, are counted once and clipped.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_parent_minus_the_interval_its_children_cover() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the previous child by 10
            span(Some(0), 90, 120), // sticks out of the parent by 20
            span(Some(1), 12, 18),  // grandchild: only its own parent pays
        ];
        // Children cover [10, 50) and [90, 100): 50 of the parent's 100.
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        assert_eq!(self_times_ns(&[span(None, 5, 9)]), vec![4]);
        assert_eq!(self_times_ns(&[]), Vec::<u64>::new());
    }

    #[test]
    fn tracer_links_children_to_parents_and_units() {
        let mut t = Tracer::new();
        let step = t.begin("step", None, 7);
        let got = t.within("part", Some(step), 7, || 41 + 1);
        t.end(step);
        assert_eq!(got, 42);
        let [parent, child] = t.spans() else {
            panic!("two spans expected")
        };
        assert_eq!(child.parent, Some(step));
        assert_eq!((parent.unit, child.unit), (7, 7));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(t.count("part"), 1);
        assert_eq!(t.total_ns("part"), child.dur_ns());
    }
}
