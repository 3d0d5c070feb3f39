//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one of the benchmark's own calls
//! into a layer's public functions, with the span that caused it as
//! its parent. Spans stay in memory until the run ends; self time is a
//! span's duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `trace.decode` or `sim.engine`.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Totals for one span name.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations in seconds.
    pub total_s: f64,
    /// Summed self times in seconds.
    pub self_s: f64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's duration in seconds. `f` receives the new span's id so
    /// it can parent child spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        let value = f(id);
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end_ns = end;
        let secs = spans[id].secs();
        (value, secs)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children of one parent may overlap when they
/// ran on different workers).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.secs() - covered as f64 * 1e-9
        })
        .collect()
}

/// Per-name totals, keyed by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, Totals> {
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += s.secs();
        t.self_s += own;
    }
    out
}

/// Per-layer self time in seconds, keyed by layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_default() += own;
    }
    out
}

/// Measured cost of recording one span, in seconds: the unit of the
/// tracing overhead the traced run reports.
pub fn cost_per_span() -> f64 {
    const N: usize = 20_000;
    let tracer = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        std::hint::black_box(tracer.span("calibration.span", None, |id| id));
    }
    start.elapsed().as_secs_f64() / N as f64
}

/// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`).
pub fn to_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("sim.a", 10, 50, Some(0)),
            span("sim.b", 30, 70, Some(0)), // overlaps sim.a on another worker
            span("trace.c", 90, 120, Some(0)), // runs past the parent's end
        ];
        let own = self_times(&spans);
        assert!((own[0] - 30e-9).abs() < 1e-15, "{}", own[0]);
        assert!((own[1] - 40e-9).abs() < 1e-15);
        let layers = self_by_layer(&spans);
        assert!((layers["sim"] - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_through_the_recorder() {
        let tracer = Tracer::new();
        let ((), outer) = tracer.span("bench.outer", None, |id| {
            tracer.span("trace.inner", Some(id), |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(outer >= spans[1].secs());
        assert!(to_json(&spans).starts_with("[{\"name\":\"bench.outer\""));
    }
}
