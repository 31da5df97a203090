//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, the self-time arithmetic over them, and a
//! chrome-trace export that Perfetto loads.
//!
//! Span names are `<layer>.<what>`; the layer is the part before the first
//! dot.  Spans of the `bench` layer are the benchmark's own bookkeeping
//! (one root per run) and are left out of the closure fraction.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer whose spans are the benchmark's own roots.
pub const ROOT_LAYER: &str = "bench";

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// The run (or job) the span belongs to.
    pub run: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span's layer.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer of a span name (the part before the first dot).
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// A single-threaded span recorder.  A disabled tracer records nothing and
/// only runs the wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for run `run`.
    pub fn scope<T>(&self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(SpanRec {
                name,
                run,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// The spans recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }
}

/// The total length covered by a set of half-open intervals (overlaps
/// counted once).
#[must_use]
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in sorted {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let a = span.start_ns.max(parent.start_ns);
            let b = span.end_ns.min(parent.end_ns);
            children[p].push((a, b));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| span.duration().saturating_sub(union_len(kids)))
        .collect()
}

/// Σ self time per layer.
#[must_use]
pub fn layer_self_ns(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.layer()).or_insert(0) += self_ns;
    }
    out
}

/// Σ self time of every non-root layer ÷ the traced wall time.
#[must_use]
pub fn closure_frac(spans: &[SpanRec], wall_ns: u64) -> f64 {
    let covered: u64 = layer_self_ns(spans)
        .iter()
        .filter(|(layer, _)| **layer != ROOT_LAYER)
        .map(|(_, ns)| ns)
        .sum();
    covered as f64 / wall_ns.max(1) as f64
}

/// Σ duration of the spans named `name`.
#[must_use]
pub fn total_ns(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::duration)
        .sum()
}

/// How many spans are named `name`.
#[must_use]
pub fn count(spans: &[SpanRec], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// The spans as a chrome trace (`traceEvents` of complete events, times in
/// microseconds, one track per layer).
#[must_use]
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut tracks: Vec<&str> = spans.iter().map(SpanRec::layer).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid = |layer: &str| tracks.iter().position(|t| *t == layer).unwrap_or(0) + 1;
    let mut events: Vec<String> = tracks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{t}\"}}}}",
                i + 1
            )
        })
        .collect();
    // Nested spans of another layer stay on their parent's track so the
    // viewer shows the nesting.
    let mut track_of = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        track_of[i] = match span.parent {
            Some(p) if spans[p].layer() != ROOT_LAYER => track_of[p],
            _ => tid(span.layer()),
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"run\":{}}}}}",
            span.name,
            span.layer(),
            span.start_ns as f64 / 1e3,
            span.duration() as f64 / 1e3,
            track_of[i],
            span.run
        ));
    }
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            run: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (30, 30)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (2, 3)]), 15);
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("bench.run", 0, 100, None),
            rec("runner.run_scenario", 10, 60, Some(0)),
            rec("engine.window", 20, 30, Some(1)),
            // Overlapping children (e.g. from a worker) count once.
            rec("engine.window", 25, 40, Some(1)),
            rec("workloads.build", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 10, 15, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["runner"], 30);
        assert_eq!(layers["engine"], 25);
        assert_eq!(layers["workloads"], 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![rec("a.x", 0, 10, None), rec("b.y", 5, 20, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn closure_counts_every_layer_but_the_root() {
        let spans = vec![
            rec("bench.run", 0, 100, None),
            rec("runner.run_scenario", 0, 90, Some(0)),
        ];
        assert!((closure_frac(&spans, 100) - 0.9).abs() < 1e-12);
        assert!((closure_frac(&spans, 90) - 1.0).abs() < 1e-12);
        assert_eq!(total_ns(&spans, "runner.run_scenario"), 90);
        assert_eq!(count(&spans, "bench.run"), 1);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let v = tracer.scope("bench.run", 7, || tracer.scope("runner.call", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(chrome_json(&spans).contains("\"name\":\"runner.call\""));

        let off = Tracer::new(false);
        assert_eq!(off.scope("bench.run", 0, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
