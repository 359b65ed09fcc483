//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: kept in memory while the replay runs, written out as
//! `trace.json` at exit, and folded into per-layer self times.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `calls` is how many layer calls the interval
/// covers: 1 for a call that takes microseconds, a batch of 1 024 where
/// one call is faster than the clock can usefully bracket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Spans of one request (or one batch of requests) share this.
    pub request: u32,
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the replays are generic over: [`Recorder`] keeps spans,
/// [`Off`] compiles to nothing — the same replay with recording off is
/// the baseline of `trace.overhead_ratio`.
pub trait Tracer {
    /// Nanoseconds on the tracer's clock.
    fn now(&self) -> u64;
    /// Records one finished interval and returns its index.
    fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u32,
        calls: u32,
    ) -> u32;
    /// Reserves the index of a span whose end is not known yet (a root
    /// recorded after its children); finish it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, request: u32, calls: u32) -> u32 {
        let now = self.now();
        self.span(name, now, now, None, request, calls)
    }
    fn close(&mut self, span: u32);
}

/// Recording off.
#[derive(Debug, Default)]
pub struct Off;

impl Tracer for Off {
    fn now(&self) -> u64 {
        0
    }
    fn span(&mut self, _: &'static str, _: u64, _: u64, _: Option<u32>, _: u32, _: u32) -> u32 {
        0
    }
    fn close(&mut self, _: u32) {}
}

/// Recording on: a pre-allocated in-memory buffer, no I/O until the end.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// An empty recorder on the same clock, for another thread or another
    /// replay; [`Recorder::absorb`] appends its spans to this one's.
    pub fn fork(&self, spans: usize) -> Recorder {
        Recorder {
            origin: self.origin,
            spans: Vec::with_capacity(spans),
        }
    }

    /// Appends a fork's spans, re-basing their parent indices.
    pub fn absorb(&mut self, fork: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(fork.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
}

impl Tracer for Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u32,
        calls: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            calls,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }
}

/// Times `f` as one span under `parent`.
pub fn timed<T: Tracer, R>(
    tracer: &mut T,
    name: &'static str,
    parent: Option<u32>,
    request: u32,
    calls: u32,
    f: impl FnOnce() -> R,
) -> R {
    let start = tracer.now();
    let result = f();
    let end = tracer.now();
    tracer.span(name, start, end, parent, request, calls);
    result
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other or stick
/// out of the parent; only covered time inside the parent counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// One layer's totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean self time per call, in µs.
    pub fn self_us_per_call(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// Folds a trace into per-name totals.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let layer = layers.entry(span.name).or_default();
        layer.spans += 1;
        layer.calls += u64::from(span.calls);
        layer.total_ns += span.duration_ns();
        layer.self_ns += self_ns;
    }
    layers
}

/// The median over spans named `name` of duration ÷ calls, in µs (0 when
/// the trace has no such span).
pub fn median_us_per_call(spans: &[Span], name: &str) -> f64 {
    let mut per_call: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3 / f64::from(s.calls.max(1)))
        .collect();
    if per_call.is_empty() {
        return 0.0;
    }
    per_call.sort_unstable_by(f64::total_cmp);
    crate::stats::median(&per_call)
}

/// A path table: what one request costs layer by layer, ending in an
/// explicit residual row so the rows sum to the end-to-end figure.
pub fn path_table(
    title: &str,
    unit: &str,
    rows: &[(&str, f64)],
    residual: (&str, f64),
    total: (&str, f64),
) -> String {
    let share = |v: f64| {
        if total.1 > 0.0 {
            format!("{:5.1}%", 100.0 * v / total.1)
        } else {
            "     -".into()
        }
    };
    let mut out = format!("## {title}\n");
    for (name, value) in rows.iter().chain(std::iter::once(&residual)) {
        out.push_str(&format!(
            "  {name:<28} {value:>14.3} {unit}  {}\n",
            share(*value)
        ));
    }
    out.push_str(&format!(
        "  {:<28} {:>14.3} {unit}  (end to end)\n",
        total.0, total.1
    ));
    out
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, spans: &[Span]) -> Result<(), String> {
    let items = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("request", Json::Num(f64::from(s.request))),
                ("calls", Json::Num(f64::from(s.calls))),
            ])
        })
        .collect();
    let doc = Json::obj([("spans", Json::Arr(items))]);
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: if parent.is_some() { "child" } else { "root" },
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // sticks out of the parent
            span(12, 18, Some(1)),  // a grandchild counts against its own parent only
        ];
        // Root: 100 − ([10,50) ∪ [90,100)) = 100 − 50.
        assert_eq!(self_times(&spans), [50, 14, 30, 30, 6]);

        let layers = by_layer(&spans);
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["child"].calls, 4);
        assert_eq!(layers["child"].total_ns, 20 + 30 + 30 + 6);
    }

    #[test]
    fn batched_spans_report_per_call_medians() {
        let mut spans = vec![span(0, 2_048_000, None), span(0, 1_024_000, None)];
        spans[0].calls = 1_024;
        spans[1].calls = 1_024;
        assert_eq!(median_us_per_call(&spans, "root"), 1.5);
        assert_eq!(median_us_per_call(&spans, "absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.open("root", 7, 1);
        let got = timed(&mut rec, "child", Some(root), 7, 1, || 42);
        rec.close(root);
        assert_eq!(got, 42);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut fork = rec.fork(2);
        let root = fork.open("root", 8, 1);
        timed(&mut fork, "child", Some(root), 8, 1, || ());
        fork.close(root);
        rec.absorb(fork);
        assert_eq!(rec.spans.len(), 4);
        assert_eq!(rec.spans[3].parent, Some(2), "parents are re-based");

        let mut off = Off;
        let root = off.open("root", 0, 1);
        assert_eq!(timed(&mut off, "child", Some(root), 0, 1, || 1), 1);
        off.close(root);
    }

    #[test]
    fn path_tables_end_in_a_residual_row() {
        let table = path_table(
            "read path",
            "us",
            &[("a", 1.0)],
            ("rest", 3.0),
            ("all", 4.0),
        );
        assert!(table.contains("rest"));
        assert!(table.contains("75.0%"));
        assert!(table.contains("(end to end)"));
    }
}
