//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`layer.function`), start, end, the span that
//! caused it and a request id shared by the spans of one request. Spans are
//! kept in memory while the workload runs and written out once at the end as
//! Chrome trace-event JSON, which Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing` load directly. A disabled [`Tracer`] records nothing,
//! so the untraced runs that produce the end-to-end numbers pay one branch
//! per span.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.function`, e.g. `sim.step_rounds`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (or unit of work).
    pub request: u64,
    /// Small integer naming the recording thread.
    pub thread: u64,
}

/// Handle to an open span, passed to the spans it causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Records spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_number() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records spans if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, caused by `parent`, belonging
    /// to `request`. `f` receives the new span's id for its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.map(|p| p.0),
                request,
                thread: thread_number(),
            });
            spans.len() - 1
        };
        let out = f(Some(SpanId(id)));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        out
    }

    /// Every span recorded so far, in start order of their opening.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children on several
/// threads are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name, sorted by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.end_ns - span.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// The spans as a Chrome trace-event document (complete `X` events,
/// microsecond timestamps), loadable by Perfetto.
pub fn chrome_trace(spans: &[Span], process: &str) -> Value {
    let us = |ns: u64| Value::Float(ns as f64 / 1_000.0);
    let mut events = vec![Value::Map(vec![
        ("name".to_owned(), Value::Str("process_name".to_owned())),
        ("ph".to_owned(), Value::Str("M".to_owned())),
        ("pid".to_owned(), Value::UInt(1)),
        (
            "args".to_owned(),
            Value::Map(vec![("name".to_owned(), Value::Str(process.to_owned()))]),
        ),
    ])];
    for span in spans {
        let layer = span.name.split('.').next().unwrap_or(span.name);
        let mut args = vec![("request".to_owned(), Value::UInt(span.request))];
        if let Some(p) = span.parent {
            args.push(("parent".to_owned(), Value::Str(spans[p].name.to_owned())));
        }
        events.push(Value::Map(vec![
            ("name".to_owned(), Value::Str(span.name.to_owned())),
            ("cat".to_owned(), Value::Str(layer.to_owned())),
            ("ph".to_owned(), Value::Str("X".to_owned())),
            ("ts".to_owned(), us(span.start_ns)),
            ("dur".to_owned(), us(span.end_ns - span.start_ns)),
            ("pid".to_owned(), Value::UInt(1)),
            ("tid".to_owned(), Value::UInt(span.thread)),
            ("args".to_owned(), Value::Map(args)),
        ]));
    }
    Value::Map(vec![
        ("traceEvents".to_owned(), Value::Seq(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children on different threads overlap in 20..30.
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            // A grandchild only reduces its own parent.
            span("c", 12, 18, Some(1)),
            // A child running past its parent's end is clipped.
            span("d", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 6, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["a"].total_ns, 20);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("x.y", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent_and_export_as_chrome_events() {
        let tracer = Tracer::new(true);
        tracer.span("sim.run", None, 3, |root| {
            tracer.span("sim.step", root, 3, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = chrome_trace(&spans, "test");
        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            other => panic!("no events: {other:?}"),
        };
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[2].get("cat").and_then(Value::as_str), Some("sim"));
    }
}
