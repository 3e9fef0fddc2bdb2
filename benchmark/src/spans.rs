//! In-memory span list for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span names its layer, the operation (tick or pass) it
//! belongs to and the span that caused it. Calls too frequent to time
//! one by one (the scheduler's `place`, millions per replay) are folded
//! into one aggregate span per operation carrying a call count and an
//! estimated busy time.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (tick or pass index) the span belongs to.
    pub op: u32,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
    /// Time inside the layer: `end - start` for an ordinary span; for an
    /// aggregate, whose interval is empty, the summed call time.
    pub busy: f64,
}

/// The span recorder: a flat list plus the stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// The tracer's time base: seconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.clock().now()
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) -> SpanId {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            start,
            end: start,
            parent: self.open.last().copied(),
            calls: 1,
            busy: 0.0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = end;
        span.busy = end - span.start;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// A handle on the tracer's clock, for code that times calls on its
    /// own and hands the finished spans to [`Tracer::push`].
    pub fn clock(&self) -> Clock {
        Clock(self.epoch)
    }

    /// Appends an already-finished span: one timed elsewhere against
    /// [`Tracer::clock`], or an aggregate of many calls.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed busy time of every span called `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy)
            .sum()
    }

    /// Summed call count of every span called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Summed self time of every span called `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self_time(&self.spans, id))
            .sum()
    }

    /// Writes the span list as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"calls\":{},\"busy\":{}}}",
                s.name, s.op, s.start, s.end, s.calls, s.busy
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of it its direct children cover:
/// the union of the children's intervals (so overlapping children are not
/// subtracted twice) plus the busy time of the aggregates, which are
/// recorded with an empty interval.
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let me = &spans[id];
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    let mut aggregated = 0.0;
    for child in spans.iter().filter(|s| s.parent == Some(id)) {
        intervals.push((child.start.max(me.start), child.end.min(me.end)));
        aggregated += child.busy - (child.end - child.start);
    }
    intervals.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (me.end - me.start - covered - aggregated).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            op: 0,
            start,
            end,
            parent,
            calls: 1,
            busy: end - start,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_once() {
        let spans = vec![
            span("tick", 0.0, 10.0, None),
            span("forecast", 1.0, 3.0, Some(0)),
            span("cbs", 3.0, 8.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_merges_overlap() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("decide", 2.0, 6.0, Some(0)),
            span("lp", 3.0, 5.0, Some(1)),
            // Overlaps `decide` by one second: the union covers 2..8.
            span("place", 5.0, 8.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_subtract_their_busy_time() {
        let mut spans = vec![
            span("run", 0.0, 10.0, None),
            span("decide", 0.0, 2.0, Some(0)),
        ];
        spans.push(Span {
            name: "place",
            op: 0,
            start: 10.0,
            end: 10.0,
            parent: Some(0),
            calls: 1000,
            busy: 3.0,
        });
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::default();
        let tick = t.enter("tick", 7);
        t.span("cbs", 7, || std::hint::black_box(1 + 1));
        t.span("cbs", 7, || std::hint::black_box(2 + 2));
        t.exit(tick);
        let end = t.spans()[tick].end;
        t.push(Span {
            name: "place",
            op: 7,
            start: end,
            end,
            parent: Some(tick),
            calls: 50,
            busy: 0.0,
        });
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(tick));
        assert_eq!(t.spans()[3].parent, Some(tick));
        assert_eq!(t.calls("cbs"), 2);
        assert_eq!(t.calls("place"), 50);
        assert!(t.busy("tick") >= t.busy("cbs"));
        assert!(t.self_time("tick") <= t.busy("tick"));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }
}
