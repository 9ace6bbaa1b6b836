//! In-memory spans around the benchmark's calls into each layer. Spans are
//! recorded from the harness, outside the program; spans inside
//! `explore.rs` are a later change. Nothing is written until the run ends.

use std::time::Instant;

/// One finished call: which layer function, when, under which span, and
/// for which operation (a pair analysis or a concrete vector).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only runs the closure,
/// so the untraced run takes no timestamps.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`, a child of the innermost open
    /// span. The span closes even if `f` panics, so a caught panic in one
    /// operation does not corrupt the parent chain of the next.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        struct Close<'a>(&'a mut Tracer, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let now = self.0.epoch.elapsed().as_nanos() as u64;
                self.0.spans[self.1].end_ns = now;
                // guards drop innermost first, also while unwinding
                self.0.stack.pop();
            }
        }
        let index = self.spans.len();
        let span = Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
        self.stack.push(index);
        let close = Close(self, index);
        f(close.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover. Children of one parent never overlap here (one harness thread),
/// so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per span name: `(calls, total ns, self ns)`, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let total = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own;
            }
            None => rows.push((s.name, 1, total, own)),
        }
    }
    rows
}

/// The trace file: every span, then the per-name totals with self time.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("\n],\"by_name\":[");
    for (i, (name, calls, total, own)) in by_name(spans).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{name}\",\"calls\":{calls},\"total_ns\":{total},\"self_ns\":{own}}}"
        ));
    }
    out.push_str("\n]}\n");
    out
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
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("check", 60, 70, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 10, 10]);
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("pass", 1, 100, 40));
        assert_eq!(rows[1], ("run", 1, 50, 40));
        // self times of a tree add up to the root's duration
        assert_eq!(rows.iter().map(|r| r.3).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_survives_a_panic() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.span("boom", |_| panic!("expected in this test"))
            }));
            assert!(caught.is_err());
            t.span("after", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("boom", Some(0), 7),
                ("after", Some(0), 7)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
