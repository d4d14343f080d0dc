//! Spans recorded from outside the program, around calls into each layer.
//!
//! Every timed call of the benchmark goes through [`Tracer::begin`] /
//! [`Tracer::end`], traced or not, so both kinds of run execute the same
//! timed code; a traced run additionally keeps `{name, start, end,
//! parent, op}` in memory and writes them out when the run ends. Spans
//! inside the program are a later change.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `engine.serve`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The workload operation this span belongs to; spans of one
    /// operation share it.
    pub op: u64,
}

/// An open span: hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<u32>,
    start: Instant,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// Span recorder; records nothing (but still times) when off.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Does this tracer record?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` for operation `op`, child of the innermost
    /// open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let index = self.enabled.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op,
            });
            self.stack.push(index);
            index
        });
        // The clock is read last on the way in and first on the way out, so
        // the bookkeeping above stays outside the measured interval.
        let start = Instant::now();
        Open { index, start }
    }

    /// Close `open` (spans close innermost-first) and return its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(index), "spans close innermost-first");
            let span = &mut self.spans[index as usize];
            span.start_ns = (open.start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        end - open.start
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// The trace file's content: one object with a `spans` array.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::object([
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("op", Value::from(s.op)),
                ])
            })
            .collect();
        Value::object([("spans", Value::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let a = t.begin("inner", 7);
        t.end(a);
        let b = t.begin("inner", 7);
        t.end(b);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x", 0);
        let _ = t.end(open);
        assert!(t.spans().is_empty());
    }
}
