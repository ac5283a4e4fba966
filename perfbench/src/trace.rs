//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! never inside the layers themselves. A disabled tracer records nothing:
//! `begin` and `end` return at once, so untraced passes pay one branch
//! per layer call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.refine`; the per-layer time metric is this
    /// name with `_s` appended.
    pub name: &'static str,
    /// The design point, simulation or exploration this call served.
    pub item: u64,
    /// Index of the enclosing span in the pass, if any.
    pub parent: Option<usize>,
    /// Start and end, in seconds since the pass began.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records the spans of one pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, item: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            item,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, item);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: total time and self time (the span's duration minus
/// the time its direct children cover), in seconds.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_secs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += s.secs() - children;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn self_time_excludes_direct_children() {
        let spans = vec![
            Span {
                name: "pass",
                item: 0,
                parent: None,
                start: 0.0,
                end: 10.0,
            },
            Span {
                name: "leaf",
                item: 0,
                parent: Some(0),
                start: 1.0,
                end: 4.0,
            },
            Span {
                name: "leaf",
                item: 1,
                parent: Some(0),
                start: 5.0,
                end: 6.0,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t["pass"], (10.0, 6.0));
        assert_eq!(t["leaf"], (4.0, 4.0));
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 3);
        t.span("inner", 4, || ());
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].item, spans[1].item), (3, 4));
        assert!(spans[0].end >= spans[1].end);
    }
}
