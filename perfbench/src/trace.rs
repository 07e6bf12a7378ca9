//! In-memory spans recorded by the benchmark around its calls into the
//! library.
//!
//! A span has a name (`<module>.<call>`), start and end offsets from the
//! tracer's origin, its parent span and the operation it belongs to. Spans
//! stay in memory until the run ends; [`Tracer::to_jsonl`] writes them out.
//! A disabled tracer runs the wrapped closures and records nothing, so
//! timed runs pay no tracing cost.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<module>.<call>`, e.g. `epc-journal.write`.
    pub name: &'static str,
    /// Operation id: every span of one operation shares it.
    pub op: u64,
    /// Kind of the operation this span belongs to (`run`, `arrival`,
    /// `request`, `setup`, `replay`).
    pub op_kind: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds from the tracer's origin.
    pub start: f64,
    /// Seconds from the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
    op: Cell<(u64, &'static str)>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
            op: Cell::new((0, "none")),
        }
    }

    /// Runs `f` as a new operation of `kind`, rooted in a span `name`.
    pub fn op<T>(&self, kind: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_op.get() + 1;
        self.next_op.set(id);
        let outer = self.op.replace((id, kind));
        let out = self.span(name, f);
        self.op.set(outer);
        out
    }

    /// Runs `f` inside a span `name`, a child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (op, op_kind) = self.op.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op,
                op_kind,
                parent: self.stack.borrow().last().copied(),
                start: self.origin.elapsed().as_secs_f64(),
                end: 0.0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// One JSON object per line: name, op, op_kind, parent, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"op_kind\":\"{}\",\"parent\":{parent},\"start\":{:.9},\"end\":{:.9}}}\n",
                s.name, s.op, s.op_kind, s.start, s.end
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Per span name: (self seconds, total seconds, count).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.duration();
        e.2 += 1;
    }
    out
}

/// Summed duration of the root spans of the operations of `kind`.
pub fn root_total(spans: &[Span], kind: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.op_kind == kind)
        .map(Span::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_roots() {
        let t = Tracer::new(true);
        t.op("run", "root", || {
            t.span("a", || {
                t.span("b", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("c", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        let own = self_times(&spans);
        let sum: f64 = own.iter().sum();
        assert!((sum - root_total(&spans, "run")).abs() < 1e-9);
        assert!(own[2] >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.op("run", "root", || t.span("a", || 7)), 7);
        assert!(t.spans().is_empty());
    }
}
