//! Bench-side tracing: spans recorded around calls into each layer's
//! public functions, kept in memory, and folded into per-layer self
//! times at the end of a run.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children. Children that ran in parallel and overlap
//! are counted once (the union of their intervals), so self time never
//! goes negative and the self times of a tree of sequential spans add up
//! to the root's duration.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One completed span: seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure and adds no cost. A workload that runs a function's
/// public steps one by one to trace them must check that they give the
/// same result as the function itself.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
    next: Cell<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            next: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next.get();
        self.next.set(id + 1);
        let parent = self.stack.borrow().last().copied();
        self.stack.borrow_mut().push(id);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f();
        let end = self.epoch.elapsed().as_secs_f64();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.borrow().clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Self time of every span, in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| {
            let children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start, c.end))
                .collect();
            (s.end - s.start) - union_len(&children, s.start, s.end)
        })
        .collect()
}

/// Self time summed per span name, in first-seen order.
pub fn layer_table(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|(n, _)| *n == s.name) {
            Some(row) => row.1 += t,
            None => rows.push((s.name, t)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn sequential_children_leave_the_gaps_to_the_parent() {
        let spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 4.0),
            span(2, Some(0), "b", 4.0, 9.0),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 3.0).abs() < 1e-12);
        assert!((t[2] - 5.0).abs() < 1e-12);
        assert!((t.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_parallel_children_are_counted_once() {
        // Two workers overlap on [3, 5]: the parent is covered on [2, 8].
        let spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "worker", 2.0, 5.0),
            span(2, Some(0), "worker", 3.0, 8.0),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 4.0).abs() < 1e-12);
        assert_eq!(layer_table(&spans), vec![("root", t[0]), ("worker", 8.0)]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "mid", 1.0, 9.0),
            span(2, Some(1), "leaf", 2.0, 6.0),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 4.0).abs() < 1e-12);
        assert!((t[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span(0, None, "root", 0.0, 4.0),
            span(1, Some(0), "late", 3.0, 7.0),
        ];
        assert!((self_times(&spans)[0] - 3.0).abs() < 1e-12);
        assert_eq!(union_len(&[(5.0, 6.0)], 0.0, 4.0), 0.0);
        assert_eq!(union_len(&[], 0.0, 4.0), 0.0);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start >= outer.start && inner.end <= outer.end);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }
}
