//! The traced run's span recorder.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions; nothing inside the program is instrumented. A span's
//! name is `<layer>.<call>`, its layer the crate it enters (`node`,
//! `swarm`, `overlay`, `bench`, `bloom`, `sketch`, `obs`) or `op` for
//! the benchmark's own operation span. Spans stay in memory and are
//! written as JSONL when the run ends. When the recorder is off every
//! method is a no-op, so the untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the recorder's creation.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation — distribution, swarm or grid cell — the span
    /// belongs to.
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// The crate (or `op`) the span's call enters.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle for a span opened by [`Spans::enter`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Spans {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_op: 0,
        }
    }

    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Allocates a fresh operation id; later spans carry it until the
    /// next call.
    pub fn begin_op(&mut self) -> u64 {
        self.op = self.new_op();
        self.op
    }

    /// Allocates an operation id without making it current (grid cells
    /// that run on worker threads and are recorded afterwards).
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            assert_eq!(self.open.pop(), Some(idx), "spans close in LIFO order");
            self.spans[idx].end = self.epoch.elapsed();
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a span measured elsewhere (on a grid worker thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Milliseconds of every span named `name`, in recording order.
    #[must_use]
    pub fn calls_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed milliseconds of every span named `name`.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.calls_ms(name).iter().sum()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part of it its children cover (children of a grid sweep run
    /// in parallel, so their union is taken, not their sum).
    #[must_use]
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort();
            let mut union = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let own = (s.end - s.start).saturating_sub(union);
            *out.entry(s.layer()).or_default() += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// One JSON object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ms: u64,
        end_ms: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span {
            name,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Spans::new(true);
        rec.spans = vec![
            span("op.sweep", 0, 100, None, 1),
            // Two overlapping parallel children cover 10..70 = 60 ms.
            span("overlay.transfer", 10, 50, Some(0), 2),
            span("overlay.transfer", 30, 70, Some(0), 3),
            // A grandchild covering half of its parent.
            span("bloom.build", 10, 30, Some(1), 2),
        ];
        let by_layer = rec.self_ms_by_layer();
        assert!((by_layer["op"] - 40.0).abs() < 1e-9);
        assert!((by_layer["overlay"] - (20.0 + 40.0)).abs() < 1e-9);
        assert!((by_layer["bloom"] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_sets_parents_and_ops() {
        let mut rec = Spans::new(true);
        let op = rec.begin_op();
        let outer = rec.enter("op.distribution");
        rec.time("node.start", || ());
        rec.time("node.start", || ());
        rec.exit(outer);
        rec.begin_op();
        rec.time("node.start", || ());
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, op);
        assert_eq!(rec.spans[3].parent, None);
        assert_eq!(rec.calls_ms("node.start").len(), 3);
        assert_eq!(rec.spans[3].op, op + 1);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"parent\": 0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = Spans::new(false);
        rec.begin_op();
        let open = rec.enter("op.distribution");
        rec.time("node.start", || ());
        rec.record("overlay.transfer", Instant::now(), Instant::now(), 1);
        rec.exit(open);
        assert!(rec.spans.is_empty());
        assert!(rec.to_jsonl().is_empty());
    }
}
