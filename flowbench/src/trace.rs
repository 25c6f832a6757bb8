//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer (and from the flow's public `FlowObserver` hook); they stay in
//! memory until [`Tracer::write`] dumps them once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asicgap::{FlowObserver, FlowStage};

/// One timed interval. Spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Per-name totals over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: usize,
    pub total_ms: f64,
    /// Duration minus the part of it covered by child spans.
    pub self_ms: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Time since the tracer was created.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Offset of `at` from the tracer's origin.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Records a finished span; returns its id for use as a parent.
    pub fn record(
        &self,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
        start: Duration,
        end: Duration,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so
    /// children recorded in between can name it as their parent.
    pub fn open(&self, parent: Option<usize>, request: u64, name: &'static str) -> usize {
        let now = self.now();
        self.record(parent, request, name, now, now)
    }

    pub fn close(&self, id: usize) {
        let now = self.now();
        self.spans.lock().expect("span list lock")[id].end = now;
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.lock().expect("span list lock");
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end - s.start;
            let covered = covered(&mut children[s.id], s.start, s.end);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += dur.as_secs_f64() * 1e3;
            t.self_ms += (dur - covered).as_secs_f64() * 1e3;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let mut text = String::from("id\tparent\trequest\tname\tstart_us\tend_us\n");
        for s in spans.iter() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id,
                s.request,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )
            .expect("write to String");
        }
        std::fs::write(path, text)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Records each completed flow stage as a child span of `parent`,
/// through the flow's public observer hook.
pub struct StageSpans<'a> {
    pub tracer: &'a Tracer,
    pub parent: usize,
    pub request: u64,
}

impl FlowObserver for StageSpans<'_> {
    fn stage_done(&self, stage: FlowStage, elapsed: Duration) {
        let end = self.tracer.now();
        self.tracer.record(
            Some(self.parent),
            self.request,
            stage.label(),
            end.saturating_sub(elapsed),
            end,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let ms = Duration::from_millis;
        let root = t.record(None, 1, "root", ms(0), ms(10));
        t.record(Some(root), 1, "a", ms(1), ms(4));
        t.record(Some(root), 1, "b", ms(3), ms(6));
        let totals = t.totals();
        assert!((totals["root"].self_ms - 5.0).abs() < 1e-9);
        assert!((totals["a"].self_ms - 3.0).abs() < 1e-9);
    }
}
