//! In-memory spans around every call the harness makes into a layer.
//!
//! A span is (name, start, end, parent, run id, items). They are kept in
//! a `Vec` while the workload runs and written out once at exit. A
//! disabled tracer records nothing — the end-to-end run uses one — so
//! the same workload code serves both runs and the difference between
//! them is the tracing overhead.

use std::cell::RefCell;
use std::time::Instant;

use crate::stats::median;

/// Spans the harness opens around its own structure (the measured
/// window, a unit of work). Their self time is harness glue no layer
/// span covers: the ledger's "unaccounted" share.
const STRUCTURAL: [&str; 2] = ["perf.window", "perf.unit"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass / configuration / repetition this span belongs to.
    pub run: u32,
    /// Work items the span covered (loop iterations, cells, events).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans opened from now on with `run`.
    pub fn set_run(&self, run: u32) {
        self.inner.borrow_mut().run = run;
    }

    /// Run `f` inside a span covering one item.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_n(name, 1, f)
    }

    /// Run `f` inside a span covering `items` items.
    pub fn time_n<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let (parent, run) = (inner.open.last().copied(), inner.run);
            inner.open.push(index);
            inner.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                run,
                items,
            });
            index
        };
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.spans[index].end_ns = end_ns;
        inner.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Seconds per item of every span called `name`, in call order.
    pub fn per_item_s(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9 / s.items.max(1) as f64)
            .collect()
    }

    /// Median seconds per item over the spans called `name` (0 if none).
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.per_item_s(name))
    }

    /// Items summed over the spans called `name`.
    pub fn items(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.items)
            .sum()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Where the measured windows' wall time went.
pub struct Ledger {
    /// (stage name, share of the windows' wall time in percent), by
    /// descending share. Stages are the non-structural spans, by self time.
    pub stages: Vec<(&'static str, f64)>,
    /// Share of the windows no layer span covers, in percent.
    pub unaccounted_pct: f64,
}

/// Attribute the wall time of the `perf.window` spans to stages by self
/// time. Spans outside a window (probes) are left out.
pub fn ledger(spans: &[Span]) -> Ledger {
    let selfs = self_times_ns(spans);
    let in_window: Vec<bool> = {
        let mut inside = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so one forward pass suffices.
            inside[i] = s.name == "perf.window" || s.parent.is_some_and(|p| inside[p]);
        }
        inside
    };
    let window_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "perf.window")
        .map(Span::duration_ns)
        .sum();
    let mut by_stage: Vec<(&'static str, u64)> = Vec::new();
    let mut structural_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if !in_window[i] {
            continue;
        }
        if STRUCTURAL.contains(&s.name) {
            structural_ns += selfs[i];
        } else if let Some(slot) = by_stage.iter_mut().find(|(n, _)| *n == s.name) {
            slot.1 += selfs[i];
        } else {
            by_stage.push((s.name, selfs[i]));
        }
    }
    let pct = |ns: u64| 100.0 * ns as f64 / window_ns.max(1) as f64;
    let mut stages: Vec<(&'static str, f64)> =
        by_stage.into_iter().map(|(n, ns)| (n, pct(ns))).collect();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    Ledger {
        stages,
        unaccounted_pct: pct(structural_ns),
    }
}

/// The spans as a JSON array, one object per span.
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut s = String::with_capacity(96 * spans.len() + 4);
    s.push_str("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        s.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}, \"items\": {}}}{comma}\n",
            sp.name, sp.start_ns, sp.end_ns, sp.run, sp.items
        ));
    }
    s.push_str("]\n");
    s
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
            run: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("perf.window", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps `a` on 30..40
            span("c", 35, 38, Some(1)),  // grandchild: not the window's
            span("d", 90, 120, Some(0)), // clipped to the parent's end
        ];
        let selfs = self_times_ns(&spans);
        // Children cover 10..60 and 90..100 of the window.
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 3);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 3);
    }

    #[test]
    fn ledger_ranks_stages_and_reports_uncovered_window_time() {
        let spans = vec![
            span("perf.window", 0, 1000, None),
            span("perf.unit", 0, 1000, Some(0)),
            span("decomp.rcb", 0, 600, Some(1)),
            span("core.guard", 600, 700, Some(1)),
            span("decomp.rcb", 700, 950, Some(1)),
            span("probe.outside", 2000, 9000, None),
        ];
        let l = ledger(&spans);
        assert_eq!(l.stages[0], ("decomp.rcb", 85.0));
        assert_eq!(l.stages[1], ("core.guard", 10.0));
        assert_eq!(l.stages.len(), 2, "spans outside a window are left out");
        assert_eq!(l.unaccounted_pct, 5.0);
    }

    #[test]
    fn tracer_nests_tags_and_counts_items() {
        let t = Tracer::new(true);
        t.set_run(7);
        let v = t.time("outer", || t.time_n("inner", 4, || 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].run),
            ("outer", None, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].items),
            ("inner", Some(0), 4)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.items("inner"), 4);
        assert_eq!(t.per_item_s("inner").len(), 1);

        let off = Tracer::new(false);
        assert_eq!(off.time("outer", || 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn spans_render_as_a_json_array_of_flat_objects() {
        let json = spans_to_json(&[span("a", 1, 2, None), span("b", 1, 2, Some(0))]);
        assert!(json.starts_with("[\n{\"id\": 0, \"name\": \"a\""));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches('{').count(), 2);
    }
}
