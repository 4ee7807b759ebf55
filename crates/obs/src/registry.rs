//! The name → instrument registry.
//!
//! One lock guards the map and only get-or-create takes it; the
//! returned `Arc` handle records lock-free thereafter. Callers on hot
//! paths fetch their handles once (e.g. at `Solver::new`) and never
//! touch the registry again, so the lock is never contended in a loop.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::metric::{Counter, Gauge, Histogram, SpanTotal};
use crate::snapshot::{Sample, Snapshot};

/// One registered instrument.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Span(Arc<SpanTotal>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Span(_) => "span",
        }
    }
}

/// A named collection of instruments.
///
/// The workspace keeps one process-wide registry ([`global`]) for the
/// runtime and solver layers, and the scheduler owns a private one per
/// campaign (its metrics live on the virtual clock and must not mix
/// with wall-clock process metrics). Tests use private registries to
/// stay isolated under `cargo test`'s thread-level parallelism.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map. A panic while the lock was held (an instrument
    /// constructor rejecting its arguments) happened before the map was
    /// written, so a poisoned map is still consistent and is recovered.
    fn metrics(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics();
        if let Some(metric) = metrics.get(name) {
            return metric.clone();
        }
        let metric = make();
        metrics.insert(name.to_string(), metric.clone());
        metric
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("obs metric {name:?} is a {}, not a counter", other.type_name()),
        }
    }

    /// Get or create an indexed family of counters named
    /// `{prefix}.{0}` … `{prefix}.{count-1}` — one handle per member,
    /// fetched in one pass so hot loops can index instead of formatting
    /// names per event (the sharded scheduler keeps one per event lane).
    ///
    /// # Panics
    /// If any member name is already registered as a different
    /// instrument type.
    pub fn counter_family(&self, prefix: &str, count: usize) -> Vec<Arc<Counter>> {
        (0..count)
            .map(|i| self.counter(&format!("{prefix}.{i}")))
            .collect()
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("obs metric {name:?} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Get or create the wall-clock histogram `name` bucketed by
    /// `bounds`. Call sites that name the same histogram share one
    /// instrument, so they must agree on its bounds.
    ///
    /// # Panics
    /// On bounds [`Histogram::new`] rejects, if `name` is already
    /// registered as a different instrument type, or if it is a histogram
    /// with other bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new(bounds)))) {
            Metric::Histogram(h) if h.bounds() == bounds => h,
            Metric::Histogram(h) => panic!(
                "obs histogram {name:?} is bucketed by {:?}, not {bounds:?}",
                h.bounds()
            ),
            other => panic!(
                "obs metric {name:?} is a {}, not a histogram",
                other.type_name()
            ),
        }
    }

    /// Get or create the span total `name`, fed virtual-clock durations.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument type.
    pub fn span_total(&self, name: &str) -> Arc<SpanTotal> {
        match self.get_or_insert(name, || Metric::Span(Arc::new(SpanTotal::new()))) {
            Metric::Span(s) => s,
            other => panic!("obs metric {name:?} is a {}, not a span", other.type_name()),
        }
    }

    /// Snapshot every instrument into one sorted, renderable map.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self
            .metrics()
            .iter()
            .map(|(name, metric)| {
                let sample = match metric {
                    Metric::Counter(c) => Sample::Counter(c.get()),
                    Metric::Gauge(g) => Sample::Gauge(g.get()),
                    Metric::Histogram(h) => Sample::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        min: h.min(),
                        max: h.max(),
                        sum: h.sum(),
                    },
                    Metric::Span(s) => Sample::Span {
                        count: s.count(),
                        total_s: s.total_s(),
                    },
                };
                (name.clone(), sample)
            })
            .collect();
        Snapshot::from_entries(entries)
    }
}

/// The process-wide registry the runtime and solver layers record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_with_the_same_bounds_shares_one_instrument() {
        let r = Registry::new();
        r.histogram("h", &[1.0, 2.0]).record(1.5);
        let again = r.histogram("h", &[1.0, 2.0]);
        assert_eq!(again.count(), 1);
        assert_eq!(again.bucket_counts(), vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "obs histogram \"h\" is bucketed by [1.0, 2.0], not [9.0]")]
    fn histogram_bounds_conflicts_panic() {
        let r = Registry::new();
        r.histogram("h", &[1.0, 2.0]);
        r.histogram("h", &[9.0]);
    }

    #[test]
    fn failed_registration_does_not_poison_the_registry() {
        let r = Registry::new();
        let bad = std::panic::catch_unwind(|| r.histogram("h", &[2.0, 1.0]));
        assert!(bad.is_err(), "unsorted bounds must be rejected");
        r.histogram("h", &[1.0]).record(0.5);
        r.counter("c").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(1));
        assert!(matches!(snap.get("h"), Some(Sample::Histogram { count: 1, .. })));
    }

    #[test]
    fn counter_family_is_indexed_and_shared() {
        let r = Registry::new();
        let fam = r.counter_family("sched.lane.pops", 3);
        assert_eq!(fam.len(), 3);
        fam[1].add(7);
        assert_eq!(r.counter("sched.lane.pops.1").get(), 7);
        assert_eq!(r.counter("sched.lane.pops.0").get(), 0);
    }

    #[test]
    fn span_total_handles_accumulate_under_one_name() {
        let r = Registry::new();
        r.span_total("sched.event.arrive").record_s(2.0);
        r.span_total("sched.event.arrive").record_s(3.0);
        let s = r.span_total("sched.event.arrive");
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_s(), 5.0);
    }
}
