//! The lock-sharded name → instrument registry.
//!
//! Get-or-create takes one shard lock (name-hashed, so unrelated
//! instruments never contend); the returned `Arc` handle records
//! lock-free thereafter. Callers on hot paths fetch their handles once
//! (e.g. at `Solver::new`) and never touch the registry again.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::Clock;
use crate::metric::{Counter, Gauge, Histogram, HistogramKind, SpanTotal};
use crate::snapshot::{Sample, Snapshot};
use crate::span::SpanGuard;

/// Enough shards that the pool's worker count never queues on
/// get-or-create; snapshots visit all of them in index order.
const SHARD_COUNT: usize = 16;

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
    shards: [Mutex<BTreeMap<String, Metric>>; SHARD_COUNT],
}

/// FNV-1a; any stable hash works, `DefaultHasher` is explicitly not
/// guaranteed stable across Rust releases.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARD_COUNT as u64) as usize
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut shard = self.shards[shard_of(name)].lock().expect("obs shard poisoned");
        if let Some(metric) = shard.get(name) {
            return metric.clone();
        }
        let metric = make();
        shard.insert(name.to_string(), metric.clone());
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

    /// Get or create the histogram `name`. The `kind` and `bounds` of
    /// the first registration win; later callers get the existing
    /// instrument (bounds are part of the instrument's identity, so
    /// disagreeing call sites would otherwise split the data).
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument type.
    pub fn histogram(&self, name: &str, kind: HistogramKind, bounds: &[f64]) -> Arc<Histogram> {
        match self.get_or_insert(name, || {
            Metric::Histogram(Arc::new(Histogram::new(kind, bounds)))
        }) {
            Metric::Histogram(h) => h,
            other => panic!(
                "obs metric {name:?} is a {}, not a histogram",
                other.type_name()
            ),
        }
    }

    /// Get or create the span total `name`; `deterministic` declares
    /// the clock feeding it (first registration wins).
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument type.
    pub fn span_total(&self, name: &str, deterministic: bool) -> Arc<SpanTotal> {
        match self.get_or_insert(name, || Metric::Span(Arc::new(SpanTotal::new(deterministic)))) {
            Metric::Span(s) => s,
            other => panic!("obs metric {name:?} is a {}, not a span", other.type_name()),
        }
    }

    /// Open a nested span named `name`, timed by `clock`. The returned
    /// RAII guard records into a span total whose name is the
    /// "/"-joined path of the enclosing open spans *on this thread*
    /// (e.g. `campaign/slice/exchange`); drop it to record. Guards must
    /// drop in LIFO order (the natural order for scoped guards).
    pub fn scope<'c>(&self, name: &str, clock: &'c dyn Clock) -> SpanGuard<'c> {
        let path = crate::span::push(name);
        let total = self.span_total(&path, clock.is_deterministic());
        SpanGuard::new(total, clock)
    }

    /// Snapshot every instrument into one sorted, renderable map.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("obs shard poisoned");
            for (name, metric) in shard.iter() {
                let sample = match metric {
                    Metric::Counter(c) => Sample::Counter(c.get()),
                    Metric::Gauge(g) => Sample::Gauge(g.get()),
                    Metric::Histogram(h) => Sample::Histogram {
                        kind: h.kind(),
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        min: h.min(),
                        max: h.max(),
                        sum: h.sum(),
                    },
                    Metric::Span(s) => Sample::Span {
                        deterministic: s.is_deterministic(),
                        count: s.count(),
                        total_s: s.total_s(),
                    },
                };
                entries.insert(name.clone(), sample);
            }
        }
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
    use crate::clock::ManualClock;

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
    fn histogram_first_registration_wins() {
        let r = Registry::new();
        let a = r.histogram("h", HistogramKind::Value, &[1.0, 2.0]);
        let b = r.histogram("h", HistogramKind::WallTime, &[9.0]);
        assert_eq!(b.bounds(), a.bounds());
        assert_eq!(b.kind(), HistogramKind::Value);
    }

    #[test]
    fn scoped_spans_nest_into_paths() {
        let r = Registry::new();
        let clock = ManualClock::new(0.0);
        {
            let _outer = r.scope("campaign", &clock);
            clock.advance_s(1.0);
            {
                let _inner = r.scope("slice", &clock);
                clock.advance_s(2.0);
            }
            clock.advance_s(0.5);
        }
        let inner = r.span_total("campaign/slice", true);
        assert_eq!(inner.count(), 1);
        assert_eq!(inner.total_s(), 2.0);
        let outer = r.span_total("campaign", true);
        assert_eq!(outer.count(), 1);
        assert_eq!(outer.total_s(), 3.5);
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
        r.span_total("sched.event.arrive", true).record_s(2.0);
        r.span_total("sched.event.arrive", true).record_s(3.0);
        let s = r.span_total("sched.event.arrive", true);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_s(), 5.0);
    }
}
