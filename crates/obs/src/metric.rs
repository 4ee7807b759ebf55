//! Lock-free instruments: counters, gauges, fixed-bucket histograms,
//! and span totals.
//!
//! All instruments record through atomics so `rt::pool` workers can hit
//! them from the hot path without locks. None reads a clock: callers
//! measure durations themselves and record seconds. Each instrument is
//! careful about *which* of its statistics are reproducible — that set
//! is what deterministic snapshots export (see [`crate::snapshot`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically `bits += v` treating the cell as `f64` bits.
///
/// f64 addition commutes but does not associate, so a concurrently
/// accumulated sum depends on interleaving — callers must treat these
/// sums as nondeterministic unless all writers are serial.
fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Atomically fold `v` into the cell with `pick` (min or max). The
/// result depends only on the multiset of recorded values, never on
/// order, so it *is* deterministic.
fn atomic_f64_fold(bits: &AtomicU64, v: f64, pick: fn(f64, f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let folded = pick(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match bits.compare_exchange_weak(cur, folded.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing `u64` counter. Adds commute, so the total
/// is deterministic for a fixed set of recorded increments regardless
/// of thread interleaving.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge.
///
/// Concurrent `set`s race (whichever lands last wins), so the
/// determinism contract is on the *caller*: only set gauges from
/// serial, deterministic code — in this workspace that is the
/// scheduler's event loop and end-of-run summaries.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of wall-clock samples.
///
/// Bucket `i` counts samples `v <= bounds[i]` (first matching bound);
/// one implicit overflow bucket catches the rest. Bounds are fixed at
/// construction so two runs always agree on the bucketing. Non-finite
/// samples are counted into the overflow bucket and excluded from
/// `min`/`max`/`sum`, so one NaN cannot poison the statistics. Only the
/// sample count is reproducible across runs, so only it exports in
/// deterministic snapshots.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` cells; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given upper bounds (must be finite and
    /// strictly increasing).
    ///
    /// # Panics
    /// On unsorted or non-finite bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing: {bounds:?}"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The configured bucket upper bounds (exclusive of the overflow
    /// bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !v.is_finite() {
            // Overflow bucket; keep min/max/sum finite.
            self.counts[self.bounds.len()].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let bucket = self.bounds.partition_point(|&b| b < v);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        atomic_f64_fold(&self.min_bits, v, f64::min);
        atomic_f64_fold(&self.max_bits, v, f64::max);
        atomic_f64_add(&self.sum_bits, v);
    }

    /// Total samples recorded (including non-finite ones).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Smallest finite sample, or `+inf` when none were recorded.
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest finite sample, or `-inf` when none were recorded.
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Sum of finite samples. Interleaving-dependent under concurrent
    /// recording (f64 adds do not associate) — full renders only.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// Accumulated time under one span name: invocation count plus total
/// elapsed seconds.
///
/// The durations come from a deterministic clock (the scheduler's
/// virtual event time) and are recorded serially, so both statistics
/// export in every render.
#[derive(Debug, Default)]
pub struct SpanTotal {
    count: AtomicU64,
    /// `0.0`'s bits are zero, so the derived default is an empty total.
    total_s_bits: AtomicU64,
}

impl SpanTotal {
    /// An empty total.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed span of `elapsed_s` seconds.
    pub fn record_s(&self, elapsed_s: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.total_s_bits, elapsed_s.max(0.0));
    }

    /// Completed-span count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total elapsed seconds across all completions.
    pub fn total_s(&self) -> f64 {
        f64::from_bits(self.total_s_bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.25);
        assert_eq!(g.get(), 3.25);
    }

    #[test]
    fn histogram_buckets_count_min_max() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            h.record(v);
        }
        // `v <= bound` bucketing: 0.5 and 1.0 land in bucket 0.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.sum(), 106.5);
    }

    #[test]
    fn histogram_nonfinite_goes_to_overflow_without_poisoning() {
        let h = Histogram::new(&[1.0]);
        h.record(0.5);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts(), vec![1, 2]);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 0.5);
        assert_eq!(h.sum(), 0.5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn span_total_accumulates() {
        let s = SpanTotal::new();
        s.record_s(1.5);
        s.record_s(2.5);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_s(), 4.0);
    }

    #[test]
    fn concurrent_counter_and_histogram_are_exact() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new(&[8.0]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record((i % 16) as f64);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        // Per thread, residues 0..=7 occur 63 times and 8..=15 occur 62
        // (1000 = 62*16 + 8), so samples <= 8.0 number 8*63 + 62 = 566.
        assert_eq!(h.bucket_counts(), vec![4 * 566, 4000 - 4 * 566]);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 15.0);
    }
}
