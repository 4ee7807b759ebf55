//! Snapshot rendering: one sorted map of instrument samples, exported
//! as JSON with no timestamps, no hashing order, and no environment
//! leakage — byte-for-byte reproducible in [`Render::Deterministic`]
//! mode.
//!
//! Floats render with Rust's shortest-roundtrip `{:?}` formatting,
//! which is fully determined by the value's bits. A non-finite value is
//! `null` (JSON has no other spelling for it); the `obs` gate fails on
//! a `null` metric, so a non-finite metric still fails loudly.

use std::collections::BTreeMap;

use crate::json::{Layout, Writer};

/// How much of a snapshot to export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Render {
    /// Only interleaving- and wall-clock-independent statistics: two
    /// identical seeded runs at the same worker count produce identical
    /// bytes. Histograms (wall-clock samples) export only their sample
    /// counts.
    Deterministic,
    /// Everything, including wall-time statistics and f64 sums — for
    /// human diagnosis, not for diffing.
    Full,
}

impl Render {
    fn label(self) -> &'static str {
        match self {
            Render::Deterministic => "deterministic",
            Render::Full => "full",
        }
    }
}

/// One instrument's sampled state.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A counter's total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// A histogram's full state; `counts` has one overflow cell beyond
    /// `bounds`.
    Histogram {
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts, overflow last.
        counts: Vec<u64>,
        /// Total samples.
        count: u64,
        /// Smallest finite sample (`+inf` when none).
        min: f64,
        /// Largest finite sample (`-inf` when none).
        max: f64,
        /// Interleaving-dependent f64 sum.
        sum: f64,
    },
    /// A span total.
    Span {
        /// Completed spans.
        count: u64,
        /// Total elapsed seconds.
        total_s: f64,
    },
}

/// A point-in-time copy of a [`Registry`](crate::registry::Registry),
/// sorted by instrument name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    entries: BTreeMap<String, Sample>,
}

impl Snapshot {
    pub(crate) fn from_entries(entries: BTreeMap<String, Sample>) -> Self {
        Self { entries }
    }

    /// All samples, sorted by name.
    pub fn entries(&self) -> &BTreeMap<String, Sample> {
        &self.entries
    }

    /// Look up one sample by instrument name.
    pub fn get(&self, name: &str) -> Option<&Sample> {
        self.entries.get(name)
    }

    /// A counter's value, when `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Sample::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Sum of the counter family `{prefix}.0`, `{prefix}.1`, … — the read
    /// side of [`Registry::counter_family`](crate::registry::Registry::counter_family).
    /// Members are contiguous from 0, so the sum stops at the first index
    /// that is not a counter; an absent family sums to 0.
    pub fn counter_family_total(&self, prefix: &str) -> u64 {
        (0usize..)
            .map_while(|i| self.counter(&format!("{prefix}.{i}")))
            .sum()
    }

    /// Merge `other` into this snapshot (e.g. the scheduler's private
    /// registry alongside the process-global one).
    ///
    /// # Panics
    /// On a name collision — the workspace namespaces instruments by
    /// layer (`pool.`, `lbm.`, `sched.`), so a collision is a bug.
    pub fn merged_with(mut self, other: Snapshot) -> Snapshot {
        for (name, sample) in other.entries {
            let prior = self.entries.insert(name.clone(), sample);
            assert!(prior.is_none(), "obs snapshot merge collision on {name:?}");
        }
        self
    }

    /// Render as a JSON object with sorted keys, one metric per line.
    pub fn to_json(&self, render: Render) -> String {
        let mut w = Writer::new();
        w.begin_object(Layout::Block);
        w.key("render").string(render.label());
        w.key("metrics").begin_object(Layout::Block);
        for (name, sample) in &self.entries {
            w.key(name).begin_object(Layout::Inline);
            match sample {
                Sample::Counter(v) => {
                    w.key("type").string("counter");
                    w.key("value").uint(*v);
                }
                Sample::Gauge(v) => {
                    w.key("type").string("gauge");
                    w.key("value").float(*v);
                }
                Sample::Histogram {
                    bounds,
                    counts,
                    count,
                    min,
                    max,
                    sum,
                } => {
                    w.key("type").string("histogram");
                    w.key("count").uint(*count);
                    if render == Render::Full {
                        if *count > counts[bounds.len()] {
                            w.key("min").float(*min);
                            w.key("max").float(*max);
                        }
                        w.key("sum").float(*sum);
                        w.key("bounds").begin_array(Layout::Inline);
                        bounds.iter().for_each(|&b| w.float(b));
                        w.end();
                        w.key("counts").begin_array(Layout::Inline);
                        counts.iter().for_each(|&c| w.uint(c));
                        w.end();
                    }
                }
                Sample::Span { count, total_s } => {
                    w.key("type").string("span");
                    w.key("count").uint(*count);
                    w.key("total_s").float(*total_s);
                }
            }
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("pool.jobs").add(7);
        r.gauge("sched.mape_pct").set(12.25);
        let h = r.histogram("lbm.step_seconds", &[0.01, 0.1]);
        h.record(0.05);
        h.record(0.05);
        r.histogram("pool.run_seconds", &[0.001, 0.1]).record(0.0125);
        r.span_total("sched.event.arrive").record_s(3.5);
        r
    }

    /// The inline JSON object rendered for metric `name`.
    fn metric(doc: &Value, name: &str) -> String {
        doc.get("metrics").and_then(|m| m.get(name)).expect(name).to_string()
    }

    #[test]
    fn deterministic_json_hides_histogram_values() {
        let json = sample_registry().snapshot().to_json(Render::Deterministic);
        let doc = parse(&json).expect("snapshot renders valid JSON");
        assert_eq!(metric(&doc, "pool.jobs"), r#"{"type": "counter", "value": 7}"#);
        assert_eq!(metric(&doc, "sched.mape_pct"), r#"{"type": "gauge", "value": 12.25}"#);
        // Histograms: count only, no min/max/sum/buckets.
        assert_eq!(metric(&doc, "lbm.step_seconds"), r#"{"type": "histogram", "count": 2}"#);
        assert_eq!(metric(&doc, "pool.run_seconds"), r#"{"type": "histogram", "count": 1}"#);
        // Spans keep their virtual-time total.
        assert_eq!(
            metric(&doc, "sched.event.arrive"),
            r#"{"type": "span", "count": 1, "total_s": 3.5}"#
        );
    }

    #[test]
    fn counter_family_total_sums_contiguous_members() {
        let r = Registry::new();
        for (i, c) in r.counter_family("link.bytes", 3).iter().enumerate() {
            c.add(10 * (i as u64 + 1));
        }
        r.counter("link.bytes.4").add(1_000); // past the gap at index 3
        r.gauge("link.bytes_total").set(60.0); // same prefix, not a member
        r.gauge("rack.bytes.0").set(5.0); // member name, wrong instrument
        let snap = r.snapshot();
        assert_eq!(snap.counter_family_total("link.bytes"), 60);
        assert_eq!(snap.counter_family_total("rack.bytes"), 0);
        assert_eq!(snap.counter_family_total("no.such.family"), 0);
    }

    #[test]
    fn full_render_exposes_everything() {
        let doc = parse(&sample_registry().snapshot().to_json(Render::Full)).expect("valid JSON");
        assert_eq!(doc.at("render").and_then(Value::as_str), Some("full"));
        assert_eq!(
            metric(&doc, "lbm.step_seconds"),
            r#"{"type": "histogram", "count": 2, "min": 0.05, "max": 0.05, "sum": 0.1, "bounds": [0.01, 0.1], "counts": [0, 2, 0]}"#
        );
        assert!(metric(&doc, "pool.run_seconds").contains(r#""min": 0.0125"#));
    }

    #[test]
    fn json_is_sorted_and_parsable_shape() {
        let json = sample_registry().snapshot().to_json(Render::Deterministic);
        let doc = parse(&json).expect("snapshot renders valid JSON");
        assert_eq!(doc.at("render").and_then(Value::as_str), Some("deterministic"));
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(names.len(), 5);
        assert!(names.is_sorted(), "keys must be sorted: {names:?}");
    }

    #[test]
    fn empty_histogram_renders_without_nonfinite_min_max() {
        let r = Registry::new();
        r.histogram("empty", &[1.0]);
        let json = r.snapshot().to_json(Render::Full);
        let doc = parse(&json).expect("valid JSON");
        let empty = doc.get("metrics").and_then(|m| m.get("empty")).unwrap();
        assert_eq!(empty.get("count"), Some(&Value::UInt(0)));
        assert!(empty.get("min").is_none() && empty.get("max").is_none());
    }

    #[test]
    fn hostile_names_and_non_finite_gauges_still_render_valid_json() {
        let name = "a\"b\\c\u{1}\n";
        let r = Registry::new();
        r.counter(name).inc();
        r.gauge("g.nan").set(f64::NAN);
        r.gauge("g.inf").set(f64::NEG_INFINITY);
        let doc = parse(&r.snapshot().to_json(Render::Full)).expect("valid JSON");
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get(name).and_then(|m| m.get("value")), Some(&Value::UInt(1)));
        assert_eq!(metrics.get("g.nan").and_then(|m| m.get("value")), Some(&Value::Null));
        assert_eq!(metrics.get("g.inf").and_then(|m| m.get("value")), Some(&Value::Null));
    }

    #[test]
    fn identical_ops_produce_identical_bytes() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(
            a.to_json(Render::Deterministic),
            b.to_json(Render::Deterministic)
        );
    }

    #[test]
    fn merged_with_combines_disjoint_namespaces() {
        let a = sample_registry().snapshot();
        let r = Registry::new();
        r.counter("sched.faults").add(3);
        let merged = a.merged_with(r.snapshot());
        assert_eq!(merged.counter("pool.jobs"), Some(7));
        assert_eq!(merged.counter("sched.faults"), Some(3));
    }

    #[test]
    #[should_panic(expected = "merge collision")]
    fn merged_with_rejects_collisions() {
        let r = Registry::new();
        r.counter("pool.jobs").inc();
        let _ = sample_registry().snapshot().merged_with(r.snapshot());
    }

    #[test]
    fn snapshot_determinism_across_threads() {
        // The satellite property test: the same multiset of operations
        // performed from N racing threads must export the same bytes
        // as any other interleaving (here: a second identical run).
        let run = || {
            let r = std::sync::Arc::new(Registry::new());
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let r = std::sync::Arc::clone(&r);
                    std::thread::spawn(move || {
                        let c = r.counter("t.ops");
                        let h = r.histogram("t.values", &[4.0, 16.0]);
                        for i in 0..500u64 {
                            c.add(1 + t % 2);
                            h.record(((i * 7 + t) % 32) as f64);
                        }
                        r.span_total("t.span").record_s(0.5);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            r.snapshot().to_json(Render::Deterministic)
        };
        assert_eq!(run(), run());
    }
}
