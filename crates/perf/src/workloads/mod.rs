//! The six workloads. Each is a function of sizes, a run configuration
//! and a tracer; it generates its inputs from the seed, does its set-up
//! a few times, repeats its unit of work until the time is used, checks
//! the outputs, and — when the tracer is on — derives the per-layer
//! metrics from the spans and runs the layer probes.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod campaign;
pub mod plan;
pub mod probes;
pub mod solve;

use crate::contract::PER_LAYER;
use crate::trace::Tracer;

pub struct RunCfg {
    /// Reaches input generation only.
    pub seed: u64,
    /// Wall seconds the repeated unit of work should fill.
    pub seconds: f64,
    /// The set-up is done at least this many times and until it has
    /// taken this long in all, so a set-up of milliseconds gets enough
    /// samples for a steady median.
    pub setup_reps: usize,
    pub setup_min_s: f64,
    /// Off for the untraced half of a traced run, which exists only to
    /// be compared with the traced half: a workload may then drop its
    /// minimum repetition counts (the traced half keeps them).
    pub full: bool,
}

#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Units of work per second (median over units where a unit is timed).
    pub throughput: f64,
    /// Timed samples behind `throughput`.
    pub samples: usize,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// Operations attempted (passes, steps, jobs) and those that failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines for the reader of the run's output: sizes, per-row medians.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record an output check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record per-layer metric `name`, which `contract::PER_LAYER` must declare.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in the contract"));
        self.layer.insert(declared.name, value);
    }

    /// For each span, its median seconds as metric `<span>_s`.
    pub fn set_seconds(&mut self, t: &Tracer, spans: &[&str]) {
        for span in spans {
            self.set(&format!("{span}_s"), t.median_s(span));
        }
    }

    /// Median seconds per item of span `span`, scaled, as metric `name`.
    pub fn set_span(&mut self, t: &Tracer, name: &str, span: &str, scale: f64) {
        self.set(name, t.median_s(span) * scale);
    }
}

/// Do the set-up `build` repeatedly (see [`RunCfg`]), recording each
/// one's wall seconds, and hand back the last one's product. The
/// previous product is dropped first: one set-up resident at a time.
pub fn set_up<T>(cfg: &RunCfg, t: &Tracer, out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let begun = Instant::now();
    let mut product = None;
    while out.setup_s.len() < cfg.setup_reps.max(1)
        || (begun.elapsed().as_secs_f64() < cfg.setup_min_s && out.setup_s.len() < 200)
    {
        drop(product.take());
        t.set_run(out.setup_s.len() as u32);
        let start = Instant::now();
        product = Some(t.time("perf.setup", &mut build));
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    product.expect("the loop runs at least once")
}

/// Run workload `name` at its full size, or `None` for an unknown name.
pub fn run(name: &str, cfg: &RunCfg, t: &Tracer) -> Option<Outcome> {
    Some(match name {
        "plan_aorta" => plan::run(&plan::Sizes::aorta(), cfg, t),
        "plan_cerebral" => plan::run(&plan::Sizes::cerebral(), cfg, t),
        "solve_dram" => solve::run(&solve::Sizes::dram(), cfg, t),
        "solve_cache" => solve::run(&solve::Sizes::cache(), cfg, t),
        "campaign_scale" => campaign::run(&campaign::Sizes::scale(), cfg, t),
        "campaign_routed" => campaign::run(&campaign::Sizes::routed(), cfg, t),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::WORKLOADS;

    /// A tiny pass through every declared workload, traced, so the whole
    /// harness (inputs, checks, span-derived metrics, probes) runs in
    /// seconds under `cargo test`.
    #[test]
    fn every_workload_runs_correct_at_tiny_size() {
        let cfg = RunCfg {
            seed: 7,
            seconds: 0.05,
            setup_reps: 1,
            setup_min_s: 0.0,
            full: true,
        };
        for name in WORKLOADS.iter().map(|w| w.name) {
            let t = Tracer::new(true);
            let out = match name {
                "plan_aorta" => plan::run(&plan::Sizes::tiny(false), &cfg, &t),
                "plan_cerebral" => plan::run(&plan::Sizes::tiny(true), &cfg, &t),
                "solve_dram" => solve::run(&solve::Sizes::tiny(false), &cfg, &t),
                "solve_cache" => solve::run(&solve::Sizes::tiny(true), &cfg, &t),
                "campaign_scale" => campaign::run(&campaign::Sizes::tiny(false), &cfg, &t),
                "campaign_routed" => campaign::run(&campaign::Sizes::tiny(true), &cfg, &t),
                other => panic!("declared workload {other} has no tiny size"),
            };
            assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
            assert!(out.attempted >= 1 && out.failed == 0, "{name}");
            assert!(out.throughput > 0.0 && out.throughput.is_finite(), "{name}");
            assert!(
                !out.setup_s.is_empty() && out.setup_s.iter().all(|&s| s > 0.0),
                "{name}"
            );
            assert!(
                !out.layer.is_empty(),
                "{name}: a traced run reports per-layer metrics"
            );
            for (metric, value) in &out.layer {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            assert!(
                !crate::trace::ledger(&t.spans()).stages.is_empty(),
                "{name}: no stage spans"
            );
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 0.01,
            setup_reps: 1,
            setup_min_s: 0.0,
            full: true,
        };
        assert!(run("nope", &cfg, &Tracer::new(false)).is_none());
    }
}
