//! A tiny criterion-style timing harness for `harness = false` benches.
//!
//! Mirrors the small slice of criterion's API the workspace uses — named
//! groups, per-benchmark throughput, `Bencher::iter` — so the bench
//! sources read the same, while staying dependency-free. Each benchmark
//! warms up, then takes `sample_size` wall-clock samples of an
//! auto-calibrated iteration batch and reports min/median/mean plus
//! throughput at the median.
//!
//! Binaries filter by substring: `cargo bench -- harvey` runs only
//! benchmarks whose `group/name` id contains `harvey`. `--list` prints
//! ids without running. `RT_BENCH_FAST=1` shrinks warmup and measuring
//! time so CI can smoke-run every bench in seconds.

use std::time::{Duration, Instant};

/// Re-exported for convenience in bench bodies.
pub use std::hint::black_box;

/// Units for reporting work done per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many elements (reported as Melem/s).
    Elements(u64),
    /// Iterations process this many bytes (reported as GiB/s).
    Bytes(u64),
}

/// Top-level harness: owns the CLI filter and prints the report.
pub struct Harness {
    filter: Option<String>,
    list_only: bool,
}

impl Harness {
    /// Parse `std::env::args` (skipping cargo-bench's `--bench` flag).
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut list_only = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--bench" | "--profile-time" => {}
                "--list" => list_only = true,
                a if a.starts_with('-') => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self { filter, list_only }
    }

    /// Begin a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            throughput: None,
            sample_size: 10,
        }
    }

    /// Run a free-standing benchmark (equivalent to a one-entry group).
    pub fn bench_function<F>(&mut self, id: &str, body: F)
    where
        F: FnMut(&mut Bencher),
    {
        let (group, name) = match id.split_once('/') {
            Some((g, n)) => (g.to_string(), n.to_string()),
            None => (id.to_string(), String::new()),
        };
        let mut g = self.group(&group);
        g.bench_function(&name, body);
        g.finish();
    }

    fn should_run(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_args()
    }
}

/// A named group of related benchmarks sharing throughput settings.
pub struct Group<'a> {
    harness: &'a Harness,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl Group<'_> {
    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Report throughput per iteration alongside time.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure one benchmark. `name` may be empty for single-function
    /// groups.
    pub fn bench_function<F>(&mut self, name: &str, mut body: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = if name.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.name, name)
        };
        if !self.harness.should_run(&id) {
            return;
        }
        if self.harness.list_only {
            println!("{id}");
            return;
        }
        let stats = measure(self.sample_size, fast_mode(), &mut body);
        report(&id, &stats, self.throughput);
    }

    /// End the group (symmetry with criterion; nothing to flush).
    pub fn finish(self) {}
}

/// Passed to the bench body; call [`Bencher::iter`] with the code under
/// test.
pub struct Bencher {
    mode: BencherMode,
}

enum BencherMode {
    /// Calibration: count how many iterations fit in the probe window.
    Calibrate { iters: u64, deadline: Instant },
    /// Measurement: run exactly `iters` iterations, record elapsed time.
    Measure { iters: u64, elapsed: Duration },
}

impl Bencher {
    /// Run the closure under timing. The harness decides how many times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        match &mut self.mode {
            BencherMode::Calibrate { iters, deadline } => {
                while Instant::now() < *deadline {
                    black_box(f());
                    *iters += 1;
                }
            }
            BencherMode::Measure { iters, elapsed } => {
                let start = Instant::now();
                for _ in 0..*iters {
                    black_box(f());
                }
                *elapsed = start.elapsed();
            }
        }
    }
}

/// Summary statistics of one benchmark, nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Median ns/iter over the samples.
    pub median_ns: f64,
    /// Fastest sample's ns/iter.
    pub min_ns: f64,
    /// Mean ns/iter over the samples.
    pub mean_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Whether `RT_BENCH_FAST` asks for smoke-sized runs: set, and not `0`.
pub fn fast_mode() -> bool {
    std::env::var("RT_BENCH_FAST").is_ok_and(|v| v != "0")
}

/// Measure a closure outside the [`Harness`] CLI plumbing and return the
/// raw [`Stats`] instead of printing them. Honors `RT_BENCH_FAST` exactly
/// like [`Harness`]-driven benches; used by regeneration binaries (e.g.
/// `bench_baseline`) that persist numbers to disk.
pub fn sample_stats<F>(sample_size: usize, mut body: F) -> Stats
where
    F: FnMut(&mut Bencher),
{
    measure(sample_size.max(2), fast_mode(), &mut body)
}

fn measure<F>(sample_size: usize, fast: bool, body: &mut F) -> Stats
where
    F: FnMut(&mut Bencher),
{
    let (warmup, target_sample) = if fast {
        (Duration::from_millis(20), Duration::from_millis(20))
    } else {
        (Duration::from_millis(300), Duration::from_millis(100))
    };

    // Warmup doubles as calibration: count iterations in the window.
    let mut b = Bencher {
        mode: BencherMode::Calibrate { iters: 0, deadline: Instant::now() + warmup },
    };
    body(&mut b);
    let calibrated = match b.mode {
        BencherMode::Calibrate { iters, .. } => iters.max(1),
        _ => unreachable!(),
    };
    let per_iter = warmup.as_secs_f64() / calibrated as f64;
    let iters_per_sample = ((target_sample.as_secs_f64() / per_iter).ceil() as u64).max(1);

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher {
            mode: BencherMode::Measure { iters: iters_per_sample, elapsed: Duration::ZERO },
        };
        body(&mut b);
        let elapsed = match b.mode {
            BencherMode::Measure { elapsed, .. } => elapsed,
            _ => unreachable!(),
        };
        per_iter_ns.push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median_ns = if per_iter_ns.len() % 2 == 1 {
        per_iter_ns[per_iter_ns.len() / 2]
    } else {
        0.5 * (per_iter_ns[per_iter_ns.len() / 2 - 1] + per_iter_ns[per_iter_ns.len() / 2])
    };
    Stats {
        median_ns,
        min_ns: per_iter_ns[0],
        mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        iters_per_sample,
        samples: per_iter_ns.len(),
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn report(id: &str, stats: &Stats, throughput: Option<Throughput>) {
    let rate = throughput.map(|t| {
        let per_sec = 1e9 / stats.median_ns;
        match t {
            Throughput::Elements(n) => {
                format!("  {:.2} Melem/s", n as f64 * per_sec / 1e6)
            }
            Throughput::Bytes(n) => {
                format!("  {:.2} GiB/s", n as f64 * per_sec / (1024.0 * 1024.0 * 1024.0))
            }
        }
    });
    println!(
        "{id:<44} median {:>10}  min {:>10}  mean {:>10}{}   ({} samples × {} iters)",
        human_time(stats.median_ns),
        human_time(stats.min_ns),
        human_time(stats.mean_ns),
        rate.unwrap_or_default(),
        stats.samples,
        stats.iters_per_sample,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_stats<F: FnMut(&mut Bencher)>(mut body: F) -> Stats {
        measure(5, true, &mut body)
    }

    #[test]
    fn measures_a_trivial_closure() {
        let stats = fast_stats(|b| b.iter(|| black_box(1u64 + 1)));
        assert!(stats.median_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns);
        assert_eq!(stats.samples, 5);
        assert!(stats.iters_per_sample >= 1);
    }

    #[test]
    fn slower_work_measures_slower() {
        let fast = fast_stats(|b| b.iter(|| black_box((0..10u64).sum::<u64>())));
        let slow = fast_stats(|b| {
            b.iter(|| black_box((0..100_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31))))
        });
        assert!(
            slow.median_ns > 5.0 * fast.median_ns,
            "slow {} vs fast {}",
            slow.median_ns,
            fast.median_ns
        );
    }

    #[test]
    fn filter_matches_substring() {
        let h = Harness { filter: Some("harvey".into()), list_only: false };
        assert!(h.should_run("harvey_step/serial"));
        assert!(!h.should_run("stream/Copy"));
        let all = Harness { filter: None, list_only: false };
        assert!(all.should_run("anything"));
    }
}
