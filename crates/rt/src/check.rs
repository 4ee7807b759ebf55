//! A minimal property-testing harness (the in-tree `proptest`
//! replacement).
//!
//! A property is a closure taking a seeded [`Rng`] and
//! panicking (via the normal `assert!` family) when the invariant fails.
//! [`run`] executes it for a configurable number of cases, each with a
//! deterministic per-case seed derived from the suite seed; when a case
//! panics, the harness prints the failing case's seed and the environment
//! variables that replay exactly that case, then re-raises the panic so
//! the test still fails loudly.
//!
//! There is no shrinking: instead, failing seeds found historically are
//! committed as explicit named regression tests next to the property (see
//! e.g. the `regression_` tests in `tests/properties.rs`), which is both
//! hermetic and more readable than `.proptest-regressions` sidecar files.
//!
//! Replay controls (read at each `run` call):
//! * `RT_CHECK_SEED` — run only the single case with this case seed;
//! * `RT_CHECK_CASES` — override the number of generated cases.

use crate::rng::{Rng, SplitMix64};

/// Configuration for one property run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Suite seed; per-case seeds derive from it.
    pub seed: u64,
}

impl Config {
    /// `cases` generated cases from the default suite seed.
    pub fn cases(cases: u32) -> Self {
        Self { cases, ..Self::default() }
    }

    /// Replace the suite seed.
    pub fn with_seed(self, seed: u64) -> Self {
        Self { seed, ..self }
    }
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: 32,
            seed: 0x686d_6f63_6c6f_7564, // "hmocloud"
        }
    }
}

/// Deterministic seed of case `index` under suite seed `suite_seed`.
pub fn case_seed(suite_seed: u64, index: u32) -> u64 {
    let mut sm = SplitMix64::new(suite_seed ^ ((index as u64) << 32 | index as u64));
    sm.next_u64()
}

/// Run the property `body` for `config.cases` seeded cases.
///
/// `name` appears in the replay banner; use the test function's name. The
/// body gets a fresh deterministically-seeded [`Rng`] per case and should
/// draw all generated inputs from it. To discard a vacuous case (the
/// `prop_assume!` analog), simply `return` early.
pub fn run<F>(name: &str, config: Config, body: F)
where
    F: Fn(&mut Rng),
{
    if let Ok(seed) = std::env::var("RT_CHECK_SEED") {
        let seed: u64 = seed.parse().expect("RT_CHECK_SEED must be a u64");
        run_case(name, u32::MAX, seed, &body);
        return;
    }
    let cases = std::env::var("RT_CHECK_CASES")
        .ok()
        .and_then(|c| c.parse().ok())
        .unwrap_or(config.cases);
    for index in 0..cases {
        run_case(name, index, case_seed(config.seed, index), &body);
    }
}

fn run_case<F>(name: &str, index: u32, seed: u64, body: &F)
where
    F: Fn(&mut Rng),
{
    // AssertUnwindSafe: the panic is re-raised immediately below, so no
    // code observes state a partially-run case may have left behind.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = Rng::new(seed);
        body(&mut rng);
    }));
    if let Err(panic) = result {
        let which = if index == u32::MAX {
            "replayed case".to_string()
        } else {
            format!("case {index}")
        };
        eprintln!(
            "\nrt::check: property '{name}' FAILED at {which} (case seed {seed}).\n\
             rt::check: replay just this case with: RT_CHECK_SEED={seed} cargo test {name}\n"
        );
        std::panic::resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn runs_the_configured_number_of_cases() {
        let count = AtomicU32::new(0);
        run("count_cases", Config::cases(17), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn case_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..100).map(|i| case_seed(1, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| case_seed(1, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "duplicate case seeds");
    }

    #[test]
    fn distinct_suite_seeds_give_distinct_cases() {
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }

    #[test]
    fn failing_case_panics_through() {
        let result = std::panic::catch_unwind(|| {
            run("always_fails", Config::cases(3), |_| {
                panic!("property violated");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn properties_see_reproducible_streams() {
        // Two identical runs observe identical generated inputs.
        let record = |out: &std::sync::Mutex<Vec<u64>>| {
            run("record", Config::cases(8), |rng| {
                out.lock().unwrap().push(rng.next_u64());
            });
        };
        let a = std::sync::Mutex::new(Vec::new());
        let b = std::sync::Mutex::new(Vec::new());
        record(&a);
        record(&b);
        assert_eq!(*a.lock().unwrap(), *b.lock().unwrap());
    }
}
