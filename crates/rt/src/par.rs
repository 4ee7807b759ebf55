//! The logical width of the process-wide [`crate::pool`].
//!
//! `RT_POOL_THREADS` is input from outside the program, so it is checked
//! where it enters ([`threads_from_env`]) and a value that fails the check
//! costs one warning line, never a panic.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Largest `RT_POOL_THREADS` accepted. Workers are *logical* — the `check`
/// gate runs 8 on a 2-core host to pin the partition — so the limit is not
/// the host width; it only keeps a typo from asking the OS for more threads
/// than it will spawn.
pub const MAX_POOL_THREADS: usize = 256;

/// Why an `RT_POOL_THREADS` value was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsError {
    /// Not a non-negative integer (or too large for one).
    NotAnInteger(String),
    /// `0`: a pool has at least the submitting caller.
    Zero,
    /// Above [`MAX_POOL_THREADS`].
    AboveCap(usize),
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RT_POOL_THREADS must be an integer in 1..={MAX_POOL_THREADS}, got "
        )?;
        match self {
            ThreadsError::NotAnInteger(v) => write!(f, "{v:?}"),
            ThreadsError::Zero => write!(f, "0"),
            ThreadsError::AboveCap(n) => write!(f, "{n}"),
        }
    }
}

/// The pool width for an `RT_POOL_THREADS` value (`None`: unset) on a host
/// of `host` hardware threads: the value when it is an integer in
/// `1..=MAX_POOL_THREADS`, `host` when unset.
pub fn threads_from_env(value: Option<&str>, host: usize) -> Result<usize, ThreadsError> {
    let Some(value) = value else {
        return Ok(host);
    };
    match value.parse::<usize>() {
        Err(_) => Err(ThreadsError::NotAnInteger(value.to_string())),
        Ok(0) => Err(ThreadsError::Zero),
        Ok(n) if n > MAX_POOL_THREADS => Err(ThreadsError::AboveCap(n)),
        Ok(n) => Ok(n),
    }
}

/// Number of worker threads a parallel region will use: the host's
/// available parallelism, unless `RT_POOL_THREADS=<n>` pins the logical
/// width of the process-wide pool — the verify gate uses this to reproduce
/// runs at fixed worker counts. Read once and cached (the global pool is
/// sized from it exactly once anyway). A value [`threads_from_env`] refuses
/// is reported once on stderr and the host width is used.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let value = std::env::var_os("RT_POOL_THREADS");
        let value = value.as_deref().map(std::ffi::OsStr::to_string_lossy);
        threads_from_env(value.as_deref(), host).unwrap_or_else(|error| {
            eprintln!("warning: {error}; using the host width {host}");
            host
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_means_the_host_width() {
        assert_eq!(threads_from_env(None, 6), Ok(6));
    }

    #[test]
    fn an_integer_within_the_cap_is_taken_whatever_the_host_width() {
        assert_eq!(threads_from_env(Some("1"), 64), Ok(1));
        assert_eq!(threads_from_env(Some("8"), 2), Ok(8));
        assert_eq!(threads_from_env(Some("256"), 2), Ok(MAX_POOL_THREADS));
    }

    #[test]
    fn garbage_zero_and_above_the_cap_are_typed_errors() {
        for garbage in ["abc", "", " 4", "-1", "2.5", "99999999999999999999999"] {
            assert_eq!(
                threads_from_env(Some(garbage), 2),
                Err(ThreadsError::NotAnInteger(garbage.to_string())),
            );
        }
        assert_eq!(threads_from_env(Some("0"), 2), Err(ThreadsError::Zero));
        assert_eq!(
            threads_from_env(Some("257"), 2),
            Err(ThreadsError::AboveCap(257))
        );
        assert_eq!(
            threads_from_env(Some("100000"), 2),
            Err(ThreadsError::AboveCap(100_000))
        );
    }

    #[test]
    fn every_error_names_the_variable_the_range_and_the_value() {
        for (error, value) in [
            (ThreadsError::NotAnInteger("abc".into()), "\"abc\""),
            (ThreadsError::Zero, "0"),
            (ThreadsError::AboveCap(100_000), "100000"),
        ] {
            let line = error.to_string();
            assert!(line.starts_with("RT_POOL_THREADS must be an integer in 1..=256, got "));
            assert!(line.ends_with(value), "{line}");
            assert!(!line.contains('\n'));
        }
    }
}
