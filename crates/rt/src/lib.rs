//! # hemocloud-rt
//!
//! Zero-dependency runtime support for the hemocloud workspace. The
//! reproduction must build and test hermetically — offline, from a clean
//! checkout, with nothing but a Rust toolchain — because the paper's
//! performance model (Eqs. 6-16) is only trustworthy if its benchmark and
//! test harness is deterministic and reproducible on any machine. This
//! crate replaces the external crates the seed pulled from crates.io:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256++ PRNG with uniform
//!   ranges and a Box-Muller `gaussian()` (replaces `rand`).
//! * [`pool`] — a persistent worker pool (parked threads, condvar
//!   wakeup, panic propagation) with one owner-computes parallel-for, so
//!   the LBM hot path amortizes thread spawns over an entire run instead
//!   of paying them every step (replaces `rayon`).
//! * [`par`] — the pool's width: the host's parallelism, or a checked
//!   `RT_POOL_THREADS`.
//! * [`check`] — a minimal property-testing harness with seeded case
//!   generation and failing-seed replay (replaces `proptest`).
//! * [`float`] — explicit absolute/ULP float-comparison helpers so test
//!   pins state their tolerance model instead of ad-hoc `1e-15` literals.
//! * [`simd`] — a portable explicit-SIMD lane layer (plain-array lanes the
//!   compiler vectorizes for the build target) whose elementwise ops are
//!   bit-identical to scalar arithmetic per lane.

pub mod check;
pub mod float;
pub mod par;
pub mod pool;
pub mod rng;
pub mod simd;
