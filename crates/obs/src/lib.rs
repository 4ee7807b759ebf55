//! # hemocloud-obs
//!
//! Zero-dependency, deterministic metrics + tracing for the hemocloud
//! workspace. The paper's whole method is *measured* performance feeding
//! a model (Eqs. 6-16) and a cost dashboard (Eq. 17); this crate is the
//! measurement substrate the runtime, solver, and campaign scheduler
//! record into, with one hard requirement the usual telemetry stacks do
//! not have: **two identical seeded runs must export byte-for-byte
//! identical snapshots**, so the verify gate can diff them.
//!
//! The design splits into four pieces:
//!
//! * [`clock`] — a pluggable [`Clock`] trait. Real runs use the
//!   monotonic [`WallClock`]; the discrete-event scheduler injects a
//!   [`ManualClock`] driven by its *virtual* event time (wall time in a
//!   simulated campaign would be meaningless and nondeterministic);
//!   tests use a `ManualClock` they advance by hand.
//! * [`metric`] — lock-free instruments ([`Counter`], [`Gauge`],
//!   [`Histogram`], [`SpanTotal`]) built on atomics so `rt::pool`
//!   workers can record from the hot path without taking a lock.
//! * [`registry`] — a lock-sharded name → instrument map. Only
//!   get-or-create takes a (sharded) lock; recording goes through the
//!   returned `Arc` handle.
//! * [`snapshot`] — merges every shard into one sorted map and renders
//!   it as text or JSON. The [`Render::Deterministic`] mode omits
//!   anything interleaving- or wall-clock-dependent (see below);
//!   [`Render::Full`] adds the diagnostic wall-time statistics.
//!
//! ## The determinism contract
//!
//! A snapshot is reproducible across runs *at the same worker count*
//! because every exported quantity is order-independent:
//!
//! * counter adds commute (atomic `u64` adds);
//! * value-histogram bucket counts, `count`, `min`, and `max` depend
//!   only on the *multiset* of recorded samples, never on interleaving
//!   (the f64 `sum` does not — it is rendered only in [`Render::Full`]);
//! * wall-clock-derived samples ([`HistogramKind::WallTime`], and spans
//!   timed by a nondeterministic clock) export only their sample
//!   *count* in deterministic renders — the count is fixed by the
//!   program (one sample per pool run, per solver step, ...) while the
//!   values are not;
//! * gauges must only be set from single-threaded deterministic code
//!   (last-write-wins is racy otherwise) — the workspace only sets them
//!   from the scheduler's serial event loop.
//!
//! No timestamp, hostname, or environment detail is ever recorded
//! unless the caller injects it.

pub mod clock;
pub mod json;
pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use clock::{Clock, ManualClock, WallClock};
pub use metric::{Counter, Gauge, Histogram, HistogramKind, SpanTotal};
pub use registry::{global, Registry};
pub use snapshot::{Render, Sample, Snapshot};
pub use span::SpanGuard;
