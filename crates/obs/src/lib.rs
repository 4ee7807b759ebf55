//! # hemocloud-obs
//!
//! Zero-dependency, deterministic metrics for the hemocloud workspace.
//! The paper's whole method is *measured* performance feeding a model
//! (Eqs. 6-16) and a cost dashboard (Eq. 17); this crate is the
//! measurement substrate the runtime, solver, and campaign scheduler
//! record into, with one hard requirement the usual telemetry stacks do
//! not have: **two identical seeded runs must export byte-for-byte
//! identical snapshots**, so the verify gate can diff them.
//!
//! The design splits into three pieces:
//!
//! * [`metric`] — lock-free instruments ([`Counter`], [`Gauge`],
//!   [`Histogram`], [`SpanTotal`]) built on atomics so `rt::pool`
//!   workers can record from the hot path without taking a lock. The
//!   crate reads no clock: callers time their own work and record
//!   seconds. Histograms hold wall-clock samples (`rt::pool` and the
//!   solver read `Instant`); span totals hold virtual-time durations
//!   (the scheduler's event clock).
//! * [`registry`] — a name → instrument map behind one lock. Only
//!   get-or-create takes it; recording goes through the returned `Arc`
//!   handle, which hot paths fetch once.
//! * [`snapshot`] — copies every instrument into one sorted map and
//!   renders it as JSON. The [`Render::Deterministic`] mode omits
//!   anything interleaving- or wall-clock-dependent (see below);
//!   [`Render::Full`] adds the diagnostic wall-time statistics.
//!
//! [`json`] is the workspace's one JSON writer and reader.
//!
//! ## The determinism contract
//!
//! A snapshot is reproducible across runs *at the same worker count*
//! because every exported quantity is order-independent:
//!
//! * counter adds commute (atomic `u64` adds);
//! * a histogram exports only its sample *count* in deterministic
//!   renders — the count is fixed by the program (one sample per pool
//!   run, per solver step, ...) while the wall-clock values are not;
//! * span totals export `count` and `total_s`: their durations come from
//!   the scheduler's virtual clock and are recorded by its serial event
//!   loop, so even the f64 total is reproducible;
//! * gauges must only be set from single-threaded deterministic code
//!   (last-write-wins is racy otherwise) — the workspace only sets them
//!   from the scheduler's serial event loop.
//!
//! No timestamp, hostname, or environment detail is ever recorded
//! unless the caller injects it.

pub mod json;
pub mod metric;
pub mod registry;
pub mod snapshot;

pub use metric::{Counter, Gauge, Histogram, SpanTotal};
pub use registry::{global, Registry};
pub use snapshot::{Render, Sample, Snapshot};
