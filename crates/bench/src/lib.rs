//! Shared helpers for the per-table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §4 for the index); this library holds
//! the formatting and workload plumbing they share.

pub mod gates;
pub mod provenance;
pub mod report;
pub mod workloads;

pub use report::{print_series, print_table, Series};
