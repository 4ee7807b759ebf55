//! The paper's evaluation as one gated record, and the artifact gates.
//!
//! `repro <id>|all` runs the table of [`experiments`] (one per table or
//! figure of the paper, index in DESIGN.md §4) against one shared
//! [`repro::Lab`] and writes `REPRO.json`; [`gates`] judges it and the
//! other committed artifacts; [`provenance`] stamps them.

pub mod experiments;
pub mod gates;
pub mod provenance;
pub mod report;
pub mod repro;
