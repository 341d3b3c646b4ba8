//! # bp-bench — experiment harness
//!
//! Regenerates every quantitative claim in the paper's evaluation (§4) and
//! the DESIGN.md ablations. The `report` binary prints the tables recorded
//! in EXPERIMENTS.md; the `bench` binary times ingest and the seven query
//! paths into a schema-versioned JSON report, and `profile_ingest` breaks
//! ingest into its phases. The paper-scale benchmark with ingest and
//! queries interleaved is the separate `perfbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod relschema;
pub mod report;
