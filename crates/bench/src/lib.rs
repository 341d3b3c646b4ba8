//! # bp-bench — experiment harness
//!
//! Regenerates every quantitative claim in the paper's evaluation (§4) and
//! the DESIGN.md ablations. The `report` binary prints the tables recorded
//! in EXPERIMENTS.md; the `bench` binary smoke-tests a running `browserprov
//! serve` daemon (`bench --serve-smoke HOST:PORT`). Timing belongs to the
//! paper-scale benchmark, the separate `perfbench/` package, which CI runs
//! as a paired gate against the parent commit
//! (`.github/perfbench-paired.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod relschema;
