//! # bp-lint — repo-specific static analysis for the provenance store
//!
//! The paper's claims rest on the provenance store being trustworthy: a
//! durable on-disk format (deterministic bytes, every logged mutation
//! recoverable) and queries that stay inside the 200 ms interactive
//! bound. This crate is a from-scratch static-analysis pass — a
//! hand-rolled Rust token lexer plus a rule engine — that
//! machine-enforces the invariants clippy cannot express over every
//! workspace `.rs` file, so regressions cannot silently re-enter:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L004 | no default-hasher map iteration feeding an encoder (replay determinism) |
//! | L005 | every public query entry point opens a query `Scope` (or pins its `Budget`) before iterating |
//! | L007 | every store mutation is WAL-dominated on all public call paths |
//! | L008 | the cross-crate lock-order graph is acyclic (no potential deadlock) |
//! | L009 | graph loops reachable from query entry points take or construct a `Scope` or `Budget` |
//! | L010 | every emitted metric name appears in `METRICS.registry` (and vice versa) |
//!
//! The token-level rules that duplicated clippy lints are retired, and
//! clippy enforces those invariants instead: raw clock reads (once L001)
//! through `disallowed-methods` in the root `clippy.toml`; panics (L002),
//! `as` casts in the on-disk codecs (L003) and raw prints (L006) through
//! `deny` attributes on the library crates and codec modules.
//!
//! L004 and L005 are token-level and file-local. L007–L010 are the
//! interprocedural tier: a hand-rolled recursive-descent parser
//! ([`parser`]) builds an AST ([`ast`]), per-file fact extraction
//! ([`symbols`]) distills functions/calls/locks/metric emissions, and a
//! cross-crate call graph ([`callgraph`]) supports whole-program
//! reachability and dataflow. Results can be exported as SARIF 2.1.0
//! ([`sarif`]).
//!
//! Violations can be suppressed site-by-site with
//! `// bp-lint: allow(L00X): <reason>` — the reason is mandatory, and a
//! missing one is itself a violation (`L000`).
//!
//! Run `cargo run -p bp-lint -- check` (non-zero exit on violations).

pub mod ast;
pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod symbols;

pub use diag::{Severity, Violation};
pub use engine::{check_root, CheckReport, Engine};
