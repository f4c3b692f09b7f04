//! # spinn-bench — the experiment harness
//!
//! One module per experiment (E1–E14 plus ablations), each
//! regenerating a figure or quantitative claim of the paper. Every
//! module exposes `run(quick) -> String`, returning the table the
//! paper's claim implies; the Criterion benches under `benches/` print
//! the quick table and then time the experiment's kernel, and
//! `src/bin/run_experiments.rs` prints the full tables for
//! `EXPERIMENTS.md`.
//!
//! Experiments with performance claims additionally emit
//! machine-readable, commit-stamped [`record::BenchReport`] JSON
//! artifacts (`BENCH_*.json`, committed at the repository root) — the measured
//! performance trajectory of the codebase. E14 (the event-core
//! benchmark) is the first; later experiments append theirs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod record;
pub mod resil;

/// True when the harness should run full-size experiments
/// (`SPINN_FULL=1`); benches default to quick mode.
pub fn full_mode() -> bool {
    std::env::var("SPINN_FULL").is_ok_and(|v| v == "1")
}
