//! # airdnd-bench — the experiment harness
//!
//! One [`airdnd_harness::Workload`] per table/figure in `EXPERIMENTS.md`,
//! all registered in the unified typed registry ([`workloads::registry`]).
//! The `sweep` binary runs them: it prints the tables, writes per-cell
//! JSON/CSV reports to `--out`, and exposes each grid with `--threads`,
//! `--shard i/n` and `--merge`.
//!
//! The paper is a vision paper with no quantitative evaluation of its own,
//! so each experiment here regenerates a *constructed* figure derived from
//! an explicit claim or research question (each EXPERIMENTS.md entry names
//! the claim it reproduces). Experiments run in two sizes: `quick` (seconds, CI-friendly)
//! and `full` (the numbers recorded in EXPERIMENTS.md).

#![forbid(unsafe_code)]

pub mod compare;
pub mod report;
pub mod workloads;

pub use report::{ExperimentResult, Table};
