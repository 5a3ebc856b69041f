//! The AirDnD benchmark of record.
//!
//! Three workloads (`corner-offload`, `city-fleet`, `ego-storm`) drive the
//! simulator through its public API only: `airdnd-worldgen` builds each
//! world from the benchmark seed, and `airdnd_scenario::run_scenario_in_observed`
//! runs it. A timed run reports the end-to-end metrics with tracing off;
//! a separate traced run reports the per-layer metrics — the runner's
//! phase profile, timed public calls into each layer, and deterministic
//! work counts. See `README.md` in this directory for the metric table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod trace;
pub mod workload;
