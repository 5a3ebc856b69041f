//! Legacy per-experiment entry points, one per table/figure in
//! `EXPERIMENTS.md`.
//!
//! Every function is a thin delegate into the unified typed registry in
//! [`crate::workloads`] — the single source of truth for grids, runners,
//! metrics and tables. Nothing here rolls its own sweep loop; each
//! experiment is a [`airdnd_harness::Workload`] executed through the
//! generic harness (worker pool, aggregation, sharding). Each entry of
//! `EXPERIMENTS.md` names the paper claim its experiment tests.
//!
//! Sweep-backed delegates run their grid serially (`threads = 1`):
//! parallelism belongs to the caller — `run_experiments --threads N`
//! parallelizes *across* experiments, the `sweep` binary *within* one —
//! so pools never nest and `--threads` limits stay honest.

use crate::report::ExperimentResult;
use crate::workloads::run_named;

pub use crate::workloads::market::{market_sim, MarketStats};

/// F1 — mesh formation & dissolution vs density (Model 1 dynamicity).
pub fn f1_mesh_dynamics(quick: bool) -> ExperimentResult {
    run_named("f1", quick, 1)
}

/// F2 — data transferred per perception view (the minimization claim).
pub fn f2_data_transfer(quick: bool) -> ExperimentResult {
    run_named("f2", quick, 1)
}

/// F3 — end-to-end latency CDF: mesh vs cellular cloud.
pub fn f3_latency_cdf(quick: bool) -> ExperimentResult {
    run_named("f3", quick, 1)
}

/// F4 — looking-around-the-corner coverage vs cooperating vehicles.
pub fn f4_coverage(quick: bool) -> ExperimentResult {
    run_named("f4", quick, 1)
}

/// T5 — RQ1 ablation over a `SelectionWeights` axis.
pub fn t5_selection_ablation(quick: bool) -> ExperimentResult {
    run_named("t5", quick, 1)
}

/// T6 — allocation-mechanism comparison on an identical synthetic market.
pub fn t6_allocators(quick: bool) -> ExperimentResult {
    run_named("t6", quick, 1)
}

/// F7 — churn resilience: completion vs vehicle speed.
pub fn f7_churn(quick: bool) -> ExperimentResult {
    run_named("f7", quick, 1)
}

/// F8 — excess-resource utilization vs offered load (the Airbnb claim).
pub fn f8_utilization(quick: bool) -> ExperimentResult {
    run_named("f8", quick, 1)
}

/// T9 — RQ3: integrity under byzantine executors.
pub fn t9_trust(quick: bool) -> ExperimentResult {
    run_named("t9", quick, 1)
}

/// F10 — orchestrator scalability: selection cost vs mesh size.
pub fn f10_scalability(quick: bool) -> ExperimentResult {
    run_named("f10", quick, 1)
}

/// T11 — NFV chain survival under node departures.
pub fn t11_nfv(quick: bool) -> ExperimentResult {
    run_named("t11", quick, 1)
}

/// F12 — the asynchrony ablation: async vs synchronous rounds.
pub fn f12_async_ablation(quick: bool) -> ExperimentResult {
    run_named("f12", quick, 1)
}

/// Every experiment, executed sequentially in EXPERIMENTS.md order.
pub fn all(quick: bool) -> Vec<(&'static str, ExperimentResult)> {
    crate::workloads::registry()
        .into_iter()
        .map(|workload| {
            let name = workload.name();
            (name, run_named(name, quick, 1))
        })
        .collect()
}
