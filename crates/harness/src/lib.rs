//! # airdnd-harness — parallel, deterministic sweep orchestration
//!
//! Every figure the AirDnD reproduction regenerates is a *sweep*: the same
//! scenario run over a cartesian grid of parameters (fleet density,
//! strategy, churn, selection weights) with replicated seeds per cell.
//! This crate turns that pattern into a first-class subsystem:
//!
//! 1. [`SweepSpec`] / [`spec::Axis`] — a declarative builder expanding a
//!    base configuration over named axes into a flat run [`Manifest`].
//!    Each run gets a seed derived through a splittable hash
//!    ([`manifest::derive_seed`]) of `(base_seed, run_index)` — or of
//!    `(base_seed, replicate)` under [`spec::SeedMode::PerReplicate`],
//!    which reuses replicate *k*'s seed in every cell (common random
//!    numbers for paired comparisons). Either way, adding an axis value
//!    never perturbs the seeds of the runs before it.
//! 2. [`run_sweep`] — a worker pool (std threads + channels, no external
//!    dependencies) farming runs across cores and reassembling results
//!    **in manifest order**. The parallelism is *between* deterministic
//!    runs, never inside one — the Monte-Carlo-across-runs model — so
//!    `threads = N` output is byte-identical to `threads = 1`.
//! 3. [`agg`] — per-cell statistics across seed replicates: mean, sample
//!    stddev, p50/p95, and 95 % confidence intervals (Student-t for small
//!    samples).
//! 4. [`report`] — deterministic JSON and CSV writers, plus the [`Table`]
//!    renderer experiments print. Wall-clock and thread count are
//!    deliberately excluded from report payloads so the artifacts
//!    themselves are reproducible byte-for-byte.
//! 5. [`workload`] — the generic experiment API: a [`Workload`] is any
//!    pure `Config → Report` function with typed axes (numeric grids,
//!    strategy enums, selection-weight variants, market-mechanism
//!    choices); [`AnyWorkload`] erases the types so heterogeneous figures
//!    share one registry, and [`Shard`] slicing plus an ordered merge
//!    ([`AnyWorkload::merge_shards`]) lets one sweep span processes or
//!    hosts and still reassemble byte-identically.
//! 6. [`driver`] / [`scheduler`] / [`transport`] — the distributed sweep
//!    driver. [`drive_with`] is the transport-generic scheduler: per-host
//!    bounded job slots, heartbeat-based lost-host detection, seeded
//!    capped-exponential backoff, fencing and shard reassignment — all on
//!    virtual poll-round time, never wall-clock. [`Transport`] abstracts
//!    the execution substrate: [`LocalTransport`] (subprocesses, the
//!    historical [`drive`] path) and [`SimHostTransport`] (an in-process
//!    fault-injectable host pool for deterministic multi-host testing).
//!    Artifacts are validated against the manifest
//!    [fingerprint](Manifest::fingerprint) (resume skips valid completed
//!    shards; absent, torn, or stale ones are discarded and re-run — one
//!    unified [`Validation`] outcome), and per-shard status plus host
//!    assignment/health history land in a deterministic
//!    `drive-state.json`. [`write_atomic`] (tmp + rename) is what makes
//!    artifacts all-or-nothing on disk.
//!
//! ## Example
//!
//! ```
//! use airdnd_harness::{run_sweep, SweepSpec};
//!
//! #[derive(Clone)]
//! struct Cfg { size: usize, boost: bool, seed: u64 }
//!
//! let spec = SweepSpec::new(Cfg { size: 0, boost: false, seed: 0 })
//!     .axis("size", [10usize, 20], |cfg, &size| cfg.size = size)
//!     .axis("boost", [false, true], |cfg, &boost| cfg.boost = boost)
//!     .replicates(3)
//!     .base_seed(42)
//!     .seed_with(|cfg, seed| cfg.seed = seed);
//! let manifest = spec.manifest();
//! assert_eq!(manifest.runs.len(), 2 * 2 * 3);
//!
//! let outcome = run_sweep(&manifest, 4, |plan| {
//!     // Any pure function of the config; runs execute across a pool.
//!     plan.config.size as f64 + if plan.config.boost { 0.5 } else { 0.0 }
//! });
//! // Results arrive in manifest order regardless of thread interleaving.
//! assert_eq!(outcome.results.len(), 12);
//! assert_eq!(outcome.results[0], outcome.results[1].round() - 0.5 + 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod agg;
pub mod driver;
pub mod exec;
pub mod manifest;
pub mod report;
pub mod scheduler;
pub mod spec;
pub mod transport;
pub mod workload;

pub use agg::{summarize_cells, Aggregate, CellSummary, MetricSummary};
pub use driver::{
    drive, write_atomic, DriveError, DriveOptions, DriveReport, DriveState, DriveTuning, HostEntry,
    ShardEntry, ShardReport, ShardStatus,
};
pub use exec::{
    run_shard_with_progress, run_sweep, run_sweep_with_progress, Progress, SweepOutcome,
};
pub use manifest::{derive_seed, fingerprint_hex, shard_bounds, Manifest, RunPlan, Shard};
pub use report::{
    fmt_ci, fmt_f, fmt_opt, render_csv, render_json, write_report, ExperimentResult, SweepReport,
    Table,
};
pub use scheduler::{backoff_rounds, drive_with, SpawnCtx, Validation};
pub use spec::{SeedMode, SweepSpec};
pub use transport::{
    CommandSpec, ExecId, FetchRecord, HostHealth, LocalTransport, PollStatus, SimFaults,
    SimHostTransport, SimJob, Transport,
};
pub use workload::{
    parse_shard, render_shard, shard_artifact_name, AnyWorkload, FnWorkload, MergeError,
    ShardArtifact, ShardResult, Workload, WorkloadOutput,
};
