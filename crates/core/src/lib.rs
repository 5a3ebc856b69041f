//! # airdnd-core — the AirDnD orchestrator
//!
//! This crate is the paper's primary contribution: **A**synchronous,
//! **I**n-**R**ange, **D**ynamic a**n**d **D**istributed orchestration of
//! compute tasks across a spontaneous vehicle/edge mesh. Every node runs
//! the same [`OrchestratorNode`]; there is no coordinator. The flow for one
//! task:
//!
//! 1. **Describe** — the application submits a [`TaskSpec`]
//!    (Model 2) whose inputs are Model-3 [`DataQuery`]s; the data itself
//!    never moves.
//! 2. **Select** (RQ1, [`selection`]) — mesh members from the Model-1
//!    [`MeshDescriptor`] are scored on compute headroom, link quality, data
//!    quality, trust and predicted in-range time; weights are pluggable
//!    (ablated in experiment T5).
//! 3. **Offload** (RQ2, [`protocol`]) — an asynchronous offer → accept →
//!    result exchange with leases, timeouts and retry-on-next-candidate.
//!    Nothing ever waits on a global round (ablated in F12).
//! 4. **Execute & verify** (RQ3, [`executor`]) — the receiving node
//!    *actually runs* the TaskVM program against its local data, metered by
//!    gas; requesters optionally offload redundantly and vote on result
//!    digests, feeding a reputation table.
//!
//! [`TaskSpec`]: airdnd_task::TaskSpec
//! [`DataQuery`]: airdnd_data::DataQuery
//! [`MeshDescriptor`]: airdnd_mesh::MeshDescriptor

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod executor;
pub mod node;
pub mod protocol;
pub mod selection;
pub mod stats;

pub use config::{OrchestratorConfig, SelectionWeights};
pub use executor::{Admission, DeclineReason, ExecutorSim};
pub use node::{NodeAction, NodeEvent, OrchestratorNode, WireMsg};
pub use protocol::{OffloadMsg, TaskOutcome};
pub use selection::{score_candidates, CandidateScore};
pub use stats::{OrchestratorStats, SessionRecord};
