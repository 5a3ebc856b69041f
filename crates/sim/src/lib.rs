//! # airdnd-sim — deterministic simulation primitives
//!
//! The shared vocabulary every other AirDnD crate builds on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution,
//! * [`SimRng`] — a seedable, forkable PCG32 random-number generator so every
//!   experiment is reproducible from a single `u64` seed,
//! * [`stats`] — Welford/percentile helpers used by the experiment harness.
//!
//! The paper's "asynchronous" orchestration is modelled as events delivered
//! at deterministic virtual times; the event loop itself is
//! `airdnd_engine::Timeline`. There are no threads and no wall-clock
//! dependence anywhere in a run, which makes every experiment in
//! `EXPERIMENTS.md` reproducible bit-for-bit from its seed.
//!
//! ## Example
//!
//! ```
//! use airdnd_sim::{SimDuration, SimRng, SimTime};
//!
//! // One seed fixes the whole run; each node forks its own stream.
//! let root = SimRng::seed_from(42);
//! let mut node = root.fork(7);
//! let jitter = SimDuration::from_micros(1 + node.index(1_000).unwrap() as u64);
//!
//! let due = SimTime::from_millis(15) + jitter;
//! assert!(due > SimTime::from_millis(15));
//! assert_eq!(due - SimTime::from_millis(15), jitter);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::SimRng;
pub use stats::{percentile, OnlineStats};
pub use time::{SimDuration, SimTime};
