//! # airdnd-radio — wireless substrate for the AirDnD mesh
//!
//! AirDnD's whole premise is that nodes *in radio range* can trade compute
//! without touching cellular infrastructure. This crate models both sides
//! of that comparison:
//!
//! * [`channel`] — log-distance path loss with shadowing and an
//!   SNR-derived packet-error rate; obstacles add penetration loss,
//! * [`mac`] — CSMA/CA-style timing (DIFS, slotted backoff, retries) and
//!   airtime accounting,
//! * [`medium`] — the shared broadcast medium: queueing/contention with
//!   spatial reuse, unicast with retries, broadcast beacons; every call
//!   reports bytes-on-air so experiments can account data transfer honestly,
//! * [`profiles`] — ready-made parameter sets: an 802.11p/DSRC-like V2V
//!   profile and an LTE/5G-like cellular uplink (with core-network RTT) used
//!   by the cloud-offload baseline.
//!
//! Real radios are replaced by these models because the orchestration
//! layer cares about latency, loss and goodput shapes, which the models
//! reproduce (range cliffs, contention collapse, the V2V vs cellular RTT
//! gap).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod mac;
pub mod medium;
pub mod profiles;

pub use channel::ChannelModel;
pub use mac::MacParams;
pub use medium::{DeliveryOutcome, NodeAddr, RadioMedium, TxReport, BROADCAST};
pub use profiles::{CellularLink, CellularParams};
