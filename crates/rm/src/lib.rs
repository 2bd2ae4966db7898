//! # snipe-rm — the General Resource Manager
//!
//! "Resource managers are tasked with managing resources and monitoring
//! the state of the resources they manage ... For the sake of
//! redundancy, any host may be managed by multiple resource managers.
//! ... resource management may either be 'passive' (allowing a process
//! to reserve resources on a particular host ...) or 'active' (where
//! the resource manager acts as a proxy for the requester, allocating
//! resources on its behalf). In the latter mode, a resource manager may
//! actually suspend, kill, or (if the code is mobile) migrate processes
//! between hosts" (§3.5).
//!
//! This descends from PVM's General Resource Manager (GRM, §3) —
//! "modified to allow for redundant resource management processes".
//! Unlike PVM's single resource manager (§2.2), any number of
//! [`RmActor`]s can run; they coordinate through RC metadata rather
//! than shared private state, so clients simply fail over.
//!
//! RMs are also the certificate authorities of the §4 security model:
//! [`manager::RmActor`] verifies the two certificates (user grant +
//! requesting host) and issues its own signed resource authorization.
#![cfg_attr(not(test), deny(clippy::unwrap_used))] // hostile input errs, never panics
#![deny(clippy::iter_over_hash_type)] // ROADMAP 3: hash order must not reach output

pub mod manager;
pub mod proto;

pub use manager::{RmActor, RmConfig};
pub use proto::{AllocMode, RmMsg};
