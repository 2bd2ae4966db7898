//! # snipe-rcds — the Resource Cataloging and Distribution System
//!
//! SNIPE stores *all* shared system state — host descriptors, process
//! locations, notify lists, multicast router sets, file replica
//! locations, public keys — as metadata in replicated RC servers
//! (paper §2.1, §3.1, §5.2). "RCDS accomplishes this by replicating the
//! resources and metadata at a potentially large number of locations"
//! with a "true master-master update data model" (§7).
//!
//! This crate implements:
//!
//! * [`uri`] — the global name space: URLs, URNs and LIFNs;
//! * [`assertion`] — `name=value` assertions with automatic
//!   timestamping and last-writer-wins merge (availability over strict
//!   serializability, per the §2.1 consistency discussion);
//! * [`store`] — the replicated catalog with per-origin update logs and
//!   version vectors;
//! * [`server`] — the RC server actor: client RPC plus pairwise
//!   anti-entropy between replicas;
//! * [`client`] — the sans-IO client used by every SNIPE component,
//!   with replica failover, a TTL lookup cache and shard routing;
//! * [`host`] — the one adapter that embeds that client in a simulator
//!   actor (transmit, wake-ups, recovery after a host outage);
//! * [`shard`] — consistent-hash sharding of the URI namespace across replica groups.
#![cfg_attr(not(test), deny(clippy::unwrap_used))] // hostile input errs, never panics
#![deny(clippy::iter_over_hash_type)] // ROADMAP 3: hash order must not reach output

pub mod assertion;
pub mod client;
pub mod host;
pub mod proto;
pub mod server;
pub mod shard;
pub mod store;
pub mod uri;

pub use assertion::{Assertion, Stamp};
pub use client::{RcClient, RcClientStats};
pub use host::RcHost;
pub use server::RcServerActor;
pub use shard::ShardMap;
pub use store::RcStore;
pub use uri::Uri;
