//! # snipe-files — SNIPE file servers, sinks and sources
//!
//! "RCDS file servers will be used to replicate files that are used by
//! SNIPE processes, including data files, mobile code, and checkpoint
//! files ... Replication daemons on these servers communicate with one
//! another, creating and deleting replicas of files according to local
//! policy, redundancy requirements, and demand. Name-to-location
//! binding for these files is maintained by metadata servers" (§3.2).
//!
//! And §5.9: "A 'file sink' process reads SNIPE messages sent to it and
//! stores them into a file. A 'file source' process reads a file
//! consisting of SNIPE messages and sends them to a SNIPE address.
//! Opening a file for writing thus consists of spawning a file sink
//! process..." — sinks and sources are literally actors here.
//!
//! Files are named by LIFN; every stored file carries its SHA-256 so
//! replicas and readers can verify integrity (§2.1).
#![cfg_attr(not(test), deny(clippy::unwrap_used))] // hostile input errs, never panics
#![deny(clippy::iter_over_hash_type)] // ROADMAP 3: hash order must not reach output

pub mod fetch;
pub mod proto;
pub mod server;
pub mod sink;

pub use fetch::{rank_replicas, FetchActor, FetchStats, StripedFetch};
pub use proto::FileMsg;
pub use server::{FileServerActor, FileServerConfig};
