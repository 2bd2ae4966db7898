//! # snipe-daemon — the per-host SNIPE daemon
//!
//! "Each SNIPE daemon mediates the use of resources on its particular
//! host. SNIPE daemons are responsible for authenticating requests,
//! enforcing access restrictions, management of local tasks, delivery
//! of signals to local tasks, monitoring machine load and other local
//! resources, and name-to-address lookup of local tasks. Task
//! management includes starting local tasks when requested, monitoring
//! those tasks for state changes and quota violations, and informing
//! interested parties of changes to the status of those tasks" (§3.3).
//!
//! Daemons also "elect themselves as multicast routers on a per-group
//! basis" (§5.4) — see [`router`] and the election logic in
//! [`daemon::DaemonActor`].
#![cfg_attr(not(test), deny(clippy::unwrap_used))] // hostile input errs, never panics
#![deny(clippy::iter_over_hash_type)] // ROADMAP 3: hash order must not reach output

pub mod daemon;
pub mod proto;
pub mod registry;
pub mod router;

pub use daemon::{DaemonActor, DaemonConfig};
pub use proto::{DaemonMsg, SpawnSpec, TaskState};
pub use registry::{ProgramRegistry, SpawnCtx};
pub use router::McastRouterActor;
