//! # snipe-core — the SNIPE client library and world assembly
//!
//! The programming environment of the paper: processes with global
//! names, reliable multi-path messaging, spawning through daemons and
//! resource managers, multicast groups, replicated files, migration and
//! consoles — assembled over the substrates in the sibling crates.
//!
//! A user implements [`SnipeProcess`] (the moral equivalent of a 1997
//! program linked against the SNIPE client library) and registers it
//! with a [`SnipeWorld`]; everything else — RC lookups, SRUDP, location
//! caching, group membership, checkpointing — is handled by the
//! embedded [`actor::ProcessActor`].
//!
//! ```
//! use bytes::Bytes;
//! use snipe_core::{SnipeApi, SnipeProcess, SnipeWorldBuilder};
//!
//! struct Hello;
//! impl SnipeProcess for Hello {
//!     fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
//!         api.log("hello from a SNIPE process");
//!         api.exit();
//!     }
//! }
//!
//! let mut world = SnipeWorldBuilder::lan(4, 42).build();
//! world.register_process("hello", |_| Box::new(Hello));
//! world.spawn_on("host0", "hello", Bytes::new()).unwrap();
//! world.run_for_secs(1);
//! ```

#![deny(clippy::iter_over_hash_type)] // ROADMAP 3: hash order must not reach output

pub mod actor;
pub mod api;
pub mod console;
pub mod names;
pub mod service;
pub mod world;

pub use actor::{ProcessActor, ProcessConfig};
pub use api::{GroupEvent, ProcRef, SnipeApi, SnipeProcess, SpawnTarget};
pub use console::{ConsoleActor, HttpMsg};
pub use names::group_id;
pub use service::{choose_location, ServicePick};
pub use world::{ShardedSnipeWorld, SnipeWorld, SnipeWorldBuilder};
