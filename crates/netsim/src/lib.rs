//! # snipe-netsim — the deterministic testbed substitute
//!
//! The SNIPE paper evaluated on real hardware: workstations on 100 Mbit
//! Ethernet and 155 Mbit ATM at UTK, plus WAN links to Reading and
//! Wright-Patterson AFB. This crate replaces that testbed with a
//! discrete-event simulator so that every experiment in `EXPERIMENTS.md`
//! is reproducible bit-for-bit from a seed:
//!
//! * [`medium::Medium`] — calibrated media models (Ethernet 10/100, ATM
//!   155, Myrinet, WAN) with bandwidth, latency, loss, MTU and framing
//!   overhead;
//! * [`topology`] — hosts, interfaces and network segments, including
//!   multi-homed hosts (the basis of SNIPE's multi-path communication);
//! * [`world::World`] — the simulation world: actor scheduling and
//!   packet delivery, with link-level serialization so protocols
//!   saturate a medium realistically (that is what Fig. 1 measures);
//! * [`shard`] — the one engine behind every world: one event core per
//!   region (`region.rs`) of a static partition (`partition.rs`),
//!   advanced by one deterministic round loop (`coord.rs`).
//!   `World::new` runs the whole topology as one region inline;
//!   `World::sharded` runs the natural partition on worker threads,
//!   bit-for-bit identically at any thread count, for 10k–100k hosts;
//! * [`actor`] — the process model: SNIPE daemons, RC servers, file
//!   servers and application tasks are all [`actor::Actor`]s, written
//!   against one context trait, [`actor::SimCtx`];
//! * [`fault`] — failure injection: host crash/repair processes for
//!   availability studies (all faults are [`shard::FaultCmd`] data);
//! * [`chaos`] — declarative, seed-driven fault plans: packet
//!   corruption/duplication/reordering, gray links, flapping and
//!   process restarts, replayable bit-for-bit from a plan seed;
//! * [`trace`] — flat stats counters plus the thread-local flight
//!   recorder: a fixed-capacity ring of virtual-time-stamped events
//!   every layer records into, dumped on chaos-oracle violations.

pub mod actor;
pub mod chaos;
mod coord;
pub mod fault;
pub mod medium;
mod partition;
pub(crate) mod queue;
mod region;
pub mod shard;
pub mod topology;
pub mod trace;
pub mod world;

pub use actor::{Actor, Event, SimCtx};
pub use chaos::{ChaosBinding, ChaosOp, ChaosPlan, ChaosShape, PacketChaos};
pub use medium::Medium;
pub use shard::{ActorFactory, FaultCmd, Partition, ShardLoad};
pub use topology::{Endpoint, HostCfg, Topology};
pub use trace::{FaultOp, MigrationPhase, TraceEvent, TraceKind};
pub use world::World;
