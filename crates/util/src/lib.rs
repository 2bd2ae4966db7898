//! # snipe-util — foundation types for the SNIPE reproduction
//!
//! Small, dependency-light building blocks shared by every other crate in
//! the workspace:
//!
//! * [`time`] — the virtual clock ([`SimTime`], [`SimDuration`]) that the
//!   whole system runs on; experiments are deterministic because no
//!   component ever consults a wall clock.
//! * [`deadlines`] — the keyed-deadline table ([`deadlines::Deadlines`]) under
//!   every retransmission timer and pending-request map: exact
//!   `next_deadline`, expiry in key order.
//! * [`requests`] — the request table on top of it that every service
//!   client sends through ([`requests::Requests`]).
//! * [`codec`] — the XDR-like wire codec. SNIPE's client library performs
//!   "data conversion (e.g. between different host architectures)" (§3.4
//!   of the paper); this module is that canonical network byte format.
//! * [`rng`] — seedable, platform-stable pseudo-random generators
//!   (SplitMix64 / Xoshiro256**) used for failure injection and workload
//!   generation.
//! * [`error`] — the common error type.
//! * [`stats`] — streaming statistics (a mean/variance summary and a
//!   log2 latency histogram) for the benchmark harness. Counters are not
//!   here: each subsystem keeps its own as plain fields of a typed
//!   `*Stats` struct, read through a typed accessor.
//! * [`id`] — small integer identifiers for simulation entities.

pub mod codec;
pub mod deadlines;
pub mod error;
pub mod id;
pub mod requests;
pub mod rng;
pub mod stats;
pub mod time;

pub use codec::{Decoder, Encoder, WireDecode, WireEncode};
pub use error::{SnipeError, SnipeResult};
pub use id::{HostId, LinkId, NetId, ProcId};
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{SimDuration, SimTime};
