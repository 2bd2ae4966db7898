//! # snipe-wire — SNIPE's multi-path communications sub-library
//!
//! The paper (§3, §6) describes a "separate non-PVM based communications
//! sub-library ... based initially upon the UDP and TCP Internet
//! protocols", providing:
//!
//! * a **selective re-send UDP protocol** ([`srudp`]) — SNIPE's own
//!   reliable datagram protocol, the headline series of Fig. 1;
//! * **TCP/IP** ([`rstream`]) — reproduced here as a from-scratch
//!   reliable byte stream with cumulative ACKs and fast retransmit;
//! * an **experimental multicast protocol** ([`mcast`]) — router-based
//!   reliable group messaging per §5.4;
//! * **fragmentation** ([`frag`]), erasure-coded share fragmentation
//!   ([`fec`]) and framing ([`frame`]);
//! * **multiple communication paths** with transparent failover
//!   ([`path`]): "the ability to switch routes/interfaces as links
//!   failed without user applications intervention" (§6). A peer's
//!   traffic takes its current route, and only timeout or
//!   duplicate evidence rotates it;
//! * **system buffering** so "migrating or temporarily unavailable
//!   tasks did not result in lost messages" ([`stack`]).
//!
//! All protocol logic is *sans-IO*: state machines consume
//! `(now, packet)` and emit [`Out`] actions. Each transport keeps its
//! deadlines in a [`Deadlines`](snipe_util::deadlines::Deadlines)
//! table, and its `on_timer` tolerates early or spurious fires (it
//! re-checks its own state). It drains *sealed* datagrams
//! ([`frame::seal_with`]) but takes *opened* bodies: the envelope is
//! checked and demultiplexed before a transport sees a datagram.
//! [`stack::WireStack`] holds the three transports as fields, routes
//! SRUDP's datagrams through [`path::PathSelector`], and glues the
//! modules together. [`host::StackHost`] is the one adapter that
//! embeds a stack in a `snipe-netsim` actor.
#![cfg_attr(not(test), deny(clippy::unwrap_used))] // hostile input errs, never panics
#![deny(clippy::iter_over_hash_type)] // ROADMAP 3: hash order must not reach output

pub mod fec;
pub mod frag;
pub mod frame;
pub mod host;
pub mod mcast;
pub mod path;
pub mod ports;
mod recovery;
pub mod rstream;
pub mod srudp;
pub mod stack;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::NetId;
use snipe_util::time::SimTime;

/// Actions emitted by the sans-IO protocol state machines.
#[derive(Debug, Clone, PartialEq)]
pub enum Out {
    /// Transmit a datagram.
    Send {
        /// Destination endpoint.
        to: Endpoint,
        /// Pinned network (multi-path), or `None` for default routing.
        via: Option<NetId>,
        /// Share-spray index: when SRUDP emits erasure-coded shares
        /// ([`fec`]) it tags each with its share index, and the stack
        /// maps index `i` onto the `i mod k`-th of `k` distinct routes
        /// in rank order from the current one
        /// ([`path::PeerPaths::spray_route`]) so one gray link costs
        /// shares, not messages. `None` routes normally.
        spray: Option<u32>,
        /// Wire bytes.
        bytes: Bytes,
    },
    /// A complete application message arrived.
    Deliver {
        /// The protocol module that produced this delivery; a stack
        /// can run several transports at once, and consumers dispatch on
        /// this tag (SRUDP app messages vs multicast group traffic).
        proto: frame::Proto,
        /// The stable node key of the logical sender (survives
        /// migration; see [`srudp`]).
        from_key: u64,
        /// The endpoint the final packet came from (the sender's
        /// current location).
        from_ep: Endpoint,
        /// Message payload.
        msg: Bytes,
    },
    /// benchmark/ compat — never constructed: wake-ups are pulled from
    /// `next_deadline()` by the hosting actor's `next_wake`, not pushed
    /// as actions. Delete with the other compat shims when
    /// `benchmark/` stops matching on it.
    Wake {
        /// Deadline.
        at: SimTime,
    },
}

#[cfg(test)]
/// The no-spin contract of a sans-IO machine: woken at exactly its
/// `next_deadline()`, `on_timer` leaves a strictly later deadline or
/// none, so an engine that wakes it at the deadline itself never wakes
/// it twice at one instant. Drives `a` and `b` deadline to deadline:
/// `exchange` moves what is in flight at `now` (dropping what it likes)
/// and says whether anything moved. Returns the firings checked.
pub(crate) fn assert_no_spin<M>(
    a: &mut M,
    b: &mut M,
    mut exchange: impl FnMut(&mut M, &mut M, SimTime) -> bool,
    deadline: impl Fn(&M) -> Option<SimTime>,
    mut on_timer: impl FnMut(&mut M, SimTime),
) -> u32 {
    let (mut now, mut fired) = (SimTime::ZERO, 0);
    for _ in 0..100_000 {
        while exchange(a, b, now) {}
        let Some(next) = deadline(a).into_iter().chain(deadline(b)).min() else {
            return fired;
        };
        assert!(next >= now, "a deadline in the past: {next} < {now}");
        now = next;
        for m in [&mut *a, &mut *b] {
            if deadline(m) == Some(now) {
                on_timer(m, now);
                fired += 1;
                let left = deadline(m);
                assert!(left.is_none_or(|d| d > now), "woken at {now}, left {left:?}");
            }
        }
    }
    panic!("still busy after 100 000 deadlines");
}
