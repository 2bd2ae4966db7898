//! Hosting an [`RcClient`] in a `snipe-netsim` actor.
//!
//! The mirror image of `snipe_wire::host::StackHost`, for the other
//! sans-IO machine every SNIPE component links: the actor issues
//! requests through the client (an [`RcHost`] derefs to it), feeds
//! inputs ([`on_datagram`](RcHost::on_datagram) or the client's own
//! `on_packet` for an already opened body,
//! [`on_timer`](RcHost::on_timer), [`on_host_up`](RcHost::on_host_up))
//! and ends the event with one [`flush`](RcHost::flush). The adapter
//! Raw-seals and transmits the queued requests, keeps exactly one
//! wake-up pending for the earliest request deadline, retries what
//! timed out while the host was down, and hands back completions.

use std::ops::{Deref, DerefMut};

use bytes::Bytes;
use snipe_netsim::actor::{SimCtx, TimerGate};
use snipe_netsim::topology::Endpoint;
use snipe_util::time::SimTime;
use snipe_wire::frame::{open, seal, Proto};

use crate::client::{Completion, RcClient};

/// An [`RcClient`] together with the wake-up bookkeeping its hosting
/// actor owes it.
pub struct RcHost {
    rc: RcClient,
    gate: TimerGate,
    token: u64,
}

impl RcHost {
    /// Host `rc`; its wake-ups arrive as `Event::Timer { token }`.
    pub fn new(rc: RcClient, token: u64) -> RcHost {
        RcHost { rc, gate: TimerGate::new(), token }
    }

    /// A datagram arrived on a port that carries nothing but RC
    /// replies: open the Raw envelope and feed the client. Anything
    /// else is dropped (the client counts undecodable bodies).
    pub fn on_datagram(&mut self, now: SimTime, from: Endpoint, payload: Bytes) {
        if let Ok((Proto::Raw, body)) = open(payload) {
            self.rc.on_packet(now, from, body);
        }
    }

    /// The host's wake-up timer fired: retry or fail over what expired.
    pub fn on_timer(&mut self, now: SimTime) {
        self.gate.fired();
        self.rc.on_timer(now);
    }

    /// The actor's machine came back (`Event::HostUp`): requests whose
    /// deadline passed during the outage are retried now. The gate is
    /// not cleared — a swallowed wake-up lies in the past, so the
    /// coming flush re-arms; one still queued keeps its claim.
    pub fn on_host_up(&mut self, now: SimTime) {
        self.rc.on_timer(now);
    }

    /// Transmit queued requests, keep the wake-up armed and hand back
    /// completed operations. A completion handler that issues further
    /// requests flushes again.
    pub fn flush(&mut self, ctx: &mut dyn SimCtx) -> Vec<Completion> {
        for (to, bytes) in self.rc.drain_sends() {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
        self.gate.arm_deadline(ctx, self.rc.next_deadline(), self.token);
        self.rc.drain_done()
    }
}

impl Deref for RcHost {
    type Target = RcClient;
    fn deref(&self) -> &RcClient {
        &self.rc
    }
}

impl DerefMut for RcHost {
    fn deref_mut(&mut self) -> &mut RcClient {
        &mut self.rc
    }
}
