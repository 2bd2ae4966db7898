//! Hosting a [`WireStack`] in a `snipe-netsim` actor.
//!
//! The stack is sans-IO; this is the one place its outputs become
//! engine calls. An actor that embeds a [`StackHost`] feeds it inputs
//! ([`on_packet`](StackHost::on_packet), [`on_timer`](StackHost::on_timer),
//! [`on_host_up`](StackHost::on_host_up), or calls on the stack itself
//! through [`as_mut`](StackHost::as_mut)) and ends every event that
//! touched it with one [`flush`](StackHost::flush). In return:
//!
//! * every queued `Out::Send` is transmitted in emission order, pinned
//!   to its route when the path layer chose one;
//! * exactly one wake-up is kept pending for the stack's earliest
//!   deadline (a [`TimerGate`] collapses the re-arms), so
//!   `Event::Timer { token }` with the host's token means "call
//!   `on_timer`, then `flush`";
//! * after a host outage the wake-up that died with the host is
//!   re-armed and everything unacknowledged is retransmitted, while a
//!   wake-up that survived a short flap is left alone — never two live
//!   chains.
//!
//! Completed messages come back from `flush` as [`Delivery`]s; what
//! they mean is the actor's business.

use bytes::Bytes;
use snipe_netsim::actor::{SimCtx, TimerGate};
use snipe_netsim::topology::Endpoint;
use snipe_util::time::SimTime;

use crate::frame::Proto;
use crate::stack::{Incoming, WireStack};
use crate::Out;

/// A complete message handed up by one of the stack's drivers (the
/// payload of an [`Out::Deliver`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The protocol module that produced it.
    pub proto: Proto,
    /// Stable node key of the logical sender.
    pub from_key: u64,
    /// Endpoint the final packet came from.
    pub from_ep: Endpoint,
    /// Message payload.
    pub msg: Bytes,
}

/// A [`WireStack`] together with the wake-up bookkeeping its hosting
/// actor owes it. Empty until [`StackHost::start`]: a stack is keyed by
/// the actor's endpoint or process key, known only at `Event::Start`.
pub struct StackHost {
    stack: Option<WireStack>,
    gate: TimerGate,
    token: u64,
}

impl StackHost {
    /// An empty host whose wake-ups arrive as `Event::Timer { token }`.
    pub fn new(token: u64) -> StackHost {
        StackHost { stack: None, gate: TimerGate::new(), token }
    }

    /// Install the stack (at `Event::Start`, or on resuming a migrated
    /// process).
    pub fn start(&mut self, stack: WireStack) {
        self.stack = Some(stack);
    }

    /// Drop the stack; later inputs and flushes are no-ops.
    pub fn stop(&mut self) {
        self.stack = None;
    }

    /// The hosted stack, once started.
    pub fn as_ref(&self) -> Option<&WireStack> {
        self.stack.as_ref()
    }

    /// The hosted stack, once started. Anything queued on it goes out
    /// with the next [`StackHost::flush`].
    pub fn as_mut(&mut self) -> Option<&mut WireStack> {
        self.stack.as_mut()
    }

    /// A datagram arrived on the actor's port. Traffic for a
    /// registered driver is consumed; anything else is handed back.
    /// Undecodable datagrams are counted by the stack and dropped.
    pub fn on_packet(&mut self, now: SimTime, from: Endpoint, payload: Bytes) -> Option<Incoming> {
        self.stack.as_mut()?.on_datagram(now, from, payload).unwrap_or_default()
    }

    /// The host's wake-up timer fired.
    pub fn on_timer(&mut self, now: SimTime) {
        self.gate.fired();
        if let Some(stack) = self.stack.as_mut() {
            stack.on_timer(now);
        }
    }

    /// The actor's machine came back (`Event::HostUp`). The gate is
    /// deliberately not cleared: a wake-up swallowed by the outage lies
    /// in the past, so the coming flush re-arms; one still queued after
    /// a short flap keeps its claim.
    pub fn on_host_up(&mut self, now: SimTime) {
        if let Some(stack) = self.stack.as_mut() {
            stack.on_host_up(now);
        }
    }

    /// Transmit everything the stack queued, keep its wake-up armed and
    /// hand back what it delivered. Allocates only when there is a
    /// delivery to return.
    pub fn flush(&mut self, ctx: &mut dyn SimCtx) -> Vec<Delivery> {
        let mut delivered = Vec::new();
        let Some(stack) = self.stack.as_mut() else {
            return delivered;
        };
        for o in stack.drain() {
            match o {
                Out::Send { to, via: Some(net), bytes, .. } => ctx.send_via(to, bytes, net),
                Out::Send { to, via: None, bytes, .. } => ctx.send(to, bytes),
                Out::Deliver { proto, from_key, from_ep, msg } => {
                    delivered.push(Delivery { proto, from_key, from_ep, msg })
                }
                Out::Wake { .. } => {}
            }
        }
        self.gate.arm_deadline(ctx, stack.next_deadline(), self.token);
        delivered
    }
}
