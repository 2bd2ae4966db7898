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
//!   re-armed and the timers that came due meanwhile fire (so what is
//!   unacknowledged is retransmitted), while a wake-up that survived a
//!   short flap is left alone — never two live chains.
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

/// A complete message handed up by one of the stack's transports (the
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
    /// configured transport is consumed; anything else is handed back.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{endpoint_key, StackConfig};
    use snipe_netsim::actor::{Actor, Event};
    use snipe_netsim::medium::Medium;
    use snipe_netsim::shard::FaultCmd;
    use snipe_netsim::topology::{HostCfg, Topology};
    use snipe_netsim::world::World;
    use snipe_util::id::HostId;
    use snipe_util::time::SimDuration;

    const TOKEN: u64 = 7;

    /// Sends "hello" to `peer` at start (when it has one); counts its
    /// wake-ups and keeps what it is delivered.
    struct Node {
        stack: StackHost,
        peer: Option<Endpoint>,
        wakeups: u32,
        got: Vec<Bytes>,
    }

    impl Actor for Node {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            let now = ctx.now();
            match event {
                Event::Start => {
                    let mut stack = WireStack::new(endpoint_key(ctx.me()), StackConfig::default());
                    if let Some(peer) = self.peer {
                        stack.set_peer_at(now, endpoint_key(peer), peer, vec![]);
                        stack.send(now, endpoint_key(peer), Bytes::from_static(b"hello")).unwrap();
                    }
                    self.stack.start(stack);
                }
                Event::Packet { from, payload } => {
                    let _ = self.stack.on_packet(now, from, payload);
                }
                Event::Timer { token: TOKEN } => {
                    self.wakeups += 1;
                    self.stack.on_timer(now);
                }
                Event::HostUp => self.stack.on_host_up(now),
                _ => return,
            }
            self.got.extend(self.stack.flush(ctx).into_iter().map(|d| d.msg));
        }
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// Sender on host a, receiver on host b, one LAN.
    fn world() -> (World, Endpoint, Endpoint, HostId, HostId) {
        let mut t = Topology::new();
        let net = t.add_network("lan", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, net);
        t.attach(b, net);
        let mut w = World::new(t, 5);
        let node = |peer| Node { stack: StackHost::new(TOKEN), peer, wakeups: 0, got: Vec::new() };
        let rx = w.spawn(b, 20, Box::new(node(None))).unwrap();
        let tx = w.spawn(a, 20, Box::new(node(Some(rx)))).unwrap();
        (w, tx, rx, a, b)
    }

    /// The sender's host is down across its retransmit deadline, so
    /// the engine swallows the wake-up; `on_host_up` + `flush` must
    /// re-arm it and get the message through.
    #[test]
    fn outage_across_the_deadline_resumes_and_delivers() {
        let (mut w, tx, rx, a, b) = world();
        // The receiver misses the first transmission: the data stays
        // unacked with its RTO (100 ms) pending.
        w.schedule_fault(SimTime::ZERO + SimDuration::from_micros(1), FaultCmd::HostDown(b));
        w.schedule_fault(ms(50), FaultCmd::HostUp(b));
        w.schedule_fault(ms(1), FaultCmd::HostDown(a));
        w.schedule_fault(ms(300), FaultCmd::HostUp(a));
        w.run_for(SimDuration::from_millis(299));
        assert_eq!(w.actor_ref::<Node>(tx).unwrap().wakeups, 0, "the wake-up was swallowed");
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.actor_ref::<Node>(rx).unwrap().got, vec![Bytes::from_static(b"hello")]);
        let sender = w.actor_ref::<Node>(tx).unwrap();
        assert!(sender.stack.as_ref().unwrap().quiescent(), "acked after recovery");
    }

    /// A flap shorter than the pending deadline leaves that wake-up
    /// queued. Recovery must not arm a second one beside it: over the
    /// next seconds of retransmission the flapped sender wakes exactly
    /// as often as one that never flapped.
    #[test]
    fn a_short_flap_keeps_exactly_one_wake_up() {
        let wakeups = |flap: bool| {
            let (mut w, tx, _, a, b) = world();
            // No receiver for the whole run: the chain keeps going.
            w.schedule_fault(SimTime::ZERO + SimDuration::from_micros(1), FaultCmd::HostDown(b));
            if flap {
                w.schedule_fault(ms(1), FaultCmd::HostDown(a));
                w.schedule_fault(ms(2), FaultCmd::HostUp(a));
            }
            w.run_for(SimDuration::from_secs(3));
            w.actor_ref::<Node>(tx).unwrap().wakeups
        };
        let calm = wakeups(false);
        assert!(calm >= 4, "RTO backoff fires several times in 3 s, got {calm}");
        assert_eq!(wakeups(true), calm);
    }
}
