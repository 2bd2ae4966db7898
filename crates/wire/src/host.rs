//! Hosting a [`WireStack`] in a `snipe-netsim` actor.
//!
//! The stack is sans-IO; this is the one place its outputs become
//! engine calls. An actor that embeds a [`StackHost`] feeds it inputs
//! ([`on_packet`](StackHost::on_packet), [`on_wake`](StackHost::on_wake),
//! or calls on the stack itself through [`as_mut`](StackHost::as_mut))
//! and ends every event that touched it with one
//! [`flush`](StackHost::flush), which transmits every queued
//! `Out::Send` in emission order, pinned to its route when the path
//! layer chose one.
//!
//! The host arms nothing and needs no `Event::HostUp` recipe: the
//! actor's `next_wake` includes
//! [`next_deadline`](StackHost::next_deadline), and the engine keeps
//! the one wake-up, delivering one that came due during an outage right
//! after `Event::HostUp` (the retransmissions are that wake-up's work).
//!
//! Completed messages come back from `flush` as [`Delivery`]s; what
//! they mean is the actor's business.

use bytes::Bytes;
use snipe_netsim::actor::{due, SimCtx};
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

/// A [`WireStack`] hosted in an actor. Empty until
/// [`StackHost::start`]: a stack is keyed by the actor's endpoint or
/// process key, known only at `Event::Start`.
#[derive(Default)]
pub struct StackHost {
    stack: Option<WireStack>,
}

impl StackHost {
    /// An empty host.
    pub fn new() -> StackHost {
        StackHost::default()
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

    /// The stack's earliest deadline: its share of the hosting actor's
    /// `next_wake`.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.stack.as_ref().and_then(WireStack::next_deadline)
    }

    /// The actor was woken: fire the stack's timers if they are due.
    /// Returns whether they were.
    pub fn on_wake(&mut self, now: SimTime) -> bool {
        let Some(stack) = self.stack.as_mut().filter(|s| due(s.next_deadline(), now)) else {
            return false;
        };
        stack.on_timer(now);
        true
    }

    /// Transmit everything the stack queued and hand back what it
    /// delivered. Allocates only when there is a delivery to return.
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
                Event::Wake => {
                    self.wakeups += 1;
                    self.stack.on_wake(now);
                }
                _ => return,
            }
            self.got.extend(self.stack.flush(ctx).into_iter().map(|d| d.msg));
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.stack.next_deadline()
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
        let node = |peer| Node { stack: StackHost::new(), peer, wakeups: 0, got: Vec::new() };
        let rx = w.spawn(b, 20, Box::new(node(None))).unwrap();
        let tx = w.spawn(a, 20, Box::new(node(Some(rx)))).unwrap();
        (w, tx, rx, a, b)
    }

    /// The sender's host is down across its retransmit deadline, so
    /// the engine drops the wake-up; the one it re-arms after `HostUp`
    /// must get the message through.
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
    /// Two stacks exchange a 4 KB message each way every 2 ms for a
    /// minute over a 35 ms WAN. Each side keeps an RTO pending the whole
    /// time, and every partial message it receives files a 5 ms delayed
    /// SACK: a deadline earlier than the wake-up already pending. The
    /// wake-ups one delivered message costs must not grow with the
    /// run's age. (With a per-actor timer gate, every earlier deadline
    /// started a second live timer chain: 73 wake-ups per message in the
    /// first 10 s, 911 in the last.)
    #[test]
    fn wake_ups_per_message_stay_flat_over_a_minute() {
        const TICK: u64 = 1;
        struct Chatty {
            stack: StackHost,
            peer: Endpoint,
            /// Wake-ups and deliveries per 10 s window.
            wakes: [u32; 6],
            got: [u32; 6],
        }
        impl Actor for Chatty {
            fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
                let now = ctx.now();
                let window = (now.as_nanos() / 10_000_000_000).min(5) as usize;
                match event {
                    Event::Start => {
                        let stack = WireStack::new(endpoint_key(ctx.me()), StackConfig::default());
                        self.stack.start(stack);
                        ctx.set_timer(SimDuration::from_millis(2), TICK);
                    }
                    Event::Timer { .. } => {
                        let (key, peer) = (endpoint_key(self.peer), self.peer);
                        if let Some(stack) = self.stack.as_mut() {
                            stack.set_peer_at(now, key, peer, vec![]);
                            stack.send(now, key, Bytes::from(vec![7u8; 4000])).unwrap();
                        }
                        ctx.set_timer(SimDuration::from_millis(2), TICK);
                    }
                    Event::Wake => {
                        self.wakes[window] += 1;
                        self.stack.on_wake(now);
                    }
                    Event::Packet { from, payload } => {
                        let _ = self.stack.on_packet(now, from, payload);
                    }
                    _ => return,
                }
                self.got[window] += self.stack.flush(ctx).len() as u32;
            }

            fn next_wake(&self) -> Option<SimTime> {
                self.stack.next_deadline()
            }
        }
        let mut t = Topology::new();
        let net = t.add_network("wan", Medium::wan(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, net);
        t.attach(b, net);
        let mut w = World::new(t, 5);
        let (ea, eb) = (Endpoint::new(a, 20), Endpoint::new(b, 20));
        for (me, peer) in [(ea, eb), (eb, ea)] {
            let chatty = Chatty { stack: StackHost::new(), peer, wakes: [0; 6], got: [0; 6] };
            w.spawn(me.host, me.port, Box::new(chatty)).unwrap();
        }
        w.run_for(SimDuration::from_secs(60));
        let per_msg = |i: usize| {
            let (wakes, got) = [ea, eb].iter().fold((0, 0), |(wk, g), &ep| {
                let c = w.actor_ref::<Chatty>(ep).unwrap();
                (wk + c.wakes[i], g + c.got[i])
            });
            assert!(got > 1000, "window {i} delivered only {got}");
            wakes as f64 / got as f64
        };
        let (first, last) = (per_msg(0), per_msg(5));
        assert!(last <= first * 1.1, "wake-ups per message grew {first:.3} -> {last:.3}");
    }
}
