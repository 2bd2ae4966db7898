//! Hosting an [`RcClient`] in a `snipe-netsim` actor.
//!
//! The mirror image of `snipe_wire::host::StackHost`, for the other
//! sans-IO machine every SNIPE component links: the actor issues
//! requests through the client (an [`RcHost`] derefs to it), feeds
//! inputs ([`on_datagram`](RcHost::on_datagram) or the client's own
//! `on_packet` for an already opened body, [`on_wake`](RcHost::on_wake))
//! and ends the event with one [`flush`](RcHost::flush). The adapter
//! Raw-seals and transmits the queued requests and hands back
//! completions. The client's `next_deadline` is its share of the
//! actor's `next_wake`; the engine keeps that one wake-up, and delivers
//! one that came due while the host was down right after `HostUp`.

use std::ops::{Deref, DerefMut};

use bytes::Bytes;
use snipe_netsim::actor::{due, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_util::time::SimTime;
use snipe_wire::frame::{open, seal, Proto};

use crate::client::{Completion, RcClient};

/// An [`RcClient`] hosted in an actor.
pub struct RcHost {
    rc: RcClient,
}

impl RcHost {
    /// Host `rc`.
    pub fn new(rc: RcClient) -> RcHost {
        RcHost { rc }
    }

    /// A datagram arrived on a port that carries nothing but RC
    /// replies: open the Raw envelope and feed the client. Anything
    /// else is dropped (the client counts undecodable bodies).
    pub fn on_datagram(&mut self, now: SimTime, from: Endpoint, payload: Bytes) {
        if let Ok((Proto::Raw, body)) = open(payload) {
            self.rc.on_packet(now, from, body);
        }
    }

    /// The actor was woken: retry or fail over what expired, if
    /// anything has. Returns whether it had.
    pub fn on_wake(&mut self, now: SimTime) -> bool {
        let expired = due(self.rc.next_deadline(), now);
        if expired {
            self.rc.on_timer(now);
        }
        expired
    }

    /// Transmit queued requests and hand back completed operations. A
    /// completion handler that issues further requests flushes again.
    pub fn flush(&mut self, ctx: &mut dyn SimCtx) -> Vec<Completion> {
        for (to, bytes) in self.rc.drain_sends() {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Assertion;
    use crate::server::RcServerActor;
    use crate::uri::Uri;
    use snipe_netsim::actor::{Actor, Event};
    use snipe_netsim::medium::Medium;
    use snipe_netsim::shard::FaultCmd;
    use snipe_netsim::topology::{HostCfg, Topology};
    use snipe_netsim::world::World;
    use snipe_util::id::HostId;
    use snipe_util::time::SimDuration;
    use snipe_wire::ports;

    const TIMER_ISSUE: u64 = 1;
    const TIMEOUT: SimDuration = SimDuration::from_millis(50);

    /// Issues `gets` lookups 1 ms apart — with none to issue, one put
    /// at start; counts its RC wake-ups and its completions by outcome.
    struct Client {
        rc: RcHost,
        gets: u32,
        wakeups: u32,
        ok: u32,
        failed: u32,
    }

    impl Actor for Client {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            let now = ctx.now();
            match event {
                Event::Start | Event::Timer { token: TIMER_ISSUE } if self.gets > 0 => {
                    self.gets -= 1;
                    self.rc.get(now, &Uri::process(self.gets as u64));
                    ctx.set_timer(SimDuration::from_millis(1), TIMER_ISSUE);
                }
                Event::Start => {
                    self.rc.put(now, &Uri::process(0), vec![Assertion::new("k", "v")]);
                }
                Event::Wake => {
                    self.wakeups += 1;
                    self.rc.on_wake(now);
                }
                Event::Packet { from, payload } => self.rc.on_datagram(now, from, payload),
                _ => return,
            }
            for (_, result) in self.rc.flush(ctx) {
                match result {
                    Ok(_) => self.ok += 1,
                    Err(_) => self.failed += 1,
                }
            }
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.rc.next_deadline()
        }
    }

    /// A client on host c facing one replica endpoint on host s (no
    /// server is spawned: callers that want one do it).
    fn world(gets: u32) -> (World, Endpoint, HostId, HostId) {
        let mut t = Topology::new();
        let net = t.add_network("lan", Medium::ethernet100(), true);
        let s = t.add_host(HostCfg::named("s"));
        let c = t.add_host(HostCfg::named("c"));
        t.attach(s, net);
        t.attach(c, net);
        let mut w = World::new(t, 9);
        let rc = RcClient::new(vec![Endpoint::new(s, ports::RC_SERVER)], TIMEOUT);
        let client = Client { rc: RcHost::new(rc), gets, wakeups: 0, ok: 0, failed: 0 };
        let ep = w.spawn(c, 30, Box::new(client)).unwrap();
        (w, ep, s, c)
    }

    /// A hundred overlapping requests against a silent server, each
    /// timing out six times before it gives up. One wake-up per
    /// distinct deadline is the most the client may cost — a timer per
    /// flush costs a hundred times that.
    #[test]
    fn overlapping_requests_wake_once_per_deadline() {
        let (mut w, ep, _, _) = world(100);
        w.run_for(SimDuration::from_secs(2));
        let c = w.actor_ref::<Client>(ep).unwrap();
        assert_eq!((c.ok, c.failed), (0, 100), "every request gave up");
        assert!(c.wakeups <= 600, "100 requests x 6 deadlines, woke {} times", c.wakeups);
    }

    /// A request is pending when the client's host goes down, and its
    /// deadline passes during the outage (the wake-up is dropped). The
    /// wake-up re-armed after `HostUp` must retry it there and then,
    /// not leave it for whatever unrelated flush comes next.
    #[test]
    fn pending_request_is_retried_after_a_host_outage() {
        let (mut w, ep, s, c) = world(0);
        w.spawn(s, ports::RC_SERVER, Box::new(RcServerActor::new(1, vec![], TIMEOUT)));
        // The server misses the request; the client is down from 1 ms
        // to 300 ms, across the 50 ms deadline.
        w.schedule_fault(SimTime::ZERO + SimDuration::from_micros(1), FaultCmd::HostDown(s));
        w.schedule_fault(SimTime::ZERO + SimDuration::from_millis(20), FaultCmd::HostUp(s));
        w.schedule_fault(SimTime::ZERO + SimDuration::from_millis(1), FaultCmd::HostDown(c));
        w.schedule_fault(SimTime::ZERO + SimDuration::from_millis(300), FaultCmd::HostUp(c));
        w.run_for(SimDuration::from_millis(299));
        let before = w.actor_ref::<Client>(ep).unwrap();
        assert_eq!((before.wakeups, before.ok), (0, 0), "the wake-up was swallowed");
        w.run_for(SimDuration::from_millis(10));
        let after = w.actor_ref::<Client>(ep).unwrap();
        assert_eq!((after.ok, after.failed), (1, 0), "retried at HostUp and answered");
    }
}
