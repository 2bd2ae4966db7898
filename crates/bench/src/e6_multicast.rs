//! E6 — §5.4 multicast fault tolerance: a sender targets "more than
//! half of the routers", members register with a majority, routers are
//! fully peered — so killing any minority of routers mid-stream must
//! not lose a single group message.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::mcast::{majority, McastMember, McastMsg, McastRouter};
use snipe_wire::Out;

/// Measured outcome.
#[derive(Clone, Debug)]
pub struct E6Point {
    /// Routers deployed.
    pub routers: usize,
    /// Routers killed mid-stream.
    pub killed: usize,
    /// Messages sent to the group.
    pub sent: u32,
    /// Distinct messages each member delivered (min across members).
    pub min_delivered: u32,
    /// Duplicate deliveries suppressed at members (sum).
    pub duplicates: u64,
}

struct RouterActor {
    state: McastRouter,
}

impl Actor for RouterActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            let Ok((Proto::Mcast, body)) = open(payload) else {
                return;
            };
            let Ok(msg) = McastMsg::decode(body) else {
                return;
            };
            let mut outs = Vec::new();
            self.state.on_message(msg, &mut outs);
            for o in outs {
                if let Out::Send { to, bytes, .. } = o {
                    if to != ctx.me() {
                        ctx.send(to, bytes);
                    }
                }
            }
        }
    }
}

struct MemberActor {
    dedup: McastMember,
    delivered: Arc<Mutex<u32>>,
    duplicates: Arc<Mutex<u64>>,
}

impl Actor for MemberActor {
    fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            let Ok((Proto::Mcast, body)) = open(payload) else {
                return;
            };
            let Ok(McastMsg::Data { group, origin, seq, payload, .. }) = McastMsg::decode(body)
            else {
                return;
            };
            if self.dedup.accept(group, origin, seq, payload).is_some() {
                *self.delivered.lock().unwrap() += 1;
            } else {
                *self.duplicates.lock().unwrap() += 1;
            }
        }
    }
}

struct SenderActor {
    routers: Vec<Endpoint>,
    total: u32,
    seq: u64,
    interval: SimDuration,
}

impl Actor for SenderActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } => {
                if self.seq as u32 >= self.total {
                    return;
                }
                let m = majority(self.routers.len());
                for r in self.routers.iter().take(m) {
                    let msg = McastMsg::Data {
                        group: 1,
                        origin: 7,
                        seq: self.seq,
                        ttl: 8,
                        payload: Bytes::from(vec![0u8; 256]),
                    };
                    ctx.send(*r, seal(Proto::Mcast, msg.encode()));
                }
                self.seq += 1;
                ctx.set_timer(self.interval, 1);
            }
            _ => {}
        }
    }
}

/// Run the router-kill drill.
pub fn run(routers: usize, members: usize, kill: usize, total: u32, seed: u64) -> E6Point {
    assert!(kill < majority(routers), "killing a majority is out of contract");
    let mut topo = Topology::new();
    let net = topo.add_network("eth", Medium::ethernet100(), true);
    let mut router_hosts = Vec::new();
    for i in 0..routers {
        let h = topo.add_host(HostCfg::named(format!("r{i}")));
        topo.attach(h, net);
        router_hosts.push(h);
    }
    let mut member_hosts = Vec::new();
    for i in 0..members {
        let h = topo.add_host(HostCfg::named(format!("m{i}")));
        topo.attach(h, net);
        member_hosts.push(h);
    }
    let sender_host = topo.add_host(HostCfg::named("s"));
    topo.attach(sender_host, net);
    let mut world = World::new(topo, seed);
    let router_eps: Vec<Endpoint> = router_hosts.iter().map(|&h| Endpoint::new(h, 5)).collect();
    let member_eps: Vec<Endpoint> = member_hosts.iter().map(|&h| Endpoint::new(h, 20)).collect();
    // Routers: fully peered, each member registered with a majority
    // (the §5.4 registration discipline).
    for (i, &h) in router_hosts.iter().enumerate() {
        let mut state = McastRouter::new();
        let mut scratch = Vec::new();
        for (j, &peer) in router_eps.iter().enumerate() {
            if i != j {
                state.on_message(McastMsg::Peer { group: 1, router: peer }, &mut scratch);
            }
        }
        for (mi, &member) in member_eps.iter().enumerate() {
            // Member mi registers with majority starting at offset mi.
            let m = majority(routers);
            let covers = (0..m).map(|k| (mi + k) % routers).any(|idx| idx == i);
            if covers {
                state.on_message(McastMsg::Join { group: 1, member }, &mut scratch);
            }
        }
        world.spawn(h, 5, Box::new(RouterActor { state }));
    }
    let mut delivered_counters = Vec::new();
    let duplicates = Arc::new(Mutex::new(0u64));
    for &h in &member_hosts {
        let d = Arc::new(Mutex::new(0u32));
        delivered_counters.push(d.clone());
        world.spawn(
            h,
            20,
            Box::new(MemberActor {
                dedup: McastMember::new(),
                delivered: d,
                duplicates: duplicates.clone(),
            }),
        );
    }
    world.spawn(
        sender_host,
        20,
        Box::new(SenderActor {
            routers: router_eps,
            total,
            seq: 0,
            interval: SimDuration::from_millis(5),
        }),
    );
    // Kill `kill` routers midway through the stream.
    let mid = SimTime::ZERO + SimDuration::from_millis(5) * (total as u64 / 2);
    for &h in router_hosts.iter().take(kill) {
        world.schedule_fault(mid, FaultCmd::HostDown(h));
    }
    world.run_for(SimDuration::from_millis(5) * total as u64 + SimDuration::from_secs(2));
    let min_delivered = delivered_counters.iter().map(|c| *c.lock().unwrap()).min().unwrap_or(0);
    let dups = *duplicates.lock().unwrap();
    E6Point { routers, killed: kill, sent: total, min_delivered, duplicates: dups }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minority_router_kill_loses_nothing() {
        let p = run(5, 4, 2, 100, 11);
        assert_eq!(p.min_delivered, p.sent, "{p:?}");
        assert!(p.duplicates > 0, "redundant paths must produce (suppressed) duplicates");
    }

    #[test]
    fn single_router_no_kill_baseline() {
        let p = run(1, 2, 0, 50, 12);
        assert_eq!(p.min_delivered, 50);
    }
}
