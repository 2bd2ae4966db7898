//! E6 — §5.4 multicast fault tolerance: a sender targets "more than
//! half of the routers", members register with a majority, routers are
//! fully peered — so killing any minority of routers mid-stream must
//! not lose a single group message.

use bytes::Bytes;

use snipe_daemon::McastRouterActor;
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::world::World;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::mcast::{majority, McastMember, McastMsg, McastRouter};

use crate::lan;

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

/// A group member: counts distinct and suppressed-duplicate deliveries
/// (read back through `actor_ref` once the run settles).
pub(crate) struct MemberActor {
    dedup: McastMember,
    pub(crate) delivered: u32,
    pub(crate) duplicates: u64,
}

impl Actor for MemberActor {
    fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            let Ok((Proto::Mcast, body)) = open(payload) else {
                return;
            };
            let Ok(McastMsg::Data { group, origin, seq, payload, .. }) =
                McastMsg::decode_from_bytes(body)
            else {
                return;
            };
            if self.dedup.accept(group, origin, seq, payload).is_some() {
                self.delivered += 1;
            } else {
                self.duplicates += 1;
            }
        }
    }
}

struct SenderActor {
    routers: Vec<Endpoint>,
    total: u32,
    seq: u64,
    /// When the next message goes out; `None` once all are sent.
    next: Option<SimTime>,
}

impl Actor for SenderActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if !matches!(event, Event::Start | Event::Wake) || self.seq as u32 >= self.total {
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
            ctx.send(*r, seal(Proto::Mcast, msg.encode_to_bytes()));
        }
        self.seq += 1;
        self.next = (self.seq < self.total as u64).then(|| ctx.now() + SEND_INTERVAL);
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.next
    }
}

/// Pacing of the group sender.
pub(crate) const SEND_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// Port every member binds.
pub(crate) const MEMBER_PORT: u16 = 20;

/// Spawn the §5.4 group onto `world`: fully peered routers, every member
/// registered with a majority of them, and a sender pacing `total`
/// messages at a majority of the routers.
pub(crate) fn spawn_group(
    world: &mut World,
    routers: &[HostId],
    members: &[HostId],
    sender: HostId,
    total: u32,
) {
    let router_eps: Vec<Endpoint> = routers.iter().map(|&h| Endpoint::new(h, 5)).collect();
    for (i, &h) in routers.iter().enumerate() {
        let mut state = McastRouter::new();
        let mut scratch = Vec::new();
        for (j, &peer) in router_eps.iter().enumerate() {
            if i != j {
                state.on_message(McastMsg::Peer { group: 1, router: peer }, &mut scratch);
            }
        }
        for (mi, &m) in members.iter().enumerate() {
            // Member mi registers with a majority starting at offset mi.
            if (0..majority(routers.len())).any(|k| (mi + k) % routers.len() == i) {
                let member = Endpoint::new(m, MEMBER_PORT);
                state.on_message(McastMsg::Join { group: 1, member }, &mut scratch);
            }
        }
        world.spawn(h, 5, Box::new(McastRouterActor::with_state(state)));
    }
    for &h in members {
        let member = MemberActor { dedup: McastMember::new(), delivered: 0, duplicates: 0 };
        world.spawn(h, MEMBER_PORT, Box::new(member));
    }
    world.spawn(
        sender,
        20,
        Box::new(SenderActor { routers: router_eps, total, seq: 0, next: None }),
    );
}

/// Run the router-kill drill.
pub fn run(routers: usize, members: usize, kill: usize, total: u32, seed: u64) -> E6Point {
    assert!(kill < majority(routers), "killing a majority is out of contract");
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], routers + members + 1);
    let (router_hosts, rest) = hosts.split_at(routers);
    let (member_hosts, sender_host) = rest.split_at(members);
    spawn_group(&mut world, router_hosts, member_hosts, sender_host[0], total);
    // Kill `kill` routers midway through the stream.
    let mid = SimTime::ZERO + SEND_INTERVAL * (total as u64 / 2);
    for &h in router_hosts.iter().take(kill) {
        world.schedule_fault(mid, FaultCmd::HostDown(h));
    }
    world.run_for(SEND_INTERVAL * total as u64 + SimDuration::from_secs(2));
    let stats: Vec<&MemberActor> = member_hosts
        .iter()
        .filter_map(|&h| world.actor_ref::<MemberActor>(Endpoint::new(h, MEMBER_PORT)))
        .collect();
    E6Point {
        routers,
        killed: kill,
        sent: total,
        min_delivered: stats.iter().map(|m| m.delivered).min().unwrap_or(0),
        duplicates: stats.iter().map(|m| m.duplicates).sum(),
    }
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
