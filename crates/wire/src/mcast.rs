//! Reliable group communication: the router-based multicast of §5.4.
//!
//! "Multicast messages are sent to one or more host daemons which are
//! acting as routers for that particular multicast group. Each router
//! is responsible for relaying messages to a subset of the processes in
//! the group, and to other routers which have not received the message.
//! ... each process ... may register its membership with multiple
//! multicast routers. Each router ... registers itself with more than
//! half of the other routers ... and any message sent to that group is
//! initially sent to more than half of the routers ... to ensure that
//! there is at least one path from the sending process to each
//! recipient."
//!
//! Reliability therefore comes from **redundant paths** (majority
//! fan-out plus router-to-router flooding with dedup), not per-leg
//! retransmission; this module implements the router relay state and
//! member-side dedup as sans-IO state machines.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::error::SnipeResult;
use snipe_util::wire_codec;

use crate::frame::{self, Proto};
use crate::Out;

/// A multicast group identifier (hash of the group URN; the URN itself
/// lives in RC metadata).
pub type GroupId = u64;

/// A parsed multicast packet.
#[derive(Clone, Debug, PartialEq)]
pub enum McastMsg {
    /// Group payload in flight.
    Data {
        /// Group.
        group: GroupId,
        /// Stable key of the original sender.
        origin: u64,
        /// Origin's per-group sequence number (dedup key).
        seq: u64,
        /// Remaining router-to-router hops allowed.
        ttl: u8,
        /// Payload.
        payload: Bytes,
    },
    /// A member registers with this router.
    Join {
        /// Group.
        group: GroupId,
        /// Member's delivery endpoint.
        member: Endpoint,
    },
    /// A member leaves.
    Leave {
        /// Group.
        group: GroupId,
        /// Member endpoint to remove.
        member: Endpoint,
    },
    /// Another router announces itself as a peer for the group.
    Peer {
        /// Group.
        group: GroupId,
        /// The peer router's endpoint.
        router: Endpoint,
    },
}

// The MCAST envelope body: no magic byte (the envelope tag already
// names the protocol), `group` first in every variant.
wire_codec!(enum McastMsg {
    1 => Data { group, origin, seq, ttl, payload },
    2 => Join { group, member },
    3 => Leave { group, member },
    4 => Peer { group, router },
});

/// Per-group relay state held by a router (a SNIPE daemon that elected
/// itself, §5.4).
#[derive(Debug, Default)]
struct GroupState {
    members: HashSet<Endpoint>,
    peers: HashSet<Endpoint>,
    seen: HashSet<(u64, u64)>,
}

/// The router relay: dedup + fan-out to members and peer routers.
#[derive(Debug, Default)]
pub struct McastRouter {
    groups: HashMap<GroupId, GroupState>,
    /// Messages relayed (for stats).
    pub relayed: u64,
    /// Duplicates suppressed.
    pub duplicates: u64,
}

impl McastRouter {
    /// Empty router.
    pub fn new() -> McastRouter {
        McastRouter::default()
    }

    /// Member endpoints of a group on this router.
    #[allow(clippy::disallowed_methods, reason = "the list is sorted")]
    pub fn members(&self, g: GroupId) -> Vec<Endpoint> {
        let mut v: Vec<Endpoint> =
            self.groups.get(&g).map(|s| s.members.iter().copied().collect()).unwrap_or_default();
        v.sort();
        v
    }

    /// Peer routers of a group on this router.
    #[allow(clippy::disallowed_methods, reason = "the list is sorted")]
    pub fn peers(&self, g: GroupId) -> Vec<Endpoint> {
        let mut v: Vec<Endpoint> =
            self.groups.get(&g).map(|s| s.peers.iter().copied().collect()).unwrap_or_default();
        v.sort();
        v
    }

    /// Handle one MCAST packet arriving at this router; appends the
    /// sealed relays to `out`.
    pub fn on_message(&mut self, msg: McastMsg, out: &mut Vec<Out>) {
        match msg {
            McastMsg::Join { group, member } => {
                self.groups.entry(group).or_default().members.insert(member);
            }
            McastMsg::Leave { group, member } => {
                if let Some(s) = self.groups.get_mut(&group) {
                    s.members.remove(&member);
                }
            }
            McastMsg::Peer { group, router } => {
                self.groups.entry(group).or_default().peers.insert(router);
            }
            McastMsg::Data { group, origin, seq, ttl, payload } => {
                let state = self.groups.entry(group).or_default();
                if !state.seen.insert((origin, seq)) {
                    self.duplicates += 1;
                    return;
                }
                self.relayed += 1;
                // Deliver to local members.
                #[allow(clippy::disallowed_methods, reason = "sorted before sending")]
                let mut members: Vec<Endpoint> = state.members.iter().copied().collect();
                members.sort();
                for m in members {
                    let fwd = McastMsg::Data { group, origin, seq, ttl, payload: payload.clone() };
                    let bytes = frame::seal_with(Proto::Mcast, |enc| fwd.encode(enc));
                    out.push(Out::Send { to: m, via: None, spray: None, bytes });
                }
                // Relay to peer routers while TTL remains.
                if ttl > 0 {
                    #[allow(clippy::disallowed_methods, reason = "sorted before sending")]
                    let mut peers: Vec<Endpoint> = state.peers.iter().copied().collect();
                    peers.sort();
                    for p in peers {
                        let fwd = McastMsg::Data {
                            group,
                            origin,
                            seq,
                            ttl: ttl - 1,
                            payload: payload.clone(),
                        };
                        let bytes = frame::seal_with(Proto::Mcast, |enc| fwd.encode(enc));
                        out.push(Out::Send { to: p, via: None, spray: None, bytes });
                    }
                }
            }
        }
    }
}

/// Member-side dedup: a process registered with several routers receives
/// each message up to once per router and must deliver exactly once.
///
/// Inside a [`WireStack`](crate::stack::WireStack) the member consumes
/// MCAST datagrams and emits one [`Out::Deliver`] per fresh `(origin, seq)`;
/// the delivered `msg` is the *encoded* [`McastMsg`] body so consumers
/// can recover the group id and payload with `McastMsg::decode_from_bytes`.
#[derive(Debug, Default)]
pub struct McastMember {
    seen: HashMap<GroupId, HashSet<(u64, u64)>>,
    next_seq: HashMap<GroupId, u64>,
    out: Vec<Out>,
}

impl McastMember {
    /// Empty member state.
    pub fn new() -> McastMember {
        McastMember::default()
    }

    /// Allocate the next per-group sequence number for sending.
    pub fn next_seq(&mut self, g: GroupId) -> u64 {
        let s = self.next_seq.entry(g).or_insert(0);
        let v = *s;
        *s += 1;
        v
    }

    /// Returns the payload exactly once per (origin, seq); `None` for
    /// duplicates.
    pub fn accept(
        &mut self,
        group: GroupId,
        origin: u64,
        seq: u64,
        payload: Bytes,
    ) -> Option<Bytes> {
        if self.seen.entry(group).or_default().insert((origin, seq)) {
            Some(payload)
        } else {
            None
        }
    }

    /// Handle one MCAST envelope body arriving at this member. Fresh
    /// `Data` becomes a `Deliver` carrying the encoded message (so the
    /// group id travels with it); duplicates and router-side control
    /// messages (Join/Leave/Peer) are silently dropped.
    pub fn on_datagram(&mut self, from: Endpoint, body: Bytes) -> SnipeResult<()> {
        let msg = McastMsg::decode_from_bytes(body.clone())?;
        if let McastMsg::Data { group, origin, seq, .. } = msg {
            if self.accept(group, origin, seq, Bytes::new()).is_some() {
                self.out.push(Out::Deliver {
                    proto: Proto::Mcast,
                    from_key: origin,
                    from_ep: from,
                    msg: body,
                });
            }
        }
        Ok(())
    }

    /// Move the queued deliveries onto the end of `into`.
    pub fn drain_into(&mut self, into: &mut Vec<Out>) {
        into.append(&mut self.out);
    }

    /// True when no delivery is queued.
    pub fn quiescent(&self) -> bool {
        self.out.is_empty()
    }

    /// Serialize dedup + sequence state (sorted, so snapshots are
    /// byte-for-byte deterministic).
    #[allow(clippy::disallowed_methods, reason = "collected into BTreeMaps and sorted Vecs")]
    pub fn export_state(&self) -> Bytes {
        let seen = self.seen.iter().map(|(&g, set)| {
            let mut pairs: Vec<(u64, u64)> = set.iter().copied().collect();
            pairs.sort_unstable();
            (g, pairs)
        });
        let next_seq = self.next_seq.iter().map(|(&g, &s)| (g, s)).collect();
        McastSnapshot { seen: seen.collect(), next_seq }.encode_to_bytes()
    }

    /// Restore state produced by [`McastMember::export_state`].
    pub fn import_state(bytes: Bytes) -> SnipeResult<McastMember> {
        let snapshot = McastSnapshot::decode_from_bytes(bytes)?;
        let seen = snapshot.seen.into_iter().map(|(g, pairs)| (g, pairs.into_iter().collect()));
        let next_seq = snapshot.next_seq.into_iter().collect();
        Ok(McastMember { seen: seen.collect(), next_seq, out: Vec::new() })
    }
}

/// A member's migration snapshot: the `(origin, seq)` pairs seen per
/// group and the next sequence number per group, all in key order.
struct McastSnapshot {
    seen: BTreeMap<GroupId, Vec<(u64, u64)>>,
    next_seq: BTreeMap<GroupId, u64>,
}

wire_codec!(struct McastSnapshot { seen, next_seq });

/// How many routers a sender must initially target: "more than half".
pub fn majority(router_count: usize) -> usize {
    router_count / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(HostId(h), p)
    }

    fn data(group: GroupId, origin: u64, seq: u64, ttl: u8) -> McastMsg {
        McastMsg::Data { group, origin, seq, ttl, payload: Bytes::from_static(b"m") }
    }

    #[test]
    fn codec_round_trip() {
        for msg in [
            data(7, 1, 2, 3),
            McastMsg::Join { group: 7, member: ep(1, 2) },
            McastMsg::Leave { group: 7, member: ep(1, 2) },
            McastMsg::Peer { group: 7, router: ep(3, 5) },
        ] {
            assert_eq!(McastMsg::decode_from_bytes(msg.encode_to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn router_fans_out_to_members_and_peers() {
        let mut r = McastRouter::new();
        let mut out = Vec::new();
        r.on_message(McastMsg::Join { group: 1, member: ep(10, 5) }, &mut out);
        r.on_message(McastMsg::Join { group: 1, member: ep(11, 5) }, &mut out);
        r.on_message(McastMsg::Peer { group: 1, router: ep(20, 5) }, &mut out);
        assert!(out.is_empty());
        r.on_message(data(1, 99, 0, 4), &mut out);
        let targets: Vec<Endpoint> = out
            .iter()
            .map(|o| match o {
                Out::Send { to, .. } => *to,
                _ => panic!("unexpected"),
            })
            .collect();
        assert!(targets.contains(&ep(10, 5)));
        assert!(targets.contains(&ep(11, 5)));
        assert!(targets.contains(&ep(20, 5)));
        assert_eq!(targets.len(), 3);
    }

    #[test]
    fn duplicates_suppressed() {
        let mut r = McastRouter::new();
        let mut out = Vec::new();
        r.on_message(McastMsg::Join { group: 1, member: ep(10, 5) }, &mut out);
        r.on_message(data(1, 99, 0, 4), &mut out);
        let first = out.len();
        r.on_message(data(1, 99, 0, 4), &mut out);
        assert_eq!(out.len(), first, "duplicate must not refan");
        assert_eq!(r.duplicates, 1);
    }

    #[test]
    fn ttl_stops_relay_but_not_delivery() {
        let mut r = McastRouter::new();
        let mut out = Vec::new();
        r.on_message(McastMsg::Join { group: 1, member: ep(10, 5) }, &mut out);
        r.on_message(McastMsg::Peer { group: 1, router: ep(20, 5) }, &mut out);
        r.on_message(data(1, 99, 0, 0), &mut out);
        assert_eq!(out.len(), 1); // member only, no peer relay
    }

    #[test]
    fn leave_removes_member() {
        let mut r = McastRouter::new();
        let mut out = Vec::new();
        r.on_message(McastMsg::Join { group: 1, member: ep(10, 5) }, &mut out);
        r.on_message(McastMsg::Leave { group: 1, member: ep(10, 5) }, &mut out);
        r.on_message(data(1, 99, 0, 4), &mut out);
        assert!(out.is_empty());
        assert!(r.members(1).is_empty());
    }

    #[test]
    fn member_dedup_exactly_once() {
        let mut m = McastMember::new();
        assert!(m.accept(1, 9, 0, Bytes::from_static(b"x")).is_some());
        assert!(m.accept(1, 9, 0, Bytes::from_static(b"x")).is_none());
        assert!(m.accept(1, 9, 1, Bytes::from_static(b"y")).is_some());
        assert!(m.accept(2, 9, 0, Bytes::from_static(b"z")).is_some());
    }

    #[test]
    fn member_seq_allocation_monotonic() {
        let mut m = McastMember::new();
        assert_eq!(m.next_seq(1), 0);
        assert_eq!(m.next_seq(1), 1);
        assert_eq!(m.next_seq(2), 0);
    }

    #[test]
    fn majority_rule() {
        assert_eq!(majority(1), 1);
        assert_eq!(majority(2), 2);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
    }

    #[test]
    fn member_driver_delivers_fresh_data_exactly_once() {
        let mut m = McastMember::new();
        let body = data(7, 42, 0, 3).encode_to_bytes();
        m.on_datagram(ep(1, 5), body.clone()).unwrap();
        m.on_datagram(ep(2, 5), body.clone()).unwrap(); // dup via second router
        let outs = std::mem::take(&mut m.out);
        assert_eq!(outs.len(), 1);
        let Out::Deliver { proto, from_key, msg, .. } = &outs[0] else {
            panic!("expected Deliver");
        };
        assert_eq!(*proto, crate::frame::Proto::Mcast);
        assert_eq!(*from_key, 42);
        let decoded = McastMsg::decode_from_bytes(msg.clone()).unwrap();
        assert_eq!(decoded, data(7, 42, 0, 3));
        assert!(m.quiescent());
    }

    #[test]
    fn member_driver_ignores_control_messages() {
        let mut m = McastMember::new();
        m.on_datagram(ep(1, 5), McastMsg::Join { group: 1, member: ep(9, 9) }.encode_to_bytes())
            .unwrap();
        m.on_datagram(ep(1, 5), McastMsg::Peer { group: 1, router: ep(9, 9) }.encode_to_bytes())
            .unwrap();
        assert!(m.quiescent());
        assert!(m.on_datagram(ep(1, 5), Bytes::from_static(b"\xff")).is_err());
    }

    #[test]
    fn member_state_round_trips_and_keeps_dedup() {
        let mut m = McastMember::new();
        assert!(m.accept(1, 9, 0, Bytes::new()).is_some());
        assert!(m.accept(1, 9, 1, Bytes::new()).is_some());
        assert!(m.accept(2, 8, 0, Bytes::new()).is_some());
        assert_eq!(m.next_seq(5), 0);
        assert_eq!(m.next_seq(5), 1);

        let snap = m.export_state();
        let mut r = McastMember::import_state(snap.clone()).unwrap();
        // Snapshot encoding is deterministic.
        assert_eq!(r.export_state(), snap);
        // Dedup state survived: the old messages are still duplicates.
        assert!(r.accept(1, 9, 0, Bytes::new()).is_none());
        assert!(r.accept(1, 9, 1, Bytes::new()).is_none());
        assert!(r.accept(2, 8, 0, Bytes::new()).is_none());
        assert!(r.accept(1, 9, 2, Bytes::new()).is_some());
        // Sequence allocation continues where it left off.
        assert_eq!(r.next_seq(5), 2);
    }

    #[test]
    fn member_state_with_trailing_bytes_is_refused() {
        let mut m = McastMember::new();
        m.accept(1, 9, 0, Bytes::new());
        let mut snap = m.export_state().to_vec();
        snap.extend_from_slice(b"junk");
        let err = McastMember::import_state(Bytes::from(snap)).unwrap_err();
        assert!(err.to_string().contains("4 trailing bytes"), "{err}");
    }

    #[test]
    fn flood_covers_router_mesh() {
        // Three routers in a line: r0 - r1 - r2; member on r2.
        // A message entering r0 must reach the member via flooding.
        let mut routers = [McastRouter::new(), McastRouter::new(), McastRouter::new()];
        let eps = [ep(0, 5), ep(1, 5), ep(2, 5)];
        let mut out = Vec::new();
        routers[0].on_message(McastMsg::Peer { group: 1, router: eps[1] }, &mut out);
        routers[1].on_message(McastMsg::Peer { group: 1, router: eps[0] }, &mut out);
        routers[1].on_message(McastMsg::Peer { group: 1, router: eps[2] }, &mut out);
        routers[2].on_message(McastMsg::Peer { group: 1, router: eps[1] }, &mut out);
        routers[2].on_message(McastMsg::Join { group: 1, member: ep(9, 7) }, &mut out);
        // Inject at r0 and shuttle.
        let mut inbox: Vec<(usize, McastMsg)> = vec![(0, data(1, 42, 0, 8))];
        let mut member_got = 0;
        while let Some((ri, msg)) = inbox.pop() {
            let mut outs = Vec::new();
            routers[ri].on_message(msg, &mut outs);
            for o in outs {
                let Out::Send { to, bytes, .. } = o else {
                    continue;
                };
                let (_, body) = crate::frame::open(bytes).unwrap();
                let m = McastMsg::decode_from_bytes(body).unwrap();
                if to == ep(9, 7) {
                    member_got += 1;
                } else if let Some(i) = eps.iter().position(|&e| e == to) {
                    inbox.push((i, m));
                }
            }
        }
        assert_eq!(member_got, 1);
    }
}
