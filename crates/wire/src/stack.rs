//! The assembled wire stack embedded in every SNIPE process actor.
//!
//! [`WireStack`] holds the paper's fixed set of protocol modules behind
//! one multiplexing library (§3), each as a field of its own type:
//!
//! * [`Srudp`] is always present (reliable FIFO messaging keyed by
//!   stable node keys, §5.6); an [`Rstream`] and a member-side
//!   [`McastMember`] are opt-in via [`StackConfig`]. Timers, deadlines,
//!   drains and snapshots visit them in that order;
//! * incoming datagrams are demultiplexed on the [`crate::frame`]
//!   envelope tag: a configured transport consumes the *opened* body
//!   (completed messages come back as [`Out::Deliver`], tagged with its
//!   protocol), anything else is surfaced as [`Incoming`] for
//!   host-level logic (raw datagrams, the daemon's multicast router);
//! * transports drain *sealed* datagrams ([`crate::frame::seal_with`]):
//!   the stack moves them to its queue and routes SRUDP's through one
//!   [`PathSelector`] (multi-path failover, §6), re-encoding nothing:
//!   a datagram to a peer with pinned routes takes the peer's current
//!   route, which only a rotation on timeout or duplicate evidence
//!   moves ([`crate::path`]);
//!   [`WireStack::send_raw`] and [`WireStack::send_mcast`] seal the
//!   bodies their callers hand in;
//! * [`WireStack::on_timer`] tolerates early or spurious fires: each
//!   transport re-checks its own deadlines, which is what lets the host
//!   recover from an outage by firing everything on `HostUp`;
//! * migration snapshots list each transport's exported state under
//!   its protocol tag ([`WireStack::export_state`]).
//!
//! The stack is still sans-IO. Inside a `snipe-netsim` actor it lives
//! in a [`StackHost`](crate::host::StackHost), the one adapter that
//! feeds it packets and timer events, turns emitted [`Out`] actions
//! into `ctx.send` calls and keeps a wake-up armed for
//! [`WireStack::next_deadline`]; actors do not do that by hand.

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, TraceKind};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::id::NetId;
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;

use crate::frame::{open_classified, seal, FrameError, Proto};
use crate::mcast::McastMember;
use crate::path::PathSelector;
use crate::rstream::{Rstream, RstreamConfig};
use crate::srudp::{NodeKey, Srudp, SrudpConfig, SrudpStats};
use crate::Out;

/// Configuration for the assembled stack.
#[derive(Clone, Debug, Default)]
pub struct StackConfig {
    /// SRUDP tuning.
    pub srudp: SrudpConfig,
    /// Run an RSTREAM endpoint with this tuning (off by default: most
    /// SNIPE processes speak SRUDP only).
    pub rstream: Option<RstreamConfig>,
    /// Run a member-side multicast dedup endpoint; MCAST datagrams
    /// are then consumed and delivered (tagged [`Proto::Mcast`])
    /// instead of surfacing as [`Incoming::Mcast`].
    pub mcast_member: bool,
}

/// An incoming item after protocol demultiplexing.
///
/// Traffic for a *configured* transport is never surfaced here: the stack
/// consumes it internally and yields completed messages as
/// [`Out::Deliver`] from [`WireStack::drain`] (they may complete later
/// than the datagram that carried the final fragment).
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A raw datagram (no reliability).
    Raw {
        /// Sender endpoint.
        from: Endpoint,
        /// Payload.
        msg: Bytes,
    },
    /// A multicast relay packet for the host's router logic.
    Mcast {
        /// Sender endpoint.
        from: Endpoint,
        /// MCAST body (decode as a [`crate::mcast::McastMsg`]).
        body: Bytes,
    },
    /// An RSTREAM body for a co-hosted [`Rstream`] not owned by this
    /// stack.
    Stream {
        /// Sender endpoint.
        from: Endpoint,
        /// RSTREAM body.
        body: Bytes,
    },
}

/// Derive the conventional node key of a non-migrating infrastructure
/// service (daemon, RC server, file server) from its well-known
/// endpoint. Application processes instead use the globally unique
/// process key their daemon assigned, which survives migration.
pub fn endpoint_key(ep: Endpoint) -> NodeKey {
    ((ep.host.0 as u64) << 32) | (1 << 63) | ep.port as u64
}

/// Consecutive duplicate-DATA streak that counts as receiver-side
/// evidence of a dead return path (our SACKs are not getting back).
const DUP_STREAK_ROTATE: u32 = 3;

/// A duplicate streak only counts as return-route evidence once fresh
/// DATA has been absent this long. While fresh fragments still arrive,
/// duplicates are just the sender's escalated retransmissions catching
/// up — rotating on them would flap a receiver off a working route.
const DUP_FRESH_STALL: SimDuration = SimDuration::from_millis(10);

/// Upper bound on distinct media used to spray erasure-coded shares
/// toward one peer. Spreading wider than this buys little redundancy
/// and keeps worst-case route fan-out predictable.
const MAX_SPRAY_PATHS: usize = 4;

/// The per-process wire stack.
pub struct WireStack {
    srudp: Srudp,
    rstream: Option<Rstream>,
    mcast: Option<McastMember>,
    paths: PathSelector,
    out: Vec<Out>,
    drops: DecodeDrops,
}

/// One transport's section of a stack snapshot: its snapshot, keyed by
/// its protocol.
struct Section {
    proto: Proto,
    state: Bytes,
}

wire_codec!(struct Section { proto, state });

/// Datagrams the stack rejected, by class: hostile bytes are expected
/// input on a real wire, so each rejection is counted, never panicked
/// on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeDrops {
    /// Envelope cut short ([`FrameError::Truncated`]).
    pub truncated: u64,
    /// Envelope checksum mismatch ([`FrameError::Checksum`]).
    pub checksum: u64,
    /// Envelope tag names no protocol ([`FrameError::UnknownTag`]).
    pub unknown_tag: u64,
    /// A valid envelope whose transport refused the body.
    pub body: u64,
}

impl WireStack {
    /// Compile-time proof that a whole stack can live inside an actor
    /// (actors are `Send`: any worker thread may drive their region).
    const _ASSERT_SEND: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<WireStack>()
    };

    /// New stack for a process with the given stable key.
    pub fn new(my_key: NodeKey, cfg: StackConfig) -> WireStack {
        WireStack::around(Srudp::new(my_key, cfg.srudp), cfg.rstream, cfg.mcast_member)
    }

    /// A stack over `srudp`, plus the RSTREAM endpoint and multicast
    /// member a [`StackConfig`] asks for.
    fn around(srudp: Srudp, rstream: Option<RstreamConfig>, mcast_member: bool) -> WireStack {
        let my_key = srudp.key();
        WireStack {
            srudp,
            rstream: rstream.map(|rc| Rstream::new(rc, my_key)),
            mcast: mcast_member.then(McastMember::new),
            paths: PathSelector::new(),
            out: Vec::new(),
            drops: DecodeDrops::default(),
        }
    }

    /// Our node key.
    pub fn key(&self) -> NodeKey {
        self.srudp.key()
    }

    /// The stack-owned RSTREAM endpoint, if one is configured.
    pub fn rstream(&self) -> Option<&Rstream> {
        self.rstream.as_ref()
    }

    /// Mutable access to the stack-owned RSTREAM endpoint. Actions it
    /// emits (connect/send/close) are collected on the next
    /// [`WireStack::drain`].
    pub fn rstream_mut(&mut self) -> Option<&mut Rstream> {
        self.rstream.as_mut()
    }

    /// Mutable access to the stack-owned multicast member, if one is
    /// configured (sequence allocation for sending).
    pub fn mcast_member_mut(&mut self) -> Option<&mut McastMember> {
        self.mcast.as_mut()
    }

    /// SRUDP counters.
    pub fn srudp_stats(&self) -> SrudpStats {
        self.srudp.stats()
    }

    /// Record a peer's location and (optionally) its ranked candidate
    /// networks from host metadata. Messages queued while the location
    /// was unknown start flowing immediately.
    pub fn set_peer(&mut self, key: NodeKey, ep: Endpoint, routes: Vec<NetId>) {
        self.set_peer_at(SimTime::ZERO, key, ep, routes)
    }

    /// [`Self::set_peer`] with an explicit current time (affects RTT
    /// bookkeeping of the fragments transmitted right away).
    pub fn set_peer_at(&mut self, now: SimTime, key: NodeKey, ep: Endpoint, routes: Vec<NetId>) {
        self.srudp.set_peer_endpoint(key, ep);
        self.paths.update(key, routes);
        self.srudp.pump_peer(now, key);
        self.harvest();
    }

    /// Current known location of a peer.
    pub fn peer_endpoint(&self, key: NodeKey) -> Option<Endpoint> {
        self.srudp.peer_endpoint(key)
    }

    /// Number of route failovers performed for a peer.
    pub fn failovers(&self, key: NodeKey) -> u32 {
        self.paths.failovers(key)
    }

    /// Read-only performance score for a peer: SRUDP's smoothed RTT
    /// toward it, in seconds. Lower is better; `None` until a round
    /// trip has been measured. This is the replica-selection hook —
    /// file clients sort candidate replicas by this score before
    /// opening a striped read.
    pub fn peer_score(&self, key: NodeKey) -> Option<f64> {
        self.srudp.peer_srtt(key).map(|s| s.as_secs_f64())
    }

    /// All peer keys with transport state (learned or configured).
    pub fn known_peers(&self) -> Vec<NodeKey> {
        let mut v = Vec::new();
        self.known_peers_into(&mut v);
        v
    }

    /// [`Self::known_peers`] into a caller-owned scratch vector:
    /// appends (sorted) without allocating when capacity suffices.
    pub fn known_peers_into(&self, into: &mut Vec<NodeKey>) {
        self.srudp.peer_keys_into(into);
    }

    /// The pinned route candidates for a peer (empty = default routing).
    pub fn route_candidates(&self, key: NodeKey) -> Vec<NetId> {
        self.paths.peer(key).map(|p| p.candidates().to_vec()).unwrap_or_default()
    }

    /// Append (sorted) the peers whose consecutive-timeout count reached
    /// `threshold` — candidates for RC location re-resolution (they may
    /// have migrated, §5.6) — without allocating when `into`'s capacity
    /// suffices.
    pub fn peers_in_trouble_into(&self, threshold: u32, into: &mut Vec<NodeKey>) {
        let srudp = &self.srudp;
        let start = into.len();
        srudp.peer_keys_into(into);
        let mut w = start;
        for i in start..into.len() {
            let k = into[i];
            if srudp.peer_timeouts(k) >= threshold {
                into[w] = k;
                w += 1;
            }
        }
        into.truncate(w);
    }

    /// Send a reliable FIFO message to a peer by key. Errors when the
    /// configured fragment size is unusable (zero) — a misconfiguration
    /// surfaced to the caller rather than a panic deep in [`crate::frag`].
    pub fn send(&mut self, now: SimTime, to: NodeKey, msg: Bytes) -> SnipeResult<()> {
        self.srudp.send_message(now, to, msg)?;
        self.harvest();
        Ok(())
    }

    /// Send a raw (unreliable) datagram to an endpoint.
    pub fn send_raw(&mut self, to: Endpoint, msg: Bytes) {
        self.out.push(Out::Send { to, via: None, spray: None, bytes: seal(Proto::Raw, msg) });
    }

    /// Send a multicast relay packet (already MCAST-encoded body).
    pub fn send_mcast(&mut self, to: Endpoint, body: Bytes) {
        self.out.push(Out::Send { to, via: None, spray: None, bytes: seal(Proto::Mcast, body) });
    }

    /// Handle an incoming datagram from the simulator.
    ///
    /// Traffic for a configured transport is consumed internally (it
    /// answers with its own control packets and delivers complete
    /// messages through [`Self::drain`]); anything else is surfaced to
    /// the caller.
    pub fn on_datagram(
        &mut self,
        now: SimTime,
        from: Endpoint,
        datagram: Bytes,
    ) -> SnipeResult<Option<Incoming>> {
        let (proto, body) = match open_classified(datagram) {
            Ok(opened) => opened,
            Err(e) => {
                let d = &mut self.drops;
                *match e {
                    FrameError::Truncated => &mut d.truncated,
                    FrameError::Checksum => &mut d.checksum,
                    FrameError::UnknownTag => &mut d.unknown_tag,
                } += 1;
                return Err(SnipeError::Codec(format!("bad envelope: {}", e.name())));
            }
        };
        let consumed = match (proto, &mut self.rstream, &mut self.mcast) {
            (Proto::Srudp, ..) => self.srudp.on_packet(now, from, body),
            (Proto::Rstream, Some(rstream), _) => rstream.on_packet(now, from, body),
            (Proto::Mcast, _, Some(member)) => member.on_datagram(from, body),
            (Proto::Rstream, None, _) => return Ok(Some(Incoming::Stream { from, body })),
            (Proto::Mcast, _, None) => return Ok(Some(Incoming::Mcast { from, body })),
            (Proto::Raw, ..) => return Ok(Some(Incoming::Raw { from, msg: body })),
        };
        if let Err(e) = consumed {
            // A valid envelope carrying a malformed protocol body:
            // counted, surfaced, never panicked on.
            self.drops.body += 1;
            return Err(e);
        }
        self.check_failover(now);
        self.harvest();
        Ok(None)
    }

    /// Fire protocol timers (safe to call early or spuriously: each
    /// transport re-checks its own deadlines).
    pub fn on_timer(&mut self, now: SimTime) {
        self.srudp.on_timer(now);
        if let Some(r) = &mut self.rstream {
            r.on_timer(now);
        }
        self.check_failover(now);
        self.harvest();
    }

    /// Rotate the routes of pinned peers in trouble (§6 failover):
    /// sender-side evidence is consecutive RTO expiries; receiver-side
    /// evidence is a streak of duplicate DATA (our SACKs are not
    /// getting back).
    fn check_failover(&mut self, now: SimTime) {
        let srudp = &mut self.srudp;
        for (k, p) in self.paths.peers_mut() {
            let timeout_rotated = p.report_timeouts(srudp.peer_timeouts(k));
            let fresh_stalled =
                srudp.peer_last_fresh(k).is_none_or(|t| now.since(t) >= DUP_FRESH_STALL);
            let dup_rotated = srudp.peer_dup_streak(k) >= DUP_STREAK_ROTATE
                && fresh_stalled
                && p.rotate_for_dups(now);
            if dup_rotated {
                srudp.reset_dup_streak(k);
            }
            if (timeout_rotated || dup_rotated) && trace::enabled() {
                let net = p.current().map(|n| n.0).unwrap_or(u32::MAX);
                trace::record(now, TraceKind::PathRotate { peer: k, rank: net });
            }
        }
    }

    /// Datagrams rejected by the decode path, by class.
    pub fn decode_stats(&self) -> DecodeDrops {
        self.drops
    }

    /// Total datagrams rejected by the decode path (any class),
    /// including valid envelopes with malformed protocol bodies.
    pub fn decode_drops(&self) -> u64 {
        let d = self.drops;
        d.truncated + d.checksum + d.unknown_tag + d.body
    }

    /// Earliest wanted wake-up across every transport (a multicast
    /// member keeps no timers).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let rstream = self.rstream.as_ref().and_then(Rstream::next_deadline);
        match (self.srudp.next_deadline(), rstream) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Unsent + unacked payload bytes across all peers.
    pub fn backlog_total(&self) -> usize {
        self.srudp.backlog_total()
    }

    /// True when nothing is queued or in flight in any transport.
    pub fn quiescent(&self) -> bool {
        self.out.is_empty()
            && self.srudp.quiescent()
            && self.rstream.as_ref().is_none_or(Rstream::quiescent)
            && self.mcast.as_ref().is_none_or(McastMember::quiescent)
    }

    /// Which pinned peer an SRUDP datagram to `to` belongs to: the
    /// smallest pinned key located there (linear scan in key order:
    /// pinned peers are few per process).
    fn owner_of(&self, to: Endpoint) -> Option<NodeKey> {
        let srudp = &self.srudp;
        self.paths.min_key_where(|k| srudp.peer_endpoint(k) == Some(to))
    }

    /// Route an SRUDP datagram to `to`: the owning peer's current
    /// medium. An erasure-coded share (`spray` is its index) is spread
    /// across up to [`MAX_SPRAY_PATHS`] distinct media toward that
    /// peer, in rank order from the current one, so a single gray link
    /// drops some shares rather than the whole message. A peer with no
    /// pinned routes is left to the simulator.
    fn route(&self, to: Endpoint, spray: Option<u32>) -> Option<NetId> {
        let peer = self.paths.peer(self.owner_of(to)?)?;
        match spray {
            Some(idx) => peer.spray_route(MAX_SPRAY_PATHS, idx as usize),
            None => peer.current(),
        }
    }

    /// Move transport outputs into the stack queue — their datagrams
    /// are already sealed — and pin the routes of SRUDP's.
    fn harvest(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        let start = out.len();
        self.srudp.drain_into(&mut out);
        for o in &mut out[start..] {
            if let Out::Send { to, via, spray, .. } = o {
                *via = self.route(*to, *spray);
            }
        }
        if let Some(r) = &mut self.rstream {
            r.drain_into(&mut out);
        }
        if let Some(m) = &mut self.mcast {
            m.drain_into(&mut out);
        }
        self.out = out;
    }

    /// Drain pending actions (sends to execute + received messages).
    pub fn drain(&mut self) -> Vec<Out> {
        self.harvest();
        std::mem::take(&mut self.out)
    }

    /// Serialize the migratable transport state (§5.6): each
    /// transport's snapshot under its protocol tag. RSTREAM's is an
    /// empty marker: its connections are endpoint-addressed and
    /// deliberately die with the process (the E5 contrast case). Path
    /// state is not carried: the new host has different interfaces, so
    /// routes are re-learned from RC metadata.
    pub fn export_state(&self) -> Bytes {
        let mut sections = Vec::with_capacity(3);
        sections.push(Section { proto: Proto::Srudp, state: self.srudp.export_state() });
        if self.rstream.is_some() {
            sections.push(Section { proto: Proto::Rstream, state: Bytes::new() });
        }
        if let Some(m) = &self.mcast {
            sections.push(Section { proto: Proto::Mcast, state: m.export_state() });
        }
        sections.encode_to_bytes()
    }

    /// Rebuild a stack from exported state, with the transports `cfg`
    /// asks for: SRUDP restores the first SRUDP section and kicks
    /// retransmission of everything unacknowledged, a multicast member
    /// restores the last MCAST section, and RSTREAM starts empty.
    /// Sections no configured transport restores are dropped unread.
    pub fn import_state(bytes: Bytes, cfg: StackConfig, now: SimTime) -> SnipeResult<WireStack> {
        let sections = Vec::<Section>::decode_from_bytes(bytes)?;
        let srudp_bytes = sections
            .iter()
            .find(|s| s.proto == Proto::Srudp)
            .map(|s| s.state.clone())
            .ok_or_else(|| SnipeError::Codec("stack snapshot missing SRUDP section".into()))?;
        let mut srudp = Srudp::import_state(srudp_bytes, cfg.srudp, now)?;
        srudp.retransmit_all(now);
        let mut stack = WireStack::around(srudp, cfg.rstream, cfg.mcast_member);
        if let Some(m) = &mut stack.mcast {
            for Section { proto, state } in sections {
                if proto == Proto::Mcast {
                    *m = McastMember::import_state(state)?;
                }
            }
        }
        Ok(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::open;
    use snipe_util::id::HostId;
    use snipe_util::time::SimDuration;

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(HostId(h), p)
    }

    fn pump(
        a: &mut WireStack,
        b: &mut WireStack,
        a_ep: Endpoint,
        b_ep: Endpoint,
        steps: usize,
    ) -> (Vec<Bytes>, Vec<Bytes>) {
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..steps {
            let mut moved = false;
            for o in a.drain() {
                match o {
                    Out::Send { bytes, .. } => {
                        moved = true;
                        b.on_datagram(now, a_ep, bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got_a.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            for o in b.drain() {
                match o {
                    Out::Send { bytes, .. } => {
                        moved = true;
                        a.on_datagram(now, b_ep, bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got_b.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            if !moved {
                now += SimDuration::from_millis(50);
                a.on_timer(now);
                b.on_timer(now);
            }
            now += SimDuration::from_micros(10);
        }
        (got_a, got_b)
    }

    /// The no-spin contract for the whole stack (SRUDP, RSTREAM and a
    /// multicast member, which keeps no timers) through a lossy
    /// two-way SRUDP exchange: every firing at the stack's deadline
    /// leaves a later one.
    #[test]
    fn woken_at_its_deadline_it_leaves_a_later_one() {
        let cfg = StackConfig {
            rstream: Some(RstreamConfig::default()),
            mcast_member: true,
            ..StackConfig::default()
        };
        let mut a = WireStack::new(1, cfg.clone());
        let mut b = WireStack::new(2, cfg);
        a.set_peer(2, ep(1, 5), vec![]);
        b.set_peer(1, ep(0, 5), vec![]);
        for i in 0..4u8 {
            a.send(SimTime::ZERO, 2, Bytes::from(vec![i; 6000])).unwrap();
            b.send(SimTime::ZERO, 1, Bytes::from(vec![i; 3000])).unwrap();
        }
        let mut n = 0u32;
        let mut hop = |from: &mut WireStack, to: &mut WireStack, from_ep, now| {
            let mut moved = false;
            for o in from.drain() {
                if let Out::Send { bytes, .. } = o {
                    moved = true;
                    n += 1;
                    if !n.is_multiple_of(3) {
                        let _ = to.on_datagram(now, from_ep, bytes);
                    }
                }
            }
            moved
        };
        let exchange = |a: &mut WireStack, b: &mut WireStack, now| {
            let moved = hop(a, b, ep(0, 5), now);
            hop(b, a, ep(1, 5), now) || moved
        };
        let fired = crate::assert_no_spin(
            &mut a,
            &mut b,
            exchange,
            WireStack::next_deadline,
            WireStack::on_timer,
        );
        assert!(fired > 3, "only {fired} firings");
    }

    #[test]
    fn reliable_message_end_to_end() {
        let mut a = WireStack::new(1, StackConfig::default());
        let mut b = WireStack::new(2, StackConfig::default());
        a.set_peer(2, ep(1, 5), vec![]);
        a.send(SimTime::ZERO, 2, Bytes::from_static(b"over the stack")).unwrap();
        let (_, got_b) = pump(&mut a, &mut b, ep(0, 5), ep(1, 5), 50);
        assert_eq!(got_b.len(), 1);
        assert_eq!(&got_b[0][..], b"over the stack");
        assert!(a.quiescent());
    }

    #[test]
    fn raw_datagram_surfaces() {
        let mut a = WireStack::new(1, StackConfig::default());
        let mut b = WireStack::new(2, StackConfig::default());
        a.send_raw(ep(1, 5), Bytes::from_static(b"raw"));
        let outs = a.drain();
        let Out::Send { bytes, .. } = &outs[0] else { panic!() };
        let inc = b.on_datagram(SimTime::ZERO, ep(0, 5), bytes.clone()).unwrap().unwrap();
        assert_eq!(inc, Incoming::Raw { from: ep(0, 5), msg: Bytes::from_static(b"raw") });
    }

    #[test]
    fn pinned_route_applied_to_srudp_sends() {
        let mut a = WireStack::new(1, StackConfig::default());
        a.set_peer(2, ep(1, 5), vec![NetId(3), NetId(4)]);
        a.send(SimTime::ZERO, 2, Bytes::from_static(b"pin me")).unwrap();
        let outs = a.drain();
        assert!(!outs.is_empty());
        for o in outs {
            if let Out::Send { via, .. } = o {
                assert_eq!(via, Some(NetId(3)));
            }
        }
    }

    /// Routing looks a datagram's peer up by endpoint. When two keys
    /// share one, the smaller key's routes carry it — plain fragments
    /// and sprayed shares alike — whichever key it was sent to.
    #[test]
    fn two_keys_on_one_endpoint_route_as_the_smaller_key() {
        let mut cfg = StackConfig::default();
        cfg.srudp.frag_strategy = crate::fec::FragStrategy::Fec;
        let mut a = WireStack::new(1, cfg);
        a.set_peer(9, ep(1, 5), vec![NetId(4)]);
        a.set_peer(5, ep(1, 5), vec![NetId(3), NetId(6)]);
        a.send(SimTime::ZERO, 9, Bytes::from_static(b"one fragment")).unwrap();
        a.send(SimTime::ZERO, 9, Bytes::from(vec![1u8; 3000])).unwrap();
        let vias: Vec<Option<NetId>> = a
            .drain()
            .into_iter()
            .filter_map(|o| match o {
                Out::Send { via, .. } => Some(via),
                _ => None,
            })
            .collect();
        let (plain, shares) = vias.split_first().unwrap();
        assert_eq!(*plain, Some(NetId(3)));
        // Five shares of a three-chunk message, alternating over key
        // 5's two routes.
        let want: Vec<Option<NetId>> =
            [3, 6, 3, 6, 3].into_iter().map(|n| Some(NetId(n))).collect();
        assert_eq!(shares, want);
    }

    #[test]
    fn failover_rotates_route_after_timeouts() {
        let mut cfg = StackConfig::default();
        cfg.srudp.rto_initial = SimDuration::from_millis(1);
        cfg.srudp.rto_min = SimDuration::from_millis(1);
        cfg.srudp.rto_max = SimDuration::from_millis(1);
        let mut a = WireStack::new(1, cfg);
        a.set_peer(2, ep(1, 5), vec![NetId(3), NetId(4)]);
        a.send(SimTime::ZERO, 2, Bytes::from_static(b"blackhole")).unwrap();
        a.drain();
        let mut now = SimTime::ZERO;
        for _ in 0..2 {
            now += SimDuration::from_millis(2);
            a.on_timer(now);
            a.drain();
        }
        assert_eq!(a.failovers(2), 1, "route must rotate after repeated timeouts");
        // The fresh route gets the same threshold of grace before it
        // is abandoned in turn: one more timeout must NOT rotate…
        now += SimDuration::from_millis(2);
        a.on_timer(now);
        a.drain();
        assert_eq!(a.failovers(2), 1, "grace period: no rotation on a single new timeout");
        // Subsequent sends use the alternate network.
        a.send(now, 2, Bytes::from_static(b"retry")).unwrap();
        let outs = a.drain();
        let vias: Vec<Option<NetId>> = outs
            .iter()
            .filter_map(|o| match o {
                Out::Send { via, .. } => Some(*via),
                _ => None,
            })
            .collect();
        assert!(vias.contains(&Some(NetId(4))), "vias: {vias:?}");
        // …but a full further threshold of timeouts rotates again.
        now += SimDuration::from_millis(2);
        a.on_timer(now);
        a.drain();
        assert_eq!(a.failovers(2), 2, "continued timeouts keep probing other routes");
    }

    /// After every rotation the next SRUDP datagram to the peer leaves
    /// on the route rotated to, whatever the routes' history: here the
    /// first route has failed twice before and then carried traffic for
    /// a while, and when it fails again the stack must leave it.
    #[test]
    fn the_next_datagram_after_a_rotation_takes_the_route_rotated_to() {
        let mut cfg = StackConfig::default();
        cfg.srudp.rto_initial = SimDuration::from_millis(1);
        cfg.srudp.rto_min = SimDuration::from_millis(1);
        cfg.srudp.rto_max = SimDuration::from_millis(1);
        let (a_ep, b_ep) = (ep(0, 5), ep(1, 5));
        let (first, second) = (NetId(3), NetId(4));
        let mut a = WireStack::new(1, cfg.clone());
        let mut b = WireStack::new(2, cfg);
        a.set_peer(2, b_ep, vec![first, second]);
        let sends = |outs: Vec<Out>| -> Vec<(Option<NetId>, Bytes)> {
            outs.into_iter()
                .filter_map(|o| match o {
                    Out::Send { via, bytes, .. } => Some((via, bytes)),
                    _ => None,
                })
                .collect()
        };
        let mut now = SimTime::ZERO;
        // Lose everything until the route rotates; the datagrams the
        // rotating timer retransmits are the first after it.
        let rotate = |a: &mut WireStack, now: &mut SimTime, want: NetId| {
            let before = a.failovers(2);
            let mut outs = Vec::new();
            while a.failovers(2) == before {
                *now += SimDuration::from_millis(2);
                a.on_timer(*now);
                outs = sends(a.drain());
            }
            assert!(!outs.is_empty(), "the rotating timer retransmits");
            for (via, _) in &outs {
                assert_eq!(*via, Some(want), "rotation {} ignored", a.failovers(2));
            }
            outs
        };
        a.send(now, 2, Bytes::from_static(b"first")).unwrap();
        a.drain();
        for want in [second, first, second] {
            rotate(&mut a, &mut now, want);
        }
        // Back on the first route, the retransmission gets through and
        // its SACK gets back: the first route makes progress, and the
        // stack polls it.
        for (_, bytes) in rotate(&mut a, &mut now, first) {
            b.on_datagram(now, a_ep, bytes).unwrap();
        }
        for (_, bytes) in sends(b.drain()) {
            a.on_datagram(now, b_ep, bytes).unwrap();
        }
        assert_eq!(a.backlog_total(), 0, "the message is acknowledged");
        for _ in 0..20 {
            now += SimDuration::from_micros(100);
            a.on_timer(now);
        }
        a.send(now, 2, Bytes::from_static(b"second")).unwrap();
        assert!(sends(a.drain()).iter().all(|(via, _)| *via == Some(first)));
        // The first route fails again: the next datagram leaves on the
        // second, and so does the next message.
        rotate(&mut a, &mut now, second);
        a.send(now, 2, Bytes::from_static(b"third")).unwrap();
        assert!(sends(a.drain()).iter().all(|(via, _)| *via == Some(second)));
    }

    #[test]
    fn peer_score_reflects_measured_rtt() {
        let mut a = WireStack::new(1, StackConfig::default());
        let mut b = WireStack::new(2, StackConfig::default());
        assert_eq!(a.peer_score(2), None, "nothing measured yet");
        a.set_peer(2, ep(1, 5), vec![]);
        a.send(SimTime::ZERO, 2, Bytes::from_static(b"ping")).unwrap();
        pump(&mut a, &mut b, ep(0, 5), ep(1, 5), 50);
        let s = a.peer_score(2).expect("srtt measured after a round trip");
        assert!((0.0..10.0).contains(&s), "score {s} out of range");
    }

    #[test]
    fn mcast_and_stream_surface() {
        let mut b = WireStack::new(2, StackConfig::default());
        let dg = seal(Proto::Mcast, Bytes::from_static(b"mc"));
        let inc = b.on_datagram(SimTime::ZERO, ep(0, 5), dg).unwrap().unwrap();
        assert!(matches!(inc, Incoming::Mcast { .. }));
        let dg = seal(Proto::Rstream, Bytes::from_static(b"st"));
        let inc = b.on_datagram(SimTime::ZERO, ep(0, 5), dg).unwrap().unwrap();
        assert!(matches!(inc, Incoming::Stream { .. }));
    }

    #[test]
    fn corrupt_datagram_is_an_error() {
        let mut b = WireStack::new(2, StackConfig::default());
        assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), Bytes::from_static(&[0])).is_err());
    }

    #[test]
    fn migration_mid_stream_loses_nothing() {
        // Peer 2 "migrates" between endpoints while 1 streams to it:
        // messages queued toward the old endpoint are retransmitted to
        // the new one once the location updates (paper §5.6 guarantee).
        let mut cfg = StackConfig::default();
        cfg.srudp.rto_initial = SimDuration::from_millis(5);
        let mut a = WireStack::new(1, cfg.clone());
        let mut b = WireStack::new(2, cfg);
        a.set_peer(2, ep(1, 5), vec![]);
        for i in 0..5u8 {
            a.send(SimTime::ZERO, 2, Bytes::from(vec![i; 2000])).unwrap();
        }
        // Packets to the old endpoint are dropped (host gone).
        a.drain();
        // Migration completes: new location known.
        a.set_peer(2, ep(9, 5), vec![]);
        let mut got_b = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let mut moved = false;
            for o in a.drain() {
                if let Out::Send { to, bytes, .. } = o {
                    moved = true;
                    assert_eq!(to, ep(9, 5));
                    b.on_datagram(now, ep(0, 5), bytes).unwrap();
                }
            }
            for o in b.drain() {
                match o {
                    Out::Send { bytes, .. } => {
                        moved = true;
                        a.on_datagram(now, ep(9, 5), bytes).unwrap();
                    }
                    Out::Deliver { msg, .. } => got_b.push(msg),
                    Out::Wake { .. } => {}
                }
            }
            if !moved {
                now += SimDuration::from_millis(10);
                a.on_timer(now);
            }
            now += SimDuration::from_micros(10);
        }
        assert_eq!(got_b.len(), 5, "all pre-migration messages must arrive");
        for (i, m) in got_b.iter().enumerate() {
            assert_eq!(m[0] as usize, i, "FIFO order preserved across migration");
        }
    }

    #[test]
    fn rstream_driver_runs_over_the_stack() {
        let cfg = StackConfig { rstream: Some(RstreamConfig::default()), ..StackConfig::default() };
        let mut a = WireStack::new(1, cfg.clone());
        let mut b = WireStack::new(2, cfg);
        let a_ep = ep(0, 5);
        let b_ep = ep(1, 5);
        let id = a.rstream_mut().unwrap().connect(SimTime::ZERO, b_ep);
        a.rstream_mut().unwrap().send_message(SimTime::ZERO, id, b"streamed bytes").unwrap();
        let (_, got_b) = pump(&mut a, &mut b, a_ep, b_ep, 80);
        assert_eq!(got_b.len(), 1);
        assert_eq!(&got_b[0][..], b"streamed bytes");
        assert!(a.rstream().unwrap().is_established(id));
    }

    #[test]
    fn rstream_sends_carry_the_rstream_envelope() {
        let cfg = StackConfig { rstream: Some(RstreamConfig::default()), ..StackConfig::default() };
        let mut a = WireStack::new(1, cfg);
        a.rstream_mut().unwrap().connect(SimTime::ZERO, ep(1, 5));
        let outs = a.drain();
        assert!(!outs.is_empty());
        for o in outs {
            let Out::Send { bytes, .. } = o else { continue };
            let (proto, _) = open(bytes).unwrap();
            assert_eq!(proto, Proto::Rstream);
        }
    }

    #[test]
    fn mcast_member_driver_consumes_and_delivers() {
        use crate::mcast::McastMsg;
        use snipe_util::codec::{WireDecode, WireEncode};
        let cfg = StackConfig { mcast_member: true, ..StackConfig::default() };
        let mut b = WireStack::new(2, cfg);
        let body = McastMsg::Data {
            group: 7,
            origin: 42,
            seq: 0,
            ttl: 2,
            payload: Bytes::from_static(b"group msg"),
        }
        .encode_to_bytes();
        let dg = seal(Proto::Mcast, body.clone());
        // Consumed by the multicast member, not surfaced.
        assert_eq!(b.on_datagram(SimTime::ZERO, ep(0, 5), dg.clone()).unwrap(), None);
        // Duplicate via a second router leg: dedup'd.
        assert_eq!(b.on_datagram(SimTime::ZERO, ep(3, 5), dg).unwrap(), None);
        let delivers: Vec<Out> =
            b.drain().into_iter().filter(|o| matches!(o, Out::Deliver { .. })).collect();
        assert_eq!(delivers.len(), 1);
        let Out::Deliver { proto, from_key, msg, .. } = &delivers[0] else { unreachable!() };
        assert_eq!(*proto, Proto::Mcast);
        assert_eq!(*from_key, 42);
        let decoded = McastMsg::decode_from_bytes(msg.clone()).unwrap();
        assert!(matches!(decoded, McastMsg::Data { group: 7, .. }));
    }

    #[test]
    fn tagged_snapshot_round_trips_every_driver() {
        let cfg = StackConfig {
            rstream: Some(RstreamConfig::default()),
            mcast_member: true,
            ..StackConfig::default()
        };
        let mut a = WireStack::new(1, cfg.clone());
        a.set_peer(2, ep(1, 5), vec![]);
        a.send(SimTime::ZERO, 2, Bytes::from_static(b"unacked")).unwrap();
        a.drain();
        a.mcast_member_mut().unwrap().accept(7, 9, 0, Bytes::new());

        let snap = a.export_state();
        let mut r = WireStack::import_state(snap, cfg, SimTime::ZERO).unwrap();
        assert_eq!(r.key(), 1);
        // SRUDP state survived and retransmits are queued.
        assert!(r.backlog_total() > 0);
        let sends = r.drain().into_iter().filter(|o| matches!(o, Out::Send { .. })).count();
        assert!(sends > 0, "import must kick retransmission");
        // Mcast dedup state survived.
        assert!(r.mcast_member_mut().unwrap().accept(7, 9, 0, Bytes::new()).is_none());
        assert!(r.mcast_member_mut().unwrap().accept(7, 9, 1, Bytes::new()).is_some());
        // RSTREAM deliberately restores nothing (connections die with
        // the process) but the endpoint is configured and usable.
        assert!(r.rstream().is_some());
    }

    /// What a restored stack takes from a snapshot: the first SRUDP
    /// section, the last MCAST section when a member is configured,
    /// nothing from RSTREAM, and nothing from a section no configured
    /// transport speaks. Re-exported, it lists every configured
    /// transport once, in stack order.
    #[test]
    fn import_takes_what_the_configuration_speaks() {
        let three = StackConfig {
            rstream: Some(RstreamConfig::default()),
            mcast_member: true,
            ..StackConfig::default()
        };
        let mut srudp = Srudp::new(1, SrudpConfig::default());
        srudp.set_peer_endpoint(2, ep(1, 5));
        srudp.send_message(SimTime::ZERO, 2, Bytes::from_static(b"unacked")).unwrap();
        let srudp = srudp.export_state();
        let member = |group, seq| {
            let mut m = McastMember::new();
            m.accept(group, 9, seq, Bytes::new());
            m.next_seq(group);
            m.export_state()
        };
        let (a, b) = (member(7, 0), member(8, 3));
        assert_ne!(a, b);
        let garbage = Bytes::from_static(b"\xff\xfe\xfd");
        let snapshot = |mcast: Bytes| {
            vec![
                Section { proto: Proto::Srudp, state: srudp.clone() },
                Section { proto: Proto::Mcast, state: a.clone() },
                Section { proto: Proto::Raw, state: garbage.clone() },
                Section { proto: Proto::Rstream, state: garbage.clone() },
                Section { proto: Proto::Mcast, state: mcast },
                Section { proto: Proto::Srudp, state: garbage.clone() },
            ]
            .encode_to_bytes()
        };

        let r = WireStack::import_state(snapshot(b.clone()), three.clone(), SimTime::ZERO).unwrap();
        assert_eq!(r.backlog_total(), 7);
        let again = Vec::<Section>::decode_from_bytes(r.export_state()).unwrap();
        let listed: Vec<(Proto, Bytes)> = again.into_iter().map(|s| (s.proto, s.state)).collect();
        let want =
            vec![(Proto::Srudp, srudp.clone()), (Proto::Rstream, Bytes::new()), (Proto::Mcast, b)];
        assert_eq!(listed, want);

        let slim = WireStack::import_state(
            snapshot(garbage.clone()),
            StackConfig::default(),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(slim.backlog_total(), 7);

        assert!(WireStack::import_state(snapshot(garbage.clone()), three, SimTime::ZERO).is_err());
    }

    /// A forged section count is refused before anything is sized for
    /// it: room for 0xFFFF_FFFF sections is 206 GB, and a failed
    /// allocation aborts the process rather than returning an error.
    #[test]
    fn a_forged_section_count_is_an_error_not_an_abort() {
        let forged = Bytes::from_static(&[0xFF; 4]);
        let Err(e) = WireStack::import_state(forged, StackConfig::default(), SimTime::ZERO) else {
            panic!("a forged stack snapshot was accepted");
        };
        assert!(e.to_string().contains("count 4294967295 exceeds the 0 bytes left"), "{e}");
    }
}
