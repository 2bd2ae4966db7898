//! The assembled wire stack embedded in every SNIPE process actor.
//!
//! [`WireStack`] is a registry-plus-demux over the wire protocol
//! modules (§3's "multiplexing library"):
//!
//! * every registered transport implements [`Driver`] — SRUDP is
//!   always present (reliable FIFO messaging keyed by stable node
//!   keys, §5.6); RSTREAM and member-side multicast dedup are opt-in
//!   via [`StackConfig`];
//! * incoming datagrams are demultiplexed on the [`crate::frame`]
//!   envelope tag: a registered driver consumes the body (completed
//!   messages come back as [`Out::Deliver`], tagged with the driver's
//!   protocol), anything else is surfaced as [`Incoming`] for
//!   host-level logic (raw datagrams, the daemon's multicast router);
//! * outgoing `Send`s are sealed under the emitting driver's tag and
//!   routed through one [`PathSelector`] (multi-path failover, §6);
//! * migration snapshots concatenate each driver's exported state
//!   under its protocol tag ([`WireStack::export_state`]).
//!
//! The stack is still sans-IO. Inside a `snipe-netsim` actor it lives
//! in a [`StackHost`](crate::host::StackHost), the one adapter that
//! feeds it packets and timer events, turns emitted [`Out`] actions
//! into `ctx.send` calls and keeps a wake-up armed for
//! [`WireStack::next_deadline`]; actors do not do that by hand.

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, TraceKind};
use snipe_util::codec::{Decoder, Encoder};
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::id::NetId;
use snipe_util::metrics::{CounterId, Registry};
use snipe_util::time::{SimDuration, SimTime};

use crate::driver::Driver;
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
    /// Register an RSTREAM driver with this tuning (off by default:
    /// most SNIPE processes speak SRUDP only).
    pub rstream: Option<RstreamConfig>,
    /// Register a member-side multicast dedup driver; MCAST datagrams
    /// are then consumed and delivered (tagged [`Proto::Mcast`])
    /// instead of surfacing as [`Incoming::Mcast`].
    pub mcast_member: bool,
}

/// An incoming item after protocol demultiplexing.
///
/// Traffic for a *registered* driver is never surfaced here: the stack
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
        /// MCAST body (decode with [`crate::mcast::McastMsg::decode`]).
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
    my_key: NodeKey,
    /// Registered protocol modules; index 0 is always SRUDP.
    drivers: Vec<Box<dyn Driver>>,
    paths: PathSelector,
    out: Vec<Out>,
    /// Reused scratch for failover scans (no steady-state allocation).
    key_scratch: Vec<NodeKey>,
    /// Per-stack observability counters (decode drops, rotations).
    metrics: Registry,
    /// Flat ids cached at construction so hot increments never hash.
    c_decode: [CounterId; FrameError::COUNT],
    c_body: CounterId,
    c_rotations: CounterId,
}

/// Build the stack's registry with its counters pre-registered; both
/// constructors ([`WireStack::new`] and [`WireStack::import_state`])
/// share it so ids always line up.
fn stack_registry() -> (Registry, [CounterId; FrameError::COUNT], CounterId, CounterId) {
    let mut m = Registry::new();
    // Indexed by `FrameError as usize`: keep this order in sync with
    // the enum's variant order.
    let c_decode = [
        m.counter("wire.decode.truncated"),
        m.counter("wire.decode.checksum"),
        m.counter("wire.decode.unknown_tag"),
    ];
    let c_body = m.counter("wire.decode.body");
    let c_rotations = m.counter("wire.path.rotations");
    (m, c_decode, c_body, c_rotations)
}

impl WireStack {
    /// New stack for a process with the given stable key.
    /// Compile-time proof that a whole stack can live inside an actor
    /// (actors are `Send`: any worker thread may drive their region).
    const _ASSERT_SEND: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<WireStack>()
    };

    pub fn new(my_key: NodeKey, cfg: StackConfig) -> WireStack {
        let mut drivers: Vec<Box<dyn Driver>> = Vec::with_capacity(3);
        drivers.push(Box::new(Srudp::new(my_key, cfg.srudp)));
        if let Some(rc) = cfg.rstream {
            drivers.push(Box::new(Rstream::new(rc, my_key)));
        }
        if cfg.mcast_member {
            drivers.push(Box::new(McastMember::new()));
        }
        let (metrics, c_decode, c_body, c_rotations) = stack_registry();
        WireStack {
            my_key,
            drivers,
            paths: PathSelector::new(),
            out: Vec::new(),
            key_scratch: Vec::new(),
            metrics,
            c_decode,
            c_body,
            c_rotations,
        }
    }

    /// Our node key.
    pub fn key(&self) -> NodeKey {
        self.my_key
    }

    fn srudp(&self) -> &Srudp {
        self.drivers[0].as_any().downcast_ref::<Srudp>().expect("driver 0 is SRUDP")
    }

    fn srudp_mut(&mut self) -> &mut Srudp {
        self.drivers[0].as_any_mut().downcast_mut::<Srudp>().expect("driver 0 is SRUDP")
    }

    fn driver_index(&self, proto: Proto) -> Option<usize> {
        self.drivers.iter().position(|d| d.proto() == proto)
    }

    /// The stack-owned RSTREAM driver, if one was registered.
    pub fn rstream(&self) -> Option<&Rstream> {
        self.driver_index(Proto::Rstream)
            .and_then(|i| self.drivers[i].as_any().downcast_ref::<Rstream>())
    }

    /// Mutable access to the stack-owned RSTREAM driver. Actions it
    /// emits (connect/send/close) are collected on the next
    /// [`WireStack::drain`].
    pub fn rstream_mut(&mut self) -> Option<&mut Rstream> {
        self.driver_index(Proto::Rstream)
            .and_then(|i| self.drivers[i].as_any_mut().downcast_mut::<Rstream>())
    }

    /// The stack-owned multicast member driver, if one was registered.
    pub fn mcast_member(&self) -> Option<&McastMember> {
        self.driver_index(Proto::Mcast)
            .and_then(|i| self.drivers[i].as_any().downcast_ref::<McastMember>())
    }

    /// Mutable access to the stack-owned multicast member driver
    /// (sequence allocation for sending).
    pub fn mcast_member_mut(&mut self) -> Option<&mut McastMember> {
        self.driver_index(Proto::Mcast)
            .and_then(|i| self.drivers[i].as_any_mut().downcast_mut::<McastMember>())
    }

    /// SRUDP counters.
    pub fn srudp_stats(&self) -> SrudpStats {
        self.srudp().stats()
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
        self.srudp_mut().set_peer_endpoint(key, ep);
        self.paths.update(key, routes);
        self.srudp_mut().pump_peer(now, key);
        self.harvest();
    }

    /// Current known location of a peer.
    pub fn peer_endpoint(&self, key: NodeKey) -> Option<Endpoint> {
        self.srudp().peer_endpoint(key)
    }

    /// Number of route failovers performed for a peer.
    pub fn failovers(&self, key: NodeKey) -> u32 {
        self.paths.failovers(key)
    }

    /// Read-only performance score for a peer: the path layer's best
    /// route score when candidates are pinned, else the transport's
    /// smoothed RTT in seconds. Lower is better; `None` means we have
    /// neither routes nor measurements (rank such peers last). This is
    /// the replica-selection hook — file clients sort candidate
    /// replicas by this score before opening a striped read.
    pub fn peer_score(&self, key: NodeKey) -> Option<f64> {
        self.paths.peer_score(key).or_else(|| self.srudp().peer_srtt(key).map(|s| s.as_secs_f64()))
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
        self.srudp().peer_keys_into(into);
    }

    /// The pinned route candidates for a peer (empty = default routing).
    pub fn route_candidates(&self, key: NodeKey) -> Vec<NetId> {
        self.paths.peer(key).map(|p| p.candidates().collect()).unwrap_or_default()
    }

    /// Peers whose consecutive-timeout count reached `threshold` —
    /// candidates for RC location re-resolution (they may have
    /// migrated, §5.6).
    pub fn peers_in_trouble(&self, threshold: u32) -> Vec<NodeKey> {
        let mut v = Vec::new();
        self.peers_in_trouble_into(threshold, &mut v);
        v
    }

    /// [`Self::peers_in_trouble`] into a caller-owned scratch vector:
    /// appends (sorted) without allocating when capacity suffices.
    pub fn peers_in_trouble_into(&self, threshold: u32, into: &mut Vec<NodeKey>) {
        let srudp = self.srudp();
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
        self.srudp_mut().send_message(now, to, msg)?;
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
    /// Traffic for a registered driver is consumed internally (drivers
    /// answer with their own control packets and deliver complete
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
                self.metrics.inc(self.c_decode[e as usize]);
                return Err(SnipeError::Codec(format!("bad envelope: {}", e.name())));
            }
        };
        if let Some(i) = self.driver_index(proto) {
            if let Err(e) = self.drivers[i].on_datagram(now, from, body) {
                // A valid envelope carrying a malformed protocol body:
                // counted, surfaced, never panicked on.
                self.metrics.inc(self.c_body);
                return Err(e);
            }
            self.check_failover(now);
            self.harvest();
            return Ok(None);
        }
        Ok(match proto {
            Proto::Raw => Some(Incoming::Raw { from, msg: body }),
            Proto::Mcast => Some(Incoming::Mcast { from, body }),
            Proto::Rstream => Some(Incoming::Stream { from, body }),
            // SRUDP is always registered (driver index 0).
            Proto::Srudp => unreachable!("SRUDP driver is always registered"),
        })
    }

    /// Fire protocol timers (safe to call early or spuriously: drivers
    /// re-check their own deadlines).
    pub fn on_timer(&mut self, now: SimTime) {
        for d in &mut self.drivers {
            d.on_timer(now);
        }
        self.check_failover(now);
        self.harvest();
    }

    /// Recover after the hosting actor's machine rebooted
    /// (`Event::HostUp`): fill every peer's window from its backlog and
    /// fire every driver timer that came due during the outage (the
    /// retransmissions are those timers' work). The wake-up itself
    /// is the host's: [`StackHost::on_host_up`](crate::host::StackHost::on_host_up)
    /// calls this and the flush that follows re-arms the timer the
    /// outage swallowed — without which an idle-but-unacked stack wedges
    /// forever, a bug fixed actor by actor three times before the
    /// adapter existed.
    pub fn on_host_up(&mut self, now: SimTime) {
        self.srudp_mut().retransmit_all(now);
        self.on_timer(now);
    }

    /// Feed transport evidence into the path scorer and rotate routes
    /// for peers in trouble: sender-side evidence is consecutive RTO
    /// expiries; receiver-side evidence is a streak of duplicate DATA
    /// (our SACKs are not getting back, §6 failover). Forward progress
    /// (no outstanding timeouts) decays past penalties and folds the
    /// transport's RTT estimate into the current route's score.
    fn check_failover(&mut self, now: SimTime) {
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        self.paths.keys_into(&mut keys);
        for &k in &keys {
            let timeouts = self.srudp().peer_timeouts(k);
            let srtt = self.srudp().peer_srtt(k);
            let dup = self.srudp().peer_dup_streak(k);
            let fresh_stalled = self
                .srudp()
                .peer_last_fresh(k)
                .map(|t| now.since(t) >= DUP_FRESH_STALL)
                .unwrap_or(true);
            let mut dup_rotated = false;
            let mut timeout_rotated = false;
            if let Some(p) = self.paths.peer_mut(k) {
                timeout_rotated = p.report_timeouts(timeouts);
                if timeouts == 0 {
                    if let Some(s) = srtt {
                        p.record_rtt(s);
                    }
                    p.record_progress();
                }
                if dup >= DUP_STREAK_ROTATE && fresh_stalled {
                    dup_rotated = p.rotate_for_dups(now);
                }
            }
            if dup_rotated {
                self.srudp_mut().reset_dup_streak(k);
            }
            if timeout_rotated || dup_rotated {
                self.metrics.inc(self.c_rotations);
                if trace::enabled() {
                    let net = self.paths.select(k).map(|n| n.0).unwrap_or(u32::MAX);
                    trace::record(now, TraceKind::PathRotate { peer: k, rank: net });
                }
            }
        }
        self.key_scratch = keys;
    }

    /// The stack's observability counters (decode drops by class, path
    /// rotations).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Total datagrams rejected by the decode path (any class),
    /// including valid envelopes with malformed protocol bodies.
    pub fn decode_drops(&self) -> u64 {
        self.metrics.counter_prefix_sum("wire.decode.")
    }

    /// Earliest wanted wake-up across every registered driver.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.drivers.iter().filter_map(|d| d.next_deadline()).min()
    }

    /// Unsent + unacked payload bytes across all peers.
    pub fn backlog_total(&self) -> usize {
        self.srudp().backlog_total()
    }

    /// True when nothing is queued or in flight in any driver.
    pub fn quiescent(&self) -> bool {
        self.out.is_empty() && self.drivers.iter().all(|d| d.quiescent())
    }

    /// Route an SRUDP datagram: find which peer owns this endpoint and
    /// ask the selector for its current medium (linear scan: peer
    /// counts are small per process).
    fn select_via(&self, to: Endpoint) -> Option<NetId> {
        let srudp = self.srudp();
        self.paths
            .keys()
            .find(|&k| srudp.peer_endpoint(k) == Some(to))
            .and_then(|k| self.paths.select(k))
    }

    /// Route an erasure-coded share: spread share `idx` across up to
    /// [`MAX_SPRAY_PATHS`] distinct media toward the peer at `to`, so
    /// a single gray link drops some shares rather than the whole
    /// message. Falls back to ordinary single-path selection when the
    /// peer is unknown or has one route.
    fn select_spray_via(&self, to: Endpoint, idx: u32) -> Option<NetId> {
        let srudp = self.srudp();
        let key = self.paths.keys().find(|&k| srudp.peer_endpoint(k) == Some(to));
        match key {
            Some(k) => {
                let routes = self.paths.select_k_distinct(k, MAX_SPRAY_PATHS);
                if routes.is_empty() {
                    self.paths.select(k)
                } else {
                    Some(routes[idx as usize % routes.len()])
                }
            }
            None => None,
        }
    }

    /// Move driver outputs into the stack queue, enveloping `Send`s
    /// under the emitting driver's protocol tag and pinning routes.
    fn harvest(&mut self) {
        for i in 0..self.drivers.len() {
            let proto = self.drivers[i].proto();
            for o in self.drivers[i].drain() {
                match o {
                    Out::Send { to, via, spray, bytes } => {
                        let via = if proto == Proto::Srudp {
                            match spray {
                                Some(idx) => self.select_spray_via(to, idx),
                                None => self.select_via(to),
                            }
                        } else {
                            via
                        };
                        self.out.push(Out::Send { to, via, spray, bytes: seal(proto, bytes) });
                    }
                    other => self.out.push(other),
                }
            }
        }
    }

    /// Drain pending actions (sends to execute + received messages).
    pub fn drain(&mut self) -> Vec<Out> {
        self.harvest();
        std::mem::take(&mut self.out)
    }

    /// Serialize the migratable transport state (§5.6): each driver's
    /// snapshot under its protocol tag. Path state is not carried: the
    /// new host has different interfaces, so routes are re-learned
    /// from RC metadata.
    pub fn export_state(&self) -> Bytes {
        let mut e = Encoder::new();
        e.put_u32(self.drivers.len() as u32);
        for d in &self.drivers {
            e.put_u8(d.proto().tag());
            e.put_bytes(&d.export_state());
        }
        e.finish()
    }

    /// Rebuild a stack from exported state: drivers are registered per
    /// `cfg`, handed their tagged snapshot section, and kick
    /// retransmission of everything unacknowledged. Sections for
    /// drivers the new configuration does not register are dropped.
    pub fn import_state(bytes: Bytes, cfg: StackConfig, now: SimTime) -> SnipeResult<WireStack> {
        let mut d = Decoder::new(bytes);
        let n = d.get_u32()?;
        let mut sections: Vec<(Proto, Bytes)> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let proto = Proto::from_tag(d.get_u8()?)?;
            sections.push((proto, d.get_bytes()?));
        }
        let srudp_bytes = sections
            .iter()
            .find(|(p, _)| *p == Proto::Srudp)
            .map(|(_, b)| b.clone())
            .ok_or_else(|| SnipeError::Codec("stack snapshot missing SRUDP section".into()))?;
        let mut srudp = Srudp::import_state(srudp_bytes, cfg.srudp, now)?;
        srudp.retransmit_all(now);
        let my_key = srudp.key();
        let mut drivers: Vec<Box<dyn Driver>> = Vec::with_capacity(3);
        drivers.push(Box::new(srudp));
        if let Some(rc) = cfg.rstream {
            drivers.push(Box::new(Rstream::new(rc, my_key)));
        }
        if cfg.mcast_member {
            drivers.push(Box::new(McastMember::new()));
        }
        let (metrics, c_decode, c_body, c_rotations) = stack_registry();
        let mut stack = WireStack {
            my_key,
            drivers,
            paths: PathSelector::new(),
            out: Vec::new(),
            key_scratch: Vec::new(),
            metrics,
            c_decode,
            c_body,
            c_rotations,
        };
        for (proto, payload) in sections {
            if proto == Proto::Srudp {
                continue;
            }
            if let Some(i) = stack.driver_index(proto) {
                stack.drivers[i].import_state(payload, now)?;
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
                now = now + SimDuration::from_millis(50);
                a.on_timer(now);
                b.on_timer(now);
            }
            now = now + SimDuration::from_micros(10);
        }
        (got_a, got_b)
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
            now = now + SimDuration::from_millis(2);
            a.on_timer(now);
            a.drain();
        }
        assert_eq!(a.failovers(2), 1, "route must rotate after repeated timeouts");
        // The fresh route gets the same threshold of grace before it
        // is abandoned in turn: one more timeout must NOT rotate…
        now = now + SimDuration::from_millis(2);
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
        now = now + SimDuration::from_millis(2);
        a.on_timer(now);
        a.drain();
        assert_eq!(a.failovers(2), 2, "continued timeouts keep probing other routes");
    }

    #[test]
    fn peer_score_reflects_measured_rtt() {
        let mut a = WireStack::new(1, StackConfig::default());
        let mut b = WireStack::new(2, StackConfig::default());
        assert_eq!(a.peer_score(2), None, "no routes, no measurements");
        a.set_peer(2, ep(1, 5), vec![]);
        a.send(SimTime::ZERO, 2, Bytes::from_static(b"ping")).unwrap();
        pump(&mut a, &mut b, ep(0, 5), ep(1, 5), 50);
        let s = a.peer_score(2).expect("srtt measured after a round trip");
        assert!((0.0..10.0).contains(&s), "score {s} out of range");
        // Pinned routes report the path layer's score instead.
        let mut c = WireStack::new(3, StackConfig::default());
        c.set_peer(4, ep(2, 5), vec![NetId(1)]);
        let sc = c.peer_score(4).expect("pinned route has a prior score");
        assert!((sc - crate::path::UNMEASURED_RTT_SCORE).abs() < 1e-9);
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
                match o {
                    Out::Send { to, bytes, .. } => {
                        moved = true;
                        assert_eq!(to, ep(9, 5));
                        b.on_datagram(now, ep(0, 5), bytes).unwrap();
                    }
                    _ => {}
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
                now = now + SimDuration::from_millis(10);
                a.on_timer(now);
            }
            now = now + SimDuration::from_micros(10);
        }
        assert_eq!(got_b.len(), 5, "all pre-migration messages must arrive");
        for (i, m) in got_b.iter().enumerate() {
            assert_eq!(m[0] as usize, i, "FIFO order preserved across migration");
        }
    }

    #[test]
    fn rstream_driver_runs_over_the_stack() {
        let mut cfg = StackConfig::default();
        cfg.rstream = Some(RstreamConfig::default());
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
        let mut cfg = StackConfig::default();
        cfg.rstream = Some(RstreamConfig::default());
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
        let mut cfg = StackConfig::default();
        cfg.mcast_member = true;
        let mut b = WireStack::new(2, cfg);
        let body = McastMsg::Data {
            group: 7,
            origin: 42,
            seq: 0,
            ttl: 2,
            payload: Bytes::from_static(b"group msg"),
        }
        .encode();
        let dg = seal(Proto::Mcast, body.clone());
        // Consumed by the member driver, not surfaced.
        assert_eq!(b.on_datagram(SimTime::ZERO, ep(0, 5), dg.clone()).unwrap(), None);
        // Duplicate via a second router leg: dedup'd.
        assert_eq!(b.on_datagram(SimTime::ZERO, ep(3, 5), dg).unwrap(), None);
        let delivers: Vec<Out> =
            b.drain().into_iter().filter(|o| matches!(o, Out::Deliver { .. })).collect();
        assert_eq!(delivers.len(), 1);
        let Out::Deliver { proto, from_key, msg, .. } = &delivers[0] else { unreachable!() };
        assert_eq!(*proto, Proto::Mcast);
        assert_eq!(*from_key, 42);
        let decoded = McastMsg::decode(msg.clone()).unwrap();
        assert!(matches!(decoded, McastMsg::Data { group: 7, .. }));
    }

    #[test]
    fn tagged_snapshot_round_trips_every_driver() {
        let mut cfg = StackConfig::default();
        cfg.rstream = Some(RstreamConfig::default());
        cfg.mcast_member = true;
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
        // the process) but the driver is registered and usable.
        assert!(r.rstream().is_some());
    }
}
