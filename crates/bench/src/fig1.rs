//! Fig. 1 — "Bandwidth in MegaBytes/Second offered to SNIPE client
//! applications on various media."
//!
//! Two (three for multicast) hosts on one segment of the medium under
//! test; a sender streams fixed-size messages through the protocol
//! module under test and we report delivered payload bytes per
//! simulated second, exactly the quantity the paper plots against
//! message size for 100 Mbit Ethernet and 155 Mbit ATM.

use bytes::Bytes;

use snipe_daemon::McastRouterActor;
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::world::World;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::{HostId, NetId};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};
use snipe_wire::host::{Delivery, StackHost};
use snipe_wire::mcast::{McastMsg, McastRouter};
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::srudp::SrudpStats;
use snipe_wire::stack::{endpoint_key, StackConfig, WireStack};

use crate::{drive, lan};

/// Protocol module under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// SNIPE's selective re-send UDP.
    Srudp,
    /// The TCP substitute.
    Rstream,
    /// Router-relayed multicast (per-receiver goodput).
    Mcast,
}

impl Protocol {
    /// Display name (matches the figure legend).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Srudp => "SRUDP",
            Protocol::Rstream => "TCP(RSTREAM)",
            Protocol::Mcast => "MCAST",
        }
    }
}

/// One measured point.
#[derive(Clone, Debug)]
pub struct Fig1Point {
    /// Medium name.
    pub medium: &'static str,
    /// Protocol name.
    pub protocol: &'static str,
    /// Message size in bytes.
    pub msg_size: usize,
    /// Delivered payload bytes per simulated second.
    pub goodput: f64,
    /// Analytic media ceiling at this packet size (reference line).
    pub ceiling: f64,
}

// ---------------------------------------------------------------------------
// One host for every stack-driving endpoint
// ---------------------------------------------------------------------------

const TIMER_STACK: u64 = 1;

/// What tells one Fig. 1 endpoint from another: how its stack is
/// built, what it enqueues and what a delivery means to it. The event
/// loop around that is [`Hosted`].
pub(crate) trait StackApp: Send + 'static {
    /// Build the stack at `Event::Start`.
    fn open(&mut self, now: SimTime, me: Endpoint) -> WireStack;
    /// Runs after every stack input and before the flush: enqueue more
    /// payload, pin routes toward peers just learned.
    fn pump(&mut self, now: SimTime, stack: &mut WireStack);
    /// A complete message came up.
    fn deliver(&mut self, _now: SimTime, _d: Delivery) {}
}

/// The actor around a [`StackApp`]: feeds the hosted stack, lets the
/// app top it up, flushes, hands deliveries back.
pub(crate) struct Hosted<A> {
    pub(crate) app: A,
    stack: StackHost,
}

impl<A: StackApp> Hosted<A> {
    fn new(app: A) -> Hosted<A> {
        Hosted { app, stack: StackHost::new(TIMER_STACK) }
    }

    /// The SRUDP counters of the hosted stack (zero before it starts).
    pub(crate) fn srudp_stats(&self) -> SrudpStats {
        self.stack.as_ref().map(WireStack::srudp_stats).unwrap_or_default()
    }
}

/// The hosted app at `ep`, read in place between drive slices or after
/// the run.
pub(crate) fn hosted<A: StackApp>(world: &World, ep: Endpoint) -> &Hosted<A> {
    world.actor_ref::<Hosted<A>>(ep).expect("a hosted app lives at its endpoint")
}

impl<A: StackApp> Actor for Hosted<A> {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => self.stack.start(self.app.open(now, ctx.me())),
            Event::Packet { from, payload } => {
                let _ = self.stack.on_packet(now, from, payload);
            }
            Event::Timer { token: TIMER_STACK } => self.stack.on_timer(now),
            Event::HostUp => self.stack.on_host_up(now),
            _ => return,
        }
        if let Some(stack) = self.stack.as_mut() {
            self.app.pump(now, stack);
        }
        for d in self.stack.flush(ctx) {
            self.app.deliver(now, d);
        }
    }
}

// ---------------------------------------------------------------------------
// One transfer: a sender streaming to a receiver
// ---------------------------------------------------------------------------

/// What a [`Transfer`] streams, with the stack config both ends run.
#[derive(Clone)]
pub(crate) enum Flow {
    /// `0xAB` bytes over SRUDP.
    Srudp(StackConfig),
    /// `0xCD` bytes over one RSTREAM connection.
    Rstream(RstreamConfig),
    /// Indexed [`fec_payload`] messages over SRUDP, each one verified
    /// by the receiver.
    Patterned(StackConfig),
}

impl Flow {
    fn stack(&self) -> StackConfig {
        match self {
            Flow::Srudp(cfg) | Flow::Patterned(cfg) => cfg.clone(),
            Flow::Rstream(cfg) => {
                StackConfig { rstream: Some(cfg.clone()), ..StackConfig::default() }
            }
        }
    }

    /// What [`Transfer::work`] counts.
    pub(crate) fn unit(&self) -> &'static str {
        match self {
            Flow::Patterned(_) => "messages",
            _ => "bytes",
        }
    }
}

/// One sender streaming to one receiver — Fig. 1's unicast arms, A1,
/// the FEC A/B, E7 and the chaos transfer bodies.
#[derive(Clone)]
pub(crate) struct Transfer {
    pub(crate) flow: Flow,
    /// Ranked routes both ends pin toward each other (multi-path, E7);
    /// `None`: the engine routes.
    pub(crate) pin: Option<Vec<NetId>>,
    pub(crate) msg_size: usize,
    /// How much to stream, in [`Flow::unit`]s.
    pub(crate) work: usize,
    /// The sender queues while its backlog (RSTREAM: unacknowledged
    /// bytes) is below this many bytes — at most this many for
    /// patterned flows, so 0 is stop-and-wait.
    pub(crate) window: usize,
}

impl Transfer {
    /// Spawn the receiver at `(b, 20)`, then the sender at `(a, 20)`;
    /// returns the receiver's endpoint.
    pub(crate) fn spawn(&self, world: &mut World, a: HostId, b: HostId) -> Endpoint {
        let rx = Endpoint::new(b, 20);
        world.spawn(b, 20, Box::new(self.receiver()));
        let sender = Sender { t: self.clone(), peer: rx, sent: 0, conn: 0 };
        world.spawn(a, 20, Box::new(Hosted::new(sender)));
        rx
    }

    /// The receiving end alone (Fig. 1's multicast member is one).
    fn receiver(&self) -> Hosted<Receiver> {
        let t = self.clone();
        Hosted::new(Receiver { t, received: 0, seqs: vec![], mismatches: vec![], done_at: None })
    }
}

struct Sender {
    t: Transfer,
    peer: Endpoint,
    /// Units queued so far.
    sent: usize,
    conn: u64,
}

impl StackApp for Sender {
    fn open(&mut self, now: SimTime, me: Endpoint) -> WireStack {
        let mut stack = WireStack::new(endpoint_key(me), self.t.flow.stack());
        let peer = self.peer;
        if let Flow::Rstream(_) = self.t.flow {
            let rs = stack.rstream_mut().expect("RSTREAM driver registered");
            self.conn = rs.connect(now, peer);
        } else {
            let pin = self.t.pin.clone().unwrap_or_default();
            stack.set_peer_at(now, endpoint_key(peer), peer, pin);
        }
        stack
    }

    /// Keep a bounded amount of payload queued in the transport so the
    /// wire stays saturated without unbounded memory use.
    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        let (t, peer) = (&self.t, endpoint_key(self.peer));
        while self.sent < t.work {
            let size = t.msg_size.min(t.work - self.sent);
            match t.flow {
                Flow::Srudp(_) if stack.backlog_total() < t.window => {
                    let msg = Bytes::from(vec![0xAB; size]);
                    stack.send(now, peer, msg).expect("configured frag size");
                    self.sent += size;
                }
                Flow::Rstream(_) => {
                    let rs = stack.rstream_mut().expect("RSTREAM driver registered");
                    if rs.unacked_bytes(self.conn) >= t.window
                        || rs.send_message(now, self.conn, &vec![0xCD; size]).is_err()
                    {
                        return;
                    }
                    self.sent += size;
                }
                Flow::Patterned(_) if stack.backlog_total() <= t.window => {
                    let msg = fec_payload(self.sent as u64, t.msg_size);
                    stack.send(now, peer, msg).expect("configured frag size");
                    self.sent += 1;
                }
                _ => return,
            }
        }
    }
}

/// Counts what arrives, whichever driver it comes up through, verifies
/// patterned messages, and notes when the transfer's `work` has come.
pub(crate) struct Receiver {
    t: Transfer,
    /// Payload bytes, or (patterned) messages delivered.
    pub(crate) received: usize,
    /// Patterned: delivered message indices, in delivery order.
    pub(crate) seqs: Vec<u32>,
    /// Patterned: content mismatches. Each one is an integrity
    /// violation — reconstruction must fail closed, never fabricate.
    pub(crate) mismatches: Vec<String>,
    pub(crate) done_at: Option<SimTime>,
}

impl StackApp for Receiver {
    fn open(&mut self, _now: SimTime, me: Endpoint) -> WireStack {
        WireStack::new(endpoint_key(me), self.t.flow.stack())
    }

    /// Pin our return routes toward every sender whose key the stack
    /// has learned from its packets (multi-path, E7).
    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        let Some(pin) = &self.t.pin else { return };
        for key in stack.known_peers() {
            if stack.route_candidates(key).is_empty() {
                if let Some(ep) = stack.peer_endpoint(key) {
                    stack.set_peer_at(now, key, ep, pin.clone());
                }
            }
        }
    }

    fn deliver(&mut self, now: SimTime, d: Delivery) {
        let (msg, patterned) = (d.msg, matches!(self.t.flow, Flow::Patterned(_)));
        match (patterned, d.proto) {
            (true, _) if msg.len() >= 8 => {
                let i = u64::from_be_bytes(msg[..8].try_into().unwrap());
                if msg != fec_payload(i, self.t.msg_size) {
                    self.mismatches.push(format!(
                        "message {i}: {} bytes delivered with corrupted content",
                        msg.len()
                    ));
                }
                self.seqs.push(i as u32);
                self.received += 1;
            }
            (true, _) => {
                self.mismatches.push(format!("runt message delivered ({} bytes)", msg.len()));
            }
            // Member deliveries carry the whole MCAST envelope; goodput
            // counts only the application payload.
            (false, Proto::Mcast) => match McastMsg::decode_from_bytes(msg) {
                Ok(McastMsg::Data { payload, .. }) => self.received += payload.len(),
                _ => return,
            },
            (false, _) => self.received += msg.len(),
        }
        if self.received >= self.t.work && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }
}

/// Deterministic patterned payload for message `i`: an 8-byte index
/// header followed by an index-keyed byte pattern, so a receiver can
/// verify *content*, not just byte counts — the integrity oracle for
/// erasure-coded transfers.
fn fec_payload(i: u64, size: usize) -> Bytes {
    let size = size.max(8);
    let mut v = Vec::with_capacity(size);
    v.extend_from_slice(&i.to_be_bytes());
    v.extend((8..size).map(|j| ((i as usize).wrapping_mul(31).wrapping_add(j) % 251) as u8));
    Bytes::from(v)
}

// ---------------------------------------------------------------------------
// Multicast source (sender → router → member; per-receiver goodput)
// ---------------------------------------------------------------------------

struct McastSource {
    router: Endpoint,
    msg_size: usize,
    remaining: usize,
    seq: u64,
    /// Pace: messages per tick to avoid infinite same-time loops.
    burst: usize,
}

impl Actor for McastSource {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            // HostUp: a flap swallows the pacing timer; restart it.
            Event::Start | Event::Timer { .. } | Event::HostUp => {
                for _ in 0..self.burst {
                    if self.remaining == 0 {
                        return;
                    }
                    let size = self.msg_size.min(self.remaining);
                    self.remaining -= size;
                    let msg = McastMsg::Data {
                        group: 1,
                        origin: 42,
                        seq: self.seq,
                        ttl: 2,
                        payload: Bytes::from(vec![0xEF; size]),
                    };
                    self.seq += 1;
                    ctx.send(self.router, seal(Proto::Mcast, msg.encode_to_bytes()));
                }
                ctx.set_timer(SimDuration::from_micros(200), 1);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Total payload streamed per measurement.
fn total_for(msg_size: usize) -> usize {
    (msg_size * 64).clamp(1 << 21, 1 << 24)
}

/// Measure one (medium, protocol, size) point.
pub fn measure(medium: Medium, protocol: Protocol, msg_size: usize) -> Option<Fig1Point> {
    let medium_name = medium.name;
    // Multicast is unfragmented: sizes beyond the MTU are not sendable.
    if protocol == Protocol::Mcast && msg_size + 64 > medium.mtu {
        return None;
    }
    let ceiling = medium.goodput_ceiling(msg_size.min(medium.mtu));
    let (mut world, hosts) = lan(99, &[medium], 3);
    let (a, b, c) = (hosts[0], hosts[1], hosts[2]);
    let total = total_for(msg_size);
    let transfer = |flow, window| Transfer { flow, pin: None, msg_size, work: total, window };
    let rx = match protocol {
        // Pipeline depth: several messages or a window's worth of
        // fragments, whichever is larger.
        Protocol::Srudp => {
            transfer(Flow::Srudp(StackConfig::default()), (4 * msg_size).max(64 * 1400))
                .spawn(&mut world, a, b)
        }
        Protocol::Rstream => {
            transfer(Flow::Rstream(RstreamConfig::default()), 64 * 1400).spawn(&mut world, a, b)
        }
        Protocol::Mcast => {
            let member = StackConfig { mcast_member: true, ..StackConfig::default() };
            world.spawn(c, 20, Box::new(transfer(Flow::Srudp(member), 0).receiver()));
            let mut router = McastRouter::new();
            let mut scratch = Vec::new();
            router.on_message(
                McastMsg::Join { group: 1, member: Endpoint::new(c, 20) },
                &mut scratch,
            );
            world.spawn(b, 20, Box::new(McastRouterActor::with_state(router)));
            world.spawn(
                a,
                20,
                Box::new(McastSource {
                    router: Endpoint::new(b, 20),
                    msg_size,
                    remaining: total,
                    seq: 0,
                    burst: 8,
                }),
            );
            Endpoint::new(c, 20)
        }
    };
    let done_at = |w: &World| hosted::<Receiver>(w, rx).app.done_at;
    drive(
        &mut world,
        SimDuration::from_millis(100),
        SimTime::ZERO + SimDuration::from_secs(60),
        |w| done_at(w).is_some(),
    );
    let secs = done_at(&world)?.as_secs_f64();
    if secs <= 0.0 {
        return None;
    }
    Some(Fig1Point {
        medium: medium_name,
        protocol: protocol.name(),
        msg_size,
        goodput: total as f64 / secs,
        ceiling,
    })
}

/// The standard message-size series of the figure.
pub fn standard_sizes() -> Vec<usize> {
    vec![64, 256, 1024, 1400, 4096, 16384, 65536, 262144, 1 << 20]
}

/// The standard media of the figure (plus extensions).
pub fn standard_media() -> Vec<Medium> {
    vec![Medium::ethernet10(), Medium::ethernet100(), Medium::atm155(), Medium::myrinet()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srudp_reaches_reasonable_fraction_of_ethernet() {
        let p = measure(Medium::ethernet100(), Protocol::Srudp, 65536).expect("completes");
        // Large messages must achieve a solid fraction of the 12.5 MB/s
        // raw rate (shape requirement, not absolute).
        assert!(p.goodput > 6e6, "goodput {} too low", p.goodput);
        assert!(p.goodput <= p.ceiling * 1.01, "goodput above ceiling?");
    }

    #[test]
    fn small_messages_slower_than_large() {
        let small = measure(Medium::ethernet100(), Protocol::Srudp, 64).expect("completes");
        let large = measure(Medium::ethernet100(), Protocol::Srudp, 65536).expect("completes");
        assert!(small.goodput < large.goodput);
    }

    #[test]
    fn atm_beats_ethernet_for_bulk() {
        let eth = measure(Medium::ethernet100(), Protocol::Srudp, 262144).expect("completes");
        let atm = measure(Medium::atm155(), Protocol::Srudp, 262144).expect("completes");
        assert!(atm.goodput > eth.goodput, "atm {} vs eth {}", atm.goodput, eth.goodput);
    }

    #[test]
    fn mcast_skips_oversized() {
        assert!(measure(Medium::ethernet100(), Protocol::Mcast, 65536).is_none());
        let p = measure(Medium::ethernet100(), Protocol::Mcast, 1024).expect("completes");
        assert!(p.goodput > 1e5);
    }
}
