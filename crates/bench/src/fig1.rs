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
use snipe_util::id::NetId;
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
    pub(crate) fn new(app: A) -> Hosted<A> {
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

/// A stack with one configured peer (the senders).
fn stack_toward(
    now: SimTime,
    me: Endpoint,
    cfg: &StackConfig,
    peer: Endpoint,
    pin: &Option<Vec<NetId>>,
) -> WireStack {
    let mut stack = WireStack::new(endpoint_key(me), cfg.clone());
    stack.set_peer_at(now, endpoint_key(peer), peer, pin.clone().unwrap_or_default());
    stack
}

/// Pin our return routes toward every sender whose key the stack has
/// learned from its packets (multi-path, E7).
fn pin_learned_peers(now: SimTime, stack: &mut WireStack, pin: &Option<Vec<NetId>>) {
    let Some(pin) = pin else { return };
    for key in stack.known_peers() {
        if stack.route_candidates(key).is_empty() {
            if let Some(ep) = stack.peer_endpoint(key) {
                stack.set_peer_at(now, key, ep, pin.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-stream endpoints: SRUDP and RSTREAM senders, one receiver
// ---------------------------------------------------------------------------

pub(crate) struct SrudpSender {
    pub(crate) peer: Endpoint,
    pub(crate) msg_size: usize,
    pub(crate) remaining: usize,
    /// Keep this many payload bytes queued at once.
    pub(crate) inflight: usize,
    pub(crate) cfg: StackConfig,
    /// Ranked pinned routes toward the peer (multi-path, E7).
    pub(crate) pin: Option<Vec<NetId>>,
}

impl StackApp for SrudpSender {
    fn open(&mut self, now: SimTime, me: Endpoint) -> WireStack {
        stack_toward(now, me, &self.cfg, self.peer, &self.pin)
    }

    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        // Keep a bounded amount of payload queued in the transport so
        // the wire stays saturated without unbounded memory use.
        while self.remaining > 0 && stack.backlog_total() < self.inflight {
            let size = self.msg_size.min(self.remaining);
            stack
                .send(now, endpoint_key(self.peer), Bytes::from(vec![0xAB; size]))
                .expect("configured frag size");
            self.remaining -= size;
        }
    }
}

pub(crate) struct RstreamSender {
    pub(crate) cfg: RstreamConfig,
    pub(crate) conn: u64,
    pub(crate) peer: Endpoint,
    pub(crate) msg_size: usize,
    pub(crate) remaining: usize,
    pub(crate) inflight_cap: usize,
}

/// The stack both ends of an RSTREAM transfer run.
pub(crate) fn rstream_stack(cfg: &RstreamConfig) -> StackConfig {
    StackConfig { rstream: Some(cfg.clone()), ..StackConfig::default() }
}

impl StackApp for RstreamSender {
    fn open(&mut self, now: SimTime, me: Endpoint) -> WireStack {
        let mut stack = WireStack::new(endpoint_key(me), rstream_stack(&self.cfg));
        self.conn = stack.rstream_mut().expect("RSTREAM driver registered").connect(now, self.peer);
        stack
    }

    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        let rs = stack.rstream_mut().expect("RSTREAM driver registered");
        while self.remaining > 0 && rs.unacked_bytes(self.conn) < self.inflight_cap {
            let size = self.msg_size.min(self.remaining);
            if rs.send_message(now, self.conn, &vec![0xCD; size]).is_err() {
                break;
            }
            self.remaining -= size;
        }
    }
}

/// Counts delivered payload bytes, whichever driver of `cfg` they come
/// up through, and notes when `expect` of them have arrived.
pub(crate) struct Receiver {
    cfg: StackConfig,
    /// Ranked routes to pin toward senders (multi-path, E7).
    pin: Option<Vec<NetId>>,
    expect: usize,
    pub(crate) received: usize,
    pub(crate) done_at: Option<SimTime>,
}

impl Receiver {
    pub(crate) fn new(cfg: StackConfig, pin: Option<Vec<NetId>>, expect: usize) -> Receiver {
        Receiver { cfg, pin, expect, received: 0, done_at: None }
    }
}

impl StackApp for Receiver {
    fn open(&mut self, _now: SimTime, me: Endpoint) -> WireStack {
        WireStack::new(endpoint_key(me), self.cfg.clone())
    }

    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        pin_learned_peers(now, stack, &self.pin);
    }

    fn deliver(&mut self, now: SimTime, d: Delivery) {
        let len = match d.proto {
            // Member deliveries carry the whole MCAST envelope; goodput
            // counts only the application payload.
            Proto::Mcast => match McastMsg::decode_from_bytes(d.msg) {
                Ok(McastMsg::Data { payload, .. }) => payload.len(),
                _ => return,
            },
            _ => d.msg.len(),
        };
        self.received += len;
        if self.received >= self.expect && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }
}

// ---------------------------------------------------------------------------
// FEC integrity workload endpoints (chaos + A/B bench)
// ---------------------------------------------------------------------------

/// Deterministic patterned payload for message `i`: an 8-byte index
/// header followed by an index-keyed byte pattern, so a receiver can
/// verify *content*, not just byte counts — the integrity oracle for
/// erasure-coded transfers.
pub(crate) fn fec_payload(i: u64, size: usize) -> Bytes {
    let size = size.max(8);
    let mut v = Vec::with_capacity(size);
    v.extend_from_slice(&i.to_be_bytes());
    v.extend((8..size).map(|j| ((i as usize).wrapping_mul(31).wrapping_add(j) % 251) as u8));
    Bytes::from(v)
}

/// Streams `count` indexed patterned messages, keeping the transport
/// backlog under `inflight` bytes (set `inflight` below one message's
/// wire cost for stop-and-wait pacing).
pub(crate) struct FecSender {
    pub(crate) peer: Endpoint,
    pub(crate) msg_size: usize,
    pub(crate) count: u64,
    pub(crate) next: u64,
    pub(crate) inflight: usize,
    pub(crate) cfg: StackConfig,
    pub(crate) pin: Option<Vec<NetId>>,
}

impl StackApp for FecSender {
    fn open(&mut self, now: SimTime, me: Endpoint) -> WireStack {
        stack_toward(now, me, &self.cfg, self.peer, &self.pin)
    }

    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        while self.next < self.count && stack.backlog_total() <= self.inflight {
            let msg = fec_payload(self.next, self.msg_size);
            stack.send(now, endpoint_key(self.peer), msg).expect("configured frag size");
            self.next += 1;
        }
    }
}

/// Verifies every delivered message against [`fec_payload`]: indices
/// land in `seqs` (order preserved), content mismatches in
/// `mismatches` (each one is an integrity violation — reconstruction
/// must fail closed, never fabricate).
#[derive(Default)]
pub(crate) struct FecReceiver {
    cfg: StackConfig,
    pin: Option<Vec<NetId>>,
    expect: u64,
    msg_size: usize,
    pub(crate) seqs: Vec<u32>,
    pub(crate) mismatches: Vec<String>,
    pub(crate) done_at: Option<SimTime>,
}

impl FecReceiver {
    pub(crate) fn new(
        cfg: StackConfig,
        pin: Option<Vec<NetId>>,
        expect: u64,
        msg_size: usize,
    ) -> FecReceiver {
        FecReceiver { cfg, pin, expect, msg_size, ..FecReceiver::default() }
    }
}

impl StackApp for FecReceiver {
    fn open(&mut self, _now: SimTime, me: Endpoint) -> WireStack {
        WireStack::new(endpoint_key(me), self.cfg.clone())
    }

    fn pump(&mut self, now: SimTime, stack: &mut WireStack) {
        pin_learned_peers(now, stack, &self.pin);
    }

    fn deliver(&mut self, now: SimTime, d: Delivery) {
        let msg = d.msg;
        if msg.len() >= 8 {
            let i = u64::from_be_bytes(msg[..8].try_into().unwrap());
            if msg != fec_payload(i, self.msg_size) {
                self.mismatches.push(format!(
                    "message {i}: {} bytes delivered with corrupted content",
                    msg.len()
                ));
            }
            self.seqs.push(i as u32);
        } else {
            self.mismatches.push(format!("runt message delivered ({} bytes)", msg.len()));
        }
        if self.seqs.len() as u64 >= self.expect && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }
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
    let receiver = |cfg| Box::new(Hosted::new(Receiver::new(cfg, None, total)));
    let rx = match protocol {
        Protocol::Srudp => {
            world.spawn(b, 20, receiver(StackConfig::default()));
            world.spawn(
                a,
                20,
                Box::new(Hosted::new(SrudpSender {
                    peer: Endpoint::new(b, 20),
                    msg_size,
                    remaining: total,
                    // Pipeline depth: several messages or a window's
                    // worth of fragments, whichever is larger.
                    inflight: (4 * msg_size).max(64 * 1400),
                    cfg: StackConfig::default(),
                    pin: None,
                })),
            );
            Endpoint::new(b, 20)
        }
        Protocol::Rstream => {
            let cfg = RstreamConfig::default();
            world.spawn(b, 20, receiver(rstream_stack(&cfg)));
            world.spawn(
                a,
                20,
                Box::new(Hosted::new(RstreamSender {
                    cfg,
                    conn: 0,
                    peer: Endpoint::new(b, 20),
                    msg_size,
                    remaining: total,
                    inflight_cap: 64 * 1400,
                })),
            );
            Endpoint::new(b, 20)
        }
        Protocol::Mcast => {
            let member = StackConfig { mcast_member: true, ..StackConfig::default() };
            world.spawn(c, 20, receiver(member));
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
