//! Fig. 1 — "Bandwidth in MegaBytes/Second offered to SNIPE client
//! applications on various media."
//!
//! Two (three for multicast) hosts on one segment of the medium under
//! test; a sender streams fixed-size messages through the protocol
//! module under test and we report delivered payload bytes per
//! simulated second, exactly the quantity the paper plots against
//! message size for 100 Mbit Ethernet and 155 Mbit ATM.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx, TimerGate};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::mcast::{McastMsg, McastRouter};
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::stack::{endpoint_key, StackConfig, WireStack};
use snipe_wire::Out;

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
// SRUDP driver
// ---------------------------------------------------------------------------

pub(crate) struct SrudpSender {
    pub(crate) stack: Option<WireStack>,
    pub(crate) peer: Endpoint,
    pub(crate) msg_size: usize,
    pub(crate) remaining: usize,
    /// Keep this many payload bytes queued at once.
    pub(crate) inflight: usize,
    pub(crate) cfg: StackConfig,
    /// Ranked pinned routes toward the peer (multi-path, E7).
    pub(crate) pin: Option<Vec<snipe_util::id::NetId>>,
    pub(crate) gate: TimerGate,
}

const TIMER_STACK: u64 = 1;

fn flush_wire(
    stack: &mut WireStack,
    gate: &mut TimerGate,
    ctx: &mut dyn SimCtx,
    delivered: &mut usize,
) {
    for o in stack.drain() {
        match o {
            Out::Send { to, via, bytes, .. } => match via {
                Some(n) => ctx.send_via(to, bytes, n),
                None => ctx.send(to, bytes),
            },
            Out::Deliver { msg, .. } => *delivered += msg.len(),
            Out::Wake { .. } => {}
        }
    }
    if let Some(dl) = stack.next_deadline() {
        gate.arm_at(ctx, dl + SimDuration::from_micros(1), TIMER_STACK);
    }
}

impl SrudpSender {
    fn pump_app(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        let Some(stack) = self.stack.as_mut() else {
            return;
        };
        // Keep a bounded amount of payload queued in the transport so
        // the wire stays saturated without unbounded memory use.
        while self.remaining > 0 && stack_backlog(stack) < self.inflight {
            let size = self.msg_size.min(self.remaining);
            stack
                .send(now, endpoint_key(self.peer), Bytes::from(vec![0xAB; size]))
                .expect("configured frag size");
            self.remaining -= size;
        }
        let mut sink = 0;
        flush_wire(stack, &mut self.gate, ctx, &mut sink);
    }
}

fn stack_backlog(stack: &WireStack) -> usize {
    // Unacked bytes toward all peers — our pipeline depth proxy.
    stack.backlog_total()
}

impl Actor for SrudpSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                let mut stack = WireStack::new(endpoint_key(me), self.cfg.clone());
                let routes = self.pin.clone().unwrap_or_default();
                stack.set_peer_at(ctx.now(), endpoint_key(self.peer), self.peer, routes);
                self.stack = Some(stack);
                self.pump_app(ctx);
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                // HostUp: timers queued while the host was down were
                // swallowed by the engine, so the gate may reference a
                // deadline that will never fire. Re-drive the stack now
                // to resume retransmission after recovery.
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                }
                self.pump_app(ctx);
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    let _ = s.on_datagram(now, from, payload);
                }
                self.pump_app(ctx);
            }
            _ => {}
        }
    }
}

pub(crate) struct SrudpReceiver {
    pub(crate) stack: Option<WireStack>,
    pub(crate) received: Arc<Mutex<usize>>,
    pub(crate) done_at: Arc<Mutex<Option<SimTime>>>,
    pub(crate) expect: usize,
    pub(crate) cfg: StackConfig,
    /// Ranked routes to pin toward senders (multi-path, E7).
    pub(crate) pin: Option<Vec<snipe_util::id::NetId>>,
    pub(crate) gate: TimerGate,
}

impl Actor for SrudpReceiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                self.stack = Some(WireStack::new(endpoint_key(me), self.cfg.clone()));
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                let Some(stack) = self.stack.as_mut() else {
                    return;
                };
                let _ = stack.on_datagram(now, from, payload);
                // Pin our return routes toward the sender (its key was
                // learned from the packet).
                if let Some(pin) = &self.pin {
                    for key in stack.known_peers() {
                        if stack.route_candidates(key).is_empty() {
                            if let Some(ep) = stack.peer_endpoint(key) {
                                stack.set_peer_at(now, key, ep, pin.clone());
                            }
                        }
                    }
                }
                let mut got = 0;
                flush_wire(stack, &mut self.gate, ctx, &mut got);
                if got > 0 {
                    let mut r = self.received.lock().unwrap();
                    *r += got;
                    if *r >= self.expect && self.done_at.lock().unwrap().is_none() {
                        *self.done_at.lock().unwrap() = Some(ctx.now());
                    }
                }
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                // See SrudpSender: re-arm after a flap swallowed timers.
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                    let mut got = 0;
                    flush_wire(s, &mut self.gate, ctx, &mut got);
                    if got > 0 {
                        let mut r = self.received.lock().unwrap();
                        *r += got;
                        if *r >= self.expect && self.done_at.lock().unwrap().is_none() {
                            *self.done_at.lock().unwrap() = Some(ctx.now());
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// FEC integrity workload actors (chaos + A/B bench)
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
    pub(crate) stack: Option<WireStack>,
    pub(crate) peer: Endpoint,
    pub(crate) msg_size: usize,
    pub(crate) count: u64,
    pub(crate) next: u64,
    pub(crate) inflight: usize,
    pub(crate) cfg: StackConfig,
    pub(crate) pin: Option<Vec<snipe_util::id::NetId>>,
    pub(crate) gate: TimerGate,
}

impl FecSender {
    fn pump_app(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        let Some(stack) = self.stack.as_mut() else {
            return;
        };
        while self.next < self.count && stack_backlog(stack) <= self.inflight {
            let msg = fec_payload(self.next, self.msg_size);
            stack.send(now, endpoint_key(self.peer), msg).expect("configured frag size");
            self.next += 1;
        }
        let mut sink = 0;
        flush_wire(stack, &mut self.gate, ctx, &mut sink);
    }
}

impl Actor for FecSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                let mut stack = WireStack::new(endpoint_key(me), self.cfg.clone());
                let routes = self.pin.clone().unwrap_or_default();
                stack.set_peer_at(ctx.now(), endpoint_key(self.peer), self.peer, routes);
                self.stack = Some(stack);
                self.pump_app(ctx);
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                }
                self.pump_app(ctx);
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    let _ = s.on_datagram(now, from, payload);
                }
                self.pump_app(ctx);
            }
            _ => {}
        }
    }
}

/// Verifies every delivered message against [`fec_payload`]: indices
/// land in `seqs` (order preserved), content mismatches in
/// `mismatches` (each one is an integrity violation — reconstruction
/// must fail closed, never fabricate), and the final SRUDP stats
/// snapshot in `stats`.
pub(crate) struct FecReceiver {
    pub(crate) stack: Option<WireStack>,
    pub(crate) cfg: StackConfig,
    pub(crate) pin: Option<Vec<snipe_util::id::NetId>>,
    pub(crate) gate: TimerGate,
    pub(crate) expect: u64,
    pub(crate) msg_size: usize,
    pub(crate) seqs: Arc<Mutex<Vec<u32>>>,
    pub(crate) mismatches: Arc<Mutex<Vec<String>>>,
    pub(crate) stats: Arc<Mutex<snipe_wire::srudp::SrudpStats>>,
    pub(crate) done_at: Arc<Mutex<Option<SimTime>>>,
}

impl FecReceiver {
    fn drain_verified(&mut self, ctx: &mut dyn SimCtx) {
        let Some(stack) = self.stack.as_mut() else {
            return;
        };
        for o in stack.drain() {
            match o {
                Out::Send { to, via, bytes, .. } => match via {
                    Some(n) => ctx.send_via(to, bytes, n),
                    None => ctx.send(to, bytes),
                },
                Out::Deliver { msg, .. } => {
                    let mut seqs = self.seqs.lock().unwrap();
                    if msg.len() >= 8 {
                        let i = u64::from_be_bytes(msg[..8].try_into().unwrap());
                        if msg != fec_payload(i, self.msg_size) {
                            self.mismatches.lock().unwrap().push(format!(
                                "message {i}: {} bytes delivered with corrupted content",
                                msg.len()
                            ));
                        }
                        seqs.push(i as u32);
                    } else {
                        self.mismatches
                            .lock()
                            .unwrap()
                            .push(format!("runt message delivered ({} bytes)", msg.len()));
                    }
                    if seqs.len() as u64 >= self.expect && self.done_at.lock().unwrap().is_none() {
                        *self.done_at.lock().unwrap() = Some(ctx.now());
                    }
                }
                Out::Wake { .. } => {}
            }
        }
        *self.stats.lock().unwrap() = stack.srudp_stats();
        if let Some(dl) = stack.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), TIMER_STACK);
        }
    }
}

impl Actor for FecReceiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                self.stack = Some(WireStack::new(endpoint_key(me), self.cfg.clone()));
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                let Some(stack) = self.stack.as_mut() else {
                    return;
                };
                let _ = stack.on_datagram(now, from, payload);
                if let Some(pin) = &self.pin {
                    for key in stack.known_peers() {
                        if stack.route_candidates(key).is_empty() {
                            if let Some(ep) = stack.peer_endpoint(key) {
                                stack.set_peer_at(now, key, ep, pin.clone());
                            }
                        }
                    }
                }
                self.drain_verified(ctx);
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                }
                self.drain_verified(ctx);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// RSTREAM driver
// ---------------------------------------------------------------------------

pub(crate) struct RstreamSender {
    pub(crate) stack: Option<WireStack>,
    pub(crate) cfg: RstreamConfig,
    pub(crate) conn: u64,
    pub(crate) peer: Endpoint,
    pub(crate) msg_size: usize,
    pub(crate) remaining: usize,
    pub(crate) inflight_cap: usize,
    pub(crate) gate: TimerGate,
}

impl RstreamSender {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        let Some(stack) = self.stack.as_mut() else {
            return;
        };
        {
            let rs = stack.rstream_mut().expect("RSTREAM driver registered");
            while self.remaining > 0 && rs.unacked_bytes(self.conn) < self.inflight_cap {
                let size = self.msg_size.min(self.remaining);
                if rs.send_message(now, self.conn, &vec![0xCD; size]).is_err() {
                    break;
                }
                self.remaining -= size;
            }
        }
        let mut sink = 0;
        flush_wire(stack, &mut self.gate, ctx, &mut sink);
    }
}

impl Actor for RstreamSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                let cfg = StackConfig { rstream: Some(self.cfg.clone()), ..StackConfig::default() };
                let mut stack = WireStack::new(endpoint_key(me), cfg);
                self.conn = stack
                    .rstream_mut()
                    .expect("RSTREAM driver registered")
                    .connect(ctx.now(), self.peer);
                self.stack = Some(stack);
                self.pump(ctx);
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                // See SrudpSender: re-drive after a flap swallowed timers.
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                }
                self.pump(ctx);
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    let _ = s.on_datagram(now, from, payload);
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

pub(crate) struct RstreamReceiver {
    pub(crate) stack: Option<WireStack>,
    pub(crate) cfg: RstreamConfig,
    pub(crate) received: Arc<Mutex<usize>>,
    pub(crate) done_at: Arc<Mutex<Option<SimTime>>>,
    pub(crate) expect: usize,
    pub(crate) gate: TimerGate,
}

impl RstreamReceiver {
    fn drain(&mut self, ctx: &mut dyn SimCtx) {
        let Some(stack) = self.stack.as_mut() else {
            return;
        };
        let mut got = 0;
        flush_wire(stack, &mut self.gate, ctx, &mut got);
        if got > 0 {
            let mut r = self.received.lock().unwrap();
            *r += got;
            if *r >= self.expect && self.done_at.lock().unwrap().is_none() {
                *self.done_at.lock().unwrap() = Some(ctx.now());
            }
        }
    }
}

impl Actor for RstreamReceiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                let cfg = StackConfig { rstream: Some(self.cfg.clone()), ..StackConfig::default() };
                self.stack = Some(WireStack::new(endpoint_key(me), cfg));
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    let _ = s.on_datagram(now, from, payload);
                }
                self.drain(ctx);
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                }
                self.drain(ctx);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Multicast driver (sender → router → member; per-receiver goodput)
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
                    ctx.send(self.router, seal(Proto::Mcast, msg.encode()));
                }
                ctx.set_timer(SimDuration::from_micros(200), 1);
            }
            _ => {}
        }
    }
}

struct McastRouterHost {
    state: McastRouter,
}

impl Actor for McastRouterHost {
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
                    ctx.send(to, bytes);
                }
            }
        }
    }
}

struct McastMemberHost {
    stack: Option<WireStack>,
    received: Arc<Mutex<usize>>,
    done_at: Arc<Mutex<Option<SimTime>>>,
    expect: usize,
    gate: TimerGate,
}

impl McastMemberHost {
    fn drain(&mut self, ctx: &mut dyn SimCtx) {
        let Some(stack) = self.stack.as_mut() else {
            return;
        };
        for o in stack.drain() {
            match o {
                Out::Send { to, via, bytes, .. } => match via {
                    Some(n) => ctx.send_via(to, bytes, n),
                    None => ctx.send(to, bytes),
                },
                // Member deliveries carry the whole MCAST envelope;
                // goodput counts only the application payload.
                Out::Deliver { msg, .. } => {
                    let Ok(McastMsg::Data { payload, .. }) = McastMsg::decode(msg) else {
                        continue;
                    };
                    let mut r = self.received.lock().unwrap();
                    *r += payload.len();
                    if *r >= self.expect && self.done_at.lock().unwrap().is_none() {
                        *self.done_at.lock().unwrap() = Some(ctx.now());
                    }
                }
                Out::Wake { .. } => {}
            }
        }
        if let Some(dl) = stack.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), TIMER_STACK);
        }
    }
}

impl Actor for McastMemberHost {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                let cfg = StackConfig { mcast_member: true, ..StackConfig::default() };
                self.stack = Some(WireStack::new(endpoint_key(me), cfg));
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    let _ = s.on_datagram(now, from, payload);
                }
                self.drain(ctx);
            }
            Event::Timer { token: TIMER_STACK } | Event::HostUp => {
                self.gate.fired();
                let now = ctx.now();
                if let Some(s) = self.stack.as_mut() {
                    s.on_timer(now);
                }
                self.drain(ctx);
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
    let mut topo = Topology::new();
    let net = topo.add_network("m", medium, true);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    let c = topo.add_host(HostCfg::named("c"));
    for h in [a, b, c] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, 99);
    let total = total_for(msg_size);
    let received = Arc::new(Mutex::new(0usize));
    let done_at = Arc::new(Mutex::new(None));
    match protocol {
        Protocol::Srudp => {
            world.spawn(
                b,
                20,
                Box::new(SrudpReceiver {
                    stack: None,
                    received: received.clone(),
                    done_at: done_at.clone(),
                    expect: total,
                    cfg: StackConfig::default(),
                    pin: None,
                    gate: TimerGate::new(),
                }),
            );
            world.spawn(
                a,
                20,
                Box::new(SrudpSender {
                    stack: None,
                    peer: Endpoint::new(b, 20),
                    msg_size,
                    remaining: total,
                    // Pipeline depth: several messages or a window's
                    // worth of fragments, whichever is larger.
                    inflight: (4 * msg_size).max(64 * 1400),
                    cfg: StackConfig::default(),
                    pin: None,
                    gate: TimerGate::new(),
                }),
            );
        }
        Protocol::Rstream => {
            world.spawn(
                b,
                20,
                Box::new(RstreamReceiver {
                    stack: None,
                    cfg: RstreamConfig::default(),
                    received: received.clone(),
                    done_at: done_at.clone(),
                    expect: total,
                    gate: TimerGate::new(),
                }),
            );
            world.spawn(
                a,
                20,
                Box::new(RstreamSender {
                    stack: None,
                    cfg: RstreamConfig::default(),
                    conn: 0,
                    peer: Endpoint::new(b, 20),
                    msg_size,
                    remaining: total,
                    inflight_cap: 64 * 1400,
                    gate: TimerGate::new(),
                }),
            );
        }
        Protocol::Mcast => {
            world.spawn(
                c,
                20,
                Box::new(McastMemberHost {
                    stack: None,
                    received: received.clone(),
                    done_at: done_at.clone(),
                    expect: total,
                    gate: TimerGate::new(),
                }),
            );
            let mut router = McastRouter::new();
            let mut scratch = Vec::new();
            router.on_message(
                McastMsg::Join { group: 1, member: Endpoint::new(c, 20) },
                &mut scratch,
            );
            world.spawn(b, 20, Box::new(McastRouterHost { state: router }));
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
        }
    }
    // Run until done (bounded).
    for _ in 0..600 {
        world.run_for(SimDuration::from_millis(100));
        if done_at.lock().unwrap().is_some() {
            break;
        }
    }
    let t = (*done_at.lock().unwrap())?;
    let secs = t.as_secs_f64();
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

/// Instrumented variant of [`measure`] printing progress (debugging).
pub fn measure_debug(medium: Medium, protocol: Protocol, msg_size: usize) {
    let medium_name = medium.name;
    let _ = medium_name;
    let mut topo = Topology::new();
    let net = topo.add_network("m", medium, true);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    let c = topo.add_host(HostCfg::named("c"));
    for h in [a, b, c] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, 99);
    let total = total_for(msg_size);
    let received = Arc::new(Mutex::new(0usize));
    let done_at = Arc::new(Mutex::new(None));
    assert_eq!(protocol, Protocol::Srudp);
    world.spawn(
        b,
        20,
        Box::new(SrudpReceiver {
            stack: None,
            received: received.clone(),
            done_at: done_at.clone(),
            expect: total,
            cfg: StackConfig::default(),
            pin: None,
            gate: TimerGate::new(),
        }),
    );
    world.spawn(
        a,
        20,
        Box::new(SrudpSender {
            stack: None,
            peer: Endpoint::new(b, 20),
            msg_size,
            remaining: total,
            inflight: (4 * msg_size).max(64 * 1400),
            cfg: StackConfig::default(),
            pin: None,
            gate: TimerGate::new(),
        }),
    );
    for i in 0..600 {
        let t0 = std::time::Instant::now();
        world.run_for(SimDuration::from_millis(100));
        eprintln!(
            "iter {i}: wall {:?} received {} / {} events {}",
            t0.elapsed(),
            *received.lock().unwrap(),
            total,
            world.stats().events
        );
        if done_at.lock().unwrap().is_some() {
            eprintln!("DONE at {:?}", *done_at.lock().unwrap());
            break;
        }
    }
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
