//! `wire-small` and `wire-bulk`: the wire layer alone, no engine.
//!
//! Sixteen [`WireStack`]s exchange messages over the benchmark's
//! [`Pipe`]. Every flow is a closed loop: it keeps a fixed number of
//! messages outstanding and issues the next one at the virtual instant
//! a previous one is delivered (the benchmark owns both ends, so no
//! application-level ack is needed). One operation is one message
//! delivered exactly once, in order, with the bytes that were sent.
//!
//! * `wire-small`: 64 flows (51 SRUDP, 13 RSTREAM), 8 outstanding
//!   each, sizes drawn from {64, 256, 1024} B, lossless pipe.
//! * `wire-bulk`: 8 flows of 128 KiB messages (94 fragments): 3 SRUDP
//!   plain, 3 SRUDP FEC sprayed over both routes, 2 RSTREAM; 2
//!   outstanding each; 5 % loss and 1 % reordering.
//!
//! Flows sit on distinct unordered stack pairs, so every datagram on
//! the pipe belongs to exactly one flow and can be attributed to it.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::{HostId, NetId};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::fec::FragStrategy;
use snipe_wire::frame::Proto;
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::srudp::SrudpConfig;
use snipe_wire::stack::{endpoint_key, StackConfig, WireStack};
use snipe_wire::Out;

use super::pipe::{Pipe, PipeCfg, PipeEvent};
use super::{Pass, PassStats, Workload};
use crate::layers::{wire_drain, wire_on_datagram, wire_on_timer, wire_rstream_send, wire_send};
use crate::stats::derive;
use crate::trace::{self, span, Sp};

const STACKS: usize = 16;
const PORT: u16 = 7000;
const HEADER: usize = 16;
const POOL: usize = 16;
/// Tag for spans no single flow caused (protocol timers).
pub const TAG_SHARED: usize = 7;

/// Which of the two wire workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    Small,
    Bulk,
}

/// A flow's transport and fragmentation class. The discriminant is the
/// flow's trace tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Srudp = 0,
    Rstream = 1,
    SrudpFec = 2,
}

impl WireKind {
    pub fn name(self) -> &'static str {
        match self {
            WireKind::Small => "wire-small",
            WireKind::Bulk => "wire-bulk",
        }
    }

    /// Messages per timed pass (≈1.2 s on the reference box).
    fn pass_msgs(self) -> u64 {
        match self {
            WireKind::Small => 125_000,
            WireKind::Bulk => 330,
        }
    }

    fn window(self) -> usize {
        match self {
            WireKind::Small => 8,
            WireKind::Bulk => 2,
        }
    }

    fn sizes(self) -> &'static [usize] {
        match self {
            WireKind::Small => &[64, 256, 1024],
            WireKind::Bulk => &[128 * 1024],
        }
    }

    fn pipe(self) -> PipeCfg {
        let base = PipeCfg {
            latency_ns: [120_000, 150_000],
            bandwidth_bps: 100_000_000,
            loss: 0.0,
            reorder: 0.0,
            reorder_extra_ns: 300_000,
        };
        match self {
            WireKind::Small => base,
            WireKind::Bulk => PipeCfg { loss: 0.05, reorder: 0.01, ..base },
        }
    }

    /// `(class, count)` of the flows, in flow-index order.
    fn classes(self) -> &'static [(Class, usize)] {
        match self {
            WireKind::Small => &[(Class::Srudp, 51), (Class::Rstream, 13)],
            WireKind::Bulk => &[(Class::Srudp, 3), (Class::SrudpFec, 3), (Class::Rstream, 2)],
        }
    }
}

struct Outstanding {
    seq: u64,
    issued_ns: u64,
    pool: usize,
    len: usize,
}

struct Flow {
    src: usize,
    dst: usize,
    class: Class,
    /// RSTREAM connection id (0 for SRUDP flows).
    conn: u64,
    next_seq: u64,
    outstanding: VecDeque<Outstanding>,
    delivered: u64,
    delivered_bytes: u64,
}

#[derive(Default)]
struct PassAcc {
    done_ok: u64,
    bad: u64,
    payload_bytes: u64,
    sends: u64,
    on_datagrams: u64,
    on_timers: u64,
    lat: Vec<u64>,
    wire_bytes0: u64,
}

/// The built wire workload.
pub struct Wire {
    kind: WireKind,
    seed: u64,
    stacks: Vec<WireStack>,
    pipe: Pipe,
    flows: Vec<Flow>,
    /// `a * STACKS + b` → flow on the unordered pair {a, b}.
    pair_flow: Vec<usize>,
    conn_flow: HashMap<u64, usize>,
    pool: Vec<Vec<u8>>,
    rng: Xoshiro256,
    armed: Vec<Option<u64>>,
    dirty: Vec<usize>,
    acc: PassAcc,
    violations: Vec<String>,
    // Cumulative counters for the per-layer ledger.
    timer_fires: u64,
    backlog_hwm: u64,
    loop_iters: u64,
}

fn ep(i: usize) -> Endpoint {
    Endpoint::new(HostId(i as u32), PORT)
}

impl Wire {
    /// Build the stacks, open the RSTREAM connections and run the
    /// warm-up pass.
    pub fn build(seed: u64, kind: WireKind) -> (Wire, PassStats) {
        let mut rng = Xoshiro256::seed_from_u64(derive(seed, 0x77_1e));
        let classes: Vec<Class> =
            kind.classes().iter().flat_map(|&(c, n)| std::iter::repeat_n(c, n)).collect();

        // Distinct unordered pairs, seeded order and orientation. In the
        // bulk workload a sender's fragmentation strategy is a property
        // of its stack, so bulk flows also get distinct senders.
        let mut pairs: Vec<(usize, usize)> =
            (0..STACKS).flat_map(|a| (a + 1..STACKS).map(move |b| (a, b))).collect();
        rng.shuffle(&mut pairs);
        let mut flows = Vec::new();
        let mut used_src = [false; STACKS];
        let mut it = pairs.into_iter();
        for &class in &classes {
            let (src, dst) = loop {
                let (a, b) = it.next().expect("enough stack pairs for the flows");
                let (s, d) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                if kind == WireKind::Small {
                    break (s, d);
                }
                if !used_src[s] && !used_src[d] {
                    used_src[s] = true;
                    used_src[d] = true; // a receiver never also sends
                    break (s, d);
                }
            };
            flows.push(Flow {
                src,
                dst,
                class,
                conn: 0,
                next_seq: 0,
                outstanding: VecDeque::new(),
                delivered: 0,
                delivered_bytes: 0,
            });
        }

        let mut stacks: Vec<WireStack> = (0..STACKS)
            .map(|i| {
                let fec = flows.iter().any(|f| f.src == i && f.class == Class::SrudpFec);
                let srudp = SrudpConfig {
                    frag_strategy: if fec { FragStrategy::Fec } else { FragStrategy::Plain },
                    ..SrudpConfig::default()
                };
                let cfg = StackConfig {
                    srudp,
                    rstream: Some(RstreamConfig::default()),
                    mcast_member: false,
                };
                WireStack::new(endpoint_key(ep(i)), cfg)
            })
            .collect();
        for (i, s) in stacks.iter_mut().enumerate() {
            for j in (0..STACKS).filter(|&j| j != i) {
                s.set_peer(endpoint_key(ep(j)), ep(j), vec![NetId(0), NetId(1)]);
            }
        }

        let mut pair_flow = vec![usize::MAX; STACKS * STACKS];
        let mut conn_flow = HashMap::new();
        for (i, f) in flows.iter_mut().enumerate() {
            pair_flow[f.src * STACKS + f.dst] = i;
            pair_flow[f.dst * STACKS + f.src] = i;
            if f.class == Class::Rstream {
                let rs = stacks[f.src].rstream_mut().expect("RSTREAM driver registered");
                f.conn = rs.connect(SimTime::ZERO, ep(f.dst));
                conn_flow.insert(f.conn, i);
            }
        }

        let max = *kind.sizes().iter().max().expect("sizes non-empty");
        let pool = (0..POOL)
            .map(|_| {
                let mut b = vec![0u8; max];
                rng.fill_bytes(&mut b);
                b
            })
            .collect();

        let mut w = Wire {
            kind,
            seed,
            stacks,
            pipe: Pipe::new(kind.pipe(), STACKS, derive(seed, 0x9100)),
            flows,
            pair_flow,
            conn_flow,
            pool,
            rng,
            armed: vec![None; STACKS],
            dirty: (0..STACKS).collect(),
            acc: PassAcc::default(),
            violations: Vec::new(),
            timer_fires: 0,
            backlog_hwm: 0,
            loop_iters: 0,
        };
        let warm = w.pass(Pass::Warm);
        (w, warm)
    }

    fn tag(&self, flow: usize) -> usize {
        self.flows[flow].class as usize
    }

    /// Issue the next message of `flow` at the pipe's current time.
    fn issue(&mut self, flow: usize) {
        let now = self.pipe.now();
        let sizes = self.kind.sizes();
        let len = sizes[self.rng.gen_range(sizes.len() as u64) as usize];
        let pool = self.rng.gen_range(POOL as u64) as usize;
        let f = &mut self.flows[flow];
        let seq = f.next_seq;
        f.next_seq += 1;
        let mut msg = Vec::with_capacity(len);
        msg.extend_from_slice(&(flow as u32).to_be_bytes());
        msg.extend_from_slice(&seq.to_be_bytes());
        msg.extend_from_slice(&(pool as u32).to_be_bytes());
        msg.extend_from_slice(&self.pool[pool][HEADER..len]);
        f.outstanding.push_back(Outstanding { seq, issued_ns: now.as_nanos(), pool, len });
        let (src, dst, class, conn) = (f.src, f.dst, f.class, f.conn);
        trace::set_op((flow as u64) << 32 | seq, class as usize);
        let sent = match class {
            Class::Rstream => wire_rstream_send(&mut self.stacks[src], now, conn, &msg),
            Class::Srudp | Class::SrudpFec => {
                wire_send(&mut self.stacks[src], now, endpoint_key(ep(dst)), Bytes::from(msg))
            }
        };
        if let Err(e) = sent {
            self.violations.push(format!("{}: send on flow {flow} failed: {e}", self.kind.name()));
        }
        self.acc.sends += 1;
        self.dirty.push(src);
    }

    /// A message surfaced at stack `at`: check it is the next message
    /// of its flow, byte for byte, and complete the operation. Returns
    /// the flow when the operation verified.
    fn deliver(&mut self, at: usize, proto: Proto, from_key: u64, msg: &[u8]) -> Option<usize> {
        let flow = match proto {
            Proto::Rstream => self.conn_flow.get(&from_key).copied(),
            // `endpoint_key` keeps the host index in bits 32..63.
            _ => Some(((from_key >> 32) & 0x7fff_ffff) as usize)
                .filter(|&s| s < STACKS)
                .map(|s| self.pair_flow[s * STACKS + at])
                .filter(|&f| f != usize::MAX),
        };
        let Some(flow) = flow else {
            self.acc.bad += 1;
            return None;
        };
        let now = self.pipe.now().as_nanos();
        let pool = &self.pool;
        let f = &mut self.flows[flow];
        let ok = f.dst == at
            && msg.len() >= HEADER
            && f.outstanding.front().is_some_and(|o| {
                msg.len() == o.len
                    && msg[0..4] == (flow as u32).to_be_bytes()
                    && msg[4..12] == o.seq.to_be_bytes()
                    && msg[12..16] == (o.pool as u32).to_be_bytes()
                    && msg[HEADER..] == pool[o.pool][HEADER..o.len]
            });
        if !ok {
            self.acc.bad += 1;
            return None;
        }
        let o = f.outstanding.pop_front().expect("checked front");
        f.delivered += 1;
        f.delivered_bytes += o.len as u64;
        self.acc.done_ok += 1;
        self.acc.payload_bytes += o.len as u64;
        self.acc.lat.push(now - o.issued_ns);
        Some(flow)
    }

    /// Drain every dirty stack: transmit its datagrams, verify its
    /// deliveries (which issue follow-on messages while the pass is
    /// still short of `target`), and keep its timer armed.
    fn flush(&mut self, target: u64) {
        while let Some(i) = self.dirty.pop() {
            // One drain empties the stack: a delivery here only makes the
            // flow's *sender* (another stack, queued as dirty) emit more.
            for o in wire_drain(&mut self.stacks[i]) {
                match o {
                    Out::Send { to, via, bytes, .. } => {
                        self.pipe.transmit(i, ep(i), to, via, bytes)
                    }
                    Out::Deliver { proto, from_key, msg, .. } => {
                        if let Some(f) = self.deliver(i, proto, from_key, &msg) {
                            self.refill(f, target);
                        }
                    }
                    Out::Wake { .. } => {}
                }
            }
            if let Some(dl) = self.stacks[i].next_deadline() {
                let at = (dl + SimDuration::from_micros(1)).as_nanos();
                if self.armed[i].is_none_or(|t| at < t) {
                    self.pipe.arm(i, SimTime::from_nanos(at));
                    self.armed[i] = Some(at);
                }
            }
        }
    }

    /// Refill `flow`'s window while the pass still needs messages.
    fn refill(&mut self, flow: usize, target: u64) {
        let window = self.kind.window();
        while self.acc.done_ok + self.acc.bad < target
            && self.flows[flow].outstanding.len() < window
        {
            self.issue(flow);
        }
    }

    fn sample_backlog(&mut self) {
        let total: usize = self.stacks.iter().map(|s| s.backlog_total()).sum();
        self.backlog_hwm = self.backlog_hwm.max(total as u64);
    }
}

impl Workload for Wire {
    fn run(&mut self, p: Pass) {
        let _g = span(Sp::BenchPass);
        let target = match p {
            Pass::Warm => self.kind.pass_msgs() / 4,
            Pass::Timed(_) => self.kind.pass_msgs(),
        };
        self.pipe.reseed(derive(self.seed, 0x9100 + p.index()));
        self.rng = Xoshiro256::seed_from_u64(derive(self.seed, 0x5123 + p.index()));
        // Sized once: the samples are the benchmark's own memory and
        // must not make `peak_rss_mb` depend on how a vector grew.
        self.acc = PassAcc {
            wire_bytes0: self.pipe.wire_bytes,
            lat: Vec::with_capacity(target as usize + self.flows.len()),
            ..PassAcc::default()
        };
        for f in 0..self.flows.len() {
            self.refill(f, target);
        }
        self.flush(target);
        while self.acc.done_ok + self.acc.bad < target {
            let Some(ev) = self.pipe.pop() else {
                self.violations.push(format!(
                    "{}: stalled at {} of {target} messages with nothing in flight",
                    self.kind.name(),
                    self.acc.done_ok
                ));
                break;
            };
            let now = self.pipe.now();
            match ev {
                PipeEvent::Arrive { to, from, bytes } => {
                    let flow = self.pair_flow[from.host.0 as usize * STACKS + to];
                    if flow != usize::MAX {
                        let seq = self.flows[flow].outstanding.front().map_or(0, |o| o.seq);
                        trace::set_op((flow as u64) << 32 | seq, self.tag(flow));
                    }
                    // Decode failures are counted by the stack and
                    // reported through `wire.decode_drops`.
                    let _ = wire_on_datagram(&mut self.stacks[to], now, from, bytes);
                    self.acc.on_datagrams += 1;
                    self.dirty.push(to);
                }
                PipeEvent::Timer { stack } => {
                    if self.armed[stack] == Some(now.as_nanos()) {
                        self.armed[stack] = None;
                    }
                    if self.stacks[stack].next_deadline().is_some_and(|d| d <= now) {
                        trace::set_op(u64::MAX, TAG_SHARED);
                        wire_on_timer(&mut self.stacks[stack], now);
                        self.acc.on_timers += 1;
                        self.timer_fires += 1;
                    }
                    self.dirty.push(stack);
                }
            }
            self.flush(target);
            self.loop_iters += 1;
            if trace::on() && self.loop_iters.is_multiple_of(1024) {
                self.sample_backlog();
            }
        }
    }

    fn collect(&mut self) -> PassStats {
        let acc = std::mem::take(&mut self.acc);
        PassStats {
            attempted: acc.done_ok + acc.bad,
            ok: acc.done_ok,
            payload_bytes: acc.payload_bytes,
            wire_bytes: self.pipe.wire_bytes - acc.wire_bytes0,
            events: acc.sends + acc.on_datagrams + acc.on_timers,
            lat_ns: acc.lat,
        }
    }

    fn final_check(&mut self) -> Vec<String> {
        let mut v = std::mem::take(&mut self.violations);
        let name = self.kind.name();
        let drops: u64 = self.stacks.iter().map(|s| s.decode_drops()).sum();
        if drops != 0 {
            v.push(format!("{name}: {drops} datagrams failed to decode on a corruption-free pipe"));
        }
        // (SRUDP's own `failed` counter is *not* an oracle here: under
        // loss a sender can write a message off after its receiver has
        // completed it. It is reported as `wire.srudp.abandoned_per_msg`.)
        let aborted: u64 =
            self.stacks.iter().filter_map(|s| s.rstream()).map(|r| r.stats().aborted).sum();
        if aborted != 0 {
            v.push(format!("{name}: {aborted} RSTREAM connections aborted"));
        }
        if self.kind == WireKind::Bulk {
            let fec_msgs: u64 =
                self.flows.iter().filter(|f| f.class == Class::SrudpFec).map(|f| f.delivered).sum();
            let fec_delivered: u64 =
                self.stacks.iter().map(|s| s.srudp_stats().fec_delivered).sum();
            let corrupt: u64 = self.stacks.iter().map(|s| s.srudp_stats().fec_corrupt).sum();
            if fec_delivered == 0 || fec_delivered != fec_msgs || corrupt != 0 {
                v.push(format!(
                    "{name}: FEC did not engage cleanly ({fec_delivered} reconstructed of {fec_msgs} FEC-class messages, {corrupt} corrupt)"
                ));
            }
        }
        v
    }

    fn layer_metrics(&mut self, out: &mut Vec<(String, f64)>) {
        let msgs: u64 = self.flows.iter().map(|f| f.delivered).sum();
        let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
        let drops: u64 = self.stacks.iter().map(|s| s.decode_drops()).sum();
        out.push(("wire.decode_drops".into(), drops as f64));
        out.push(("wire.backlog_hwm".into(), self.backlog_hwm as f64));
        match self.kind {
            WireKind::Small => {
                out.push(("wire.datagrams_per_msg".into(), per(self.pipe.datagrams, msgs)));
                out.push(("wire.timer_fires_per_msg".into(), per(self.timer_fires, msgs)));
            }
            WireKind::Bulk => {
                let class_msgs = |c: Class| -> u64 {
                    self.flows.iter().filter(|f| f.class == c).map(|f| f.delivered).sum()
                };
                // Wire bytes of a class: both directions of its pairs.
                let class_bytes = |c: Class| -> u64 {
                    self.flows
                        .iter()
                        .filter(|f| f.class == c)
                        .map(|f| {
                            self.pipe.pairs[f.src * STACKS + f.dst].bytes
                                + self.pipe.pairs[f.dst * STACKS + f.src].bytes
                        })
                        .sum()
                };
                let retransmits: u64 =
                    self.stacks.iter().map(|s| s.srudp_stats().retransmits).sum();
                let srudp_msgs = class_msgs(Class::Srudp) + class_msgs(Class::SrudpFec);
                out.push(("wire.srudp.retransmits_per_msg".into(), per(retransmits, srudp_msgs)));
                let abandoned: u64 = self.stacks.iter().map(|s| s.srudp_stats().failed).sum();
                out.push(("wire.srudp.abandoned_per_msg".into(), per(abandoned, srudp_msgs)));
                let fec_delivered: u64 =
                    self.stacks.iter().map(|s| s.srudp_stats().fec_delivered).sum();
                out.push((
                    "wire.fec.reconstruct_ratio".into(),
                    per(fec_delivered, class_msgs(Class::SrudpFec)),
                ));
                out.push((
                    "wire.fec.share_overhead_ratio".into(),
                    per(class_bytes(Class::SrudpFec), class_msgs(Class::SrudpFec))
                        / per(class_bytes(Class::Srudp), class_msgs(Class::Srudp)).max(1.0),
                ));
                // Plain SRUDP: DATA datagrams that arrived beyond the 94
                // each delivered message needed.
                let (mut arrived, mut needed) = (0u64, 0u64);
                for f in self.flows.iter().filter(|f| f.class == Class::Srudp) {
                    let fwd = self.pipe.pairs[f.src * STACKS + f.dst];
                    arrived += fwd.sent - fwd.lost;
                    needed += f.delivered_bytes.div_ceil(SrudpConfig::default().frag_size as u64);
                }
                out.push(("wire.dup_ratio".into(), per(arrived.saturating_sub(needed), arrived)));
            }
        }
    }
}

impl Wire {
    /// `(messages, payload bytes)` delivered so far on flows of `class`.
    pub fn class_totals(&self, class: Class) -> (u64, u64) {
        self.flows
            .iter()
            .filter(|f| f.class == class)
            .fold((0, 0), |(m, b), f| (m + f.delivered, b + f.delivered_bytes))
    }
}
