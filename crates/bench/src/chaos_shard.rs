//! C2 — the chaos soak for partitioned, multi-threaded worlds.
//!
//! The one-region soak ([`crate::chaos`]) exercises the full SNIPE
//! protocol stack on a single core. This soak targets
//! [`World::sharded`]: six bespoke workloads exercise the
//! *engine-level* contracts — mailbox routing, fault dispatch across
//! regions, chaos determinism, bounded per-shard queues, erasure-coded
//! share spraying — and a **full-protocol** workload runs the real
//! stack (per-host daemons, RCDS replication, file transfer) on a
//! multi-cluster [`SnipeWorld`] under the same chaos plans.
//!
//! The engine-level runs happen on a 1000-host campus (16 regions)
//! with a small active cast; the full-protocol run uses a 48-host
//! campus (6 regions) because it installs the whole runtime on every
//! host. Each run executes its seeded [`ChaosPlan`] to quiescence plus
//! a recovery tail, asserts its invariants plus the per-shard
//! boundedness oracle, and is doubled at a second thread count — the
//! digests must match bit-for-bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use snipe_core::api::TicketResult;
use snipe_core::{SnipeApi, SnipeProcess, SnipeWorld, SnipeWorldBuilder, SpawnTarget};
use snipe_files::{FetchActor, FileServerActor, FileServerConfig};
use snipe_netsim::actor::{Actor, Event, SimCtx, TimerGate};
use snipe_netsim::chaos::{ChaosBinding, ChaosPlan, ChaosShape};
use snipe_netsim::shard::ActorFactory;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::uri::Uri;
use snipe_util::id::{HostId, NetId};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::fec;
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::ports;

use crate::chaos::{replica_crash_content, soak_seeds, REPLICA_CRASH_LIFN, REPLICA_CRASH_STRIPES};
use crate::oracles;
use crate::par_map;
use crate::shard_storm::cluster_topology;

/// Hosts in every soak world (16 regions of 64).
pub const SOAK_HOSTS: usize = 1000;
/// Worker threads for the primary run of each plan.
pub const SOAK_THREADS: usize = 4;
/// Thread count for the differential re-run (digests must match).
pub const DIFF_THREADS: usize = 1;
/// Recovery tail after the plan quiesces.
const RECOVERY_TAIL: SimDuration = SimDuration::from_secs(30);
/// Per-shard bounds for [`oracles::check_shard_bounded`].
const MAX_RESIDUAL_EVENTS: usize = 512;
const MAX_PEAK_DEPTH: u64 = 100_000;
const MAX_MAILBOX_BURST: u64 = 10_000;

const PORT: u16 = 7000;

// ---------------------------------------------------------------------------
// Checksummed frames
// ---------------------------------------------------------------------------
// Packet chaos flips payload bits; workloads that promise delivery
// treat a corrupt frame as loss (drop + retransmit). An FNV-1a trailer
// makes corruption detectable.

fn fnv(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// `[tag, seq, value, csum]`, all little-endian u32s plus padding to a
/// plausible datagram size.
fn frame(tag: u32, seq: u32, value: u32) -> Bytes {
    let mut b = Vec::with_capacity(64);
    b.extend_from_slice(&tag.to_le_bytes());
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&value.to_le_bytes());
    let c = fnv(&b);
    b.extend_from_slice(&c.to_le_bytes());
    b.resize(64, 0x5A);
    Bytes::from(b)
}

/// Parse + verify; `None` = corrupt (caller treats as loss).
fn parse(payload: &[u8]) -> Option<(u32, u32, u32)> {
    if payload.len() < 16 {
        return None;
    }
    let word = |i: usize| u32::from_le_bytes(payload[i * 4..i * 4 + 4].try_into().unwrap());
    if fnv(&payload[..12]) != word(3) {
        return None;
    }
    if payload[16..].iter().any(|&b| b != 0x5A) {
        return None;
    }
    Some((word(0), word(1), word(2)))
}

const TAG_DATA: u32 = 1;
const TAG_ACK: u32 = 2;
const TAG_SWITCH: u32 = 3;

// ---------------------------------------------------------------------------
// W1: acked transfer with retransmission (cross-region)
// ---------------------------------------------------------------------------

/// Sender: windowed chunks, blanket retransmit of the unacked set on a
/// periodic timer. Tolerates loss, duplication, reordering, corruption
/// and flaps of either endpoint.
struct XferSender {
    peer: Endpoint,
    total: u32,
    acked: Vec<bool>,
    done: bool,
}

impl XferSender {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let mut sent = 0;
        for seq in 0..self.total {
            if !self.acked[seq as usize] {
                ctx.send(self.peer, frame(TAG_DATA, seq, seq ^ 0xABCD));
                sent += 1;
                if sent >= 32 {
                    break;
                }
            }
        }
        if sent > 0 {
            ctx.set_timer(SimDuration::from_millis(100), 1);
        } else {
            self.done = true;
        }
    }
}

impl Actor for XferSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } | Event::HostUp => self.pump(ctx),
            Event::Packet { payload, .. } => {
                if let Some((TAG_ACK, seq, _)) = parse(&payload) {
                    if (seq as usize) < self.acked.len() {
                        self.acked[seq as usize] = true;
                    }
                    if self.acked.iter().all(|&a| a) && !self.done {
                        self.done = true;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Receiver: dedups by sequence number, acks everything (acks are
/// idempotent, so ack loss only costs a retransmit).
struct XferReceiver {
    seen: Vec<bool>,
    distinct: u32,
}

impl Actor for XferReceiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { from, payload } = event {
            if let Some((TAG_DATA, seq, _)) = parse(&payload) {
                if (seq as usize) < self.seen.len() {
                    if !self.seen[seq as usize] {
                        self.seen[seq as usize] = true;
                        self.distinct += 1;
                    }
                    ctx.send(from, frame(TAG_ACK, seq, 0));
                }
            }
        }
    }
}

fn run_transfer(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    const TOTAL: u32 = 256;
    let mut w = soak_world(wseed, threads);
    let a = HostId(3); // cluster 0
    let b = HostId(200); // cluster 3 — routed cross-region path
    let tx = w
        .spawn(
            a,
            PORT,
            Box::new(XferSender {
                peer: Endpoint::new(b, PORT),
                total: TOTAL,
                acked: vec![false; TOTAL as usize],
                done: false,
            }),
        )
        .unwrap();
    let rx = w
        .spawn(b, PORT, Box::new(XferReceiver { seen: vec![false; TOTAL as usize], distinct: 0 }))
        .unwrap();
    apply(&mut w, plan, &[a, b], Vec::new());
    let mut v = run_to_deadline(&mut w, plan, |w| {
        w.actor_ref::<XferSender>(tx).map(|s| s.done).unwrap_or(false)
    });
    let got = w.actor_ref::<XferReceiver>(rx).map(|r| r.distinct).unwrap_or(0);
    if got != TOTAL {
        v.push(format!("shard-transfer: receiver holds {got} of {TOTAL} distinct chunks"));
    }
    if !w.actor_ref::<XferSender>(tx).map(|s| s.done).unwrap_or(false) {
        v.push("shard-transfer: sender never saw every ack".into());
    }
    v.extend(bounded("shard-transfer", &w));
    (v, w.digest())
}

// ---------------------------------------------------------------------------
// W2: go-back-N sequenced stream (in-order, exactly-once delivery)
// ---------------------------------------------------------------------------

struct StreamSender {
    peer: Endpoint,
    total: u32,
    base: u32,
    window: u32,
}

impl StreamSender {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        if self.base >= self.total {
            return;
        }
        for seq in self.base..(self.base + self.window).min(self.total) {
            ctx.send(self.peer, frame(TAG_DATA, seq, seq.wrapping_mul(31)));
        }
        ctx.set_timer(SimDuration::from_millis(120), 1);
    }
}

impl Actor for StreamSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } | Event::HostUp => self.pump(ctx),
            Event::Packet { payload, .. } => {
                // Cumulative ack: `seq` = receiver's next expected.
                if let Some((TAG_ACK, seq, _)) = parse(&payload) {
                    if seq > self.base && seq <= self.total {
                        self.base = seq;
                    }
                }
            }
            _ => {}
        }
    }
}

/// In-order receiver: accepts only `next`, acks cumulatively. The
/// delivery log is the in-order prefix by construction; the oracle
/// checks it reaches `total` and that `log[i] == i`.
struct StreamReceiver {
    next: u32,
    log: Vec<u32>,
}

impl Actor for StreamReceiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { from, payload } = event {
            if let Some((TAG_DATA, seq, _)) = parse(&payload) {
                if seq == self.next {
                    self.log.push(seq);
                    self.next += 1;
                }
                ctx.send(from, frame(TAG_ACK, self.next, 0));
            }
        }
    }
}

fn run_stream(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    const TOTAL: u32 = 200;
    let mut w = soak_world(wseed, threads);
    let a = HostId(70); // cluster 1
    let b = HostId(400); // cluster 6
    let tx = w
        .spawn(
            a,
            PORT,
            Box::new(StreamSender {
                peer: Endpoint::new(b, PORT),
                total: TOTAL,
                base: 0,
                window: 16,
            }),
        )
        .unwrap();
    let rx = w.spawn(b, PORT, Box::new(StreamReceiver { next: 0, log: Vec::new() })).unwrap();
    apply(&mut w, plan, &[a, b], Vec::new());
    let mut v = run_to_deadline(&mut w, plan, |w| {
        w.actor_ref::<StreamSender>(tx).map(|s| s.base >= TOTAL).unwrap_or(false)
    });
    let log = w.actor_ref::<StreamReceiver>(rx).map(|r| r.log.clone()).unwrap_or_default();
    v.extend(oracles::check_exactly_once_in_order("shard-stream", TOTAL, &log));
    v.extend(bounded("shard-stream", &w));
    (v, w.digest())
}

// ---------------------------------------------------------------------------
// W3: intra-region service migration under a message stream
// ---------------------------------------------------------------------------

/// Stop-and-wait driver: sends message `seq` until acked, then moves
/// on; a `TAG_SWITCH` control frame retargets it mid-stream.
struct MigDriver {
    target: Endpoint,
    total: u32,
    acked: u32,
}

impl MigDriver {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        if self.acked >= self.total {
            return;
        }
        ctx.send(self.target, frame(TAG_DATA, self.acked, 7));
        ctx.set_timer(SimDuration::from_millis(80), 1);
    }
}

impl Actor for MigDriver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } | Event::HostUp => self.pump(ctx),
            Event::Packet { payload, .. } => match parse(&payload) {
                Some((TAG_ACK, seq, _)) => {
                    if seq == self.acked {
                        self.acked += 1;
                        self.pump(ctx);
                    }
                }
                Some((TAG_SWITCH, _, host)) => {
                    self.target = Endpoint::new(HostId(host), PORT + 1);
                    self.pump(ctx);
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// The service: dedups by sequence, acks, and at a fixed virtual time
/// hands its state to a successor spawned on a sibling host in the
/// same region, then unbinds.
struct MigService {
    seen: Vec<bool>,
    distinct: u32,
    driver: Endpoint,
    move_to: Option<HostId>,
}

impl Actor for MigService {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::HostUp => {
                if self.move_to.is_some() {
                    ctx.set_timer(SimDuration::from_millis(900), 2);
                }
            }
            Event::Timer { token: 2 } => {
                if let Some(dest) = self.move_to.take() {
                    let successor = MigService {
                        seen: self.seen.clone(),
                        distinct: self.distinct,
                        driver: self.driver,
                        move_to: None,
                    };
                    if ctx.spawn_portable(dest, PORT + 1, Box::new(successor)).is_some() {
                        ctx.send(self.driver, frame(TAG_SWITCH, 0, dest.0));
                        let me = ctx.me();
                        ctx.kill(me);
                    } else {
                        // Port race (can't happen here) — retry later.
                        self.move_to = Some(dest);
                        ctx.set_timer(SimDuration::from_millis(100), 2);
                    }
                }
            }
            Event::Packet { from, payload } => {
                if let Some((TAG_DATA, seq, _)) = parse(&payload) {
                    if (seq as usize) < self.seen.len() {
                        if !self.seen[seq as usize] {
                            self.seen[seq as usize] = true;
                            self.distinct += 1;
                        }
                        ctx.send(from, frame(TAG_ACK, seq, 0));
                    }
                }
            }
            _ => {}
        }
    }
}

fn run_migration(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    const TOTAL: u32 = 100;
    let mut w = soak_world(wseed, threads);
    let driver_h = HostId(130); // cluster 2
    let svc_h = HostId(520); // cluster 8
    let dest_h = HostId(530); // same cluster: intra-region handoff
    let drv = w
        .spawn(
            driver_h,
            PORT,
            Box::new(MigDriver { target: Endpoint::new(svc_h, PORT + 1), total: TOTAL, acked: 0 }),
        )
        .unwrap();
    w.spawn(
        svc_h,
        PORT + 1,
        Box::new(MigService {
            seen: vec![false; TOTAL as usize],
            distinct: 0,
            driver: Endpoint::new(driver_h, PORT),
            move_to: Some(dest_h),
        }),
    )
    .unwrap();
    apply(&mut w, plan, &[driver_h, dest_h], Vec::new());
    let mut v = run_to_deadline(&mut w, plan, |w| {
        w.actor_ref::<MigDriver>(drv).map(|d| d.acked >= TOTAL).unwrap_or(false)
    });
    let successor = Endpoint::new(dest_h, PORT + 1);
    match w.actor_ref::<MigService>(successor) {
        None => v.push("shard-migration: successor never came up on the destination host".into()),
        Some(s) => {
            if s.distinct != TOTAL {
                v.push(format!(
                    "shard-migration: successor holds {} of {TOTAL} messages after handoff",
                    s.distinct
                ));
            }
        }
    }
    if w.is_bound(Endpoint::new(svc_h, PORT + 1)) {
        v.push("shard-migration: origin service still bound after handoff".into());
    }
    v.extend(bounded("shard-migration", &w));
    (v, w.digest())
}

// ---------------------------------------------------------------------------
// W4: gossip convergence across regions
// ---------------------------------------------------------------------------

/// Max-merge gossip: each member pushes its current maximum to a
/// rotating peer on a jittered period. Convergence needs only eventual
/// connectivity, so every fault class is in contract.
struct Gossip {
    peers: Vec<Endpoint>,
    value: u32,
    cursor: usize,
}

impl Actor for Gossip {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } | Event::HostUp => {
                let peer = self.peers[self.cursor % self.peers.len()];
                self.cursor += 1;
                ctx.send(peer, frame(TAG_DATA, 0, self.value));
                let jitter = ctx.rng().gen_range(20) as u64;
                ctx.set_timer(SimDuration::from_millis(40 + jitter), 1);
            }
            Event::Packet { payload, .. } => {
                if let Some((TAG_DATA, _, value)) = parse(&payload) {
                    if value > self.value {
                        self.value = value;
                    }
                }
            }
            _ => {}
        }
    }
}

fn run_gossip(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    const MEMBERS: usize = 24;
    let mut w = soak_world(wseed, threads);
    // Spread the mesh over six clusters, four members each.
    let hosts: Vec<HostId> = (0..MEMBERS).map(|i| HostId((i / 4 * 64 + i % 4) as u32)).collect();
    let eps: Vec<Endpoint> = hosts.iter().map(|&h| Endpoint::new(h, PORT)).collect();
    let max_value = 1_000 + MEMBERS as u32 - 1;
    for (i, &h) in hosts.iter().enumerate() {
        let peers: Vec<Endpoint> = eps.iter().copied().filter(|e| e.host != h).collect();
        w.spawn(h, PORT, Box::new(Gossip { peers, value: 1_000 + i as u32, cursor: i }));
    }
    apply(&mut w, plan, &hosts, Vec::new());
    let eps2 = eps.clone();
    let mut v = run_to_deadline(&mut w, plan, move |w| {
        eps2.iter()
            .all(|&e| w.actor_ref::<Gossip>(e).map(|g| g.value == max_value).unwrap_or(false))
    });
    for &e in &eps {
        let got = w.actor_ref::<Gossip>(e).map(|g| g.value).unwrap_or(0);
        if got != max_value {
            v.push(format!("shard-gossip: {e} stuck at {got}, never saw the maximum {max_value}"));
        }
    }
    v.extend(bounded("shard-gossip", &w));
    (v, w.digest())
}

// ---------------------------------------------------------------------------
// W5: relayed multicast fan-out
// ---------------------------------------------------------------------------

/// Source: paces `total` messages, each pushed to every relay; repeats
/// the full schedule three times so duplication-only chaos and source
/// flaps cannot starve a leaf.
struct McastSource {
    relays: Vec<Endpoint>,
    total: u32,
    sent: u32,
    rounds: u32,
}

impl Actor for McastSource {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } | Event::HostUp => {
                if self.sent == self.total {
                    if self.rounds == 0 {
                        return;
                    }
                    self.rounds -= 1;
                    self.sent = 0;
                }
                let seq = self.sent;
                for &r in &self.relays {
                    ctx.send(r, frame(TAG_DATA, seq, 0));
                }
                self.sent += 1;
                ctx.set_timer(SimDuration::from_millis(15), 1);
            }
            _ => {}
        }
    }
}

/// Relay: forwards every valid frame to all leaves (stateless).
struct McastRelay {
    leaves: Vec<Endpoint>,
}

impl Actor for McastRelay {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            if parse(&payload).is_some() {
                for &l in &self.leaves {
                    ctx.send(l, payload.clone());
                }
            }
        }
    }
}

/// Leaf: records which sequence numbers arrived (at least once).
struct McastLeaf {
    seen: Vec<bool>,
}

impl Actor for McastLeaf {
    fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            if let Some((TAG_DATA, seq, _)) = parse(&payload) {
                if (seq as usize) < self.seen.len() {
                    self.seen[seq as usize] = true;
                }
            }
        }
    }
}

fn run_mcast(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    const TOTAL: u32 = 50;
    let mut w = soak_world(wseed, threads);
    let src = HostId(0);
    let relays: Vec<HostId> = vec![HostId(64), HostId(128), HostId(192)];
    let leaves: Vec<HostId> = (0..8).map(|i| HostId(256 + i * 64)).collect();
    let leaf_eps: Vec<Endpoint> = leaves.iter().map(|&h| Endpoint::new(h, PORT)).collect();
    for &r in &relays {
        w.spawn(r, PORT, Box::new(McastRelay { leaves: leaf_eps.clone() }));
    }
    for &l in &leaves {
        w.spawn(l, PORT, Box::new(McastLeaf { seen: vec![false; TOTAL as usize] }));
    }
    w.spawn(
        src,
        PORT,
        Box::new(McastSource {
            relays: relays.iter().map(|&h| Endpoint::new(h, PORT)).collect(),
            total: TOTAL,
            sent: 0,
            rounds: 2,
        }),
    );
    // Only the source host may flap (matching the single-world mcast
    // contract: relays are unreliable but must stay up).
    apply(&mut w, plan, &[src], Vec::new());
    let eps2 = leaf_eps.clone();
    let mut v = run_to_deadline(&mut w, plan, move |w| {
        eps2.iter().all(|&e| {
            w.actor_ref::<McastLeaf>(e).map(|l| l.seen.iter().all(|&s| s)).unwrap_or(false)
        })
    });
    for &e in &leaf_eps {
        let missing = w
            .actor_ref::<McastLeaf>(e)
            .map(|l| l.seen.iter().filter(|&&s| !s).count())
            .unwrap_or(TOTAL as usize);
        if missing > 0 {
            v.push(format!("shard-mcast: leaf {e} missing {missing} of {TOTAL} messages"));
        }
    }
    v.extend(bounded("shard-mcast", &w));
    (v, w.digest())
}

// ---------------------------------------------------------------------------
// W6: erasure-coded share spray (the wire FEC codec across regions)
// ---------------------------------------------------------------------------
// The same Reed-Solomon codec SRUDP's `FragStrategy::Fec` uses, driven
// as a raw Send workload: each message is encoded into `2b-1` shares
// sent as independent datagrams, the receiver reconstructs from
// whichever `b` arrive and applies the reconstruct-then-verify gate
// before delivery. Covers the codec's determinism across shard thread
// counts and its integrity contract under loss bursts and corruption.

const TAG_FEC_SHARE: u32 = 4;

/// Deterministic message body for sequence `seq`.
fn fec_msg(seq: u32, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((seq as usize * 131 + j * 31) % 251) as u8).collect()
}

/// Share datagram: seven LE u32 header words, the share bytes, and an
/// FNV trailer over everything (corruption ⇒ treated as loss).
fn fec_frame(seq: u32, share_idx: u32, b: u32, msg_len: u32, csum: u32, share: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(32 + share.len());
    for w in [TAG_FEC_SHARE, seq, share_idx, b, msg_len, csum, share.len() as u32] {
        v.extend_from_slice(&w.to_le_bytes());
    }
    v.extend_from_slice(share);
    let c = fnv(&v);
    v.extend_from_slice(&c.to_le_bytes());
    Bytes::from(v)
}

struct FecFrame {
    seq: u32,
    share_idx: u32,
    b: u32,
    msg_len: u32,
    csum: u32,
    share: Bytes,
}

fn parse_fec(payload: &Bytes) -> Option<FecFrame> {
    if payload.len() < 32 {
        return None;
    }
    let word = |i: usize| u32::from_le_bytes(payload[i * 4..i * 4 + 4].try_into().unwrap());
    if word(0) != TAG_FEC_SHARE {
        return None;
    }
    let share_len = word(6) as usize;
    if payload.len() != 28 + share_len + 4 {
        return None;
    }
    let trailer = u32::from_le_bytes(payload[28 + share_len..].try_into().unwrap());
    if fnv(&payload[..28 + share_len]) != trailer {
        return None;
    }
    Some(FecFrame {
        seq: word(1),
        share_idx: word(2),
        b: word(3),
        msg_len: word(4),
        csum: word(5),
        share: payload.slice(28..28 + share_len),
    })
}

/// Sender: blanket-resprays every share of each unacked message in a
/// bounded window on a periodic timer. Any `b` of the `2b-1` shares
/// landing is enough, so a retransmit round survives heavy loss.
struct FecShardSender {
    peer: Endpoint,
    total: u32,
    b: usize,
    msg_len: usize,
    acked: Vec<bool>,
    window: u32,
    done: bool,
}

impl FecShardSender {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let mut live = 0;
        for seq in 0..self.total {
            if self.acked[seq as usize] {
                continue;
            }
            let msg = fec_msg(seq, self.msg_len);
            let csum = fec::msg_checksum(&msg);
            let shares = fec::encode(&msg, self.b).expect("b within codec bounds");
            for (i, s) in shares.iter().enumerate() {
                ctx.send(
                    self.peer,
                    fec_frame(seq, i as u32, self.b as u32, self.msg_len as u32, csum, s),
                );
            }
            live += 1;
            if live >= self.window {
                break;
            }
        }
        if live > 0 {
            ctx.set_timer(SimDuration::from_millis(100), 1);
        } else {
            self.done = true;
        }
    }
}

impl Actor for FecShardSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } | Event::HostUp => self.pump(ctx),
            Event::Packet { payload, .. } => {
                if let Some((TAG_ACK, seq, _)) = parse(&payload) {
                    if (seq as usize) < self.acked.len() {
                        self.acked[seq as usize] = true;
                    }
                    if self.acked.iter().all(|&a| a) {
                        self.done = true;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Bound on buffered partial reconstructions (stalest evicted first) —
/// the sharded mirror of the SRUDP reassembly cap.
const FEC_PARTIAL_CAP: usize = 64;

/// Receiver: buffers shares per message, decodes at quorum, and only
/// delivers (acks) a reconstruction whose message checksum matches.
/// A checksum-passing reconstruction that differs from the known
/// plaintext is recorded — that is the integrity oracle's kill shot.
struct FecShardReceiver {
    expect_b: usize,
    expect_len: usize,
    total: u32,
    seen: Vec<bool>,
    distinct: u32,
    reconstructed: u64,
    mismatches: Vec<String>,
    partial: BTreeMap<u32, BTreeMap<u32, Bytes>>,
}

impl Actor for FecShardReceiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { from, payload } = event {
            let Some(f) = parse_fec(&payload) else { return };
            if f.b as usize != self.expect_b
                || f.msg_len as usize != self.expect_len
                || f.seq >= self.total
                || f.share_idx as usize >= 2 * self.expect_b - 1
            {
                return;
            }
            if self.seen[f.seq as usize] {
                // Already delivered — the ack was lost; re-ack.
                ctx.send(from, frame(TAG_ACK, f.seq, 0));
                return;
            }
            let entry = self.partial.entry(f.seq).or_default();
            entry.insert(f.share_idx, f.share);
            if entry.len() >= self.expect_b {
                let survivors: Vec<(u32, Bytes)> =
                    entry.iter().take(self.expect_b).map(|(&i, s)| (i, s.clone())).collect();
                match fec::decode(self.expect_b, self.expect_len, &survivors) {
                    Ok(msg) if fec::msg_checksum(&msg) == f.csum => {
                        if msg != fec_msg(f.seq, self.expect_len) {
                            self.mismatches.push(format!(
                                "msg {} passed the checksum but the content differs",
                                f.seq
                            ));
                        }
                        self.partial.remove(&f.seq);
                        self.seen[f.seq as usize] = true;
                        self.distinct += 1;
                        self.reconstructed += 1;
                        ctx.send(from, frame(TAG_ACK, f.seq, 0));
                    }
                    // Failed reconstruction: discard the partial and
                    // let the next respray rebuild it from scratch.
                    _ => {
                        self.partial.remove(&f.seq);
                    }
                }
            }
            while self.partial.len() > FEC_PARTIAL_CAP {
                let stalest = *self.partial.keys().next().unwrap();
                self.partial.remove(&stalest);
            }
        }
    }
}

fn run_fec(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    const TOTAL: u32 = 48;
    const B: usize = 4; // 7 shares of 750 bytes per 3000-byte message
    const MSG_LEN: usize = 3000;
    let mut w = soak_world(wseed, threads);
    let src = HostId(10); // cluster 0
    let dst = HostId(300); // cluster 4 — shares cross the mailbox
    let tx = w
        .spawn(
            src,
            PORT,
            Box::new(FecShardSender {
                peer: Endpoint::new(dst, PORT),
                total: TOTAL,
                b: B,
                msg_len: MSG_LEN,
                acked: vec![false; TOTAL as usize],
                window: 8,
                done: false,
            }),
        )
        .unwrap();
    let rx = w
        .spawn(
            dst,
            PORT,
            Box::new(FecShardReceiver {
                expect_b: B,
                expect_len: MSG_LEN,
                total: TOTAL,
                seen: vec![false; TOTAL as usize],
                distinct: 0,
                reconstructed: 0,
                mismatches: Vec::new(),
                partial: BTreeMap::new(),
            }),
        )
        .unwrap();
    apply(&mut w, plan, &[src, dst], Vec::new());
    let mut v = run_to_deadline(&mut w, plan, |w| {
        w.actor_ref::<FecShardSender>(tx).map(|s| s.done).unwrap_or(false)
    });
    match w.actor_ref::<FecShardReceiver>(rx) {
        None => v.push("shard-fec: receiver vanished".into()),
        Some(r) => {
            if r.distinct != TOTAL {
                v.push(format!(
                    "shard-fec: receiver reconstructed {} of {TOTAL} messages",
                    r.distinct
                ));
            }
            for m in &r.mismatches {
                v.push(format!("shard-fec: corrupted reconstruction delivered — {m}"));
            }
            if r.reconstructed == 0 {
                v.push("shard-fec: no reconstructions — the erasure path never engaged".into());
            }
            if r.partial.len() > FEC_PARTIAL_CAP {
                v.push(format!(
                    "shard-fec: {} partials buffered past the cap {FEC_PARTIAL_CAP}",
                    r.partial.len()
                ));
            }
        }
    }
    v.extend(bounded("shard-fec", &w));
    (v, w.digest())
}

// ---------------------------------------------------------------------------
// W7: the full SNIPE protocol stack (daemons + RCDS + files), sharded
// ---------------------------------------------------------------------------
// A 6-cluster campus (one region per cluster) runs the complete
// runtime: a daemon on all 48 hosts, RC replicas on three cluster
// heads, replicated file servers on two, a resource manager on one.
// The workload crosses every subsystem *and* every region: a publisher
// writes a file and registers a service, a daemon-spawned child calls
// home across clusters, and three subscribers in other regions resolve
// the service and fetch the file. All progress is judged from process
// logs read back through `process_ref` — no shared-memory side
// channels — so the same milestones double as the partition-agnostic
// application digest for the one-region-vs-natural-partition
// differential tests.

/// Clusters / hosts-per-cluster of the full-protocol campus.
const FP_CLUSTERS: usize = 6;
const FP_PER_CLUSTER: usize = 8;
/// Hosts in the full-protocol world.
pub const FP_HOSTS: usize = FP_CLUSTERS * FP_PER_CLUSTER;

/// The published file and its content (fixed so every partition and
/// thread count must log the same checksum).
const FP_LIFN: &str = "lifn:soak/blob";

fn fp_payload() -> Bytes {
    let mut b = Vec::with_capacity(1024);
    for i in 0..1024u32 {
        b.push((i.wrapping_mul(2654435761) >> 24) as u8);
    }
    Bytes::from(b)
}

struct SoakPublisher {
    published: bool,
    spawned: bool,
    child_ok: bool,
    /// Registration is fire-and-forget soft state; re-announce on a
    /// bounded schedule so a registration lost to chaos heals.
    reg_left: u32,
}

impl SnipeProcess for SoakPublisher {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.register_service("soak.pub");
        api.write_file(FP_LIFN, fp_payload());
        api.set_timer(SimDuration::from_secs(2), 3);
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        match result {
            TicketResult::FileWritten(Ok(())) => {
                if !self.published {
                    self.published = true;
                    api.log(format!("published {:08x}", fnv(&fp_payload())));
                }
                if !self.spawned {
                    let key = api.my_key();
                    api.spawn(
                        SpawnTarget::Host("c4h2".into()),
                        "soak-echo",
                        Bytes::copy_from_slice(&key.to_be_bytes()),
                    );
                }
            }
            TicketResult::FileWritten(Err(_)) => api.set_timer(SimDuration::from_millis(500), 1),
            TicketResult::Spawned(Ok(_)) => {
                if !self.spawned {
                    self.spawned = true;
                    api.log("spawn ok");
                }
            }
            TicketResult::Spawned(Err(_)) => api.set_timer(SimDuration::from_millis(700), 2),
            _ => {}
        }
    }

    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, token: u64) {
        match token {
            1 if !self.published => {
                api.write_file(FP_LIFN, fp_payload());
            }
            2 if !self.spawned => {
                let key = api.my_key();
                api.spawn(
                    SpawnTarget::Host("c4h2".into()),
                    "soak-echo",
                    Bytes::copy_from_slice(&key.to_be_bytes()),
                );
            }
            3 if self.reg_left > 0 => {
                self.reg_left -= 1;
                api.register_service("soak.pub");
                api.set_timer(SimDuration::from_secs(2), 3);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, _from: snipe_core::ProcRef, msg: Bytes) {
        if msg.as_ref() == b"hello" && !self.child_ok {
            self.child_ok = true;
            api.log("child hello");
        }
    }
}

/// Daemon-spawned child: calls home across clusters until the send
/// has had time to land (the publisher dedups).
struct SoakEcho {
    parent: u64,
    tries: u32,
}

impl SoakEcho {
    fn from_args(args: &Bytes) -> SoakEcho {
        let parent =
            if args.len() >= 8 { u64::from_be_bytes(args[..8].try_into().unwrap()) } else { 0 };
        SoakEcho { parent, tries: 5 }
    }
}

impl SnipeProcess for SoakEcho {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.send(self.parent, Bytes::from_static(b"hello"));
        api.set_timer(SimDuration::from_secs(1), 1);
    }

    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        if self.tries > 0 {
            self.tries -= 1;
            api.send(self.parent, Bytes::from_static(b"hello"));
            api.set_timer(SimDuration::from_secs(1), 1);
        }
    }
}

struct SoakSubscriber {
    fetched: bool,
    svc_ok: bool,
    /// Remaining periodic retry kicks. Requests can vanish without an
    /// error ticket (e.g. during a partition), so progress is driven
    /// by a bounded periodic timer, not by failure responses.
    kicks_left: u32,
}

impl SnipeProcess for SoakSubscriber {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_secs(1), 1);
    }

    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        if !self.fetched {
            api.read_file(FP_LIFN);
        }
        if !self.svc_ok {
            api.lookup_service("soak.pub");
        }
        if !(self.fetched && self.svc_ok) && self.kicks_left > 0 {
            self.kicks_left -= 1;
            api.set_timer(SimDuration::from_secs(1), 1);
        }
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        match result {
            TicketResult::FileRead(Ok(content)) => {
                if !self.fetched {
                    self.fetched = true;
                    api.log(format!("fetched {:08x}", fnv(&content)));
                }
            }
            TicketResult::Service(Ok(refs)) if !refs.is_empty() => {
                if !self.svc_ok {
                    self.svc_ok = true;
                    api.log("svc ok");
                }
            }
            _ => {}
        }
    }
}

/// Root endpoints of the full-protocol cast.
struct FpCast {
    publisher: Endpoint,
    subscribers: Vec<Endpoint>,
}

/// Register programs and bootstrap the cast.
fn install_full_protocol(w: &mut SnipeWorld) -> FpCast {
    w.register_process("soak-pub", |_| {
        Box::new(SoakPublisher { published: false, spawned: false, child_ok: false, reg_left: 20 })
    });
    w.register_process("soak-echo", |args| Box::new(SoakEcho::from_args(&args)));
    w.register_process("soak-sub", |_| {
        Box::new(SoakSubscriber { fetched: false, svc_ok: false, kicks_left: 45 })
    });
    let publisher = w.spawn_on("c0h1", "soak-pub", Bytes::new()).expect("spawn pub").1;
    let subscribers: Vec<Endpoint> = ["c3h1", "c4h1", "c5h1"]
        .iter()
        .map(|h| w.spawn_on(h, "soak-sub", Bytes::new()).expect("spawn sub").1)
        .collect();
    FpCast { publisher, subscribers }
}

/// The milestone lines every complete run must log, publisher first.
fn fp_expected() -> (Vec<&'static str>, String) {
    let fetched = format!("fetched {:08x}", fnv(&fp_payload()));
    (vec!["published", "spawn ok", "child hello"], fetched)
}

/// Milestone check: log lines present on the publisher and every
/// subscriber. `lines` come time-stripped from [`fp_lines`].
fn fp_violations(lines: &[String]) -> Vec<String> {
    let (pub_marks, fetched) = fp_expected();
    let mut v = Vec::new();
    for m in pub_marks {
        if !lines.iter().any(|l| l.starts_with("pub:") && l.contains(m)) {
            v.push(format!("shard-full-protocol: publisher never logged {m:?}"));
        }
    }
    for i in 0..3 {
        let tag = format!("sub{i}:");
        if !lines.iter().any(|l| l.starts_with(&tag) && l.contains(&fetched)) {
            v.push(format!("shard-full-protocol: subscriber {i} never fetched the published file"));
        }
        if !lines.iter().any(|l| l.starts_with(&tag) && l.contains("svc ok")) {
            v.push(format!("shard-full-protocol: subscriber {i} never resolved the service"));
        }
    }
    v
}

/// Time-stripped, labelled, sorted log lines of the cast — the
/// partition-agnostic application digest.
fn fp_lines(w: &SnipeWorld, cast: &FpCast) -> Vec<String> {
    let log_of = |ep| -> Vec<String> {
        w.process_ref(ep)
            .map(|p| p.log.iter().map(|(_, l)| l.clone()).collect())
            .unwrap_or_default()
    };
    let mut lines: Vec<String> =
        log_of(cast.publisher).into_iter().map(|l| format!("pub: {l}")).collect();
    for (i, &ep) in cast.subscribers.iter().enumerate() {
        lines.extend(log_of(ep).into_iter().map(|l| format!("sub{i}: {l}")));
    }
    lines.sort();
    lines
}

fn fp_world(wseed: u64, threads: usize) -> (SnipeWorld, FpCast) {
    let mut w =
        SnipeWorldBuilder::campus(FP_CLUSTERS, FP_PER_CLUSTER, wseed).build_sharded(threads);
    let cast = install_full_protocol(&mut w);
    (w, cast)
}

fn run_full_protocol(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    let (mut w, cast) = fp_world(wseed, threads);
    // No host flaps: SNIPE processes exit on a host crash by contract,
    // so the cast must stay up; packet and net chaos are in contract.
    apply(w.sim(), plan, &[], Vec::new());
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = SimDuration::from_millis(250);
    let mut v = loop {
        w.run_for(step);
        if fp_violations(&fp_lines(&w, &cast)).is_empty() {
            w.run_for(SimDuration::from_secs(1));
            break Vec::new();
        }
        if w.now() >= deadline {
            break fp_violations(&fp_lines(&w, &cast));
        }
    };
    v.extend(bounded("shard-full-protocol", w.sim_ref()));
    (v, w.sim_ref().digest())
}

/// Chaos-free full-protocol run over the natural partition for a
/// fixed virtual duration: returns the engine digest and the sorted
/// application log lines. The `full-proto-digest` gate byte-compares
/// this across thread counts; the differential tests compare the app
/// lines against [`full_protocol_one_region`].
pub fn full_protocol_sharded(wseed: u64, threads: usize, secs: u64) -> (u64, Vec<String>) {
    let (mut w, cast) = fp_world(wseed, threads);
    w.run_for_secs(secs);
    let lines = fp_lines(&w, &cast);
    (w.digest(), lines)
}

/// The same workload, world layout and duration forced into one
/// region: returns the sorted application log lines. Engine digests
/// are not comparable across partitions (one RNG stream and one queue
/// here, one of each per region there), but the application outcome
/// must match.
pub fn full_protocol_one_region(wseed: u64, secs: u64) -> Vec<String> {
    let mut w = SnipeWorldBuilder::campus(FP_CLUSTERS, FP_PER_CLUSTER, wseed).build();
    let cast = install_full_protocol(&mut w);
    w.run_for_secs(secs);
    fp_lines(&w, &cast)
}

/// Debug hook: run `plan` against the full-protocol world and hand
/// back the world plus `(publisher, subscribers)` endpoints so a
/// failing pin can be dissected from a scratch binary.
#[doc(hidden)]
pub fn fp_debug_world(
    wseed: u64,
    threads: usize,
    plan: &ChaosPlan,
) -> (SnipeWorld, (Endpoint, Vec<Endpoint>)) {
    let (mut w, cast) = fp_world(wseed, threads);
    apply(w.sim(), plan, &[], Vec::new());
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = SimDuration::from_millis(250);
    loop {
        w.run_for(step);
        if fp_violations(&fp_lines(&w, &cast)).is_empty() || w.now() >= deadline {
            break;
        }
    }
    (w, (cast.publisher, cast.subscribers))
}

// ---------------------------------------------------------------------------
// W8: replica crash — sharded metadata plus a striped cross-region file
// read while RCDS servers and file replicas crash/restart mid-flight
// ---------------------------------------------------------------------------
// The partitioned twin of the one-region soak's `replica-crash`
// workload: the same service actors on the 1000-host campus, with the cast spread over three regions so every RC sync,
// stripe request and anti-entropy push crosses shard boundaries.

const RC_TIMER_FIRE: u64 = 20;
const RC_TIMER_GATE: u64 = 21;

/// Twin of the one-region soak's `ChaosWriter`: puts an evolving
/// assertion during the fault window. No `Arc` side-channels — results
/// are read back via `actor_ref`.
struct ShardRcWriter {
    rc: RcClient,
    uri: Uri,
    interval: SimDuration,
    writes_left: u32,
    next_val: u32,
    gate: TimerGate,
}

impl ShardRcWriter {
    fn flush(&mut self, ctx: &mut dyn SimCtx) {
        for (to, bytes) in self.rc.drain_sends() {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
        let _ = self.rc.drain_done();
        if let Some(dl) = self.rc.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), RC_TIMER_GATE);
        }
    }
}

impl Actor for ShardRcWriter {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { token: RC_TIMER_FIRE } => {
                if self.writes_left > 0 {
                    self.writes_left -= 1;
                    let v = format!("v{}", self.next_val);
                    self.next_val += 1;
                    let now = ctx.now();
                    self.rc.put(now, &self.uri, vec![Assertion::new("k", v)]);
                    self.flush(ctx);
                    ctx.set_timer(self.interval, RC_TIMER_FIRE);
                }
            }
            Event::Timer { token: RC_TIMER_GATE } => {
                self.gate.fired();
                self.rc.on_timer(ctx.now());
                self.flush(ctx);
            }
            Event::Packet { from, payload } => {
                if let Ok((Proto::Raw, body)) = open(payload) {
                    self.rc.on_packet(ctx.now(), from, body);
                }
                self.flush(ctx);
            }
            _ => {}
        }
    }
}

/// Twin of `ReplicaProbe`: queries exactly one replica after faults
/// quiesce, retrying on timeout; `answer` is read back via `actor_ref`
/// once the run settles.
struct ShardRcProbe {
    rc: RcClient,
    uri: Uri,
    at: SimTime,
    attempts: u32,
    gate: TimerGate,
    answer: Option<Vec<Assertion>>,
}

impl ShardRcProbe {
    fn flush(&mut self, ctx: &mut dyn SimCtx) {
        for (to, bytes) in self.rc.drain_sends() {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
        for (_, result) in self.rc.drain_done() {
            match result {
                Ok(reply) => {
                    if self.answer.is_none() {
                        self.answer = Some(reply.assertions);
                    }
                }
                Err(_) if self.attempts < 30 => {
                    self.attempts += 1;
                    let now = ctx.now();
                    let uri = self.uri.clone();
                    self.rc.get(now, &uri);
                }
                Err(_) => {}
            }
        }
        if let Some(dl) = self.rc.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), RC_TIMER_GATE);
        }
    }
}

impl Actor for ShardRcProbe {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let delay = self.at.saturating_since(ctx.now());
                ctx.set_timer(delay, RC_TIMER_FIRE);
            }
            Event::Timer { token: RC_TIMER_FIRE } => {
                let now = ctx.now();
                let uri = self.uri.clone();
                self.rc.get(now, &uri);
                self.flush(ctx);
            }
            Event::Timer { token: RC_TIMER_GATE } => {
                self.gate.fired();
                self.rc.on_timer(ctx.now());
                self.flush(ctx);
            }
            Event::Packet { from, payload } => {
                if let Ok((Proto::Raw, body)) = open(payload) {
                    self.rc.on_packet(ctx.now(), from, body);
                }
                self.flush(ctx);
            }
            _ => {}
        }
    }
}

fn run_shard_replica_crash(plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
    let label = "shard-replica-crash";
    let mut w = soak_world(wseed, threads);
    let replicas = 3usize;
    let sync = SimDuration::from_millis(500);
    // Cast spread across regions 0..2 (64 hosts per cluster LAN), the
    // client alongside the first replicas in region 0.
    let rc_hosts = [HostId(10), HostId(74), HostId(138)];
    let fs_hosts = [HostId(20), HostId(84), HostId(148)];
    let client = HostId(30);

    let rc_eps: Vec<Endpoint> =
        rc_hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
    for (i, ep) in rc_eps.iter().enumerate() {
        let peers: Vec<Endpoint> = rc_eps.iter().copied().filter(|e| e != ep).collect();
        let _ = w.spawn(ep.host, ep.port, Box::new(RcServerActor::new(i as u64 + 1, peers, sync)));
    }

    let fs_eps: Vec<Endpoint> =
        fs_hosts.iter().map(|&h| Endpoint::new(h, ports::FILE_SERVER)).collect();
    let content = replica_crash_content(wseed);
    let make_fs = {
        let fs_eps = fs_eps.clone();
        let rc_eps = rc_eps.clone();
        let content = content.clone();
        move |i: usize| {
            let ep = fs_eps[i];
            let peers: Vec<Endpoint> = fs_eps.iter().copied().filter(|e| *e != ep).collect();
            let mut cfg = FileServerConfig::new(format!("fs{i}"), rc_eps.clone(), peers);
            cfg.replication_factor = replicas;
            let mut fs = FileServerActor::new(cfg);
            // Disk-backed seed: survives the process restarts below.
            fs.preload(REPLICA_CRASH_LIFN, content.clone());
            fs
        }
    };
    for (i, ep) in fs_eps.iter().enumerate() {
        let _ = w.spawn(ep.host, ep.port, Box::new(make_fs(i)));
    }

    // Metadata writes land throughout the fault window.
    let uri = Uri::process(7);
    let _ = w.spawn(
        client,
        50,
        Box::new(ShardRcWriter {
            rc: RcClient::new(rc_eps.clone(), SimDuration::from_millis(300)),
            uri: uri.clone(),
            interval: SimDuration::from_millis(300),
            writes_left: 12,
            next_val: 0,
            gate: TimerGate::new(),
        }),
    );

    // The striped read starts two seconds in, mid-fault-window, and
    // must survive replica crashes mid-transfer.
    let fetch_ep = Endpoint::new(client, 51);
    let _ = w.spawn(
        client,
        fetch_ep.port,
        Box::new(FetchActor::new(
            REPLICA_CRASH_LIFN,
            fs_eps.clone(),
            2048,
            SimDuration::from_secs(2),
        )),
    );

    // Plan `ProcRestart` ops crash these: RC replicas come back as
    // *fresh, empty* stores (anti-entropy must repopulate them); file
    // replicas come back as fresh processes over surviving disk
    // contents. No host flaps; net partitions and per-packet chaos are
    // in contract.
    let mut procs = crate::chaos::fresh_rc_factories(&rc_eps, sync);
    for (i, &ep) in fs_eps.iter().enumerate() {
        let make_fs = make_fs.clone();
        procs.push((ep, Arc::new(move || Box::new(make_fs(i)) as Box<dyn Actor>)));
    }
    apply(&mut w, plan, &[], procs);

    // Probe every RC replica individually several sync rounds after the
    // last fault healed.
    let probe_at = plan.quiesce_at() + SimDuration::from_secs(4);
    for (i, &ep) in rc_eps.iter().enumerate() {
        let _ = w.spawn(
            client,
            60 + i as u16,
            Box::new(ShardRcProbe {
                rc: RcClient::new(vec![ep], SimDuration::from_millis(300)),
                uri: uri.clone(),
                at: probe_at,
                attempts: 0,
                gate: TimerGate::new(),
                answer: None,
            }),
        );
    }

    let mut violations = run_to_deadline(&mut w, plan, |w| {
        let probes_done = (0..replicas).all(|i| {
            w.actor_ref::<ShardRcProbe>(Endpoint::new(client, 60 + i as u16))
                .map(|p| p.answer.is_some())
                .unwrap_or(false)
        });
        let fetch_done = w
            .actor_ref::<FetchActor>(fetch_ep)
            .map(|f| f.result.is_some() || f.failed)
            .unwrap_or(false);
        probes_done && fetch_done
    });

    let replies: Vec<Option<Vec<Assertion>>> = (0..replicas)
        .map(|i| {
            w.actor_ref::<ShardRcProbe>(Endpoint::new(client, 60 + i as u16))
                .and_then(|p| p.answer.clone())
        })
        .collect();
    violations.extend(oracles::check_replicas_converged(label, &replies));
    match w.actor_ref::<FetchActor>(fetch_ep) {
        Some(f) => {
            if f.result.as_ref() != Some(&content) {
                violations.push(format!(
                    "{label}: striped fetch wrong/incomplete (got {:?} bytes, failed={}, \
                     stats={:?})",
                    f.result.as_ref().map(Bytes::len),
                    f.failed,
                    f.stats
                ));
            }
            let mut sorted = f.completions.clone();
            sorted.sort_unstable();
            violations.extend(oracles::check_exactly_once_in_order(
                &format!("{label}: stripe completion"),
                REPLICA_CRASH_STRIPES,
                &sorted,
            ));
        }
        None => violations.push(format!("{label}: fetch actor disappeared")),
    }
    violations.extend(bounded(label, &w));
    (violations, w.digest())
}

// ---------------------------------------------------------------------------
// Soak plumbing
// ---------------------------------------------------------------------------

fn soak_world(wseed: u64, threads: usize) -> World {
    World::sharded(cluster_topology(SOAK_HOSTS), wseed, threads)
}

/// Translate the plan and bind its abstract targets: flappable hosts
/// are the workload's cast, net-level faults rotate over the first six
/// cluster LANs, interface flaps over the cast's interfaces.
fn apply(w: &mut World, plan: &ChaosPlan, cast: &[HostId], procs: Vec<(Endpoint, ActorFactory)>) {
    let nets: Vec<NetId> = (0..6).map(NetId).collect();
    let ifaces: Vec<(HostId, NetId)> =
        cast.iter().map(|&h| (h, NetId(h.index() as u32 / 64))).collect();
    plan.apply(w, &ChaosBinding { hosts: cast.to_vec(), nets, ifaces, procs });
}

/// Drive the world in 250 ms slices until `done` or the deadline
/// (quiesce + recovery tail). A missed deadline is the liveness
/// violation; invariant details are the caller's to report.
fn run_to_deadline(w: &mut World, plan: &ChaosPlan, done: impl Fn(&World) -> bool) -> Vec<String> {
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = SimDuration::from_millis(250);
    loop {
        w.run_for(step);
        if done(w) {
            // A short drain so in-flight retransmissions/acks settle
            // before residual-queue bounds are checked.
            w.run_for(SimDuration::from_secs(1));
            return Vec::new();
        }
        if w.now() >= deadline {
            return vec![format!(
                "liveness: workload incomplete at quiesce+{}s of virtual time",
                RECOVERY_TAIL.as_secs_f64()
            )];
        }
    }
}

fn bounded(label: &str, w: &World) -> Vec<String> {
    oracles::check_shard_bounded(label, w, MAX_RESIDUAL_EVENTS, MAX_PEAK_DEPTH, MAX_MAILBOX_BURST)
}

/// The sharded-engine workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardWorkload {
    /// Acked transfer with blanket retransmission, cross-region.
    Transfer,
    /// Go-back-N sequenced stream (exactly-once, in-order).
    Stream,
    /// Intra-region service migration under a stop-and-wait stream.
    Migration,
    /// Max-merge gossip mesh over six regions.
    Gossip,
    /// Relayed multicast fan-out (duplication/reorder chaos only).
    Mcast,
    /// Erasure-coded share spray using the wire FEC codec.
    FecSpray,
    /// The full SNIPE stack (daemons, RCDS, files, RM) on a campus.
    FullProtocol,
    /// Replicated RCDS metadata plus a striped cross-region file read
    /// while RC servers and file replicas crash/restart mid-flight.
    ReplicaCrash,
}

/// Every workload, in soak order.
pub const ALL_SHARD_WORKLOADS: [ShardWorkload; 8] = [
    ShardWorkload::Transfer,
    ShardWorkload::Stream,
    ShardWorkload::Migration,
    ShardWorkload::Gossip,
    ShardWorkload::Mcast,
    ShardWorkload::FecSpray,
    ShardWorkload::FullProtocol,
    ShardWorkload::ReplicaCrash,
];

impl ShardWorkload {
    /// Stable name used in replay lines and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShardWorkload::Transfer => "shard-transfer",
            ShardWorkload::Stream => "shard-stream",
            ShardWorkload::Migration => "shard-migration",
            ShardWorkload::Gossip => "shard-gossip",
            ShardWorkload::Mcast => "shard-mcast",
            ShardWorkload::FecSpray => "shard-fec",
            ShardWorkload::FullProtocol => "shard-full-protocol",
            ShardWorkload::ReplicaCrash => "shard-replica-crash",
        }
    }

    /// Inverse of [`ShardWorkload::name`].
    pub fn from_name(name: &str) -> Option<ShardWorkload> {
        ALL_SHARD_WORKLOADS.iter().copied().find(|w| w.name() == name)
    }

    /// The fault envelope each workload's contract tolerates. Horizons
    /// are short (the workloads are small); the recovery tail does the
    /// healing.
    pub fn shape(&self) -> ChaosShape {
        match self {
            ShardWorkload::Transfer => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 2,
                nets: 4,
                ifaces: 2,
                procs: 0,
                max_ops: 6,
                jitter_max: SimDuration::from_millis(20),
                ..ChaosShape::default()
            },
            ShardWorkload::Stream => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 2,
                nets: 4,
                ifaces: 2,
                procs: 0,
                max_ops: 6,
                jitter_max: SimDuration::from_millis(20),
                ..ChaosShape::default()
            },
            ShardWorkload::Migration => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 2,
                nets: 3,
                ifaces: 0,
                procs: 0,
                max_ops: 4,
                corrupt_max: 0.02,
                jitter_max: SimDuration::from_millis(10),
                ..ChaosShape::default()
            },
            ShardWorkload::Gossip => ChaosShape {
                horizon: SimDuration::from_secs(5),
                hosts: 6,
                nets: 6,
                ifaces: 4,
                procs: 0,
                max_ops: 6,
                ..ChaosShape::default()
            },
            // Relays are unreliable by design: only duplication,
            // reordering and gray degradation are in contract, plus
            // flaps of the source host (it must resume pacing).
            ShardWorkload::Mcast => ChaosShape {
                horizon: SimDuration::from_secs(3),
                hosts: 1,
                nets: 2,
                ifaces: 0,
                procs: 0,
                max_ops: 4,
                packet_prob: 0.9,
                corrupt_max: 0.0,
                duplicate_max: 0.3,
                reorder_max: 0.3,
                jitter_max: SimDuration::from_millis(15),
                ..ChaosShape::default()
            },
            // FEC sender resprays full share sets on a timer (HostUp
            // re-arms it), so endpoint flaps, net faults and hot packet
            // chaos — including corruption — are all in contract.
            ShardWorkload::FecSpray => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 2,
                nets: 4,
                ifaces: 2,
                procs: 0,
                max_ops: 6,
                corrupt_max: 0.05,
                duplicate_max: 0.15,
                reorder_max: 0.15,
                jitter_max: SimDuration::from_millis(20),
                ..ChaosShape::default()
            },
            // SNIPE processes exit when their host crashes (that is the
            // paper's contract), so host flaps would kill the cast:
            // only net partitions and per-packet chaos are in envelope.
            ShardWorkload::FullProtocol => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 0,
                nets: 3,
                ifaces: 0,
                procs: 0,
                max_ops: 4,
                corrupt_max: 0.02,
                jitter_max: SimDuration::from_millis(10),
                ..ChaosShape::default()
            },
            // Process crash/restart of the three RC and three file
            // servers, net partitions and packet chaos; no host flaps.
            ShardWorkload::ReplicaCrash => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 0,
                nets: 3,
                ifaces: 0,
                procs: 6,
                max_ops: 4,
                corrupt_max: 0.02,
                jitter_max: SimDuration::from_millis(10),
                ..ChaosShape::default()
            },
        }
    }

    /// Run the workload under `plan` at `threads` workers; returns
    /// oracle violations (empty = green) and the world digest.
    pub fn run(&self, plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
        match self {
            ShardWorkload::Transfer => run_transfer(plan, wseed, threads),
            ShardWorkload::Stream => run_stream(plan, wseed, threads),
            ShardWorkload::Migration => run_migration(plan, wseed, threads),
            ShardWorkload::Gossip => run_gossip(plan, wseed, threads),
            ShardWorkload::Mcast => run_mcast(plan, wseed, threads),
            ShardWorkload::FecSpray => run_fec(plan, wseed, threads),
            ShardWorkload::FullProtocol => run_full_protocol(plan, wseed, threads),
            ShardWorkload::ReplicaCrash => run_shard_replica_crash(plan, wseed, threads),
        }
    }
}

/// Outcome of one `(workload, plan, workload-seed)` sharded chaos run.
#[derive(Clone, Debug)]
pub struct ShardChaosRun {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the plan was generated from.
    pub plan_seed: u64,
    /// Seed driving the workload world.
    pub workload_seed: u64,
    /// Fault ops in the plan.
    pub ops: usize,
    /// Whether per-packet chaos was active.
    pub packet: bool,
    /// Oracle violations (empty = green).
    pub violations: Vec<String>,
    /// One-line replay recipe.
    pub replay: String,
    /// World digest of the primary run.
    pub digest: u64,
}

/// Run one plan: primary at [`SOAK_THREADS`] workers plus a
/// differential re-run at [`DIFF_THREADS`]; a digest mismatch is
/// itself an oracle violation.
pub fn run_one(w: ShardWorkload, plan_seed: u64, workload_seed: u64) -> ShardChaosRun {
    let plan = ChaosPlan::generate(plan_seed, &w.shape());
    let (mut violations, digest) = w.run(&plan, workload_seed, SOAK_THREADS);
    let (_, digest1) = w.run(&plan, workload_seed, DIFF_THREADS);
    if digest != digest1 {
        violations.push(format!(
            "{}: digest diverged across thread counts ({SOAK_THREADS} -> {digest:#x}, \
             {DIFF_THREADS} -> {digest1:#x})",
            w.name()
        ));
    }
    ShardChaosRun {
        workload: w.name(),
        plan_seed,
        workload_seed,
        ops: plan.ops.len(),
        packet: plan.packet.is_some(),
        violations,
        replay: plan.replay_line(w.name(), workload_seed),
        digest,
    }
}

/// Fan `seeds_per_workload` plans over every workload in parallel
/// (each simulation already uses [`SOAK_THREADS`] workers internally,
/// so the outer fan-out stays modest).
pub fn soak(seeds_per_workload: u64) -> Vec<ShardChaosRun> {
    let mut jobs = Vec::new();
    for w in ALL_SHARD_WORKLOADS {
        for i in 0..seeds_per_workload {
            let (ps, ws) = soak_seeds(i);
            jobs.push((w, ps, ws));
        }
    }
    par_map(jobs, |&(w, ps, ws)| run_one(w, ps, ws))
}

/// `(workload, plan_seed, workload_seed)` triples pinned from soak
/// runs during development — each must stay green forever. The first
/// pins per workload are the soak's leading seeds; the extra transfer
/// and stream pins wedged until senders learned to re-arm their
/// retransmit timers on [`Event::HostUp`] (a flap of the sending host
/// swallows any timer queued while it was down — same failure family
/// as the single-world corpus). The full-protocol pin failed until RC
/// anti-entropy learned to size its SyncPush batches to the path MTU:
/// on a catalog busy with daemon soft-state churn, every count-only
/// push exceeded 1500 bytes and was dropped `TooBig`, so replicas
/// never converged and any client whose retries had failed over to a
/// secondary replica could never resolve a service registered at the
/// primary.
pub const SHARD_REGRESSION_CORPUS: &[(ShardWorkload, u64, u64)] = &[
    (ShardWorkload::Transfer, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::Transfer, 0xC0FF_EE01, 0x5EED + 1),
    (ShardWorkload::Stream, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::Stream, 0xC0FF_EE03, 0x5EED + 3),
    (ShardWorkload::Migration, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::Gossip, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::Mcast, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::Mcast, 0xC0FF_EE01, 0x5EED + 1),
    // Erasure spray under the hottest packet chaos in the corpus: pins
    // the codec's integrity gate and its cross-thread determinism (the
    // plan at index 2 carries six ops including corruption).
    (ShardWorkload::FecSpray, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::FecSpray, 0xC0FF_EE02, 0x5EED + 2),
    (ShardWorkload::FullProtocol, 0xC0FF_EE00, 0x5EED),
    // Replica crash/restart under cross-region RC sync and a striped
    // read: the soak's leading seed (one file replica restarted
    // mid-read) plus a four-op plan (a file-replica restart, a loss
    // burst, a gray link and a net flap). Pins plan-driven process
    // restarts — the engine's restart fault inside shard regions — and
    // the fetch layer's straggler re-dispatch, alongside cross-thread
    // digest equality.
    (ShardWorkload::ReplicaCrash, 0xC0FF_EE00, 0x5EED),
    (ShardWorkload::ReplicaCrash, 0xC0FF_EE02, 0x5EED + 2),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_regression_corpus_stays_green() {
        for &(w, ps, ws) in SHARD_REGRESSION_CORPUS {
            let run = run_one(w, ps, ws);
            assert!(
                run.violations.is_empty(),
                "{} plan_seed={ps:#x} wseed={ws:#x}: {:?}\n  {}",
                w.name(),
                run.violations,
                run.replay
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL_SHARD_WORKLOADS {
            assert_eq!(ShardWorkload::from_name(w.name()), Some(w));
        }
        assert_eq!(ShardWorkload::from_name("nope"), None);
    }
}
