//! C1 — the chaos soak: adversarial fault plans vs invariant oracles.
//!
//! Each workload wires one of the paper's experiment shapes (E7-style
//! failover transfer, E5 migration, E3-style replicated metadata, E6
//! multicast) to a seeded [`ChaosPlan`] and, after the plan quiesces,
//! asserts the cross-stack invariants in [`crate::oracles`]. A failing
//! `(plan_seed, workload_seed)` pair replays bit-for-bit and is greedily
//! shrunk to a minimal violating plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use snipe_core::SnipeWorldBuilder;
use snipe_files::{FetchActor, FileServerActor, FileServerConfig};
use snipe_netsim::actor::{Actor, Event, SimCtx, TimerGate};
use snipe_netsim::chaos::{shrink_plan, ChaosBinding, ChaosOp, ChaosPlan, ChaosShape};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ActorFactory;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::trace::{self, TraceKind};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::uri::Uri;
use snipe_util::id::NetId;
use snipe_util::metrics::Registry;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::fec::FragStrategy;
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::mcast::{majority, McastMember, McastMsg, McastRouter};
use snipe_wire::ports;
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::stack::StackConfig;
use snipe_wire::Out;

use crate::fig1::{
    FecReceiver, FecSender, RstreamReceiver, RstreamSender, SrudpReceiver, SrudpSender,
};
use crate::oracles;
use crate::{e5_migration, par_map};

/// How long a workload may sit with zero progress while a physical path
/// exists before the liveness watchdog declares a violation.
const STALL_LIMIT: SimDuration = SimDuration::from_secs(10);

/// Extra virtual time granted after the last fault quiesces for
/// recovery (covers full RTO escalation to `rto_max` plus anti-entropy).
const RECOVERY_TAIL: SimDuration = SimDuration::from_secs(30);

/// Queue-population bounds for the engine oracle: residual events after
/// quiesce (steady-state timers only) and peak depth during the run.
const MAX_RESIDUAL_EVENTS: usize = 512;
const MAX_PEAK_DEPTH: u64 = 250_000;

/// The chaos workloads, one per experiment family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E7-shape: dual-homed SRUDP bulk transfer with route pinning.
    SrudpTransfer,
    /// Fig.1-shape: RSTREAM bulk transfer under host flaps and packet
    /// chaos (exercises the stream driver's timer re-arm paths).
    RstreamTransfer,
    /// E5-shape: process migration under a message stream.
    Migration,
    /// E3-shape: replicated metadata with crash/restart servers.
    RcdsConverge,
    /// E6-shape: majority-routed multicast (duplication/reorder chaos).
    Mcast,
    /// FEC-shape: erasure-coded message stream with shares sprayed
    /// across two media, under loss-burst / gray-link plans; the
    /// integrity oracle proves a corrupted reconstruction is never
    /// delivered.
    FecSpray,
    /// PR10-shape: replicated metadata *and* a striped file read while
    /// RCDS servers and file replicas crash/restart mid-lookup and
    /// mid-transfer; convergence, content-integrity and exactly-once
    /// stripe completion must all hold.
    ReplicaCrash,
}

/// Every workload, in soak order.
pub const ALL_WORKLOADS: [Workload; 7] = [
    Workload::SrudpTransfer,
    Workload::RstreamTransfer,
    Workload::Migration,
    Workload::RcdsConverge,
    Workload::Mcast,
    Workload::FecSpray,
    Workload::ReplicaCrash,
];

impl Workload {
    /// Stable name used in replay lines and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::SrudpTransfer => "srudp-transfer",
            Workload::RstreamTransfer => "rstream-transfer",
            Workload::Migration => "migration",
            Workload::RcdsConverge => "rcds-converge",
            Workload::Mcast => "mcast",
            Workload::FecSpray => "fec-spray",
            Workload::ReplicaCrash => "replica-crash",
        }
    }

    /// Inverse of [`Workload::name`] — resolves the workload named in a
    /// replay line (for the `harness trace` subcommand).
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.iter().copied().find(|w| w.name() == name)
    }

    /// The fault envelope this workload's contract tolerates.
    pub fn shape(&self) -> ChaosShape {
        match self {
            Workload::SrudpTransfer => ChaosShape {
                horizon: SimDuration::from_secs(5),
                hosts: 2,
                nets: 2,
                ifaces: 4,
                procs: 0,
                max_ops: 6,
                jitter_max: SimDuration::from_millis(20),
                ..ChaosShape::default()
            },
            // Single network (RSTREAM does not fail over routes); host
            // and interface flaps plus packet chaos are in contract —
            // the stream must resume once connectivity heals.
            Workload::RstreamTransfer => ChaosShape {
                horizon: SimDuration::from_secs(5),
                hosts: 2,
                nets: 1,
                ifaces: 2,
                procs: 0,
                max_ops: 6,
                jitter_max: SimDuration::from_millis(20),
                ..ChaosShape::default()
            },
            Workload::Migration => ChaosShape {
                horizon: SimDuration::from_secs(4),
                hosts: 0,
                nets: 1,
                ifaces: 0,
                procs: 0,
                max_ops: 4,
                corrupt_max: 0.02,
                duplicate_max: 0.1,
                reorder_max: 0.1,
                jitter_max: SimDuration::from_millis(10),
                ..ChaosShape::default()
            },
            Workload::RcdsConverge => ChaosShape {
                horizon: SimDuration::from_secs(8),
                hosts: 3,
                nets: 1,
                ifaces: 0,
                procs: 3,
                max_ops: 6,
                ..ChaosShape::default()
            },
            // Multicast routers relay unreliably: only duplication,
            // reordering and gray degradation are within contract
            // (corruption/loss of every redundant copy may drop a
            // message, which §5.4 does not promise to survive). The
            // one host eligible for flapping is the *source* — it must
            // resume its paced stream after recovery.
            Workload::Mcast => ChaosShape {
                horizon: SimDuration::from_secs(3),
                hosts: 1,
                nets: 1,
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
            // No host crashes (no state loss in contract), but both
            // networks may flap, gray out, burst-lose and partition,
            // and per-packet corruption/duplication/reordering runs
            // hot: exactly the envelope share-spraying is built for.
            Workload::FecSpray => ChaosShape {
                horizon: SimDuration::from_secs(8),
                hosts: 0,
                nets: 2,
                ifaces: 4,
                procs: 0,
                max_ops: 6,
                packet_prob: 0.9,
                corrupt_max: 0.05,
                duplicate_max: 0.15,
                reorder_max: 0.15,
                jitter_max: SimDuration::from_millis(20),
                ..ChaosShape::default()
            },
            // Both planes under fire: host flaps over every replica,
            // process crash/restart of RC servers (fresh empty store;
            // anti-entropy repopulates) and of file servers (fresh
            // process, disk contents survive), while a client writes
            // metadata and another stripes a read across the replicas.
            Workload::ReplicaCrash => ChaosShape {
                horizon: SimDuration::from_secs(8),
                hosts: 6,
                nets: 1,
                ifaces: 0,
                procs: 6,
                max_ops: 6,
                ..ChaosShape::default()
            },
        }
    }

    /// Run the workload under `plan`; empty result = every oracle held.
    pub fn run(&self, plan: &ChaosPlan, wseed: u64) -> Vec<String> {
        match self {
            Workload::SrudpTransfer => run_srudp_transfer(plan, wseed),
            Workload::RstreamTransfer => run_rstream_transfer(plan, wseed),
            Workload::Migration => run_migration(plan, wseed, false),
            Workload::RcdsConverge => run_rcds_converge(plan, wseed),
            Workload::Mcast => run_mcast(plan, wseed),
            Workload::FecSpray => run_fec_spray(plan, wseed),
            Workload::ReplicaCrash => run_replica_crash(plan, wseed),
        }
    }
}

// ---------------------------------------------------------------------------
// W1: dual-homed SRUDP transfer (E7 shape) + liveness watchdog
// ---------------------------------------------------------------------------

fn run_srudp_transfer(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    // Sized so the transfer (~3.4s at ATM rate) spans most of the 5s
    // fault horizon — faults land mid-flight, not on an idle world.
    let total: usize = 64 << 20;
    let mut topo = Topology::new();
    let eth = topo.add_network("eth", Medium::ethernet100(), true);
    let atm = topo.add_network("atm", Medium::atm155(), false);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    for h in [a, b] {
        topo.attach(h, eth);
        topo.attach(h, atm);
    }
    let mut world = World::new(topo, wseed);
    let received = Arc::new(Mutex::new(0usize));
    let done_at: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));
    let mut cfg = StackConfig::default();
    cfg.srudp.rto_initial = SimDuration::from_millis(20);
    world.spawn(
        b,
        20,
        Box::new(SrudpReceiver {
            stack: None,
            received: received.clone(),
            done_at: done_at.clone(),
            expect: total,
            cfg: cfg.clone(),
            pin: Some(vec![atm, eth]),
            gate: TimerGate::new(),
        }),
    );
    world.spawn(
        a,
        20,
        Box::new(SrudpSender {
            stack: None,
            peer: Endpoint::new(b, 20),
            msg_size: 16 * 1024,
            remaining: total,
            inflight: 64 * 1400,
            cfg,
            pin: Some(vec![atm, eth]),
            gate: TimerGate::new(),
        }),
    );
    let binding = ChaosBinding {
        hosts: vec![a, b],
        nets: vec![eth, atm],
        ifaces: vec![(a, eth), (a, atm), (b, eth), (b, atm)],
        procs: vec![],
    };
    plan.apply(&mut world, &binding);

    // Virtual-time liveness watchdog: stalling while a physical path
    // exists is a violation even before the completion deadline.
    let mut violations = Vec::new();
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = SimDuration::from_millis(250);
    let mut last = 0usize;
    let mut stall = SimDuration::from_nanos(0);
    loop {
        world.run_for(step);
        if done_at.lock().unwrap().is_some() {
            break;
        }
        let got = *received.lock().unwrap();
        if got > last {
            last = got;
            stall = SimDuration::from_nanos(0);
        } else if world.topology().reachable(a, b) {
            stall = stall + step;
            if stall >= STALL_LIMIT {
                violations.push(format!(
                    "srudp-transfer: no progress for {:.1}s of virtual time with a live path \
                     ({last} of {total} bytes)",
                    stall.as_secs_f64()
                ));
                break;
            }
        }
        if world.now() >= deadline {
            violations.push(format!(
                "srudp-transfer: transfer incomplete at quiesce+{}s ({} of {total} bytes)",
                RECOVERY_TAIL.as_secs_f64(),
                *received.lock().unwrap()
            ));
            break;
        }
    }
    let got = *received.lock().unwrap();
    if done_at.lock().unwrap().is_some() && got != total {
        violations.push(format!(
            "srudp-transfer: exactly-once violated — {got} bytes delivered for {total} sent"
        ));
    }
    violations.extend(oracles::check_engine_bounded(
        "srudp-transfer",
        &world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// W1c: FEC share-spray message stream under loss bursts and gray links
// ---------------------------------------------------------------------------

fn run_fec_spray(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    // 200 × 7000-byte messages, each split into 9 erasure shares and
    // sprayed across two WAN paths. With ~2 messages pipelined the
    // stream is latency-bound (~7s at a 72ms RTT) so the plan's loss
    // bursts and gray links land on live traffic for the whole 8s
    // horizon. The contract: exactly-once in-order delivery, every
    // delivered message byte-exact (reconstruct-then-verify gate), no
    // in-contract peer evicted from partial-reassembly state.
    let count: u64 = 200;
    let msg_size: usize = 7000;
    let mut topo = Topology::new();
    let wan_a = topo.add_network("wan-a", Medium::wan(), true);
    let wan_b = topo.add_network("wan-b", Medium::wan(), false);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    for h in [a, b] {
        topo.attach(h, wan_a);
        topo.attach(h, wan_b);
    }
    let mut world = World::new(topo, wseed);
    let seqs: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mismatches: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let stats = Arc::new(Mutex::new(snipe_wire::srudp::SrudpStats::default()));
    let done_at: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));
    let mut cfg = StackConfig::default();
    cfg.srudp.frag_strategy = FragStrategy::Fec;
    world.spawn(
        b,
        20,
        Box::new(FecReceiver {
            stack: None,
            cfg: cfg.clone(),
            pin: Some(vec![wan_a, wan_b]),
            gate: TimerGate::new(),
            expect: count,
            msg_size,
            seqs: seqs.clone(),
            mismatches: mismatches.clone(),
            stats: stats.clone(),
            done_at: done_at.clone(),
        }),
    );
    world.spawn(
        a,
        20,
        Box::new(FecSender {
            stack: None,
            peer: Endpoint::new(b, 20),
            msg_size,
            count,
            next: 0,
            inflight: 26_000,
            cfg,
            pin: Some(vec![wan_a, wan_b]),
            gate: TimerGate::new(),
        }),
    );
    let binding = ChaosBinding {
        hosts: vec![a, b],
        nets: vec![wan_a, wan_b],
        ifaces: vec![(a, wan_a), (a, wan_b), (b, wan_a), (b, wan_b)],
        procs: vec![],
    };
    plan.apply(&mut world, &binding);

    let mut violations = Vec::new();
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = SimDuration::from_millis(250);
    let mut last = 0usize;
    let mut stall = SimDuration::from_nanos(0);
    loop {
        world.run_for(step);
        if done_at.lock().unwrap().is_some() {
            break;
        }
        let got = seqs.lock().unwrap().len();
        if got > last {
            last = got;
            stall = SimDuration::from_nanos(0);
        } else if world.topology().reachable(a, b) {
            stall = stall + step;
            if stall >= STALL_LIMIT {
                violations.push(format!(
                    "fec-spray: no progress for {:.1}s of virtual time with a live path \
                     ({last} of {count} messages)",
                    stall.as_secs_f64()
                ));
                break;
            }
        }
        if world.now() >= deadline {
            violations.push(format!(
                "fec-spray: transfer incomplete at quiesce+{}s ({} of {count} messages)",
                RECOVERY_TAIL.as_secs_f64(),
                seqs.lock().unwrap().len()
            ));
            break;
        }
    }
    let seqs = seqs.lock().unwrap().clone();
    if done_at.lock().unwrap().is_some() {
        violations.extend(oracles::check_exactly_once_in_order("fec-spray", count as u32, &seqs));
    }
    let st = stats.lock().unwrap().clone();
    violations.extend(oracles::check_fec_integrity(
        "fec-spray",
        &mismatches.lock().unwrap(),
        &st,
        done_at.lock().unwrap().is_some(),
    ));
    // REASM_TTL (60s) exceeds the whole watchdog window, so an
    // in-contract sender must never be swept from reassembly state.
    violations.extend(oracles::check_reasm_bounded("fec-spray", &st, 0));
    violations.extend(oracles::check_engine_bounded(
        "fec-spray",
        &world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// W1b: RSTREAM bulk transfer (Fig.1 shape) under host flaps
// ---------------------------------------------------------------------------

fn run_rstream_transfer(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    // ~2.7s at Ethernet rate against the 5s fault horizon.
    let total: usize = 32 << 20;
    let mut topo = Topology::new();
    let net = topo.add_network("eth", Medium::ethernet100(), true);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    for h in [a, b] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, wseed);
    let received = Arc::new(Mutex::new(0usize));
    let done_at: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));
    // Faults may sever connectivity for most of the 5s horizon; widen
    // the abort budget so the stream outlives them and resumes.
    let mut rcfg = RstreamConfig::default();
    rcfg.max_timeouts = 100;
    world.spawn(
        b,
        20,
        Box::new(RstreamReceiver {
            stack: None,
            cfg: rcfg.clone(),
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
            cfg: rcfg,
            conn: 0,
            peer: Endpoint::new(b, 20),
            msg_size: 16 * 1024,
            remaining: total,
            inflight_cap: 64 * 1400,
            gate: TimerGate::new(),
        }),
    );
    let binding = ChaosBinding {
        hosts: vec![a, b],
        nets: vec![net],
        ifaces: vec![(a, net), (b, net)],
        procs: vec![],
    };
    plan.apply(&mut world, &binding);

    let mut violations = Vec::new();
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = SimDuration::from_millis(250);
    let mut last = 0usize;
    let mut stall = SimDuration::from_nanos(0);
    loop {
        world.run_for(step);
        if done_at.lock().unwrap().is_some() {
            break;
        }
        let got = *received.lock().unwrap();
        if got > last {
            last = got;
            stall = SimDuration::from_nanos(0);
        } else if world.topology().reachable(a, b) {
            stall = stall + step;
            if stall >= STALL_LIMIT {
                violations.push(format!(
                    "rstream-transfer: no progress for {:.1}s of virtual time with a live \
                     path ({last} of {total} bytes)",
                    stall.as_secs_f64()
                ));
                break;
            }
        }
        if world.now() >= deadline {
            violations.push(format!(
                "rstream-transfer: transfer incomplete at quiesce+{}s ({} of {total} bytes)",
                RECOVERY_TAIL.as_secs_f64(),
                *received.lock().unwrap()
            ));
            break;
        }
    }
    let got = *received.lock().unwrap();
    if done_at.lock().unwrap().is_some() && got != total {
        violations.push(format!(
            "rstream-transfer: exactly-once violated — {got} bytes delivered for {total} sent"
        ));
    }
    violations.extend(oracles::check_engine_bounded(
        "rstream-transfer",
        &world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// W2: migration under load (E5 shape) — and the planted-bug drill
// ---------------------------------------------------------------------------

/// Run the E5 migration stream under a chaos plan. `disable_freeze`
/// switches off the packet freeze that protects in-flight traffic while
/// a process moves — the deliberately planted bug the oracles must
/// catch (`ProcessConfig::chaos_disable_migration_freeze`).
pub fn run_migration(plan: &ChaosPlan, wseed: u64, disable_freeze: bool) -> Vec<String> {
    // 2.8s of stream against a 4s fault horizon: the move at 300ms and
    // most fault ops land while messages are in flight.
    let total: u32 = 700;
    let interval = SimDuration::from_millis(4);
    let mut w = SnipeWorldBuilder::lan(4, wseed).build();
    if disable_freeze {
        w.process_config_mut().chaos_disable_migration_freeze = true;
    }
    let deliveries = Arc::new(Mutex::new(Vec::new()));
    let migrated_at = Arc::new(Mutex::new(None));
    let (dl, ma) = (deliveries.clone(), migrated_at.clone());
    w.register_process("worker", move |_| {
        Box::new(e5_migration::Worker {
            deliveries: dl.clone(),
            migrated_at: ma.clone(),
            move_after: SimDuration::from_millis(300),
            target: "host3".into(),
        })
    });
    let (wkey, _) = w.spawn_on("host1", "worker", Bytes::new()).expect("spawn worker");
    w.register_process("streamer", move |_| {
        Box::new(e5_migration::Streamer { peer: wkey, total, sent: 0, interval })
    });
    w.spawn_on("host2", "streamer", Bytes::new()).expect("spawn streamer");
    let binding =
        ChaosBinding { hosts: vec![], nets: vec![NetId(0)], ifaces: vec![], procs: vec![] };
    plan.apply(w.sim(), &binding);

    let stream_end = SimTime::ZERO + interval * (total as u64 + 2);
    let deadline = plan.quiesce_at().max(stream_end) + RECOVERY_TAIL;
    loop {
        w.run_for(SimDuration::from_millis(500));
        let done = deliveries.lock().unwrap().len() as u32 >= total
            && migrated_at.lock().unwrap().is_some();
        if done || w.now() >= deadline {
            break;
        }
    }

    let mut violations = Vec::new();
    let seqs: Vec<u32> = deliveries.lock().unwrap().iter().map(|&(_, s)| s).collect();
    violations.extend(oracles::check_exactly_once_in_order("migration", total, &seqs));
    if migrated_at.lock().unwrap().is_none() {
        violations.push("migration: process never completed its move".into());
    }
    violations.extend(oracles::check_engine_bounded(
        "migration",
        w.sim_ref(),
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// W3: replicated metadata convergence (E3 shape) with server restarts
// ---------------------------------------------------------------------------

const TIMER_FIRE: u64 = 20;
const TIMER_RC: u64 = 21;

/// Writes an evolving assertion during the fault window.
struct ChaosWriter {
    rc: RcClient,
    uri: Uri,
    interval: SimDuration,
    writes_left: u32,
    next_val: u32,
}

impl ChaosWriter {
    fn flush(&mut self, ctx: &mut dyn SimCtx) {
        for (to, bytes) in self.rc.drain_sends() {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
        let _ = self.rc.drain_done();
        if let Some(dl) = self.rc.next_deadline() {
            let delay = dl.saturating_since(ctx.now()) + SimDuration::from_micros(1);
            ctx.set_timer(delay, TIMER_RC);
        }
    }
}

impl Actor for ChaosWriter {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { token: TIMER_FIRE } => {
                if self.writes_left > 0 {
                    self.writes_left -= 1;
                    let v = format!("v{}", self.next_val);
                    self.next_val += 1;
                    let now = ctx.now();
                    self.rc.put(now, &self.uri, vec![Assertion::new("k", v)]);
                    self.flush(ctx);
                    ctx.set_timer(self.interval, TIMER_FIRE);
                }
            }
            Event::Timer { token: TIMER_RC } => {
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

/// Queries exactly one replica once faults quiesce; retries on timeout.
struct ReplicaProbe {
    rc: RcClient,
    uri: Uri,
    at: SimTime,
    out: Arc<Mutex<Option<Vec<Assertion>>>>,
    attempts: u32,
}

impl ReplicaProbe {
    fn flush(&mut self, ctx: &mut dyn SimCtx) {
        for (to, bytes) in self.rc.drain_sends() {
            ctx.send(to, seal(Proto::Raw, bytes));
        }
        for (_, result) in self.rc.drain_done() {
            match result {
                Ok(reply) => {
                    if self.out.lock().unwrap().is_none() {
                        *self.out.lock().unwrap() = Some(reply.assertions);
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
            let delay = dl.saturating_since(ctx.now()) + SimDuration::from_micros(1);
            ctx.set_timer(delay, TIMER_RC);
        }
    }
}

impl Actor for ReplicaProbe {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let delay = self.at.saturating_since(ctx.now());
                ctx.set_timer(delay, TIMER_FIRE);
            }
            Event::Timer { token: TIMER_FIRE } => {
                let now = ctx.now();
                let uri = self.uri.clone();
                self.rc.get(now, &uri);
                self.flush(ctx);
            }
            Event::Timer { token: TIMER_RC } => {
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

/// Restart factories for a replica set: each crash brings the server
/// back as a *fresh* replica (new server id from a shared counter, empty
/// store) on the same endpoint — anti-entropy must repopulate it.
pub(crate) fn fresh_rc_factories(
    eps: &[Endpoint],
    sync: SimDuration,
) -> Vec<(Endpoint, ActorFactory)> {
    let restarts = Arc::new(AtomicU64::new(0));
    eps.iter()
        .map(|&ep| {
            let peers: Vec<Endpoint> = eps.iter().copied().filter(|e| *e != ep).collect();
            let restarts = restarts.clone();
            let factory: ActorFactory = Arc::new(move || {
                let id = 1001 + restarts.fetch_add(1, Ordering::Relaxed);
                Box::new(RcServerActor::new(id, peers.clone(), sync))
            });
            (ep, factory)
        })
        .collect()
}

fn run_rcds_converge(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    let replicas = 3usize;
    let sync = SimDuration::from_millis(500);
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let mut rc_hosts = Vec::new();
    for i in 0..replicas {
        let h = topo.add_host(HostCfg::named(format!("rc{i}")));
        topo.attach(h, net);
        rc_hosts.push(h);
    }
    let client = topo.add_host(HostCfg::named("client"));
    topo.attach(client, net);
    let mut world = World::new(topo, wseed);
    let eps: Vec<Endpoint> = rc_hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
    for (i, ep) in eps.iter().enumerate() {
        let peers: Vec<Endpoint> = eps.iter().copied().filter(|e| e != ep).collect();
        world.spawn(ep.host, ep.port, Box::new(RcServerActor::new(i as u64 + 1, peers, sync)));
    }
    let uri = Uri::process(7);
    world.spawn(
        client,
        50,
        Box::new(ChaosWriter {
            rc: RcClient::new(eps.clone(), SimDuration::from_millis(300)),
            uri: uri.clone(),
            interval: SimDuration::from_millis(300),
            writes_left: 12,
            next_val: 0,
        }),
    );

    let procs = fresh_rc_factories(&eps, sync);
    let binding = ChaosBinding { hosts: rc_hosts.clone(), nets: vec![net], ifaces: vec![], procs };
    plan.apply(&mut world, &binding);

    // Probe every replica individually several sync rounds after the
    // last fault healed.
    let probe_at = plan.quiesce_at() + SimDuration::from_secs(4);
    let mut answers = Vec::new();
    for (i, ep) in eps.iter().enumerate() {
        let out = Arc::new(Mutex::new(None));
        answers.push(out.clone());
        world.spawn(
            client,
            60 + i as u16,
            Box::new(ReplicaProbe {
                rc: RcClient::new(vec![*ep], SimDuration::from_millis(300)),
                uri: uri.clone(),
                at: probe_at,
                out,
                attempts: 0,
            }),
        );
    }

    let deadline = probe_at + RECOVERY_TAIL;
    loop {
        world.run_for(SimDuration::from_millis(500));
        let all_answered = answers.iter().all(|a| a.lock().unwrap().is_some());
        if all_answered || world.now() >= deadline {
            break;
        }
    }

    let replies: Vec<Option<Vec<Assertion>>> =
        answers.iter().map(|a| a.lock().unwrap().clone()).collect();
    let mut violations = oracles::check_replicas_converged("rcds-converge", &replies);
    violations.extend(oracles::check_engine_bounded(
        "rcds-converge",
        &world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// W7: replica crash — sharded-era metadata plus a striped file read
// while RCDS servers and file replicas crash/restart mid-flight
// ---------------------------------------------------------------------------

/// Deterministic file body for the replica-crash workloads (shared
/// with the sharded-engine variant in [`crate::chaos_shard`]).
pub(crate) fn replica_crash_content(wseed: u64) -> Bytes {
    Bytes::from(
        (0..24_000usize)
            .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(wseed) % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

pub(crate) const REPLICA_CRASH_LIFN: &str = "lifn:snipe:chaos:staged";
/// 24 000 bytes at 2048-byte stripes.
pub(crate) const REPLICA_CRASH_STRIPES: u32 = 12;

fn run_replica_crash(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    let replicas = 3usize;
    let sync = SimDuration::from_millis(500);
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let mut rc_hosts = Vec::new();
    for i in 0..replicas {
        let h = topo.add_host(HostCfg::named(format!("rc{i}")));
        topo.attach(h, net);
        rc_hosts.push(h);
    }
    let mut fs_hosts = Vec::new();
    for i in 0..replicas {
        let h = topo.add_host(HostCfg::named(format!("fs{i}")));
        topo.attach(h, net);
        fs_hosts.push(h);
    }
    let client = topo.add_host(HostCfg::named("client"));
    topo.attach(client, net);
    let mut world = World::new(topo, wseed);

    let rc_eps: Vec<Endpoint> =
        rc_hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
    for (i, ep) in rc_eps.iter().enumerate() {
        let peers: Vec<Endpoint> = rc_eps.iter().copied().filter(|e| e != ep).collect();
        world.spawn(ep.host, ep.port, Box::new(RcServerActor::new(i as u64 + 1, peers, sync)));
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
            // Disk-backed seed: survives process restarts below.
            fs.preload(REPLICA_CRASH_LIFN, content.clone());
            fs
        }
    };
    for (i, ep) in fs_eps.iter().enumerate() {
        world.spawn(ep.host, ep.port, Box::new(make_fs(i)));
    }

    // Metadata writes land throughout the fault window.
    let uri = Uri::process(7);
    world.spawn(
        client,
        50,
        Box::new(ChaosWriter {
            rc: RcClient::new(rc_eps.clone(), SimDuration::from_millis(300)),
            uri: uri.clone(),
            interval: SimDuration::from_millis(300),
            writes_left: 12,
            next_val: 0,
        }),
    );

    // The striped read starts two seconds in, well inside the fault
    // window, and must survive replica crashes mid-transfer.
    let fetch_ep = Endpoint::new(client, 51);
    world.spawn(
        client,
        fetch_ep.port,
        Box::new(FetchActor::new(
            REPLICA_CRASH_LIFN,
            fs_eps.clone(),
            2048,
            SimDuration::from_secs(2),
        )),
    );

    // RC servers come back with a *fresh, empty* store; file servers
    // come back as fresh processes over surviving disk contents.
    let mut procs = fresh_rc_factories(&rc_eps, sync);
    for (i, &ep) in fs_eps.iter().enumerate() {
        let make_fs = make_fs.clone();
        procs.push((ep, Arc::new(move || Box::new(make_fs(i)) as Box<dyn Actor>)));
    }
    let mut cast = rc_hosts.clone();
    cast.extend(fs_hosts.iter().copied());
    let binding = ChaosBinding { hosts: cast, nets: vec![net], ifaces: vec![], procs };
    plan.apply(&mut world, &binding);

    let probe_at = plan.quiesce_at() + SimDuration::from_secs(4);
    let mut answers = Vec::new();
    for (i, ep) in rc_eps.iter().enumerate() {
        let out = Arc::new(Mutex::new(None));
        answers.push(out.clone());
        world.spawn(
            client,
            60 + i as u16,
            Box::new(ReplicaProbe {
                rc: RcClient::new(vec![*ep], SimDuration::from_millis(300)),
                uri: uri.clone(),
                at: probe_at,
                out,
                attempts: 0,
            }),
        );
    }

    let deadline = probe_at + RECOVERY_TAIL;
    loop {
        world.run_for(SimDuration::from_millis(500));
        let all_answered = answers.iter().all(|a| a.lock().unwrap().is_some());
        let fetch_done = world
            .actor_ref::<FetchActor>(fetch_ep)
            .map(|f| f.result.is_some() || f.failed)
            .unwrap_or(false);
        if (all_answered && fetch_done) || world.now() >= deadline {
            break;
        }
    }

    let replies: Vec<Option<Vec<Assertion>>> =
        answers.iter().map(|a| a.lock().unwrap().clone()).collect();
    let mut violations = oracles::check_replicas_converged("replica-crash", &replies);
    match world.actor_ref::<FetchActor>(fetch_ep) {
        Some(f) => {
            if f.result.as_ref() != Some(&content) {
                violations.push(format!(
                    "replica-crash: striped fetch wrong/incomplete (got {:?} bytes, failed={}, stats={:?})",
                    f.result.as_ref().map(Bytes::len),
                    f.failed,
                    f.stats
                ));
            }
            let mut sorted = f.completions.clone();
            sorted.sort_unstable();
            violations.extend(oracles::check_exactly_once_in_order(
                "replica-crash: stripe completion",
                REPLICA_CRASH_STRIPES,
                &sorted,
            ));
        }
        None => violations.push("replica-crash: fetch actor disappeared".into()),
    }
    violations.extend(oracles::check_engine_bounded(
        "replica-crash",
        &world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// W4: majority-routed multicast (E6 shape) under duplication/reorder
// ---------------------------------------------------------------------------

struct ChaosMcastMember {
    dedup: McastMember,
    delivered: Arc<Mutex<u32>>,
}

impl Actor for ChaosMcastMember {
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
            }
        }
    }
}

struct ChaosMcastSender {
    routers: Vec<Endpoint>,
    total: u32,
    seq: u64,
    interval: SimDuration,
}

impl Actor for ChaosMcastSender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            // HostUp: a flap swallows the pacing timer; restart it.
            Event::Start | Event::Timer { .. } | Event::HostUp => {
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

struct ChaosMcastRouter {
    state: McastRouter,
}

impl Actor for ChaosMcastRouter {
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

fn run_mcast(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    let routers = 5usize;
    let members = 3usize;
    // 2s of stream against the 3s fault horizon.
    let total = 400u32;
    // Multicast relays are fire-and-forget: of the net-level ops only
    // gray degradation (no loss) is within the §5.4 contract. Host
    // flaps are kept too — the binding exposes only the source host,
    // whose paced stream must survive a flap. The plan is
    // deterministically narrowed before applying.
    let mut plan = plan.clone();
    plan.ops.retain(|o| matches!(o, ChaosOp::Gray { .. } | ChaosOp::HostFlap { .. }));

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
    let mut world = World::new(topo, wseed);
    let router_eps: Vec<Endpoint> = router_hosts.iter().map(|&h| Endpoint::new(h, 5)).collect();
    let member_eps: Vec<Endpoint> = member_hosts.iter().map(|&h| Endpoint::new(h, 20)).collect();
    for (i, &h) in router_hosts.iter().enumerate() {
        let mut state = McastRouter::new();
        let mut scratch = Vec::new();
        for (j, &peer) in router_eps.iter().enumerate() {
            if i != j {
                state.on_message(McastMsg::Peer { group: 1, router: peer }, &mut scratch);
            }
        }
        for (mi, &member) in member_eps.iter().enumerate() {
            let m = majority(routers);
            let covers = (0..m).map(|k| (mi + k) % routers).any(|idx| idx == i);
            if covers {
                state.on_message(McastMsg::Join { group: 1, member }, &mut scratch);
            }
        }
        world.spawn(h, 5, Box::new(ChaosMcastRouter { state }));
    }
    let mut delivered = Vec::new();
    for &h in &member_hosts {
        let d = Arc::new(Mutex::new(0u32));
        delivered.push(d.clone());
        world.spawn(h, 20, Box::new(ChaosMcastMember { dedup: McastMember::new(), delivered: d }));
    }
    world.spawn(
        sender_host,
        20,
        Box::new(ChaosMcastSender {
            routers: router_eps,
            total,
            seq: 0,
            interval: SimDuration::from_millis(5),
        }),
    );
    plan.apply(
        &mut world,
        &ChaosBinding { hosts: vec![sender_host], nets: vec![net], ..ChaosBinding::default() },
    );

    let stream_end = SimTime::ZERO + SimDuration::from_millis(5) * (total as u64 + 2);
    let deadline = plan.quiesce_at().max(stream_end) + RECOVERY_TAIL;
    loop {
        world.run_for(SimDuration::from_millis(500));
        let all = delivered.iter().all(|d| *d.lock().unwrap() >= total);
        if all || world.now() >= deadline {
            break;
        }
    }

    let mut violations = Vec::new();
    for (i, d) in delivered.iter().enumerate() {
        let got = *d.lock().unwrap();
        if got != total {
            violations
                .push(format!("mcast: member {i} delivered {got} of {total} distinct messages"));
        }
    }
    violations.extend(oracles::check_engine_bounded(
        "mcast",
        &world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
    ));
    violations
}

// ---------------------------------------------------------------------------
// Soak driver, shrinking and the planted-bug drill
// ---------------------------------------------------------------------------

/// Flight-recorder ring capacity for chaos runs: big enough to hold
/// the last fault window's worth of events, small enough to stay cheap
/// (one reserve per run).
pub const TRACE_RING: usize = 8192;

/// How many trailing events a violation dump shows.
pub const TRACE_DUMP_EVENTS: usize = 40;

/// Outcome of one `(workload, plan, workload-seed)` chaos run.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the plan was generated from.
    pub plan_seed: u64,
    /// Seed driving the workload's own randomness.
    pub workload_seed: u64,
    /// How many fault ops the plan scheduled.
    pub ops: usize,
    /// Whether per-packet chaos was active.
    pub packet: bool,
    /// Oracle violations (empty = green).
    pub violations: Vec<String>,
    /// One-line replay recipe.
    pub replay: String,
    /// Flight-recorder dump of the run's last events — populated only
    /// when an oracle was violated (the diagnosis trail).
    pub trace_dump: Option<String>,
    /// Per-kind flight-recorder event totals for the whole run,
    /// rendered as a metrics-registry JSON object.
    pub metrics_json: String,
    /// Raw per-kind event totals (indexed by `TraceKind::tag()`), kept
    /// alongside the rendered JSON so the harness can aggregate across
    /// a soak without re-parsing.
    pub kind_counts: [u64; TraceKind::COUNT],
    /// Events overwritten by ring wrap-around during the run.
    pub ring_dropped: u64,
}

/// Render per-kind event totals as a metrics-registry JSON object.
fn trace_metrics_json(
    kind_counts: &[u64; TraceKind::COUNT],
    ring_dropped: u64,
    indent: usize,
) -> String {
    let mut metrics = Registry::new();
    for (i, n) in TraceKind::NAMES.iter().enumerate() {
        let name = format!("trace.{n}");
        let id = metrics.counter(&name);
        metrics.set_counter(id, kind_counts[i]);
    }
    let id = metrics.counter("trace.ring_dropped");
    metrics.set_counter(id, ring_dropped);
    metrics.render_json(indent)
}

/// Sum the per-run flight-recorder totals over a whole soak and render
/// them as one metrics-registry snapshot (for `results/chaos.json`).
pub fn aggregate_metrics_json(runs: &[ChaosRun], indent: usize) -> String {
    let mut counts = [0u64; TraceKind::COUNT];
    let mut dropped = 0u64;
    for r in runs {
        for (acc, c) in counts.iter_mut().zip(&r.kind_counts) {
            *acc += c;
        }
        dropped += r.ring_dropped;
    }
    trace_metrics_json(&counts, dropped, indent)
}

/// Derive the `(plan_seed, workload_seed)` pair for soak index `i`.
/// Fixed derivation — the soak is fully reproducible from the index.
pub fn soak_seeds(i: u64) -> (u64, u64) {
    (0xC0FF_EE00 + i, 0x5EED + i)
}

/// Run one seeded plan against one workload, with the flight recorder
/// armed for the whole run. The recorder is thread-local, so parallel
/// soak runs each get their own ring; on an oracle violation the run
/// carries a readable dump of the last [`TRACE_DUMP_EVENTS`] events.
pub fn run_one(w: Workload, plan_seed: u64, workload_seed: u64) -> ChaosRun {
    run_traced(w, plan_seed, workload_seed, false)
}

/// [`run_one`], but the trace dump covers the full ring regardless of
/// verdict — the `harness trace <plan-seed> <workload-seed>` replay
/// path for post-mortems on green-looking seeds.
pub fn trace_one(w: Workload, plan_seed: u64, workload_seed: u64) -> ChaosRun {
    run_traced(w, plan_seed, workload_seed, true)
}

fn run_traced(w: Workload, plan_seed: u64, workload_seed: u64, dump_always: bool) -> ChaosRun {
    let plan = ChaosPlan::generate(plan_seed, &w.shape());
    trace::enable(TRACE_RING);
    let violations = w.run(&plan, workload_seed);
    let trace_dump = if dump_always {
        Some(trace::render_last(TRACE_RING))
    } else if violations.is_empty() {
        None
    } else {
        Some(trace::render_last(TRACE_DUMP_EVENTS))
    };
    let kind_counts = trace::kind_counts();
    let ring_dropped = trace::trace_dropped();
    trace::disable();
    ChaosRun {
        workload: w.name(),
        plan_seed,
        workload_seed,
        ops: plan.ops.len(),
        packet: plan.packet.is_some(),
        violations,
        replay: plan.replay_line(w.name(), workload_seed),
        trace_dump,
        metrics_json: trace_metrics_json(&kind_counts, ring_dropped, 6),
        kind_counts,
        ring_dropped,
    }
}

/// Fan `seeds_per_workload` plans over every workload in parallel.
pub fn soak(seeds_per_workload: u64) -> Vec<ChaosRun> {
    let mut jobs = Vec::new();
    for w in ALL_WORKLOADS {
        for i in 0..seeds_per_workload {
            let (ps, ws) = soak_seeds(i);
            jobs.push((w, ps, ws));
        }
    }
    par_map(jobs, |&(w, ps, ws)| run_one(w, ps, ws))
}

/// Shrink a violating plan to a minimal one that still fails.
pub fn shrink_violation(w: Workload, plan: &ChaosPlan, workload_seed: u64) -> ChaosPlan {
    shrink_plan(plan.clone(), |cand| !w.run(cand, workload_seed).is_empty())
}

/// Outcome of the planted-bug drill.
#[derive(Clone, Debug)]
pub struct PlantedBugReport {
    /// Did any oracle catch the bug?
    pub caught: bool,
    /// The seed pair that exposed it.
    pub plan_seed: u64,
    /// See `plan_seed`.
    pub workload_seed: u64,
    /// First violation the oracles reported.
    pub first_violation: String,
    /// Minimal plan that still exposes the bug.
    pub shrunk: Option<ChaosPlan>,
    /// Replay recipe for the shrunk plan.
    pub replay: String,
    /// Flight-recorder dump of the shrunk plan's violating replay.
    pub trace_dump: Option<String>,
}

/// The planted-bug drill: disable the migration packet freeze (the
/// `chaos_disable_migration_freeze` knob) and verify the exactly-once
/// oracle catches the resulting in-flight loss, then shrink the plan.
/// A healthy oracle stack returns `caught: true` — this is a test *of
/// the chaos engine*, not of the product code.
pub fn planted_bug_drill(max_seeds: u64) -> PlantedBugReport {
    let shape = Workload::Migration.shape();
    for i in 0..max_seeds {
        let (plan_seed, workload_seed) = soak_seeds(i);
        let plan = ChaosPlan::generate(plan_seed, &shape);
        let violations = run_migration(&plan, workload_seed, true);
        if violations.is_empty() {
            continue;
        }
        let shrunk = shrink_plan(plan, |cand| !run_migration(cand, workload_seed, true).is_empty());
        let replay = format!(
            "{} disable_freeze=true shrunk_ops={} shrunk_packet={:?}",
            shrunk.replay_line("migration", workload_seed),
            shrunk.ops.len(),
            shrunk.packet
        );
        // Replay the minimal plan with the flight recorder armed: the
        // drill's report carries the trace that pins the loss to the
        // cutover window, same as any organic violation would.
        trace::enable(TRACE_RING);
        let _ = run_migration(&shrunk, workload_seed, true);
        let trace_dump = trace::render_last(TRACE_DUMP_EVENTS);
        trace::disable();
        return PlantedBugReport {
            caught: true,
            plan_seed,
            workload_seed,
            first_violation: violations[0].clone(),
            shrunk: Some(shrunk),
            replay,
            trace_dump: Some(trace_dump),
        };
    }
    PlantedBugReport {
        caught: false,
        plan_seed: 0,
        workload_seed: 0,
        first_violation: String::new(),
        shrunk: None,
        replay: String::new(),
        trace_dump: None,
    }
}

/// Violating `(workload, plan_seed, workload_seed)` triples found during
/// development, pinned forever: each must stay green now that the
/// underlying behavior is specified. (Plans regenerate from the seed, so
/// a pinned triple is a complete regression test.)
pub const REGRESSION_CORPUS: &[(Workload, u64, u64)] = &[
    (Workload::SrudpTransfer, 0xC0FF_EE00, 0x5EED),
    (Workload::SrudpTransfer, 0xC0FF_EE07, 0x5EED + 7),
    // These three wedged permanently before the SRUDP drivers learned to
    // re-arm their timer gates on `Event::HostUp` (a host flap swallows
    // any timer queued while the host is down). Shrunk repro: a single
    // flap of the sender host mid-transfer.
    (Workload::SrudpTransfer, 0xC0FF_EE01, 0x5EED + 1),
    (Workload::SrudpTransfer, 0xC0FF_EE0A, 0x5EED + 10),
    (Workload::SrudpTransfer, 0xC0FF_EE0D, 0x5EED + 13),
    (Workload::RstreamTransfer, 0xC0FF_EE00, 0x5EED),
    // These wedged in the RTO death crawl: a receiver-side flap loses a
    // whole window, and without NewReno partial-ACK recovery the stream
    // refills the hole at one segment per fully-escalated RTO (~4s per
    // 1400 bytes). Also covers the driver's HostUp timer re-arm and SYN
    // retransmission (a connect whose SYN is lost used to wedge forever).
    (Workload::RstreamTransfer, 0xC0FF_EE02, 0x5EED + 2),
    (Workload::RstreamTransfer, 0xC0FF_EE04, 0x5EED + 4),
    (Workload::RstreamTransfer, 0xC0FF_EE07, 0x5EED + 7),
    (Workload::Migration, 0xC0FF_EE00, 0x5EED),
    (Workload::Migration, 0xC0FF_EE03, 0x5EED + 3),
    (Workload::RcdsConverge, 0xC0FF_EE00, 0x5EED),
    (Workload::RcdsConverge, 0xC0FF_EE05, 0x5EED + 5),
    (Workload::Mcast, 0xC0FF_EE00, 0x5EED),
    // Both plans flap the multicast source host mid-stream: without the
    // `Event::HostUp` re-arm the pacing timer is swallowed and the
    // stream never resumes.
    (Workload::Mcast, 0xC0FF_EE01, 0x5EED + 1),
    (Workload::Mcast, 0xC0FF_EE06, 0x5EED + 6),
    // FEC share-spray under loss bursts / gray links / partitions plus
    // hot per-packet corruption: pins the reconstruct-then-verify
    // delivery gate (no mismatch ever delivered) and the reassembly
    // boundedness contract (no in-contract peer evicted).
    (Workload::FecSpray, 0xC0FF_EE00, 0x5EED),
    (Workload::FecSpray, 0xC0FF_EE02, 0x5EED + 2),
    (Workload::FecSpray, 0xC0FF_EE04, 0x5EED + 4),
    // Replica-crash: host flaps plus process restarts over both the RC
    // replica group and the file replica set while a striped read is
    // in flight. The six-op plan at index 6 restarts servers back to
    // back mid-transfer; stripe re-dispatch plus RC anti-entropy must
    // still deliver convergence, byte-exact content and exactly-once
    // stripe completion.
    (Workload::ReplicaCrash, 0xC0FF_EE00, 0x5EED),
    (Workload::ReplicaCrash, 0xC0FF_EE06, 0x5EED + 6),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_corpus_stays_green() {
        for &(w, ps, ws) in REGRESSION_CORPUS {
            let run = run_one(w, ps, ws);
            assert!(
                run.violations.is_empty(),
                "{} plan_seed={ps} wseed={ws}: {:?}",
                w.name(),
                run.violations
            );
        }
    }

    #[test]
    fn planted_migration_bug_is_caught_and_shrunk() {
        let report = planted_bug_drill(8);
        assert!(report.caught, "oracles failed to catch the disabled migration freeze");
        let shrunk = report.shrunk.expect("caught implies shrunk");
        // The minimizer must have reached a fixpoint: every remaining
        // op is load-bearing (removing any makes the run pass).
        for i in 0..shrunk.ops.len() {
            let mut cand = shrunk.clone();
            cand.ops.remove(i);
            assert!(
                run_migration(&cand, report.workload_seed, true).is_empty(),
                "op {i} of the shrunk plan is not load-bearing"
            );
        }
    }
}
