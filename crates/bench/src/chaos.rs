//! C1 — the chaos soak: adversarial fault plans vs invariant oracles.
//!
//! A workload is data: a row of [`WORKLOADS`] names a [`ChaosShape`]
//! (the fault envelope its contract tolerates), a *stage* and a *body*.
//! The body is the experiment — it spawns the real actors of one of the
//! paper's shapes (one transfer body, a `fig1::Transfer`, for the
//! E7-style failover transfer, the Fig. 1 stream and the FEC spray; E5
//! migration, E3-style replicated metadata, E6 multicast, a striped
//! read under replica crashes, the full protocol stack) onto the world
//! it is handed, binds the seeded [`ChaosPlan`] to its cast, drives to
//! done-or-deadline and judges with [`crate::oracles`]. The
//! stage is the placement — it builds that world and says who plays
//! where: a bespoke one-region LAN, or the multi-region campus with the
//! cast spread over regions (`…@campus` rows) so every exchange crosses
//! the engine's region mailbox.
//!
//! [`run_one`] runs a row with the flight recorder armed; when the
//! world it ran on turned out to have more than one region it re-runs
//! the plan at a second thread count and demands the same digest. A
//! failing `(plan_seed, workload_seed)` pair replays bit-for-bit, is
//! greedily shrunk to a minimal plan that fails the same way (one
//! routine for the soak and the drill), and gets pinned in
//! [`REGRESSION_CORPUS`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use snipe_core::api::TicketResult;
use snipe_core::{
    ProcessActor, SnipeApi, SnipeProcess, SnipeWorld, SnipeWorldBuilder, SpawnTarget,
};
use snipe_files::{FetchActor, FileServerActor, FileServerConfig};
use snipe_netsim::actor::Actor;
use snipe_netsim::chaos::{shrink_plan, ChaosBinding, ChaosOp, ChaosPlan, ChaosShape};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ActorFactory;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, TraceKind};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::uri::Uri;
use snipe_util::id::{HostId, NetId};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::fec::{msg_checksum, FragStrategy};
use snipe_wire::ports;
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::stack::StackConfig;

use crate::e6_multicast::{self, MemberActor};
use crate::fig1::{hosted, Flow, Receiver, Transfer};
use crate::shard_storm::cluster_topology;
use crate::{drive, e5_migration, lan, oracles, par_map, rc_group, RcLoad};

/// How long a transfer may sit with zero progress while a physical path
/// exists before the liveness watchdog declares a violation.
const STALL_LIMIT: SimDuration = SimDuration::from_secs(10);

/// Extra virtual time granted after the last fault quiesces for
/// recovery (covers full RTO escalation to `rto_max` plus anti-entropy).
const RECOVERY_TAIL: SimDuration = SimDuration::from_secs(30);

/// Per-region bounds for [`oracles::check_bounded`]: residual events
/// after quiesce (steady-state timers only), peak depth during the run
/// and mailbox items routed into one region in one round. The peak is
/// the tighter of the two parent soaks' bounds (LAN 250 000, campus
/// 100 000 per region); no row needs more at `harness chaos 16`.
const MAX_RESIDUAL_EVENTS: usize = 512;
const MAX_PEAK_DEPTH: u64 = 100_000;
const MAX_MAILBOX_BURST: u64 = 10_000;

/// Worker threads of every primary run, and of the differential re-run
/// a multi-region run gets (the digests must match).
const SOAK_THREADS: usize = 4;
const DIFF_THREADS: usize = 1;

/// Hosts of the campus the `@campus` rows of the bare-engine bodies run
/// on (16 regions of 64).
const CAMPUS_HOSTS: usize = 1000;

const fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

const fn ms(m: u64) -> SimDuration {
    SimDuration::from_millis(m)
}

// ---------------------------------------------------------------------------
// Stages: the world a body runs on and who plays where
// ---------------------------------------------------------------------------

/// What a stage hands a body. Everything that differs between two
/// placements of one body is a value here, never a branch there.
struct Stage<W> {
    world: W,
    /// The cast's hosts, in the order the body documents.
    cast: Vec<HostId>,
    /// Networks the plan's net-level faults rotate over.
    nets: Vec<NetId>,
    /// Ranked routes the multi-path bodies pin (`None`: single-homed
    /// cast, the engine routes).
    pin: Option<Vec<NetId>>,
    /// How much the body pushes through this placement — bytes for the
    /// transfers, messages for the spray — sized so the run spans the
    /// shape's fault horizon at this placement's bandwidth and latency.
    work: usize,
    /// Payload bytes the sender keeps in flight.
    window: usize,
}

/// The simulator under a stage's world.
trait Arena {
    fn sim(&mut self) -> &mut World;
}

impl Arena for World {
    fn sim(&mut self) -> &mut World {
        self
    }
}

impl Arena for SnipeWorld {
    fn sim(&mut self) -> &mut World {
        SnipeWorld::sim(self)
    }
}

impl<W: Arena> Stage<W> {
    /// The cast on `world`, net faults rotating over every network of
    /// it; no pin, no work.
    fn new((mut world, cast): (W, Vec<HostId>)) -> Stage<W> {
        let nets = (0..world.sim().topology().net_count() as u32).map(NetId).collect();
        Stage { world, cast, nets, pin: None, work: 0, window: 0 }
    }

    /// Bind the plan's abstract targets to this placement and schedule
    /// it: `flappable` cast members may crash (and their interfaces
    /// flap), net-level faults rotate over the stage's networks, `procs`
    /// may be crashed and respawned. The shape decides which of these
    /// classes the plan actually contains.
    fn bind(
        &mut self,
        plan: &ChaosPlan,
        flappable: &[HostId],
        procs: Vec<(Endpoint, ActorFactory)>,
    ) {
        let world = self.world.sim();
        let ifaces = {
            let topo = world.topology();
            let of = |h: HostId| topo.host(h).interfaces.iter().map(move |i| (h, i.net));
            flappable.iter().flat_map(|&h| of(h)).collect()
        };
        let binding =
            ChaosBinding { hosts: flappable.to_vec(), nets: self.nets.clone(), ifaces, procs };
        plan.apply(world, &binding);
    }
}

/// The [`CAMPUS_HOSTS`]-host campus over its natural partition, the
/// cast at the given host ids (64 per cluster, so `h / 64` is a host's
/// region). Net faults rotate over the first six cluster LANs.
fn campus(wseed: u64, threads: usize, cast: &[u32]) -> Stage<World> {
    let world = World::sharded(cluster_topology(CAMPUS_HOSTS), wseed, threads);
    let cast = cast.iter().map(|&h| HostId(h)).collect();
    Stage { nets: (0..6).map(NetId).collect(), ..Stage::new((world, cast)) }
}

/// A full SNIPE runtime with the cast at the named hosts; net faults
/// rotate over every network of the world.
fn snipe(mut world: SnipeWorld, cast: &[&str]) -> Stage<SnipeWorld> {
    let cast = {
        let topo = world.sim().topology();
        let host = |n: &&str| topo.host_by_name(n).expect("cast host exists in the stage's world");
        cast.iter().map(host).collect()
    };
    Stage::new((world, cast))
}

/// The full-protocol cast: publisher, three subscribers, and the host
/// the publisher's daemon-spawned child lands on — five regions.
const FP_CAST: [&str; 5] = ["c0h1", "c3h1", "c4h1", "c5h1", "c4h2"];

/// The full-protocol campus: six clusters (regions) of eight hosts.
fn fp_campus(wseed: u64) -> SnipeWorldBuilder {
    SnipeWorldBuilder::campus(6, 8, wseed)
}

// ---------------------------------------------------------------------------
// The workload table
// ---------------------------------------------------------------------------

type Body<W> = fn(&mut Stage<W>, &ChaosPlan, &str) -> Vec<String>;

/// A stage paired with a body over the same kind of world.
enum Play {
    /// Bare engine world: the body spawns raw actors.
    Net(fn(u64, usize) -> Stage<World>, Body<World>),
    /// Full SNIPE runtime: the body spawns SNIPE processes.
    Snipe(fn(u64, usize) -> Stage<SnipeWorld>, Body<SnipeWorld>),
}

/// One chaos workload: a body staged somewhere, under a fault envelope.
pub struct Workload {
    /// Stable name used in replay lines and reports; `@campus` marks a
    /// multi-region placement of the body the bare name runs on a LAN.
    pub name: &'static str,
    shape: fn() -> ChaosShape,
    play: Play,
}

/// Every workload, in soak order: the LAN placements first, then the
/// campus ones. Each campus row is also the check of an engine
/// contract: cross-region mailbox routing and fault dispatch to the
/// owning region (all of them), per-region bounds (all of them),
/// interface flaps of hosts in two regions (`srudp-transfer@campus`,
/// `rstream-transfer@campus`, `fec-spray@campus`), six flapping LANs
/// and host flaps in three regions at once (`rcds-converge@campus`),
/// fan-out over nine regions (`mcast@campus`), spawn inside a region
/// while a peer streams in from another (`migration@campus`), restart
/// inside a region (`rcds-converge@campus`, `replica-crash@campus`).
pub static WORKLOADS: [Workload; 15] = [
    // E7-shape: dual-homed SRUDP bulk transfer with route pinning. 64
    // MiB is ~3.4 s at ATM rate against the 5 s horizon, so faults land
    // mid-flight, not on an idle world.
    Workload {
        name: "srudp-transfer",
        shape: || ChaosShape {
            horizon: secs(5),
            hosts: 2,
            nets: 2,
            ifaces: 4,
            jitter_max: ms(20),
            ..ChaosShape::default()
        },
        play: Play::Net(
            |s, _| Stage {
                pin: Some(vec![NetId(1), NetId(0)]),
                work: 64 << 20,
                window: 64 * 1400,
                ..Stage::new(lan(s, &[Medium::ethernet100(), Medium::atm155()], 2))
            },
            srudp_transfer,
        ),
    },
    // Fig.1-shape: RSTREAM bulk transfer on a single network (RSTREAM
    // does not fail over routes); host and interface flaps plus packet
    // chaos are in contract — the stream must resume once connectivity
    // heals. 32 MiB is ~2.7 s at Ethernet rate.
    Workload {
        name: "rstream-transfer",
        shape: || ChaosShape {
            horizon: secs(5),
            hosts: 2,
            ifaces: 2,
            jitter_max: ms(20),
            ..ChaosShape::default()
        },
        play: Play::Net(
            |s, _| Stage {
                work: 32 << 20,
                window: 64 * 1400,
                ..Stage::new(lan(s, &[Medium::ethernet100()], 2))
            },
            rstream_transfer,
        ),
    },
    // E5-shape: process migration under a message stream. No host
    // crashes: SNIPE processes exit when their host does (the paper's
    // contract), which would kill the cast.
    Workload {
        name: "migration",
        shape: || ChaosShape {
            horizon: secs(4),
            max_ops: 4,
            corrupt_max: 0.02,
            jitter_max: ms(10),
            ..ChaosShape::default()
        },
        play: Play::Snipe(
            |s, _| snipe(SnipeWorldBuilder::lan(4, s).build(), &["host1", "host3", "host2"]),
            migration,
        ),
    },
    // E3-shape: replicated metadata with crash/restart servers.
    Workload {
        name: "rcds-converge",
        shape: || ChaosShape { horizon: secs(8), hosts: 3, procs: 3, ..ChaosShape::default() },
        play: Play::Net(|s, _| Stage::new(lan(s, &[Medium::ethernet100()], 4)), rcds_converge),
    },
    // E6-shape: majority-routed multicast. Routers relay unreliably:
    // only duplication, reordering and gray degradation are within
    // contract (corruption/loss of every redundant copy may drop a
    // message, which §5.4 does not promise to survive). The one host
    // eligible for flapping is the *source* — it must resume its paced
    // stream after recovery.
    Workload {
        name: "mcast",
        shape: || ChaosShape {
            horizon: secs(3),
            hosts: 1,
            max_ops: 4,
            packet_prob: 0.9,
            corrupt_max: 0.0,
            duplicate_max: 0.3,
            reorder_max: 0.3,
            jitter_max: ms(15),
            ..ChaosShape::default()
        },
        play: Play::Net(|s, _| Stage::new(lan(s, &[Medium::ethernet100()], 9)), mcast),
    },
    // FEC-shape: 200 × 7000-byte messages, each split into 9 erasure
    // shares sprayed across two WAN paths. With ~2 messages pipelined
    // the stream is latency-bound (~7 s at a 72 ms RTT), so the plan's
    // loss bursts and gray links land on live traffic for the whole
    // horizon. No host crashes, but both networks may flap, gray out,
    // burst-lose and partition, and per-packet corruption, duplication
    // and reordering run hot: the envelope share-spraying is built for.
    Workload {
        name: "fec-spray",
        shape: || ChaosShape {
            horizon: secs(8),
            nets: 2,
            ifaces: 4,
            packet_prob: 0.9,
            duplicate_max: 0.15,
            reorder_max: 0.15,
            jitter_max: ms(20),
            ..ChaosShape::default()
        },
        play: Play::Net(
            |s, _| Stage {
                pin: Some(vec![NetId(0), NetId(1)]),
                work: 200,
                window: 26_000,
                ..Stage::new(lan(s, &[Medium::wan(), Medium::wan()], 2))
            },
            fec_spray,
        ),
    },
    // Both planes under fire: host flaps over every replica, process
    // crash/restart of RC servers (fresh empty store; anti-entropy
    // repopulates) and of file servers (fresh process, disk contents
    // survive), while a client writes metadata and another stripes a
    // read across the replicas.
    Workload {
        name: "replica-crash",
        shape: || ChaosShape { horizon: secs(8), hosts: 6, procs: 6, ..ChaosShape::default() },
        play: Play::Net(|s, _| Stage::new(lan(s, &[Medium::ethernet100()], 7)), replica_crash),
    },
    // The campus placements. The transfers are stop-and-wait per
    // message across two cluster LANs (~1 ms round trip), so they are
    // latency-bound and span most of their horizon.
    Workload {
        name: "srudp-transfer@campus",
        shape: || ChaosShape {
            horizon: secs(2),
            hosts: 2,
            nets: 4,
            ifaces: 2,
            jitter_max: ms(20),
            ..ChaosShape::default()
        },
        play: Play::Net(
            |s, t| Stage { work: 12 << 20, window: 1, ..campus(s, t, &[3, 200]) },
            srudp_transfer,
        ),
    },
    Workload {
        name: "rstream-transfer@campus",
        shape: || ChaosShape {
            horizon: secs(2),
            hosts: 2,
            nets: 4,
            ifaces: 2,
            jitter_max: ms(20),
            ..ChaosShape::default()
        },
        play: Play::Net(
            |s, t| Stage { work: 16 << 20, window: 16 * 1024, ..campus(s, t, &[70, 400]) },
            rstream_transfer,
        ),
    },
    // Intra-region move (spawn is region-guarded) with the streamer in
    // another region; both of their LANs are in the fault set.
    Workload {
        name: "migration@campus",
        shape: || ChaosShape {
            horizon: secs(4),
            nets: 3,
            max_ops: 4,
            corrupt_max: 0.02,
            jitter_max: ms(10),
            ..ChaosShape::default()
        },
        play: Play::Snipe(
            |s, t| {
                let world = SnipeWorldBuilder::campus(4, 4, s).build_sharded(t);
                snipe(world, &["c2h1", "c2h2", "c0h1"])
            },
            migration,
        ),
    },
    // Three replicas in three regions, the client in a fourth.
    Workload {
        name: "rcds-converge@campus",
        shape: || ChaosShape {
            horizon: secs(5),
            hosts: 3,
            nets: 6,
            ifaces: 3,
            procs: 3,
            ..ChaosShape::default()
        },
        play: Play::Net(|s, t| campus(s, t, &[10, 74, 138, 222]), rcds_converge),
    },
    // Five routers, three members and the source in nine regions.
    Workload {
        name: "mcast@campus",
        shape: || ChaosShape {
            horizon: secs(3),
            hosts: 1,
            nets: 2,
            max_ops: 4,
            packet_prob: 0.9,
            corrupt_max: 0.0,
            duplicate_max: 0.3,
            reorder_max: 0.3,
            jitter_max: ms(15),
            ..ChaosShape::default()
        },
        play: Play::Net(|s, t| campus(s, t, &[64, 128, 192, 256, 320, 384, 448, 512, 0]), mcast),
    },
    // The real `FragStrategy::Fec` driver between two regions: endpoint
    // and interface flaps, net faults and hot packet chaos — including
    // corruption — are all in contract.
    Workload {
        name: "fec-spray@campus",
        shape: || ChaosShape {
            horizon: secs(2),
            hosts: 2,
            nets: 4,
            ifaces: 2,
            duplicate_max: 0.15,
            reorder_max: 0.15,
            jitter_max: ms(20),
            ..ChaosShape::default()
        },
        play: Play::Net(
            |s, t| Stage { work: 1500, window: 0, ..campus(s, t, &[10, 300]) },
            fec_spray,
        ),
    },
    // The full SNIPE stack (daemons, RCDS, files, RM) on a 48-host
    // campus. Only net partitions and per-packet chaos are in envelope
    // (host flaps would kill the cast, see `migration`).
    Workload {
        name: "full-protocol",
        shape: || ChaosShape {
            horizon: secs(4),
            nets: 3,
            max_ops: 4,
            corrupt_max: 0.02,
            jitter_max: ms(10),
            ..ChaosShape::default()
        },
        play: Play::Snipe(|s, t| snipe(fp_campus(s).build_sharded(t), &FP_CAST), full_protocol),
    },
    // Process crash/restart of three RC and three file servers spread
    // over three regions, net partitions and packet chaos; every RC
    // sync, stripe request and anti-entropy push crosses regions.
    Workload {
        name: "replica-crash@campus",
        shape: || ChaosShape {
            horizon: secs(4),
            nets: 3,
            procs: 6,
            max_ops: 4,
            corrupt_max: 0.02,
            jitter_max: ms(10),
            ..ChaosShape::default()
        },
        play: Play::Net(|s, t| campus(s, t, &[10, 74, 138, 20, 84, 148, 30]), replica_crash),
    },
];

impl Workload {
    /// Inverse of [`Workload::name`] — resolves the workload named in a
    /// replay line or a corpus entry.
    pub fn from_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The fault envelope this workload's contract tolerates.
    pub fn shape(&self) -> ChaosShape {
        (self.shape)()
    }

    /// Stage the placement at `threads` workers, play the body under
    /// `plan` and judge per-region boundedness; `inspect` reads what it
    /// needs off the finished world.
    fn play<R>(
        &self,
        plan: &ChaosPlan,
        wseed: u64,
        threads: usize,
        inspect: impl FnOnce(&mut World, Vec<String>) -> R,
    ) -> R {
        match self.play {
            Play::Net(stage, body) => judge(self.name, stage(wseed, threads), body, plan, inspect),
            Play::Snipe(stage, body) => {
                judge(self.name, stage(wseed, threads), body, plan, inspect)
            }
        }
    }

    /// Run the workload under `plan` at `threads` workers; returns the
    /// oracle violations (empty = every oracle held) and the world
    /// digest.
    pub fn run(&self, plan: &ChaosPlan, wseed: u64, threads: usize) -> (Vec<String>, u64) {
        self.play(plan, wseed, threads, |world, violations| (violations, world.digest()))
    }
}

fn judge<W: Arena, R>(
    label: &str,
    mut stage: Stage<W>,
    body: Body<W>,
    plan: &ChaosPlan,
    inspect: impl FnOnce(&mut World, Vec<String>) -> R,
) -> R {
    // A world already recording into this thread's flight recorder (it
    // runs inline) keeps that sink; a threaded one gets per-region rings.
    if trace::enabled() {
        stage.world.sim().enable_trace(TRACE_RING);
    }
    let mut violations = body(&mut stage, plan, label);
    let world = stage.world.sim();
    violations.extend(oracles::check_bounded(
        label,
        world,
        MAX_RESIDUAL_EVENTS,
        MAX_PEAK_DEPTH,
        MAX_MAILBOX_BURST,
    ));
    inspect(world, violations)
}

// ---------------------------------------------------------------------------
// Bodies: point-to-point transfers (cast: sender, receiver)
// ---------------------------------------------------------------------------

/// The one transfer body: a [`Transfer`] of `flow` from the first cast
/// member to the second, sized and pinned by the stage, under a
/// virtual-time liveness watchdog: stalling while a physical path
/// exists is a violation even before the completion deadline (quiesce
/// plus the recovery tail). Overshooting `work` is one too.
fn transfer(
    st: &mut Stage<World>,
    plan: &ChaosPlan,
    label: &str,
    flow: Flow,
    msg_size: usize,
) -> (Vec<String>, Endpoint) {
    let (a, b, total, unit) = (st.cast[0], st.cast[1], st.work, flow.unit());
    let t = Transfer { flow, pin: st.pin.clone(), msg_size, work: total, window: st.window };
    let rx = t.spawn(&mut st.world, a, b);
    st.bind(plan, &[a, b], Vec::new());
    let world = &mut st.world;
    let progress = |w: &World| hosted::<Receiver>(w, rx).app.received;
    let mut violations = Vec::new();
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let step = ms(250);
    let (mut last, mut stall) = (0, SimDuration::from_nanos(0));
    loop {
        world.run_for(step);
        let got = progress(world);
        if got >= total {
            break;
        }
        if got > last {
            last = got;
            stall = SimDuration::from_nanos(0);
        } else if world.topology().reachable(a, b) {
            stall += step;
            if stall >= STALL_LIMIT {
                violations.push(format!(
                    "{label}: no progress for {:.1}s of virtual time with a live path \
                     ({last} of {total} {unit})",
                    stall.as_secs_f64()
                ));
                break;
            }
        }
        if world.now() >= deadline {
            violations.push(format!(
                "{label}: transfer incomplete at quiesce+{}s ({got} of {total} {unit})",
                RECOVERY_TAIL.as_secs_f64()
            ));
            break;
        }
    }
    let got = progress(world);
    if got > total {
        violations.push(format!(
            "{label}: exactly-once violated — {got} {unit} delivered for {total} sent"
        ));
    }
    (violations, rx)
}

fn srudp_transfer(st: &mut Stage<World>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let mut cfg = StackConfig::default();
    cfg.srudp.rto_initial = ms(20);
    transfer(st, plan, label, Flow::Srudp(cfg), 16 * 1024).0
}

/// Faults may sever connectivity for most of the horizon; the widened
/// abort budget lets the stream outlive them and resume.
fn rstream_transfer(st: &mut Stage<World>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let cfg = RstreamConfig { max_timeouts: 100, ..RstreamConfig::default() };
    transfer(st, plan, label, Flow::Rstream(cfg), 16 * 1024).0
}

/// The contract: exactly-once in-order delivery, every delivered
/// message byte-exact (reconstruct-then-verify gate), no in-contract
/// peer evicted from partial-reassembly state.
fn fec_spray(st: &mut Stage<World>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let mut cfg = StackConfig::default();
    cfg.srudp.frag_strategy = FragStrategy::Fec;
    let (mut violations, rx) = transfer(st, plan, label, Flow::Patterned(cfg), 7000);
    let (count, rx) = (st.work, hosted::<Receiver>(&st.world, rx));
    let (seqs, stats) = (&rx.app.seqs, rx.srudp_stats());
    let done = seqs.len() >= count;
    if done {
        violations.extend(oracles::check_exactly_once_in_order(label, count as u32, seqs));
    }
    violations.extend(oracles::check_fec_integrity(label, &rx.app.mismatches, &stats, done));
    // REASM_TTL (60s) exceeds the whole watchdog window, so an
    // in-contract sender must never be swept from reassembly state.
    violations.extend(oracles::check_reasm_bounded(label, &stats, 0));
    violations
}

// ---------------------------------------------------------------------------
// Body: migration under load (cast: worker's host, its destination,
// the streamer's host) — and the planted-bug drill
// ---------------------------------------------------------------------------

/// 2.8 s of stream against the 4 s fault horizon: the move at 300 ms
/// and most fault ops land while messages are in flight. The drill
/// plants its bug on the stage (`chaos_disable_migration_freeze`)
/// before handing it over.
fn migration(st: &mut Stage<SnipeWorld>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let total: u32 = 700;
    let interval = ms(4);
    let name = |h: HostId| st.world.sim_ref().topology().host(h).name.clone();
    let (from, target, streamer) = (name(st.cast[0]), name(st.cast[1]), name(st.cast[2]));
    let log =
        e5_migration::stage(&mut st.world, [&from, &target, &streamer], ms(300), total, interval);
    st.bind(plan, &[], Vec::new());

    let stream_end = SimTime::ZERO + interval * (total as u64 + 2);
    let deadline = plan.quiesce_at().max(stream_end) + RECOVERY_TAIL;
    drive(st.world.sim(), ms(500), deadline, |_| {
        let log = log.lock().unwrap();
        log.deliveries.len() as u32 >= total && log.migrated_at.is_some()
    });

    let log = log.lock().unwrap();
    let seqs: Vec<u32> = log.deliveries.iter().map(|&(_, s)| s).collect();
    let mut violations = oracles::check_exactly_once_in_order(label, total, &seqs);
    if log.migrated_at.is_none() {
        violations.push(format!("{label}: process never completed its move"));
    }
    violations
}

// ---------------------------------------------------------------------------
// Bodies: replicated metadata (cast: three RC hosts, the client) and
// the striped read under replica crashes (cast: three RC hosts, three
// file-server hosts, the client)
// ---------------------------------------------------------------------------

/// Puts the writer makes, one every [`WRITE_INTERVAL`] from its
/// start, each of a new value.
const WRITES: u32 = 12;
const WRITE_INTERVAL: SimDuration = ms(300);
/// A probe's lookups, one every [`PROBE_INTERVAL`]: a single replica
/// answers a live one, and one that gives up (six attempts of
/// [`RC_TIMEOUT`]) is followed by the next at that instant.
const PROBES: u32 = 31;
const PROBE_INTERVAL: SimDuration = ms(1800);

const RC_SYNC: SimDuration = ms(500);
const RC_TIMEOUT: SimDuration = ms(300);
const PROBE_PORT: u16 = 60;

/// Restart factories for a replica set: each crash brings the server
/// back as a *fresh* replica (new server id from a shared counter, empty
/// store) on the same endpoint — anti-entropy must repopulate it.
fn fresh_rc_factories(eps: &[Endpoint]) -> Vec<(Endpoint, ActorFactory)> {
    let restarts = Arc::new(AtomicU64::new(0));
    eps.iter()
        .map(|&ep| {
            let peers: Vec<Endpoint> = eps.iter().copied().filter(|e| *e != ep).collect();
            let restarts = restarts.clone();
            let factory: ActorFactory = Arc::new(move || {
                let id = 1001 + restarts.fetch_add(1, Ordering::Relaxed);
                Box::new(RcServerActor::new(id, peers.clone(), RC_SYNC))
            });
            (ep, factory)
        })
        .collect()
}

/// Spawn a writer on `client` whose puts land throughout the fault
/// window; returns the URI it writes and the instant of its last put.
fn spawn_writer(world: &mut World, client: HostId, eps: &[Endpoint]) -> (Uri, SimTime) {
    let uri = Uri::process(7);
    let last_put = world.now() + WRITE_INTERVAL * (WRITES - 1) as u64;
    let values = (0..WRITES).map(|i| format!("v{i}")).collect();
    let rc = RcClient::new(eps.to_vec(), RC_TIMEOUT);
    let writer = RcLoad::new(rc, uri.clone(), values, world.now(), WRITE_INTERVAL, WRITES);
    world.spawn(client, 50, Box::new(writer));
    (uri, last_put)
}

/// Spawn one probe per replica on `client`, firing several sync rounds
/// after the later of the plan's last healed fault and the writer's
/// `last_put` (an empty plan quiesces at 0, before the writer is done);
/// returns that time.
fn spawn_probes(
    world: &mut World,
    plan: &ChaosPlan,
    client: HostId,
    eps: &[Endpoint],
    (uri, last_put): &(Uri, SimTime),
) -> SimTime {
    let at = plan.quiesce_at().max(*last_put) + secs(4);
    for (i, &ep) in eps.iter().enumerate() {
        let rc = RcClient::new(vec![ep], RC_TIMEOUT);
        let probe = RcLoad::new(rc, uri.clone(), Vec::new(), at, PROBE_INTERVAL, PROBES);
        world.spawn(client, PROBE_PORT + i as u16, Box::new(probe));
    }
    at
}

/// What each of the three replicas' probes heard first, in replica
/// order.
fn probe_answers(world: &World, client: HostId) -> Vec<Option<Vec<Assertion>>> {
    (0..3)
        .map(|i| {
            // A lookup ends before the next starts, so the first
            // answered in issue order is the first heard.
            let probe = world.actor_ref::<RcLoad>(Endpoint::new(client, PROBE_PORT + i))?;
            probe.log.iter().find_map(|op| op.answer()).map(<[Assertion]>::to_vec)
        })
        .collect()
}

fn rcds_converge(st: &mut Stage<World>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let (rc_hosts, client) = (st.cast[..3].to_vec(), st.cast[3]);
    let eps = rc_group(&mut st.world, &rc_hosts, RC_SYNC);
    let writer = spawn_writer(&mut st.world, client, &eps);
    st.bind(plan, &rc_hosts, fresh_rc_factories(&eps));
    let probe_at = spawn_probes(&mut st.world, plan, client, &eps, &writer);
    drive(&mut st.world, ms(500), probe_at + RECOVERY_TAIL, |w| {
        probe_answers(w, client).iter().all(Option::is_some)
    });
    oracles::check_replicas_converged(label, &probe_answers(&st.world, client))
}

const REPLICA_CRASH_LIFN: &str = "lifn:snipe:chaos:staged";
/// 24 000 bytes at 2048-byte stripes.
const REPLICA_CRASH_STRIPES: u32 = 12;

fn replica_crash(st: &mut Stage<World>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let (rc_hosts, fs_hosts, client) = (st.cast[..3].to_vec(), st.cast[3..6].to_vec(), st.cast[6]);
    let rc_eps = rc_group(&mut st.world, &rc_hosts, RC_SYNC);
    let fs_eps: Vec<Endpoint> =
        fs_hosts.iter().map(|&h| Endpoint::new(h, ports::FILE_SERVER)).collect();
    let content = Bytes::from(
        (0..24_000usize).map(|i| (i.wrapping_mul(31) % 251) as u8).collect::<Vec<u8>>(),
    );
    let make_fs = {
        let (fs_eps, rc_eps, content) = (fs_eps.clone(), rc_eps.clone(), content.clone());
        move |i: usize| {
            let peers: Vec<Endpoint> = fs_eps.iter().copied().filter(|e| *e != fs_eps[i]).collect();
            let mut cfg = FileServerConfig::new(format!("fs{i}"), rc_eps.clone(), peers);
            cfg.replication_factor = fs_eps.len();
            let mut fs = FileServerActor::new(cfg);
            // Disk-backed seed: survives the process restarts below.
            fs.preload(REPLICA_CRASH_LIFN, content.clone());
            fs
        }
    };
    for (i, ep) in fs_eps.iter().enumerate() {
        st.world.spawn(ep.host, ep.port, Box::new(make_fs(i)));
    }
    let writer = spawn_writer(&mut st.world, client, &rc_eps);
    // The striped read starts two seconds in, well inside the fault
    // window, and must survive replica crashes mid-transfer.
    let fetch_ep = Endpoint::new(client, 51);
    st.world.spawn(
        client,
        fetch_ep.port,
        Box::new(FetchActor::new(REPLICA_CRASH_LIFN, fs_eps.clone(), 2048, secs(2))),
    );
    // RC servers come back with a *fresh, empty* store; file servers
    // come back as fresh processes over surviving disk contents.
    let mut procs = fresh_rc_factories(&rc_eps);
    for (i, &ep) in fs_eps.iter().enumerate() {
        let make_fs = make_fs.clone();
        procs.push((ep, Arc::new(move || Box::new(make_fs(i)) as Box<dyn Actor>)));
    }
    st.bind(plan, &[rc_hosts, fs_hosts].concat(), procs);
    let probe_at = spawn_probes(&mut st.world, plan, client, &rc_eps, &writer);
    drive(&mut st.world, ms(500), probe_at + RECOVERY_TAIL, |w| {
        let fetched =
            w.actor_ref::<FetchActor>(fetch_ep).is_some_and(|f| f.result.is_some() || f.failed);
        fetched && probe_answers(w, client).iter().all(Option::is_some)
    });

    let mut violations =
        oracles::check_replicas_converged(label, &probe_answers(&st.world, client));
    match st.world.actor_ref::<FetchActor>(fetch_ep) {
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
    violations
}

// ---------------------------------------------------------------------------
// Body: majority-routed multicast (cast: five routers, three members,
// the source)
// ---------------------------------------------------------------------------

fn mcast(st: &mut Stage<World>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    // 2 s of stream against the 3 s fault horizon.
    let total = 400u32;
    // Multicast relays are fire-and-forget: of the net-level ops only
    // gray degradation (no loss) is within the §5.4 contract. Host
    // flaps are kept too — only the source host is flappable, and its
    // paced stream must survive a flap. The plan is deterministically
    // narrowed before applying.
    let mut plan = plan.clone();
    plan.ops.retain(|o| matches!(o, ChaosOp::Gray { .. } | ChaosOp::HostFlap { .. }));
    let (routers, members, source) = (&st.cast[..5], st.cast[5..8].to_vec(), st.cast[8]);
    e6_multicast::spawn_group(&mut st.world, routers, &members, source, total);
    st.bind(&plan, &[source], Vec::new());

    let delivered = |w: &World, m: HostId| {
        let ep = Endpoint::new(m, e6_multicast::MEMBER_PORT);
        w.actor_ref::<MemberActor>(ep).map_or(0, |a| a.delivered)
    };
    let stream_end = SimTime::ZERO + e6_multicast::SEND_INTERVAL * (total as u64 + 2);
    let deadline = plan.quiesce_at().max(stream_end) + RECOVERY_TAIL;
    drive(&mut st.world, ms(500), deadline, |w| members.iter().all(|&m| delivered(w, m) >= total));

    let mut violations = Vec::new();
    for (i, &m) in members.iter().enumerate() {
        let got = delivered(&st.world, m);
        if got != total {
            violations
                .push(format!("{label}: member {i} delivered {got} of {total} distinct messages"));
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Body: the full SNIPE protocol stack (cast: publisher, three
// subscribers, the spawned child's host)
// ---------------------------------------------------------------------------
// A daemon on every host, RC replicas on three cluster heads,
// replicated file servers on two, a resource manager on one. The
// workload crosses every subsystem *and* every region: a publisher
// writes a file and registers a service, a daemon-spawned child calls
// home across clusters, and three subscribers in other regions resolve
// the service and fetch the file. All progress is judged from process
// logs read back through `actor_ref` — no shared-memory side channels —
// so the same milestones double as the partition-agnostic application
// digest for the one-region-vs-natural-partition differential tests.

/// The published file and its content (fixed so every partition and
/// thread count must log the same checksum).
const FP_LIFN: &str = "lifn:soak/blob";

fn fp_payload() -> Bytes {
    Bytes::from((0..1024u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect::<Vec<u8>>())
}

struct SoakPublisher {
    /// Where the daemon-spawned child goes.
    child_host: String,
    published: bool,
    spawned: bool,
    child_ok: bool,
    /// Registration is fire-and-forget soft state; re-announce on a
    /// bounded schedule so a registration lost to chaos heals.
    reg_left: u32,
}

impl SoakPublisher {
    fn spawn_child(&self, api: &mut SnipeApi<'_, '_>) {
        let key = api.my_key();
        api.spawn(
            SpawnTarget::Host(self.child_host.clone()),
            "soak-echo",
            Bytes::copy_from_slice(&key.to_be_bytes()),
        );
    }
}

impl SnipeProcess for SoakPublisher {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.register_service("soak.pub");
        api.write_file(FP_LIFN, fp_payload());
        api.set_timer(secs(2), 3);
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        match result {
            TicketResult::FileWritten(Ok(())) => {
                if !self.published {
                    self.published = true;
                    api.log(format!("published {:08x}", msg_checksum(&fp_payload())));
                }
                if !self.spawned {
                    self.spawn_child(api);
                }
            }
            TicketResult::FileWritten(Err(_)) => api.set_timer(ms(500), 1),
            TicketResult::Spawned(Ok(_)) if !self.spawned => {
                self.spawned = true;
                api.log("spawn ok");
            }
            TicketResult::Spawned(Err(_)) => api.set_timer(ms(700), 2),
            _ => {}
        }
    }

    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, token: u64) {
        match token {
            1 if !self.published => {
                api.write_file(FP_LIFN, fp_payload());
            }
            2 if !self.spawned => self.spawn_child(api),
            3 if self.reg_left > 0 => {
                self.reg_left -= 1;
                api.register_service("soak.pub");
                api.set_timer(secs(2), 3);
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

impl SnipeProcess for SoakEcho {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.send(self.parent, Bytes::from_static(b"hello"));
        api.set_timer(secs(1), 1);
    }

    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        if self.tries > 0 {
            self.tries -= 1;
            api.send(self.parent, Bytes::from_static(b"hello"));
            api.set_timer(secs(1), 1);
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
        api.set_timer(secs(1), 1);
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
            api.set_timer(secs(1), 1);
        }
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, _ticket: u64, result: TicketResult) {
        match result {
            TicketResult::FileRead(Ok(content)) if !self.fetched => {
                self.fetched = true;
                api.log(format!("fetched {:08x}", msg_checksum(&content)));
            }
            TicketResult::Service(Ok(refs)) if !refs.is_empty() && !self.svc_ok => {
                self.svc_ok = true;
                api.log("svc ok");
            }
            _ => {}
        }
    }
}

/// Register the programs and bootstrap the cast; returns the root
/// endpoints, publisher first.
fn install_full_protocol(st: &mut Stage<SnipeWorld>) -> Vec<Endpoint> {
    let names: Vec<String> = {
        let topo = st.world.sim_ref().topology();
        st.cast.iter().map(|&h| topo.host(h).name.clone()).collect()
    };
    let w = &mut st.world;
    let child_host = names[4].clone();
    w.register_process("soak-pub", move |_| {
        Box::new(SoakPublisher {
            child_host: child_host.clone(),
            published: false,
            spawned: false,
            child_ok: false,
            reg_left: 20,
        })
    });
    w.register_process("soak-echo", |args| {
        let parent =
            args.get(..8).map_or(0, |b| u64::from_be_bytes(b.try_into().expect("8 bytes")));
        Box::new(SoakEcho { parent, tries: 5 })
    });
    w.register_process("soak-sub", |_| {
        Box::new(SoakSubscriber { fetched: false, svc_ok: false, kicks_left: 45 })
    });
    let programs = ["soak-pub", "soak-sub", "soak-sub", "soak-sub"];
    programs
        .iter()
        .zip(&names)
        .map(|(program, host)| w.spawn_on(host, program, Bytes::new()).expect("spawn the cast").1)
        .collect()
}

/// Time-stripped, labelled, sorted log lines of the cast — the
/// partition-agnostic application digest.
fn fp_lines(w: &World, cast: &[Endpoint]) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, &ep) in cast.iter().enumerate() {
        let who = if i == 0 { "pub".to_string() } else { format!("sub{}", i - 1) };
        let log = w.actor_ref::<ProcessActor>(ep).map(|p| p.log.as_slice()).unwrap_or_default();
        lines.extend(log.iter().map(|(_, l)| format!("{who}: {l}")));
    }
    lines.sort();
    lines
}

/// Milestone check: every line a complete run must log is present on
/// the publisher and on every subscriber.
fn fp_violations(label: &str, lines: &[String]) -> Vec<String> {
    let has = |who: &str, mark: &str| lines.iter().any(|l| l.starts_with(who) && l.contains(mark));
    let fetched = format!("fetched {:08x}", msg_checksum(&fp_payload()));
    let mut v = Vec::new();
    for mark in ["published", "spawn ok", "child hello"] {
        if !has("pub:", mark) {
            v.push(format!("{label}: publisher never logged {mark:?}"));
        }
    }
    for i in 0..3 {
        let who = format!("sub{i}:");
        if !has(&who, &fetched) {
            v.push(format!("{label}: subscriber {i} never fetched the published file"));
        }
        if !has(&who, "svc ok") {
            v.push(format!("{label}: subscriber {i} never resolved the service"));
        }
    }
    v
}

fn full_protocol(st: &mut Stage<SnipeWorld>, plan: &ChaosPlan, label: &str) -> Vec<String> {
    let cast = install_full_protocol(st);
    st.bind(plan, &[], Vec::new());
    let deadline = plan.quiesce_at() + RECOVERY_TAIL;
    let world = st.world.sim();
    let pending = |w: &World| fp_violations(label, &fp_lines(w, &cast));
    drive(world, ms(250), deadline, |w| pending(w).is_empty());
    let violations = pending(world);
    if violations.is_empty() {
        // A short drain so in-flight retransmissions and acks settle
        // before the residual-queue bound is checked.
        world.run_for(secs(1));
    }
    violations
}

/// Chaos-free full-protocol run for a fixed virtual duration — over the
/// natural partition at `Some(threads)` workers, or with `None` forced
/// into one region. Returns the engine digest and the sorted
/// application log lines. The `full-proto-digest` gate byte-compares
/// both across thread counts; engine digests are not comparable across
/// partitions (one RNG stream and one queue in one region, one of each
/// per region otherwise), but the application log must match.
pub fn full_protocol_calm(wseed: u64, threads: Option<usize>, secs: u64) -> (u64, Vec<String>) {
    let world = match threads {
        Some(threads) => fp_campus(wseed).build_sharded(threads),
        None => fp_campus(wseed).build(),
    };
    let mut st = snipe(world, &FP_CAST);
    let cast = install_full_protocol(&mut st);
    st.world.run_for_secs(secs);
    (st.world.digest(), fp_lines(st.world.sim_ref(), &cast))
}

// ---------------------------------------------------------------------------
// Soak driver, shrinking and the planted-bug drill
// ---------------------------------------------------------------------------

/// Flight-recorder ring capacity for chaos runs (per region on a
/// threaded world): big enough to hold the last fault window's worth
/// of events, small enough to stay cheap (one reserve per run).
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
    /// Regions of the world the run happened on.
    pub regions: usize,
    /// World digest of the primary run.
    pub digest: u64,
    /// The differential re-run (multi-region worlds only) disagreed.
    pub diverged: bool,
    /// Flight-recorder dump of the run's last events — populated only
    /// when an oracle was violated (the diagnosis trail).
    pub trace_dump: Option<String>,
    /// Per-kind flight-recorder event totals for the whole run
    /// (indexed by `TraceKind::tag()`). A threaded world records engine
    /// events only: its actors run on worker threads, out of the
    /// wire-level recorder's reach.
    pub kind_counts: [u64; TraceKind::COUNT],
    /// Events overwritten by ring wrap-around during the run.
    pub ring_dropped: u64,
}

/// Sum the flight-recorder totals over `runs` and render them as a
/// `metrics` object of `results/chaos.json` (also `harness trace`'s
/// event totals): the `trace.*` counters sorted by name, beside the
/// empty `gauges` and `histograms` objects readers of that file expect.
pub fn trace_metrics_json<'a>(
    runs: impl IntoIterator<Item = &'a ChaosRun>,
    indent: usize,
) -> String {
    let mut counts = [0u64; TraceKind::COUNT];
    let mut dropped = 0u64;
    for r in runs {
        for (acc, c) in counts.iter_mut().zip(&r.kind_counts) {
            *acc += c;
        }
        dropped += r.ring_dropped;
    }
    let mut named: Vec<(&str, u64)> =
        TraceKind::NAMES.into_iter().zip(counts).chain([("ring_dropped", dropped)]).collect();
    named.sort_unstable();
    let counters: Vec<String> = named.iter().map(|(n, v)| format!("\"trace.{n}\": {v}")).collect();
    let (pad, pad2) = (" ".repeat(indent), " ".repeat(indent + 2));
    format!(
        "{{\n{pad2}\"counters\": {{{}}},\n{pad2}\"gauges\": {{}},\n{pad2}\"histograms\": {{}}\n{pad}}}",
        counters.join(", ")
    )
}

/// Derive the `(plan_seed, workload_seed)` pair for soak index `i`.
/// Fixed derivation — the soak is fully reproducible from the index.
pub fn soak_seeds(i: u64) -> (u64, u64) {
    (0xC0FF_EE00 + i, 0x5EED + i)
}

/// Run one seeded plan against one workload at 4 worker threads, with
/// the flight recorder armed for the whole run (thread-local, so
/// parallel soak runs each get their own). If the world turned out to
/// span several regions the plan runs again at 1 thread and a
/// digest mismatch is itself a violation. On a violation the run
/// carries a readable dump of the last [`TRACE_DUMP_EVENTS`] events.
pub fn run_one(w: &'static Workload, plan_seed: u64, workload_seed: u64) -> ChaosRun {
    run_traced(w, plan_seed, workload_seed, false)
}

/// [`run_one`], but the trace dump covers the full ring regardless of
/// verdict — the `harness trace <plan-seed> <workload-seed>` replay
/// path for post-mortems on green-looking seeds.
pub fn trace_one(w: &'static Workload, plan_seed: u64, workload_seed: u64) -> ChaosRun {
    run_traced(w, plan_seed, workload_seed, true)
}

fn run_traced(
    w: &'static Workload,
    plan_seed: u64,
    workload_seed: u64,
    dump_all: bool,
) -> ChaosRun {
    let plan = ChaosPlan::generate(plan_seed, &w.shape());
    trace::enable(TRACE_RING);
    let mut run = w.play(&plan, workload_seed, SOAK_THREADS, |world, violations| {
        let shown = match (dump_all, violations.is_empty()) {
            (true, _) => Some(TRACE_RING),
            (false, false) => Some(TRACE_DUMP_EVENTS),
            (false, true) => None,
        };
        let regions = world.regions();
        let (kind_counts, ring_dropped) = world.trace_totals();
        ChaosRun {
            workload: w.name,
            plan_seed,
            workload_seed,
            ops: plan.ops.len(),
            packet: plan.packet.is_some(),
            violations,
            replay: plan.replay_line(w.name, workload_seed),
            regions,
            digest: world.digest(),
            diverged: false,
            // Several regions at several threads record per region;
            // render those rings merged. One region recorded here.
            trace_dump: shown.map(|n| {
                if regions > 1 {
                    world.render_trace(n)
                } else {
                    trace::render_last(n)
                }
            }),
            kind_counts,
            ring_dropped,
        }
    });
    trace::disable();
    if run.regions > 1 {
        let (_, again) = w.run(&plan, workload_seed, DIFF_THREADS);
        if again != run.digest {
            run.diverged = true;
            run.violations.push(format!(
                "{}: digest diverged across thread counts ({SOAK_THREADS} -> {:#x}, \
                 {DIFF_THREADS} -> {again:#x})",
                w.name, run.digest
            ));
        }
    }
    run
}

/// Fan `seeds_per_workload` plans over every workload in parallel.
pub fn soak(seeds_per_workload: u64) -> Vec<ChaosRun> {
    let mut jobs = Vec::new();
    for w in &WORKLOADS {
        for i in 0..seeds_per_workload {
            let (ps, ws) = soak_seeds(i);
            jobs.push((w, ps, ws));
        }
    }
    par_map(jobs, |&(w, ps, ws)| run_one(w, ps, ws))
}

/// The one plan minimizer, of the soak and the drill: drop what `plan`
/// holds while a candidate still fails a verdict the original failed —
/// its oracles, or (`diverged`) its digest across thread counts, which
/// the candidate must then diverge on too. `run` plays a candidate at a
/// thread count and returns its violations and digest.
fn shrink(
    plan: ChaosPlan,
    (oracles, diverged): (bool, bool),
    run: impl Fn(&ChaosPlan, usize) -> (Vec<String>, u64),
) -> ChaosPlan {
    shrink_plan(plan, |cand| {
        let (violations, digest) = run(cand, SOAK_THREADS);
        (oracles && !violations.is_empty()) || (diverged && run(cand, DIFF_THREADS).1 != digest)
    })
}

/// Shrink a failed soak run's plan to a minimal one that fails the same
/// way.
pub fn shrink_violation(run: &ChaosRun) -> ChaosPlan {
    let w = Workload::from_name(run.workload).expect("a run names a table row");
    // A divergence adds exactly one line to `violations`.
    let failed = (run.violations.len() > usize::from(run.diverged), run.diverged);
    let plan = ChaosPlan::generate(run.plan_seed, &w.shape());
    shrink(plan, failed, |cand, threads| w.run(cand, run.workload_seed, threads))
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

/// The `migration` row with the packet freeze that protects in-flight
/// traffic during a move switched off — the deliberately planted bug
/// (`ProcessConfig::chaos_disable_migration_freeze`).
pub fn run_migration_unfrozen(plan: &ChaosPlan, wseed: u64) -> Vec<String> {
    let Play::Snipe(stage, body) = Workload::from_name("migration").expect("table row").play else {
        unreachable!("migration is staged on a SNIPE world")
    };
    let mut st = stage(wseed, SOAK_THREADS);
    st.world.process_config_mut().chaos_disable_migration_freeze = true;
    judge("migration", st, body, plan, |_, violations| violations)
}

/// The planted-bug drill: disable the migration packet freeze and
/// verify the exactly-once oracle catches the resulting in-flight loss,
/// then shrink the plan. A healthy oracle stack returns `caught: true`
/// — this is a test *of the chaos engine*, not of the product code.
pub fn planted_bug_drill(max_seeds: u64) -> PlantedBugReport {
    let shape = Workload::from_name("migration").expect("table row").shape();
    for i in 0..max_seeds {
        let (plan_seed, workload_seed) = soak_seeds(i);
        let plan = ChaosPlan::generate(plan_seed, &shape);
        let violations = run_migration_unfrozen(&plan, workload_seed);
        if violations.is_empty() {
            continue;
        }
        let shrunk =
            shrink(plan, (true, false), |cand, _| (run_migration_unfrozen(cand, workload_seed), 0));
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
        let _ = run_migration_unfrozen(&shrunk, workload_seed);
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
/// a pinned triple is a complete regression test.) Campus rows are
/// pinned at the soak's leading seed plus one multi-op plan each; they
/// additionally pin 4-vs-1-thread digest equality.
pub const REGRESSION_CORPUS: &[(&str, u64, u64)] = &[
    ("srudp-transfer", 0xC0FF_EE00, 0x5EED),
    ("srudp-transfer", 0xC0FF_EE07, 0x5EED + 7),
    // These three wedged permanently while the sender's retransmit
    // deadline was a timer: a host flap swallows any timer that comes
    // due while the host is down. The engine re-reads `next_wake` after
    // `HostUp` now. Shrunk repro: a single flap of the sender host
    // mid-transfer.
    ("srudp-transfer", 0xC0FF_EE01, 0x5EED + 1),
    ("srudp-transfer", 0xC0FF_EE0A, 0x5EED + 10),
    ("srudp-transfer", 0xC0FF_EE0D, 0x5EED + 13),
    ("rstream-transfer", 0xC0FF_EE00, 0x5EED),
    // These wedged in the RTO death crawl: a receiver-side flap loses a
    // whole window, and without NewReno partial-ACK recovery the stream
    // refills the hole at one segment per fully-escalated RTO (~4s per
    // 1400 bytes). Also covers the wake-up re-armed after HostUp and SYN
    // retransmission (a connect whose SYN is lost used to wedge forever).
    ("rstream-transfer", 0xC0FF_EE02, 0x5EED + 2),
    ("rstream-transfer", 0xC0FF_EE04, 0x5EED + 4),
    ("rstream-transfer", 0xC0FF_EE07, 0x5EED + 7),
    ("migration", 0xC0FF_EE00, 0x5EED),
    ("migration", 0xC0FF_EE03, 0x5EED + 3),
    ("rcds-converge", 0xC0FF_EE00, 0x5EED),
    ("rcds-converge", 0xC0FF_EE05, 0x5EED + 5),
    ("mcast", 0xC0FF_EE00, 0x5EED),
    // Both plans flap the multicast source host mid-stream. A pacing
    // timer that comes due during the outage is swallowed, and the
    // stream never resumes; the source's next send is a `next_wake`
    // term now, re-read after `HostUp`.
    ("mcast", 0xC0FF_EE01, 0x5EED + 1),
    ("mcast", 0xC0FF_EE06, 0x5EED + 6),
    // FEC share-spray under loss bursts / gray links / partitions plus
    // hot per-packet corruption: pins the reconstruct-then-verify
    // delivery gate (no mismatch ever delivered) and the reassembly
    // boundedness contract (no in-contract peer evicted).
    ("fec-spray", 0xC0FF_EE00, 0x5EED),
    ("fec-spray", 0xC0FF_EE02, 0x5EED + 2),
    ("fec-spray", 0xC0FF_EE04, 0x5EED + 4),
    // Replica-crash: host flaps plus process restarts over both the RC
    // replica group and the file replica set while a striped read is
    // in flight. The six-op plan at index 6 restarts servers back to
    // back mid-transfer; stripe re-dispatch plus RC anti-entropy must
    // still deliver convergence, byte-exact content and exactly-once
    // stripe completion.
    ("replica-crash", 0xC0FF_EE00, 0x5EED),
    ("replica-crash", 0xC0FF_EE06, 0x5EED + 6),
    // The real drivers between campus regions: the soak's leading seed
    // (one op, packet chaos) and the six-op plan at index 2 (endpoint
    // and interface flaps in two regions, net faults, corruption).
    ("srudp-transfer@campus", 0xC0FF_EE00, 0x5EED),
    ("srudp-transfer@campus", 0xC0FF_EE02, 0x5EED + 2),
    ("rstream-transfer@campus", 0xC0FF_EE00, 0x5EED),
    ("rstream-transfer@campus", 0xC0FF_EE02, 0x5EED + 2),
    ("fec-spray@campus", 0xC0FF_EE00, 0x5EED),
    ("fec-spray@campus", 0xC0FF_EE02, 0x5EED + 2),
    // Index 2 flaps replica hosts and cluster LANs and restarts a
    // replica inside its region; anti-entropy crosses three regions.
    ("rcds-converge@campus", 0xC0FF_EE00, 0x5EED),
    ("rcds-converge@campus", 0xC0FF_EE02, 0x5EED + 2),
    // Index 1 flaps the source host (it must resume pacing across nine
    // regions); index 2 is four gray links under hot duplication.
    ("mcast@campus", 0xC0FF_EE00, 0x5EED),
    ("mcast@campus", 0xC0FF_EE01, 0x5EED + 1),
    ("mcast@campus", 0xC0FF_EE02, 0x5EED + 2),
    ("migration@campus", 0xC0FF_EE00, 0x5EED),
    ("migration@campus", 0xC0FF_EE02, 0x5EED + 2),
    // The full-protocol workload failed until RC anti-entropy learned
    // to size its SyncPush batches to the path MTU: on a catalog busy
    // with daemon soft-state churn, every count-only push exceeded 1500
    // bytes and was dropped `TooBig`, so replicas never converged and
    // any client whose retries had failed over to a secondary replica
    // could never resolve a service registered at the primary. Index 1
    // is the seed that still fails that way with `PUSH_BYTES` disabled
    // (the leading seed no longer does). Index 11 corrupts the one
    // datagram carrying the publisher's spawn reply. A spawn request
    // is a single unreliable datagram each way, so the only way the
    // publisher ever hears is the spawn ticket's deadline
    // (`ProcessActor`'s `SPAWN_TIMEOUT`): `Spawned(Err(Unavailable))`,
    // on which it spawns again. Without that deadline this triple
    // times out short of `spawn ok` / `child hello`.
    ("full-protocol", 0xC0FF_EE00, 0x5EED),
    ("full-protocol", 0xC0FF_EE01, 0x5EED + 1),
    ("full-protocol", 0xC0FF_EE0B, 0x5EED + 11),
    // Replica crash/restart under cross-region RC sync and a striped
    // read: the leading seed (one file replica restarted mid-read) plus
    // a four-op plan (a file-replica restart, a loss burst, a gray link
    // and a net flap). Pins plan-driven process restarts inside a
    // region and the fetch layer's straggler re-dispatch.
    ("replica-crash@campus", 0xC0FF_EE00, 0x5EED),
    ("replica-crash@campus", 0xC0FF_EE02, 0x5EED + 2),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_corpus_stays_green() {
        let runs = par_map(REGRESSION_CORPUS.to_vec(), |&(name, ps, ws)| {
            run_one(Workload::from_name(name).expect("corpus names a table row"), ps, ws)
        });
        for run in runs {
            assert!(run.violations.is_empty(), "{:?}\n  {}", run.violations, run.replay);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(Workload::from_name(w.name).expect("resolves"), w), "{}", w.name);
        }
        assert!(Workload::from_name("nope").is_none());
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
                run_migration_unfrozen(&cand, report.workload_seed).is_empty(),
                "op {i} of the shrunk plan is not load-bearing"
            );
        }
    }
}
