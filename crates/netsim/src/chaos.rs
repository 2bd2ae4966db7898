//! Declarative, seed-driven fault injection.
//!
//! A [`ChaosPlan`] is a value: a list of timed fault operations plus an
//! optional per-packet injection level, generated entirely from one
//! seed. Applying the same plan to the same world with the same
//! workload seed replays bit-for-bit — the tuple `(plan seed, workload
//! seed)` identifies a run completely, which is what makes a violating
//! run shrinkable and a shrunk plan a permanent regression test.
//!
//! Three layers:
//!
//! * [`PacketChaos`] — per-packet corruption / duplication / reordering
//!   applied inside the world's delivery path (from its own RNG stream,
//!   so enabling chaos never perturbs the workload's random draws);
//! * [`ChaosOp`] — timed topology faults: host / net / interface flaps,
//!   gray links, loss bursts, partitions and process-level restarts.
//!   Every op restores what it broke, so a plan *quiesces*: after
//!   [`ChaosPlan::quiesce_at`] the topology is back to its pristine
//!   state and the oracles may demand recovery;
//! * [`ChaosPlan::generate`] / [`ChaosPlan::apply`] / [`shrink_plan`] —
//!   the seeded generator, the scheduler (binding abstract indices to a
//!   concrete world via [`ChaosBinding`]), and a greedy minimizer for
//!   violating plans (the vendored proptest has no shrinking).

use snipe_util::id::{HostId, NetId};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};

use crate::shard::{ActorFactory, FaultCmd};
use crate::topology::{Endpoint, GrayLevel};
use crate::world::World;

/// Per-packet fault injection levels. Installed on a world via
/// [`World::set_packet_chaos`]; each probability is checked
/// independently per delivered packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketChaos {
    /// Probability a payload gets 1–3 random bit flips. Corrupt frames
    /// are still delivered — the wire layer's checksum must reject
    /// them without panicking.
    pub corrupt: f64,
    /// Probability an extra copy of the packet is injected at a
    /// jittered arrival time.
    pub duplicate: f64,
    /// Probability the packet's own arrival is delayed by random
    /// jitter, letting later sends overtake it.
    pub reorder: f64,
    /// Maximum extra delay for duplicated/reordered deliveries.
    pub jitter: SimDuration,
}

impl PacketChaos {
    /// No injection at all (useful as a shrink target).
    pub fn none() -> PacketChaos {
        PacketChaos {
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            jitter: SimDuration::from_millis(1),
        }
    }
}

/// One timed fault. Targets are abstract indices resolved against a
/// [`ChaosBinding`] at apply time (modulo the binding's vector length),
/// so a plan generated for "some host, some net" runs against any
/// world shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosOp {
    /// Crash host `host` at `at`, repair it `down_for` later.
    HostFlap { host: u8, at: SimTime, down_for: SimDuration },
    /// Take a network segment down and back up.
    NetFlap { net: u8, at: SimTime, down_for: SimDuration },
    /// Flap one host interface (the host stays up, multi-path traffic
    /// must reroute).
    IfaceFlap { iface: u8, at: SimTime, down_for: SimDuration },
    /// Degrade a network without loss: latency multiplied, bandwidth
    /// divided — the failure mode timeout escalation handles worst.
    Gray { net: u8, at: SimTime, duration: SimDuration, latency_factor: f64, bandwidth_factor: f64 },
    /// Raise the loss rate on a network for a while.
    LossBurst { net: u8, at: SimTime, duration: SimDuration, loss: f64 },
    /// Move a network into partition `group`, heal back to 0.
    Partition { net: u8, at: SimTime, duration: SimDuration, group: u32 },
    /// Restart one workload process (crash + respawn, host stays up) —
    /// distinct from whole-host failure.
    ProcRestart { proc: u8, at: SimTime },
}

impl ChaosOp {
    /// When this op strikes.
    fn at(&self) -> SimTime {
        match *self {
            ChaosOp::HostFlap { at, .. }
            | ChaosOp::NetFlap { at, .. }
            | ChaosOp::IfaceFlap { at, .. }
            | ChaosOp::Gray { at, .. }
            | ChaosOp::LossBurst { at, .. }
            | ChaosOp::Partition { at, .. }
            | ChaosOp::ProcRestart { at, .. } => at,
        }
    }

    /// When this op has fully restored what it broke.
    fn end(&self) -> SimTime {
        match *self {
            ChaosOp::HostFlap { at, down_for, .. }
            | ChaosOp::NetFlap { at, down_for, .. }
            | ChaosOp::IfaceFlap { at, down_for, .. } => at + down_for,
            ChaosOp::Gray { at, duration, .. }
            | ChaosOp::LossBurst { at, duration, .. }
            | ChaosOp::Partition { at, duration, .. } => at + duration,
            ChaosOp::ProcRestart { at, .. } => at,
        }
    }
}

/// Bounds for the plan generator: how big the target world is and how
/// vicious the packet-level injection may get.
#[derive(Clone, Copy, Debug)]
pub struct ChaosShape {
    /// Length of the run; all faults start in `[5%, 80%]` of it and
    /// quiesce by `90%`, leaving the tail for recovery.
    pub horizon: SimDuration,
    /// How many hosts may be crash-flapped (0 disables [`ChaosOp::HostFlap`]).
    pub hosts: u8,
    /// How many networks may be flapped / grayed / lossy / partitioned.
    pub nets: u8,
    /// How many (host, net) interfaces may be flapped.
    pub ifaces: u8,
    /// How many processes may be restarted (0 disables [`ChaosOp::ProcRestart`]).
    pub procs: u8,
    /// Upper bound on ops per plan (at least 1 is always generated).
    pub max_ops: u8,
    /// Probability the plan enables per-packet chaos at all.
    pub packet_prob: f64,
    /// Per-packet probability ceilings.
    pub corrupt_max: f64,
    /// See `corrupt_max`.
    pub duplicate_max: f64,
    /// See `corrupt_max`.
    pub reorder_max: f64,
    /// Ceiling on reorder/duplicate jitter.
    pub jitter_max: SimDuration,
}

impl Default for ChaosShape {
    fn default() -> ChaosShape {
        ChaosShape {
            horizon: SimDuration::from_secs(30),
            hosts: 0,
            nets: 1,
            ifaces: 0,
            procs: 0,
            max_ops: 6,
            packet_prob: 0.7,
            corrupt_max: 0.05,
            duplicate_max: 0.1,
            reorder_max: 0.1,
            jitter_max: SimDuration::from_millis(50),
        }
    }
}

/// Maps a plan's abstract target indices onto a concrete world.
/// Indices wrap modulo the vector length; an empty vector silently
/// skips ops of that class (e.g. a workload that cannot tolerate host
/// crashes binds no hosts).
#[derive(Default)]
pub struct ChaosBinding {
    /// Hosts eligible for [`ChaosOp::HostFlap`].
    pub hosts: Vec<HostId>,
    /// Networks eligible for net-level ops.
    pub nets: Vec<NetId>,
    /// `(host, net)` interfaces eligible for [`ChaosOp::IfaceFlap`].
    pub ifaces: Vec<(HostId, NetId)>,
    /// Processes eligible for [`ChaosOp::ProcRestart`]: the endpoint to
    /// crash and the factory building its replacement.
    pub procs: Vec<(Endpoint, ActorFactory)>,
}

/// A complete, replayable fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// The seed this plan was generated from (kept for replay lines).
    pub plan_seed: u64,
    /// Per-packet injection, active from t=0 until `packet_until`.
    pub packet: Option<PacketChaos>,
    /// When per-packet chaos switches off.
    pub packet_until: SimTime,
    /// Timed topology faults.
    pub ops: Vec<ChaosOp>,
}

impl ChaosPlan {
    /// Generate a plan from a seed. Same `(seed, shape)` → same plan,
    /// always.
    pub fn generate(plan_seed: u64, shape: &ChaosShape) -> ChaosPlan {
        let mut rng = Xoshiro256::seed_from_u64(plan_seed);
        let h = shape.horizon.as_nanos().max(1);
        let start_of = |rng: &mut Xoshiro256| {
            SimTime::from_nanos((h as f64 * (0.05 + 0.75 * rng.gen_f64())) as u64)
        };
        // Faults quiesce by 90% of the horizon so oracles can demand
        // recovery in the tail.
        let limit = SimTime::from_nanos((h as f64 * 0.9) as u64);
        let span_of = |rng: &mut Xoshiro256, at: SimTime| {
            let d = SimDuration::from_nanos(((h as f64) * (0.02 + 0.15 * rng.gen_f64())) as u64);
            if at + d > limit {
                limit.since(at)
            } else {
                d
            }
        };

        // Which op classes the shape allows.
        let mut kinds: Vec<u8> = Vec::new();
        if shape.hosts > 0 {
            kinds.push(0);
        }
        if shape.nets > 0 {
            kinds.extend([1, 3, 4, 5]);
        }
        if shape.ifaces > 0 {
            kinds.push(2);
        }
        if shape.procs > 0 {
            kinds.push(6);
        }

        let mut ops = Vec::new();
        if !kinds.is_empty() {
            let n_ops = rng.gen_range_inclusive(1, shape.max_ops.max(1) as u64);
            for _ in 0..n_ops {
                let kind = kinds[rng.gen_range(kinds.len() as u64) as usize];
                let at = start_of(&mut rng);
                let op = match kind {
                    0 => ChaosOp::HostFlap {
                        host: (rng.gen_range(shape.hosts as u64)) as u8,
                        at,
                        down_for: span_of(&mut rng, at),
                    },
                    1 => ChaosOp::NetFlap {
                        net: (rng.gen_range(shape.nets as u64)) as u8,
                        at,
                        down_for: span_of(&mut rng, at),
                    },
                    2 => ChaosOp::IfaceFlap {
                        iface: (rng.gen_range(shape.ifaces as u64)) as u8,
                        at,
                        down_for: span_of(&mut rng, at),
                    },
                    3 => ChaosOp::Gray {
                        net: (rng.gen_range(shape.nets as u64)) as u8,
                        at,
                        duration: span_of(&mut rng, at),
                        latency_factor: 1.5 + 18.5 * rng.gen_f64(),
                        bandwidth_factor: 0.01 + 0.49 * rng.gen_f64(),
                    },
                    4 => ChaosOp::LossBurst {
                        net: (rng.gen_range(shape.nets as u64)) as u8,
                        at,
                        duration: span_of(&mut rng, at),
                        loss: 0.05 + 0.55 * rng.gen_f64(),
                    },
                    5 => ChaosOp::Partition {
                        net: (rng.gen_range(shape.nets as u64)) as u8,
                        at,
                        duration: span_of(&mut rng, at),
                        group: 1 + rng.gen_range(3) as u32,
                    },
                    _ => {
                        ChaosOp::ProcRestart { proc: (rng.gen_range(shape.procs as u64)) as u8, at }
                    }
                };
                ops.push(op);
            }
        }

        let packet = if rng.gen_bool(shape.packet_prob) {
            let jmax = shape.jitter_max.as_nanos().max(1);
            Some(PacketChaos {
                corrupt: shape.corrupt_max * rng.gen_f64(),
                duplicate: shape.duplicate_max * rng.gen_f64(),
                reorder: shape.reorder_max * rng.gen_f64(),
                jitter: SimDuration::from_nanos(1 + rng.gen_range(jmax)),
            })
        } else {
            None
        };

        ChaosPlan {
            plan_seed,
            packet,
            packet_until: SimTime::from_nanos((h as f64 * 0.85) as u64),
            ops,
        }
    }

    /// The seed the world's packet-chaos RNG is reseeded with: derived
    /// from the plan seed so the injection pattern is part of the
    /// plan's identity, never of the workload's.
    pub fn packet_seed(&self) -> u64 {
        self.plan_seed ^ 0x9E37_79B9_7F4A_7C15
    }

    /// When every fault (including packet chaos) has been restored.
    pub fn quiesce_at(&self) -> SimTime {
        let mut q = if self.packet.is_some() { self.packet_until } else { SimTime::ZERO };
        for op in &self.ops {
            q = q.max(op.end());
        }
        q
    }

    /// Install the plan on a world: packet chaos switches on now (and
    /// off at `packet_until`), every op becomes a pair of scheduled
    /// [`FaultCmd`]s (the break and its restore). Ops whose target
    /// class has an empty binding vector are skipped.
    pub fn apply(&self, world: &mut World, binding: &ChaosBinding) {
        if let Some(pc) = self.packet {
            world.set_packet_chaos(Some(pc), self.packet_seed());
            world.schedule_fault(self.packet_until, FaultCmd::PacketChaos(None, 0));
        }
        // Abstract index → concrete target, `None` for an unbound class.
        fn pick<T: Clone>(targets: &[T], i: u8) -> Option<T> {
            (!targets.is_empty()).then(|| targets[i as usize % targets.len()].clone())
        }
        for op in &self.ops {
            let (at, end) = (op.at(), op.end());
            let cmds = match *op {
                ChaosOp::HostFlap { host, .. } => pick(&binding.hosts, host)
                    .map(|h| (FaultCmd::HostDown(h), Some(FaultCmd::HostUp(h)))),
                ChaosOp::NetFlap { net, .. } => pick(&binding.nets, net)
                    .map(|n| (FaultCmd::NetUp(n, false), Some(FaultCmd::NetUp(n, true)))),
                ChaosOp::IfaceFlap { iface, .. } => pick(&binding.ifaces, iface).map(|(h, n)| {
                    (FaultCmd::IfaceUp(h, n, false), Some(FaultCmd::IfaceUp(h, n, true)))
                }),
                ChaosOp::Gray { net, latency_factor, bandwidth_factor, .. } => {
                    pick(&binding.nets, net).map(|n| {
                        let g = GrayLevel { latency_factor, bandwidth_factor };
                        (FaultCmd::Gray(n, Some(g)), Some(FaultCmd::Gray(n, None)))
                    })
                }
                ChaosOp::LossBurst { net, loss, .. } => pick(&binding.nets, net)
                    .map(|n| (FaultCmd::NetLoss(n, Some(loss)), Some(FaultCmd::NetLoss(n, None)))),
                ChaosOp::Partition { net, group, .. } => pick(&binding.nets, net).map(|n| {
                    (FaultCmd::PartitionNet(n, group), Some(FaultCmd::PartitionNet(n, 0)))
                }),
                ChaosOp::ProcRestart { proc, .. } => {
                    pick(&binding.procs, proc).map(|(ep, f)| (FaultCmd::Restart(ep, f), None))
                }
            };
            if let Some((start, restore)) = cmds {
                world.schedule_fault(at, start);
                if let Some(restore) = restore {
                    world.schedule_fault(end, restore);
                }
            }
        }
    }

    /// One-line replay recipe for a violating run.
    pub fn replay_line(&self, workload: &str, workload_seed: u64) -> String {
        format!(
            "replay: workload={workload} plan_seed={} workload_seed={workload_seed} \
             ops={} packet={:?}",
            self.plan_seed,
            self.ops.len(),
            self.packet,
        )
    }
}

/// Greedy plan minimizer: repeatedly drop ops (then packet-chaos
/// components) while `still_fails` keeps returning true, to a fixpoint.
/// O(ops²) re-runs in the worst case — fine for the ≤ `max_ops`-sized
/// plans the generator emits.
pub fn shrink_plan(
    mut plan: ChaosPlan,
    mut still_fails: impl FnMut(&ChaosPlan) -> bool,
) -> ChaosPlan {
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < plan.ops.len() {
            let mut cand = plan.clone();
            cand.ops.remove(i);
            if still_fails(&cand) {
                plan = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if plan.packet.is_some() {
            let mut cand = plan.clone();
            cand.packet = None;
            if still_fails(&cand) {
                plan = cand;
                shrunk = true;
            } else {
                for field in 0..3 {
                    let mut cand = plan.clone();
                    {
                        let pc = cand.packet.as_mut().expect("checked above");
                        let v = match field {
                            0 => &mut pc.corrupt,
                            1 => &mut pc.duplicate,
                            _ => &mut pc.reorder,
                        };
                        if *v == 0.0 {
                            continue;
                        }
                        *v = 0.0;
                    }
                    if still_fails(&cand) {
                        plan = cand;
                        shrunk = true;
                    }
                }
            }
        }
        if !shrunk {
            return plan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Event, SimCtx};
    use crate::medium::Medium;
    use crate::topology::{HostCfg, Topology};
    use std::sync::Arc;

    struct Idle;
    impl Actor for Idle {
        fn on_event(&mut self, _ctx: &mut dyn SimCtx, _event: Event) {}
    }

    fn shape() -> ChaosShape {
        ChaosShape { hosts: 2, nets: 2, ifaces: 4, procs: 2, max_ops: 8, ..ChaosShape::default() }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = shape();
        assert_eq!(ChaosPlan::generate(7, &s), ChaosPlan::generate(7, &s));
        assert_ne!(ChaosPlan::generate(7, &s), ChaosPlan::generate(8, &s));
    }

    #[test]
    fn ops_respect_horizon_bounds() {
        let s = shape();
        for seed in 0..50 {
            let plan = ChaosPlan::generate(seed, &s);
            assert!(!plan.ops.is_empty());
            assert!(plan.ops.len() <= s.max_ops as usize);
            let lo = SimTime::from_nanos((s.horizon.as_nanos() as f64 * 0.05) as u64);
            let hi = SimTime::from_nanos((s.horizon.as_nanos() as f64 * 0.9) as u64);
            for op in &plan.ops {
                assert!(op.at() >= lo, "op starts too early: {op:?}");
                assert!(op.end() <= hi, "op quiesces too late: {op:?}");
            }
            assert!(plan.quiesce_at() <= hi.max(plan.packet_until));
        }
    }

    #[test]
    fn applied_plans_quiesce_to_pristine_topology() {
        let s = shape();
        for seed in 0..20 {
            let plan = ChaosPlan::generate(seed, &s);
            let mut t = Topology::new();
            let eth = t.add_network("eth", Medium::ethernet100(), true);
            let atm = t.add_network("atm", Medium::atm155(), false);
            let a = t.add_host(HostCfg::named("a"));
            let b = t.add_host(HostCfg::named("b"));
            for h in [a, b] {
                t.attach(h, eth);
                t.attach(h, atm);
            }
            let mut w = World::new(t, 1);
            let binding = ChaosBinding {
                hosts: vec![a, b],
                nets: vec![eth, atm],
                ifaces: vec![(a, eth), (a, atm), (b, eth), (b, atm)],
                procs: vec![(Endpoint::new(a, 9), Arc::new(|| Box::new(Idle) as Box<dyn Actor>))],
            };
            plan.apply(&mut w, &binding);
            w.run_until(plan.quiesce_at() + SimDuration::from_secs(1));
            // Every fault restored what it broke: the topology is
            // indistinguishable from an untouched one.
            let topo = w.topology();
            for h in [a, b] {
                assert!(topo.host(h).up, "seed {seed}: host {h} left down");
                for i in &topo.host(h).interfaces {
                    assert!(i.up, "seed {seed}: iface left down");
                }
            }
            for n in [eth, atm] {
                let net = topo.net(n);
                assert!(net.up, "seed {seed}: net left down");
                assert_eq!(net.loss_override, None, "seed {seed}: loss left set");
                assert_eq!(net.gray, None, "seed {seed}: gray left set");
                assert_eq!(net.partition, 0, "seed {seed}: partition left set");
            }
        }
    }

    #[test]
    fn shrink_reaches_minimal_failing_plan() {
        let s = shape();
        let mut plan = ChaosPlan::generate(3, &s);
        // Ensure there are several ops including ≥2 host flaps.
        plan.ops = vec![
            ChaosOp::HostFlap {
                host: 0,
                at: SimTime::from_nanos(1_000_000_000),
                down_for: SimDuration::from_secs(1),
            },
            ChaosOp::NetFlap {
                net: 0,
                at: SimTime::from_nanos(2_000_000_000),
                down_for: SimDuration::from_secs(1),
            },
            ChaosOp::HostFlap {
                host: 1,
                at: SimTime::from_nanos(3_000_000_000),
                down_for: SimDuration::from_secs(1),
            },
            ChaosOp::LossBurst {
                net: 1,
                at: SimTime::from_nanos(4_000_000_000),
                duration: SimDuration::from_secs(1),
                loss: 0.5,
            },
        ];
        plan.packet = Some(PacketChaos {
            corrupt: 0.01,
            duplicate: 0.02,
            reorder: 0.03,
            jitter: SimDuration::from_millis(10),
        });
        // "Failure" = the plan still contains at least one host flap.
        let fails = |p: &ChaosPlan| p.ops.iter().any(|o| matches!(o, ChaosOp::HostFlap { .. }));
        let min = shrink_plan(plan, fails);
        assert_eq!(min.ops.len(), 1, "exactly one culprit op survives: {min:?}");
        assert!(matches!(min.ops[0], ChaosOp::HostFlap { .. }));
        assert_eq!(min.packet, None, "irrelevant packet chaos cleared");
    }

    #[test]
    fn empty_binding_classes_are_skipped() {
        let s = ChaosShape { hosts: 3, nets: 2, ifaces: 2, procs: 0, ..shape() };
        let plan = ChaosPlan::generate(11, &s);
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        t.attach(a, eth);
        let mut w = World::new(t, 1);
        // Bind nothing: every op is skipped, nothing panics, packet
        // chaos still toggles.
        plan.apply(&mut w, &ChaosBinding::default());
        w.run_until(plan.quiesce_at() + SimDuration::from_secs(1));
        assert!(w.topology().host(a).up);
    }
}
