//! The round coordinator: the fault timeline, the per-core inbound
//! lists and the deterministic mailbox (see [`crate::shard`]).

use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

use snipe_util::id::{HostId, NetId};
use snipe_util::stats::Log2Histogram;
use snipe_util::time::SimTime;

use crate::actor::Actor;
use crate::chaos::PacketChaos;
use crate::partition::{region_seed, Partition};
use crate::region::{Inbound, MailboxItem};
use crate::shard::write_topo;
use crate::topology::{Endpoint, GrayLevel, Topology};
use crate::trace::{self, FaultOp, TraceKind};

/// Builds the replacement actor for a [`FaultCmd::Restart`].
pub type ActorFactory = Arc<dyn Fn() -> Box<dyn Actor> + Send + Sync>;

/// A fault as plain data: scheduled with
/// [`World::schedule_fault`](crate::World::schedule_fault) or applied
/// immediately by the fault methods on [`World`](crate::World), and
/// routed to the owning core at a round boundary.
#[derive(Clone)]
pub enum FaultCmd {
    /// Crash a host (its actors get [`Event::HostDown`](crate::Event)).
    HostDown(HostId),
    /// Repair a host.
    HostUp(HostId),
    /// Take a segment down/up.
    NetUp(NetId, bool),
    /// Flap one host interface.
    IfaceUp(HostId, NetId, bool),
    /// Override (or restore) a segment's loss rate.
    NetLoss(NetId, Option<f64>),
    /// Move a segment into a partition group (0 heals).
    PartitionNet(NetId, u32),
    /// Degrade a segment into a gray link (None restores). The
    /// scheduler clamps `latency_factor` to ≥ 1.0 so gray links can
    /// only *raise* latency — the conservative lookahead depends on it.
    Gray(NetId, Option<GrayLevel>),
    /// Install (or clear) per-packet chaos. Each core's chaos RNG is
    /// reseeded from the seed (per the module's seed rule).
    PacketChaos(Option<PacketChaos>, u64),
    /// Crash the process at an endpoint and start the factory's
    /// replacement there at the same instant (the host stays up): the
    /// new actor gets [`Event::Start`](crate::Event::Start) at the
    /// fault's timestamp and every later packet to the endpoint.
    Restart(Endpoint, ActorFactory),
}

/// Round-planning state: the fault timeline, the per-core inbound
/// lists and the mailbox. One implementation serves the round loop at
/// any thread count and the immediate fault API, so they cannot
/// diverge. Every buffer is reused across rounds and runs — the
/// steady state allocates nothing.
pub(crate) struct Coordinator {
    /// Pending faults in time order, ties in scheduling order.
    faults: VecDeque<(SimTime, FaultCmd)>,
    /// Most mailbox items routed into each core in one round.
    pub(crate) mailbox_hwm: Vec<u64>,
    pub(crate) inbound: Vec<Vec<Inbound>>,
    /// Lower bound (ns) on any event the pending inbound lists can
    /// introduce, `u64::MAX` when they are empty. Cores report their
    /// queue minima *before* inbound application, so the window planner
    /// folds this in.
    floor_ns: u64,
    /// Each core's earliest pending event after the previous window.
    pub(crate) mins: Vec<u64>,
    /// The round's outbox items, gathered from every core.
    pub(crate) items: Vec<MailboxItem>,
    /// Record segment-level faults into the calling thread's flight
    /// recorder (host faults, chaos toggles and restarts are recorded
    /// by the core that applies them).
    pub(crate) thread_trace: bool,
    /// Rounds run, and the events each ran. Host-independent, like the
    /// digest, but not part of it.
    pub(crate) rounds: u64,
    pub(crate) events_per_round: Log2Histogram,
}

impl Coordinator {
    pub(crate) fn new(regions: usize, thread_trace: bool) -> Coordinator {
        Coordinator {
            faults: VecDeque::new(),
            mailbox_hwm: vec![0; regions],
            inbound: (0..regions).map(|_| Vec::new()).collect(),
            floor_ns: u64::MAX,
            mins: vec![u64::MAX; regions],
            items: Vec::new(),
            thread_trace,
            rounds: 0,
            events_per_round: Log2Histogram::default(),
        }
    }

    /// Put a fault on the timeline, after every fault due at or before
    /// `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, cmd: FaultCmd) {
        let i = self.faults.partition_point(|f| f.0 <= at);
        self.faults.insert(i, (at, cmd));
    }

    /// Apply every fault due at or before `completed_ns` (and within
    /// the horizon): mutate the shared topology, and emit host-event /
    /// chaos / restart inbounds to the owning cores.
    fn apply_due_faults(
        &mut self,
        topo: &RwLock<Topology>,
        part: &Partition,
        completed_ns: u64,
        horizon_ns: u64,
    ) {
        // `horizon_ns` is exclusive and at least 1.
        let by_ns = completed_ns.min(horizon_ns - 1);
        while let Some((at, cmd)) = self.faults.pop_front_if(|f| f.0.as_nanos() <= by_ns) {
            self.apply_fault(topo, part, at, cmd);
        }
    }

    fn note_inbound(&mut self, at_ns: u64) {
        self.floor_ns = self.floor_ns.min(at_ns);
    }

    /// Apply one fault at `at`. Idempotent: a command that does not
    /// change state leaves the topology epoch (and thus every route
    /// cache) alone and notifies nobody.
    pub(crate) fn apply_fault(
        &mut self,
        topo: &RwLock<Topology>,
        part: &Partition,
        at: SimTime,
        cmd: FaultCmd,
    ) {
        /// Store `v`; did that change anything?
        fn set<T: PartialEq>(slot: &mut T, v: T) -> bool {
            let changed = *slot != v;
            *slot = v;
            changed
        }
        let mut topo = write_topo(topo);
        // Segment-level faults yield `(what, a, b)` for the flight
        // recorder when they changed state; the rest are recorded by
        // the core that applies their inbound.
        let changed = match cmd {
            FaultCmd::HostDown(host) | FaultCmd::HostUp(host) => {
                let up = matches!(cmd, FaultCmd::HostUp(_));
                if set(&mut topo.host_mut(host).up, up) {
                    topo.bump_epoch();
                    let event = Inbound::HostEvent { at, host, up };
                    self.inbound[part.region_of_host(host)].push(event);
                    self.note_inbound(at.as_nanos());
                }
                None
            }
            FaultCmd::NetUp(n, up) => {
                set(&mut topo.net_mut(n).up, up).then_some(("set_net_up", n.index(), up as u64))
            }
            FaultCmd::IfaceUp(h, n, up) => {
                let iface = topo.host_mut(h).interfaces.iter_mut().find(|i| i.net == n);
                iface.is_some_and(|i| set(&mut i.up, up)).then_some((
                    "set_iface_up",
                    h.index(),
                    n.index() as u64,
                ))
            }
            FaultCmd::NetLoss(n, loss) => set(&mut topo.net_mut(n).loss_override, loss)
                .then_some(("set_net_loss", n.index(), loss.is_some() as u64)),
            FaultCmd::PartitionNet(n, group) => set(&mut topo.net_mut(n).partition, group)
                .then_some(("set_partition", n.index(), group as u64)),
            FaultCmd::Gray(n, gray) => set(&mut topo.net_mut(n).gray, gray).then_some((
                "set_gray",
                n.index(),
                gray.is_some() as u64,
            )),
            FaultCmd::PacketChaos(pc, seed) => {
                let regions = part.regions;
                for (r, inb) in self.inbound.iter_mut().enumerate() {
                    let seed = region_seed(seed, r as u32, regions);
                    inb.push(Inbound::SetChaos { at, chaos: pc, seed });
                }
                self.note_inbound(at.as_nanos());
                None
            }
            FaultCmd::Restart(ep, factory) => {
                let actor = factory();
                self.inbound[part.region_of_host(ep.host)].push(Inbound::Restart { at, ep, actor });
                self.note_inbound(at.as_nanos());
                None
            }
        };
        if let Some((what, a, b)) = changed {
            topo.bump_epoch();
            if self.thread_trace {
                let op = FaultOp { what, a: a as u64, b };
                trace::record_cached(at, TraceKind::Fault { op });
            }
        }
    }

    /// The round loop, the only one in the engine: apply the faults due
    /// by the last window's end, plan the next window, hand the inbound
    /// lists over, let `window` run every core up to the window end, and
    /// route the mailbox. `window` leaves the cores' outboxes in `items`
    /// and their queue minima in `mins`, and answers the events it ran,
    /// or `None` when a worker thread is gone (it panicked), which ends
    /// the loop. `mins` must hold every core's queue minimum on entry.
    pub(crate) fn run(
        &mut self,
        topo: &RwLock<Topology>,
        part: &Partition,
        horizon_ns: u64,
        mut window: impl FnMut(&mut Coordinator, u64) -> Option<u64>,
    ) {
        let mut completed = 0u64;
        loop {
            self.apply_due_faults(topo, part, completed, horizon_ns);
            let Some(end) = self.plan(part.la_ns, horizon_ns) else { break };
            self.begin_round();
            let Some(events) = window(self, end) else { break };
            self.rounds += 1;
            self.events_per_round.observe(events);
            completed = end;
            self.route(part, end);
        }
    }

    /// Plan the next window end (exclusive, in ns), or `None` when the
    /// run is complete.
    fn plan(&self, la_ns: u64, horizon_ns: u64) -> Option<u64> {
        let t_min = self.mins.iter().copied().min().unwrap_or(u64::MAX).min(self.floor_ns);
        // A fault at or past the horizon caps nothing: the horizon does.
        let fault = self.faults.front().map_or(u64::MAX, |f| f.0.as_nanos());
        if t_min.min(fault) < horizon_ns {
            Some(horizon_ns.min(t_min.saturating_add(la_ns)).min(fault))
        } else {
            // Final apply-only round: pending cross-region arrivals (due
            // after the horizon) still need to land in their cores'
            // queues for a later `run_until`.
            (self.floor_ns < u64::MAX).then_some(horizon_ns)
        }
    }

    /// The inbound lists are about to be handed to the cores.
    pub(crate) fn begin_round(&mut self) {
        self.floor_ns = u64::MAX;
    }

    /// Route the round's outbox items (`self.items`) through the
    /// deterministic mailbox: global `(at, src_region, src_seq)` order,
    /// then appended to the destination cores' inbound lists.
    fn route(&mut self, part: &Partition, end_ns: u64) {
        // The key is unique (`src_seq` counts each region's emissions),
        // so the unstable sort yields the one order, with no scratch.
        self.items.sort_unstable_by_key(|i| (i.at, i.src_region, i.src_seq));
        let Some(first) = self.items.first() else { return };
        self.note_inbound(first.at.as_nanos());
        for item in self.items.drain(..) {
            debug_assert!(
                item.at.as_nanos() >= end_ns,
                "cross-region arrival inside the window violates lookahead"
            );
            self.inbound[part.region_of_host(item.to.host)].push(Inbound::Deliver(item));
        }
        // The window drained every inbound list, so each now holds this
        // round's mail alone.
        for (hwm, mail) in self.mailbox_hwm.iter_mut().zip(&self.inbound) {
            *hwm = (*hwm).max(mail.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use snipe_util::time::SimDuration;

    use super::*;
    use crate::medium::Medium;
    use crate::topology::HostCfg;

    /// Two routable LANs of two hosts each (hosts 0–1 and 2–3): two
    /// regions and a 400 µs lookahead.
    fn two_regions() -> (RwLock<Topology>, Partition) {
        let mut t = Topology::new();
        for lan in 0..2 {
            let medium = Medium { latency: SimDuration::from_micros(200), ..Medium::ethernet100() };
            let net = t.add_network("lan", medium, true);
            for i in 0..2 {
                let h = t.add_host(HostCfg::named(format!("l{lan}h{i}")));
                t.attach(h, net);
            }
        }
        let part = Partition::of(&t);
        assert_eq!((part.regions(), part.la_ns), (2, 400_000));
        (RwLock::new(t), part)
    }

    fn item(at: u64, src_region: u32, src_seq: u64, to: u32) -> MailboxItem {
        MailboxItem {
            at: SimTime::from_nanos(at),
            src_region,
            src_seq,
            from: Endpoint::new(HostId(0), 1),
            to: Endpoint::new(HostId(to), 1),
            payload: Bytes::new(),
        }
    }

    #[test]
    fn plan_ends_the_window_at_the_lookahead_the_next_fault_or_the_horizon() {
        let (_, part) = two_regions();
        let la = part.la_ns;
        let mut c = Coordinator::new(2, false);
        c.mins = vec![7_000, 1_000];
        assert_eq!(c.plan(la, 10_000_000), Some(1_000 + la), "lookahead");
        assert_eq!(c.plan(la, 2_000), Some(2_000), "horizon");
        c.schedule(SimTime::from_nanos(50_000), FaultCmd::HostDown(HostId(0)));
        assert_eq!(c.plan(la, 10_000_000), Some(50_000), "fault");
        c.mins = vec![u64::MAX; 2];
        assert_eq!(c.plan(la, 10_000_000), Some(50_000), "a fault alone is work");
        assert_eq!(c.plan(la, 50_000), None, "nothing due before the horizon");
    }

    #[test]
    fn pending_inbound_lowers_the_earliest_work() {
        let (_, part) = two_regions();
        let la = part.la_ns;
        let mut c = Coordinator::new(2, false);
        c.mins = vec![900_000, u64::MAX];
        assert_eq!(c.plan(la, u64::MAX), Some(900_000 + la));
        c.items.push(item(300_000, 0, 0, 2));
        c.route(&part, 0);
        assert_eq!(c.plan(la, u64::MAX), Some(300_000 + la), "the mail is due first");
        c.begin_round();
        assert_eq!(c.plan(la, u64::MAX), Some(900_000 + la), "handed over");
    }

    #[test]
    fn a_fault_at_or_past_the_horizon_waits_for_a_later_run() {
        let (topo, part) = two_regions();
        let la = part.la_ns;
        let horizon = 300_000;
        let mut c = Coordinator::new(2, false);
        c.mins = vec![1_000, u64::MAX];
        for at in [horizon, horizon + 1] {
            c.schedule(SimTime::from_nanos(at), FaultCmd::HostDown(HostId(at as u32 % 2)));
        }
        assert_eq!(c.plan(la, horizon), Some(horizon), "the horizon caps, not the fault");
        c.apply_due_faults(&topo, &part, u64::MAX, horizon);
        assert_eq!(c.faults.len(), 2, "neither fault applied");
        assert!(topo.read().unwrap().hosts().all(|h| h.up));
        c.mins = vec![u64::MAX; 2];
        assert_eq!(c.plan(la, horizon), None);
    }

    #[test]
    fn mail_due_past_the_horizon_gets_one_apply_only_round() {
        let (_, part) = two_regions();
        let la = part.la_ns;
        let horizon = 1_000_000;
        let mut c = Coordinator::new(2, false);
        c.mins = vec![u64::MAX; 2];
        c.items.push(item(horizon + 5, 0, 0, 2));
        c.route(&part, horizon - la);
        assert_eq!(c.plan(la, horizon), Some(horizon), "hand the mail over");
        // The window hands the list to region 1, whose queue now holds it.
        c.begin_round();
        c.inbound[1].clear();
        c.mins[1] = horizon + 5;
        assert_eq!(c.plan(la, horizon), None);
    }

    #[test]
    fn route_orders_mail_whatever_the_gathering_order() {
        let (_, part) = two_regions();
        // `(at, src_region, src_seq, to host)`; hosts 2 and 3 are region 1.
        let mail = [(500, 1, 0, 2), (500, 0, 3, 3), (400, 1, 1, 2), (500, 0, 2, 2), (600, 0, 0, 0)];
        let mut c = Coordinator::new(2, false);
        for turn in 0..mail.len() {
            for &(at, r, seq, to) in mail.iter().cycle().skip(turn).take(mail.len()) {
                c.items.push(item(at, r, seq, to));
            }
            c.route(&part, 0);
            let keys = |list: &mut Vec<Inbound>| -> Vec<(u64, u32, u64)> {
                list.drain(..)
                    .map(|i| match i {
                        Inbound::Deliver(m) => (m.at.as_nanos(), m.src_region, m.src_seq),
                        _ => panic!("only mail was routed"),
                    })
                    .collect()
            };
            let to_r1 = [(400, 1, 1), (500, 0, 2), (500, 0, 3), (500, 1, 0)];
            assert_eq!(keys(&mut c.inbound[1]), to_r1, "turn {turn}");
            assert_eq!(keys(&mut c.inbound[0]), [(600, 0, 0)], "turn {turn}");
            assert!(c.items.is_empty());
            c.begin_round();
        }
        assert_eq!(c.mailbox_hwm, [1, 4]);
        c.items.push(item(700, 0, 4, 2));
        c.route(&part, 0);
        assert_eq!(c.mailbox_hwm, [1, 4], "a high-water mark, not the last round");
    }
}
