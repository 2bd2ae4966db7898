//! One region's engine core, [`ShardCore`], and the actor-facing
//! context it hands out, [`ShardCtx`], with the queued-event, slot and
//! mailbox types they share with the coordinator (see [`crate::shard`]).

use bytes::Bytes;

use snipe_util::id::{HostId, NetId};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};

use crate::actor::{Actor, Event, SimCtx};
use crate::chaos::PacketChaos;
use crate::partition::{region_seed, Partition};
use crate::queue::{EventQueue, FnvMap, Tier, TxChannel};
use crate::topology::{Endpoint, PathInfo, Topology};
use crate::trace::{self, DropReason, FaultOp, NetStats, Recorder, TraceKind};
use crate::world::{compute_path, EPHEMERAL_BASE, SIGSTART};

/// Dense actor handle within one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ActorId(u64);

/// The [`SimCtx`] handed to an actor during dispatch: its core plus
/// the shared read-only topology and partition.
struct ShardCtx<'a> {
    core: &'a mut ShardCore,
    topo: &'a Topology,
    part: &'a Partition,
    me: ActorId,
    my_endpoint: Endpoint,
}

/// The region owning `host`, or `None` for an unknown host id.
pub(crate) fn spawn_region(topo: &Topology, part: &Partition, host: HostId) -> Option<usize> {
    (host.index() < topo.host_count()).then(|| part.region_of_host(host))
}

impl SimCtx for ShardCtx<'_> {
    fn now(&self) -> SimTime {
        self.core.now
    }

    fn me(&self) -> Endpoint {
        self.my_endpoint
    }

    fn host(&self) -> HostId {
        self.my_endpoint.host
    }

    fn send(&mut self, to: Endpoint, payload: Bytes) {
        self.core.send_packet(self.topo, self.part, self.my_endpoint, to, payload, None);
    }

    fn send_via(&mut self, to: Endpoint, payload: Bytes, via: NetId) {
        self.core.send_packet(self.topo, self.part, self.my_endpoint, to, payload, Some(via));
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.core.push(self.core.now + delay, Queued::Timer { actor: self.me, token });
    }

    fn spawn_portable(
        &mut self,
        host: HostId,
        port: u16,
        actor: Box<dyn Actor>,
    ) -> Option<Endpoint> {
        let r = spawn_region(self.topo, self.part, host)?;
        debug_assert_eq!(r, self.core.region as usize, "cross-region spawn");
        if r != self.core.region as usize {
            return None;
        }
        self.core.spawn(host, port, actor)
    }

    fn alloc_port(&mut self, host: HostId) -> u16 {
        self.core.alloc_port(host)
    }

    fn is_bound(&self, ep: Endpoint) -> bool {
        self.core.bindings.contains_key(&ep)
    }

    fn kill(&mut self, ep: Endpoint) {
        debug_assert_eq!(
            self.part.region_of_host(ep.host),
            self.core.region as usize,
            "cross-region kill"
        );
        self.core.kill(ep);
    }

    fn signal(&mut self, to: Endpoint, signum: u32) {
        debug_assert_eq!(
            self.part.region_of_host(to.host),
            self.core.region as usize,
            "cross-region signal"
        );
        let from = Some(self.my_endpoint);
        self.core.push(self.core.now, Queued::Signal { from, to, signum });
    }

    fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.core.rng
    }

    fn topology(&self) -> &Topology {
        self.topo
    }

    fn host_up(&self, h: HostId) -> bool {
        self.topo.host(h).up
    }
}

/// A `Wake` is stale unless its `gen` is still its slot's.
pub(crate) enum Queued {
    Deliver { from: Endpoint, to: Endpoint, payload: Bytes },
    Timer { actor: ActorId, token: u64 },
    Wake { actor: ActorId, gen: u64 },
    Signal { from: Option<Endpoint>, to: Endpoint, signum: u32 },
}

struct Slot {
    actor: Option<Box<dyn Actor>>,
    endpoint: Endpoint,
    alive: bool,
    wake: WakeSlot,
}

/// An actor's engine-owned wake-up: its last [`Actor::next_wake`]
/// answer (cleared when it fires or comes due while the host is down),
/// and when its one live [`Queued::Wake`] pops, under which generation.
/// An earlier answer queues a new entry under a new generation, so the
/// old one goes stale where it sits; a later answer or `None` queues
/// nothing, and the live entry follows the answer, or is discarded,
/// when it pops.
#[derive(Clone, Copy, Default)]
struct WakeSlot {
    answer: Option<SimTime>,
    queued: Option<SimTime>,
    gen: u64,
}

/// A cross-region packet in flight between rounds. `(at, src_region,
/// src_seq)` totally orders every item of a round — the mailbox
/// tie-break that makes destination-side sequence numbers independent
/// of thread count.
pub(crate) struct MailboxItem {
    pub(crate) at: SimTime,
    pub(crate) src_region: u32,
    pub(crate) src_seq: u64,
    pub(crate) from: Endpoint,
    pub(crate) to: Endpoint,
    pub(crate) payload: Bytes,
}

/// Work the coordinator hands a core at a round boundary, applied
/// in-order before the window runs.
pub(crate) enum Inbound {
    Deliver(MailboxItem),
    HostEvent { at: SimTime, host: HostId, up: bool },
    SetChaos { at: SimTime, chaos: Option<PacketChaos>, seed: u64 },
    Restart { at: SimTime, ep: Endpoint, actor: Box<dyn Actor> },
}

/// Where a core's engine events are recorded (module docs, "Trace
/// sinks").
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceSink {
    Off,
    /// The constructing thread's flight recorder.
    Thread,
    /// This core's own ring.
    Ring,
}

type RouteKey = (HostId, HostId, Option<NetId>);

/// One region's complete engine state: queue, clock, stats, RNG
/// streams, route cache, dense busy vectors, actors, outbox, ring.
pub(crate) struct ShardCore {
    pub(crate) region: u32,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Queued>,
    slots: Vec<Slot>,
    pub(crate) bindings: FnvMap<Endpoint, ActorId>,
    ephemeral: FnvMap<HostId, u16>,
    rng: Xoshiro256,
    /// Per-packet chaos injection, `None` when chaos is off (the common
    /// case — one branch per send).
    chaos: Option<PacketChaos>,
    /// Chaos draws come from their own stream so a chaos plan never
    /// perturbs the workload's RNG: a failing run replays bit-for-bit
    /// from `(plan seed, workload seed)` independently.
    chaos_rng: Xoshiro256,
    pub(crate) stats: NetStats,
    /// Busy-until per shared-bus segment of this region (dense local
    /// slots via [`Partition::net_slot`]).
    bus_busy: Vec<SimTime>,
    /// Busy-until per switched interface of this region.
    link_busy: Vec<SimTime>,
    /// Memoized `compute_path` results, valid while `route_epoch`
    /// matches the topology epoch. Negative results (`None`) are cached
    /// too: a partitioned destination is asked for just as often.
    route_cache: FnvMap<RouteKey, Option<PathInfo>>,
    route_epoch: u64,
    pub(crate) outbox: Vec<MailboxItem>,
    /// Monotone per-core mailbox emission counter — the `src_seq` of
    /// the deterministic mailbox tie-break.
    pub(crate) out_seq: u64,
    /// High-water mark of the longest single delivery stream.
    pub(crate) stream_hwm: usize,
    /// One predictable branch on a plain field per hot-path record
    /// site, not a TLS lookup per event.
    pub(crate) sink: TraceSink,
    pub(crate) ring: Recorder,
}

impl ShardCore {
    pub(crate) fn new(
        region: u32,
        topo: &Topology,
        part: &Partition,
        seed: u64,
        sink: TraceSink,
    ) -> ShardCore {
        let mut stats = NetStats::default();
        stats.reserve_nets(topo.net_count());
        ShardCore {
            region,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            slots: Vec::new(),
            bindings: FnvMap::default(),
            ephemeral: FnvMap::default(),
            rng: Xoshiro256::seed_from_u64(region_seed(seed, region, part.regions)),
            chaos: None,
            chaos_rng: Xoshiro256::seed_from_u64(0),
            stats,
            bus_busy: vec![SimTime::ZERO; part.bus_counts[region as usize] as usize],
            link_busy: vec![SimTime::ZERO; part.link_counts[region as usize] as usize],
            route_cache: FnvMap::default(),
            route_epoch: topo.epoch(),
            outbox: Vec::new(),
            out_seq: 0,
            stream_hwm: 0,
            sink,
            ring: Recorder::empty(),
        }
    }

    /// Record an engine event if a sink is on. Takes a closure so the
    /// event is only built on the (cold) recording path.
    #[inline(always)]
    fn record(&mut self, kind: impl FnOnce() -> TraceKind) {
        if self.sink != TraceSink::Off {
            self.record_to_sink(kind());
        }
    }

    /// Outlined like [`trace::record_cached`]: the ring machinery must
    /// not be inlined, dead, into every guarded hot-loop site.
    #[cold]
    #[inline(never)]
    fn record_to_sink(&mut self, kind: TraceKind) {
        if self.sink == TraceSink::Thread {
            trace::record_cached(self.now, kind);
        } else {
            self.ring.push(self.now, kind);
        }
    }

    fn record_fault(&mut self, what: &'static str, a: u64, b: u64) {
        self.record(|| TraceKind::Fault { op: FaultOp { what, a, b } });
    }

    fn note_depth(&mut self) {
        let peak = &mut self.stats.engine.peak_queue_depth;
        *peak = (*peak).max(self.queue.depth() as u64);
    }

    fn note_drop(&mut self, reason: DropReason) {
        self.stats.drop(reason);
        self.record(|| TraceKind::Drop { reason });
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: Queued) {
        self.queue.push(self.now, at, kind);
        self.note_depth();
    }

    /// Queue a delivery serialized by `channel` with a fixed
    /// propagation latency, using its FIFO stream when the arrival
    /// order allows.
    fn push_delivery(
        &mut self,
        at: SimTime,
        kind: Queued,
        channel: TxChannel,
        latency: SimDuration,
    ) {
        self.queue.push_delivery(self.now, at, kind, channel, latency);
        self.note_depth();
    }

    pub(crate) fn peek_ns(&self) -> u64 {
        self.queue.peek_at().map(|t| t.as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn spawn(
        &mut self,
        host: HostId,
        port: u16,
        actor: Box<dyn Actor>,
    ) -> Option<Endpoint> {
        let ep = Endpoint::new(host, port);
        if self.bindings.contains_key(&ep) {
            return None;
        }
        let id = ActorId(self.slots.len() as u64);
        let wake = WakeSlot::default();
        self.slots.push(Slot { actor: Some(actor), endpoint: ep, alive: true, wake });
        self.bindings.insert(ep, id);
        self.push(self.now, Queued::Signal { from: None, to: ep, signum: SIGSTART });
        Some(ep)
    }

    pub(crate) fn alloc_port(&mut self, host: HostId) -> u16 {
        let ctr = self.ephemeral.entry(host).or_insert(EPHEMERAL_BASE);
        let span = (u16::MAX - EPHEMERAL_BASE) as u32 + 1;
        for _ in 0..span {
            let p = *ctr;
            *ctr = p.checked_add(1).unwrap_or(EPHEMERAL_BASE);
            if !self.bindings.contains_key(&Endpoint::new(host, p)) {
                return p;
            }
        }
        panic!("alloc_port: all {span} ephemeral ports on host {host} are bound");
    }

    pub(crate) fn kill(&mut self, ep: Endpoint) {
        if let Some(id) = self.bindings.remove(&ep) {
            let slot = &mut self.slots[id.0 as usize];
            slot.alive = false;
            slot.actor = None; // drop immediately unless currently executing
        }
    }

    pub(crate) fn actor_at(&self, ep: Endpoint) -> Option<&dyn Actor> {
        let id = self.bindings.get(&ep)?;
        self.slots[id.0 as usize].actor.as_deref()
    }

    fn endpoints_on(&self, h: HostId) -> Vec<Endpoint> {
        let mut eps: Vec<Endpoint> =
            self.bindings.keys().filter(|ep| ep.host == h).copied().collect();
        eps.sort(); // determinism
        eps
    }

    /// Route selection per §5.3, memoized. Cache entries live until the
    /// next topology epoch bump (any fault/attach mutation).
    pub(crate) fn select_path(
        &mut self,
        topo: &Topology,
        from: HostId,
        to: HostId,
        via: Option<NetId>,
    ) -> Option<PathInfo> {
        if self.route_epoch != topo.epoch() {
            self.route_cache.clear();
            self.route_epoch = topo.epoch();
        }
        if let Some(&hit) = self.route_cache.get(&(from, to, via)) {
            self.stats.engine.route_cache_hits += 1;
            return hit;
        }
        self.stats.engine.route_cache_misses += 1;
        let path = compute_path(topo, from, to, via);
        self.route_cache.insert((from, to, via), path);
        path
    }

    /// Send a datagram (the delivery model is in [`crate::world`]).
    /// Wire occupancy lives in the core's dense busy vectors (the
    /// shared topology is read-only during a window), and deliveries
    /// whose destination is another region go to the outbox.
    fn send_packet(
        &mut self,
        topo: &Topology,
        part: &Partition,
        from: Endpoint,
        to: Endpoint,
        payload: Bytes,
        via: Option<NetId>,
    ) {
        self.stats.sent += 1;
        let len = payload.len() as u32;
        self.record(|| TraceKind::Send { from, to, len });
        if from.host == to.host {
            // Loopback: constant small cost, no shared wire.
            let m = crate::medium::Medium::loopback();
            let at = self.now + m.tx_time(payload.len()) + m.latency;
            self.push(at, Queued::Deliver { from, to, payload });
            return;
        }
        if !topo.host(from.host).up {
            self.note_drop(DropReason::HostDown);
            return;
        }
        let Some(path) = self.select_path(topo, from.host, to.host, via) else {
            self.note_drop(DropReason::NoRoute);
            return;
        };
        if payload.len() > path.mtu {
            self.note_drop(DropReason::TooBig);
            return;
        }
        // Serialization on the first-hop transmitter, at the bottleneck
        // bandwidth for routed paths.
        let src_net = path.first_net();
        let medium = &topo.net(src_net).medium;
        let tx = medium.tx_time_at(path.bandwidth_bps, payload.len());
        // The serializing transmitter and its busy-until slot (none for a
        // switched sender with no interface on the segment).
        let (busy, channel) = if medium.shared_bus {
            let slot = part.net_slot[src_net.index()] as usize;
            (Some(&mut self.bus_busy[slot]), TxChannel::Bus(src_net))
        } else {
            match topo.host(from.host).interfaces.iter().find(|i| i.net == src_net) {
                Some(i) => {
                    let slot = part.link_slot[i.link.index()] as usize;
                    (Some(&mut self.link_busy[slot]), TxChannel::Link(i.link))
                }
                None => (None, TxChannel::Bus(src_net)),
            }
        };
        let finish = busy.as_deref().map_or(self.now, |&free| free.max(self.now)) + tx;
        if let Some(busy) = busy {
            *busy = finish;
        }
        // Loss after occupancy: a lost frame still burned air time.
        if path.loss > 0.0 && self.rng.gen_bool(path.loss) {
            self.note_drop(DropReason::Loss);
            return;
        }
        for &n in path.nets() {
            self.stats.add_bytes(n, payload.len() as u64);
        }
        let at = finish + path.latency;
        let cross = part.region_of_host(to.host) != self.region as usize;
        if let Some(fx) = self.chaos {
            self.chaos_deliver(fx, at, from, to, payload, channel, path.latency, cross);
        } else if cross {
            self.push_outbox(at, from, to, payload);
        } else {
            self.push_delivery(at, Queued::Deliver { from, to, payload }, channel, path.latency);
        }
    }

    fn push_outbox(&mut self, at: SimTime, from: Endpoint, to: Endpoint, payload: Bytes) {
        let item =
            MailboxItem { at, src_region: self.region, src_seq: self.out_seq, from, to, payload };
        self.out_seq += 1;
        self.outbox.push(item);
    }

    /// Deliver one packet under per-packet chaos `fx`: maybe corrupt
    /// the payload, maybe inject a duplicate, maybe jitter the arrival.
    /// Jittered copies go through the heap, not the delivery streams —
    /// their arrival times are not monotone per channel, which is the
    /// invariant the streams rely on. Cross-region copies (jittered or
    /// not) ride the mailbox; their arrival times only grow (jitter ≥
    /// 1ns), so the lookahead bound still holds.
    #[allow(clippy::too_many_arguments)]
    fn chaos_deliver(
        &mut self,
        fx: PacketChaos,
        at: SimTime,
        from: Endpoint,
        to: Endpoint,
        payload: Bytes,
        channel: TxChannel,
        latency: SimDuration,
        cross: bool,
    ) {
        let mut payload = payload;
        if fx.corrupt > 0.0 && !payload.is_empty() && self.chaos_rng.gen_bool(fx.corrupt) {
            let mut bytes = payload.to_vec();
            let flips = self.chaos_rng.gen_range_inclusive(1, 3);
            for _ in 0..flips {
                let i = self.chaos_rng.gen_range(bytes.len() as u64) as usize;
                let bit = self.chaos_rng.gen_range(8) as u8;
                bytes[i] ^= 1 << bit;
            }
            payload = Bytes::from(bytes);
            self.stats.chaos.corrupted += 1;
        }
        if fx.duplicate > 0.0 && self.chaos_rng.gen_bool(fx.duplicate) {
            let dup_at = at + self.jitter_draw(fx.jitter);
            self.push_jittered(dup_at, from, to, payload.clone(), cross);
            self.stats.chaos.duplicated += 1;
        }
        if fx.reorder > 0.0 && self.chaos_rng.gen_bool(fx.reorder) {
            let late_at = at + self.jitter_draw(fx.jitter);
            self.push_jittered(late_at, from, to, payload, cross);
            self.stats.chaos.reordered += 1;
            return;
        }
        if cross {
            self.push_outbox(at, from, to, payload);
        } else {
            self.push_delivery(at, Queued::Deliver { from, to, payload }, channel, latency);
        }
    }

    fn push_jittered(
        &mut self,
        at: SimTime,
        from: Endpoint,
        to: Endpoint,
        payload: Bytes,
        cross: bool,
    ) {
        if cross {
            self.push_outbox(at, from, to, payload);
        } else {
            self.push(at, Queued::Deliver { from, to, payload });
        }
    }

    fn jitter_draw(&mut self, max: SimDuration) -> SimDuration {
        SimDuration::from_nanos(1 + self.chaos_rng.gen_range(max.as_nanos().max(1)))
    }

    fn dispatch_to(&mut self, topo: &Topology, part: &Partition, ep: Endpoint, event: Event) {
        let Some(&id) = self.bindings.get(&ep) else { return };
        self.dispatch_id(topo, part, id, ep, event);
    }

    fn dispatch_id(
        &mut self,
        topo: &Topology,
        part: &Partition,
        id: ActorId,
        ep: Endpoint,
        event: Event,
    ) {
        let Some(mut actor) = self.slots[id.0 as usize].actor.take() else {
            return; // re-entrant dispatch to the same actor: drop
        };
        let woken = matches!(event, Event::Wake);
        {
            let mut ctx = ShardCtx { core: self, topo, part, me: id, my_endpoint: ep };
            actor.on_event(&mut ctx, event);
        }
        let now = self.now;
        let slot = &mut self.slots[id.0 as usize];
        if !slot.alive {
            return;
        }
        let next = actor.next_wake();
        slot.actor = Some(actor);
        debug_assert!(
            !woken || next.is_none_or(|at| at > now),
            "{ep} answered a wake-up at {next:?} <= now ({now}) after Event::Wake: it would spin"
        );
        let wake = &mut slot.wake;
        wake.answer = next;
        let at = next.map(|at| at.max(now));
        if let Some(at) = at.filter(|&at| wake.queued.is_none_or(|q| at < q)) {
            (wake.gen, wake.queued) = (wake.gen + 1, Some(at));
            let gen = wake.gen;
            self.push(at, Queued::Wake { actor: id, gen });
        }
    }

    /// Run one queued event. Returns false if the queue is empty.
    fn step(&mut self, topo: &Topology, part: &Partition) -> bool {
        let Some((ev, tier)) = self.queue.pop() else { return false };
        match tier {
            Tier::Now => self.stats.engine.now_pops += 1,
            Tier::Heap => self.stats.engine.heap_pops += 1,
            Tier::Stream => self.stats.engine.stream_pops += 1,
        }
        debug_assert!(ev.at >= self.now, "time went backwards in region {}", self.region);
        self.now = ev.at;
        if let Queued::Wake { actor, gen } = ev.kind {
            // Not an event unless it is the live entry and its answer is due.
            let slot = &mut self.slots[actor.0 as usize];
            let live = slot.alive && slot.wake.gen == gen;
            if !live || slot.wake.answer.is_none_or(|at| at > self.now) {
                self.stats.engine.superseded_wakes += 1;
                if live {
                    // Cancelled, or the answer moved later: follow it.
                    slot.wake.queued = slot.wake.answer;
                    if let Some(at) = slot.wake.answer {
                        self.push(at, Queued::Wake { actor, gen });
                    }
                }
                return true;
            }
        }
        self.stats.events += 1;
        match ev.kind {
            Queued::Deliver { from, to, payload } => {
                if !topo.host(to.host).up {
                    self.note_drop(DropReason::HostDown);
                } else if let Some(&id) = self.bindings.get(&to) {
                    self.stats.delivered += 1;
                    let len = payload.len() as u32;
                    self.record(|| TraceKind::Recv { from, to, len });
                    self.dispatch_id(topo, part, id, to, Event::Packet { from, payload });
                } else {
                    self.note_drop(DropReason::NoListener);
                }
            }
            Queued::Timer { actor, token } => {
                let Slot { alive, endpoint: ep, .. } = self.slots[actor.0 as usize];
                // Timers do not fire while the host is down.
                if alive && topo.host(ep.host).up {
                    self.record(|| TraceKind::TimerFire { token });
                    self.dispatch_to(topo, part, ep, Event::Timer { token });
                }
            }
            Queued::Wake { actor, .. } => {
                // Fired or dropped here: either way the slot is cleared,
                // so the read after `Event::HostUp` re-arms a wake-up
                // the outage swallowed.
                let slot = &mut self.slots[actor.0 as usize];
                slot.wake = WakeSlot { answer: None, queued: None, ..slot.wake };
                let ep = slot.endpoint;
                if topo.host(ep.host).up {
                    self.record(|| TraceKind::Wake { actor: ep });
                    self.dispatch_id(topo, part, actor, ep, Event::Wake);
                }
            }
            Queued::Signal { from, to, signum } => {
                if topo.host(to.host).up {
                    if signum == SIGSTART {
                        self.dispatch_to(topo, part, to, Event::Start);
                    } else {
                        self.dispatch_to(topo, part, to, Event::Signal { signum, from });
                    }
                }
            }
        }
        true
    }

    /// Apply (and drain) a round's inbound list: mailbox deliveries,
    /// fault dispatches, chaos toggles and restarts, in the order the
    /// coordinator built it.
    pub(crate) fn apply_inbound(
        &mut self,
        topo: &Topology,
        part: &Partition,
        inbound: &mut Vec<Inbound>,
    ) {
        for item in inbound.drain(..) {
            match item {
                Inbound::Deliver(MailboxItem { at, from, to, payload, .. }) => {
                    debug_assert!(at >= self.now, "mailbox item in this core's past");
                    self.push(at, Queued::Deliver { from, to, payload });
                }
                Inbound::HostEvent { at, host, up } => {
                    self.now = self.now.max(at);
                    self.record_fault(
                        if up { "host_up" } else { "host_down" },
                        host.index() as u64,
                        0,
                    );
                    for ep in self.endpoints_on(host) {
                        let event = if up { Event::HostUp } else { Event::HostDown };
                        self.dispatch_to(topo, part, ep, event);
                    }
                }
                Inbound::SetChaos { at, chaos, seed } => {
                    self.now = self.now.max(at);
                    self.record_fault("set_packet_chaos", chaos.is_some() as u64, seed);
                    self.chaos = chaos;
                    // Reseeded on every toggle, so the injection pattern
                    // depends only on `(seed, traffic)` — never on how
                    // long a previous chaos window ran.
                    self.chaos_rng = Xoshiro256::seed_from_u64(seed);
                }
                Inbound::Restart { at, ep, actor } => {
                    self.now = self.now.max(at);
                    self.record_fault("restart", ep.host.index() as u64, ep.port as u64);
                    self.kill(ep);
                    self.spawn(ep.host, ep.port, actor);
                }
            }
        }
    }

    /// One round: apply `inbound`, then run all events with
    /// `at < end_ns`.
    pub(crate) fn run_round(
        &mut self,
        topo: &Topology,
        part: &Partition,
        inbound: &mut Vec<Inbound>,
        end_ns: u64,
    ) {
        self.apply_inbound(topo, part, inbound);
        while self.queue.peek_at().is_some_and(|at| at.as_nanos() < end_ns) {
            self.step(topo, part);
        }
        self.stream_hwm = self.stream_hwm.max(self.queue.stream_depth_max());
    }
}
