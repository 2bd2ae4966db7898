//! The engine: one `ShardCore` per topology region, advanced by a
//! deterministic round driver. Every [`World`] is this engine; there is
//! no other event loop.
//!
//! A topology is partitioned into independent **regions**. Each region
//! gets its own `ShardCore` — a private three-tier event queue, flat
//! stats, RNG streams, route cache, transmitter busy-tracking, actors
//! and trace sink — which implements queueing, routing, transmission,
//! packet chaos, timers, signals, spawn/kill and dispatch exactly once.
//!
//! ## Region rule
//!
//! * [`World::new`] forces **one region** ([`Partition::single`]). The
//!   single core runs inline on the calling thread straight to the
//!   horizon: no lookahead bound, no barrier, no mailbox traffic. One
//!   queue means global same-timestamp ordering, zero-latency routable
//!   media are fine, and an actor may spawn/kill/signal on any host.
//! * [`World::sharded`] uses the **natural partition**
//!   ([`Partition::of`]: connected components of "hosts share a network
//!   segment" — every segment, with all its attached hosts, lives
//!   wholly inside one region) and advances all cores in barrier rounds
//!   with conservative lookahead on up to `threads` worker threads.
//!
//! ## Seed rule
//!
//! A one-region world seeds its workload RNG and its packet-chaos RNG
//! from the seed directly; a world with ≥ 2 regions derives one
//! decorrelated stream per region (`mix_seed`). Either way the mapping
//! is pure, so it is identical at every thread count.
//!
//! ## Why determinism survives parallelism
//!
//! * Regions are a property of the *topology*, not of the thread
//!   count: `threads` only chooses how many OS threads execute the
//!   fixed region set. Every per-core decision (event order, RNG
//!   draws, sequence numbers) depends only on that core's own inputs.
//! * Cross-region packets never touch another core directly. They are
//!   collected into per-core outboxes and exchanged at the round
//!   barrier through a **deterministic mailbox**: all items are sorted
//!   by `(at, src_region, src_seq)` and enqueued into their
//!   destination cores in that order, so destination-side sequence
//!   numbers are identical at any thread count.
//! * The inline path and the thread-pool path execute the *same*
//!   per-round core methods in the same per-core order — equality of
//!   results across 1/2/4/8 threads holds by construction and is
//!   pinned by differential tests and the `shard-determinism` gate in
//!   `scripts/check.sh`.
//!
//! ## Conservative lookahead
//!
//! Two hosts in different regions share no segment, so every
//! cross-region packet takes a routed (two-segment) path whose
//! propagation latency is at least twice the minimum base latency over
//! all routable media. That bound is the **lookahead** `L`: in a round
//! where the globally earliest pending work is at `t_min`, every core
//! may safely execute events with `at < min(t_min + L, next_fault,
//! horizon)` — any cross-region arrival generated inside the window
//! lands at or after its end. Gray-link degradation only *raises*
//! latency (the fault scheduler clamps `latency_factor` to ≥ 1.0), so
//! the static bound stays sound under chaos.
//!
//! ## Faults are data
//!
//! Scripted faults are [`FaultCmd`] values on a sorted timeline the
//! coordinator applies between rounds (windows are capped at the next
//! fault time, so a fault at `t` is observed by every core before any
//! event at or after `t` runs). The immediate fault API
//! ([`World::host_down`] …) applies the same command now. Process
//! crashes are data too: [`FaultCmd::Restart`] kills the actor at an
//! endpoint and spawns a factory-built replacement on the owning core
//! at the fault's timestamp, at any thread count.
//!
//! ## Trace sinks
//!
//! A world whose cores run inline on the constructing thread records
//! engine events into that thread's flight recorder when it was enabled
//! at construction ([`crate::trace`]); otherwise
//! [`World::enable_trace`] gives every core its own ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bytes::Bytes;

use snipe_util::id::{HostId, NetId};
use snipe_util::rng::{SplitMix64, Xoshiro256};
use snipe_util::time::{SimDuration, SimTime};

use crate::actor::{Actor, Event, SimCtx};
use crate::chaos::PacketChaos;
use crate::queue::{EventQueue, FnvMap, Tier, TxChannel};
use crate::topology::{Endpoint, GrayLevel, PathInfo, Topology};
use crate::trace::{self, DropReason, FaultOp, NetStats, Recorder, TraceEvent, TraceKind};
use crate::world::{compute_path, EPHEMERAL_BASE, SIGSTART};

/// Derive a per-region seed from the world seed. Distinct regions get
/// decorrelated streams.
fn mix_seed(seed: u64, region: u32) -> u64 {
    SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(region as u64 + 1)).next_u64()
}

/// The seed rule (module docs): the seed itself for a one-region world,
/// a per-region stream otherwise.
fn region_seed(seed: u64, region: u32, regions: u32) -> u64 {
    if regions == 1 {
        seed
    } else {
        mix_seed(seed, region)
    }
}

// The only `expect`s in the engine. A poisoned lock means a worker (or
// an actor on it) already panicked; propagating that panic is the only
// sound continuation.
fn read_topo(topo: &RwLock<Topology>) -> RwLockReadGuard<'_, Topology> {
    topo.read().expect("topology lock poisoned by an earlier panic")
}

fn write_topo(topo: &RwLock<Topology>) -> RwLockWriteGuard<'_, Topology> {
    topo.write().expect("topology lock poisoned by an earlier panic")
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("round slot poisoned by an earlier panic")
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// Static partition of a topology into schedulable regions, plus the
/// conservative lookahead and dense per-region transmitter-slot maps.
///
/// Computed once from the pristine topology; faults never move a host
/// between regions (they only flip up/down state), so the partition is
/// valid for the lifetime of the world.
pub struct Partition {
    region_of_host: Vec<u32>,
    region_of_net: Vec<u32>,
    regions: u32,
    /// Conservative lookahead in nanoseconds (`u64::MAX` when no
    /// cross-region traffic is possible).
    la_ns: u64,
    /// Global net index → dense per-region bus-slot index.
    net_slot: Vec<u32>,
    /// Global link index → dense per-region link-slot index.
    link_slot: Vec<u32>,
    /// Bus slots per region.
    bus_counts: Vec<u32>,
    /// Link slots per region.
    link_counts: Vec<u32>,
}

impl Partition {
    /// Partition `topo` into regions (connected components of the
    /// host–segment incidence graph) and derive the lookahead.
    ///
    /// # Panics
    /// Panics if the topology has ≥ 2 regions connected by routable
    /// media with zero base latency — conservative lookahead would be
    /// zero and parallel execution could not make safe progress. All
    /// built-in media have latency ≥ 1µs.
    pub fn of(topo: &Topology) -> Partition {
        let h = topo.host_count();
        let n = topo.net_count();
        // Union-find over host nodes [0, h) and net nodes [h, h + n).
        let mut uf: Vec<u32> = (0..(h + n) as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize]; // path halving
                x = uf[x as usize];
            }
            x
        }
        for net in topo.nets() {
            let nn = (h + net.id.index()) as u32;
            for &(host, _) in &net.attached {
                let a = find(&mut uf, nn);
                let b = find(&mut uf, host.index() as u32);
                if a != b {
                    uf[b as usize] = a;
                }
            }
        }
        // Dense region ids in first-seen order (hosts first, then
        // nets) — deterministic, independent of union order.
        let mut dense = vec![u32::MAX; h + n];
        let mut regions = 0u32;
        let mut region_of = |uf: &mut [u32], node: usize| {
            let root = find(uf, node as u32) as usize;
            if dense[root] == u32::MAX {
                dense[root] = regions;
                regions += 1;
            }
            dense[root]
        };
        let region_of_host: Vec<u32> = (0..h).map(|i| region_of(&mut uf, i)).collect();
        let region_of_net: Vec<u32> = (0..n).map(|j| region_of(&mut uf, h + j)).collect();
        // Lookahead: a cross-region path is routed over two routable
        // edges, so its latency is ≥ 2 × the minimum base latency.
        let min_lat =
            topo.nets().filter(|net| net.routable).map(|net| net.medium.latency.as_nanos()).min();
        let la_ns = if regions <= 1 {
            u64::MAX
        } else {
            match min_lat {
                // No routable media: regions cannot talk at all.
                None => u64::MAX,
                Some(0) => panic!(
                    "a partitioned world requires routable media with nonzero latency \
                     (conservative lookahead would be zero)"
                ),
                Some(ns) => ns.saturating_mul(2),
            }
        };
        Partition::with_regions(topo, region_of_host, region_of_net, regions, la_ns)
    }

    /// The whole topology as one region — the [`World::new`] case.
    /// With a single core nothing is ever cross-region, so there is no
    /// lookahead bound and zero-latency routable media are fine.
    pub fn single(topo: &Topology) -> Partition {
        let hosts = vec![0; topo.host_count()];
        let nets = vec![0; topo.net_count()];
        Partition::with_regions(topo, hosts, nets, 1, u64::MAX)
    }

    /// Dense per-region transmitter slots, so a core's busy vectors
    /// are sized by its own region, not the whole world.
    fn with_regions(
        topo: &Topology,
        region_of_host: Vec<u32>,
        region_of_net: Vec<u32>,
        regions: u32,
        la_ns: u64,
    ) -> Partition {
        let mut bus_counts = vec![0u32; regions as usize];
        let mut net_slot = vec![0u32; region_of_net.len()];
        for (j, slot) in net_slot.iter_mut().enumerate() {
            let r = region_of_net[j] as usize;
            *slot = bus_counts[r];
            bus_counts[r] += 1;
        }
        let total_links: usize = topo.hosts().map(|host| host.interfaces.len()).sum();
        let mut link_counts = vec![0u32; regions as usize];
        let mut link_slot = vec![0u32; total_links];
        for host in topo.hosts() {
            for iface in &host.interfaces {
                let r = region_of_net[iface.net.index()] as usize;
                link_slot[iface.link.index()] = link_counts[r];
                link_counts[r] += 1;
            }
        }
        Partition {
            region_of_host,
            region_of_net,
            regions,
            la_ns,
            net_slot,
            link_slot,
            bus_counts,
            link_counts,
        }
    }

    /// Number of regions (independent of thread count).
    pub fn regions(&self) -> usize {
        self.regions as usize
    }

    /// The region owning a host.
    pub fn region_of_host(&self, h: HostId) -> usize {
        self.region_of_host[h.index()] as usize
    }

    /// The region owning a network segment.
    pub fn region_of_net(&self, n: NetId) -> usize {
        self.region_of_net[n.index()] as usize
    }

    /// Conservative lookahead (`SimDuration::MAX` when regions cannot
    /// exchange traffic, e.g. a single-region world).
    pub fn lookahead(&self) -> SimDuration {
        if self.la_ns == u64::MAX {
            SimDuration::MAX
        } else {
            SimDuration::from_nanos(self.la_ns)
        }
    }
}

// ---------------------------------------------------------------------------
// The actor-facing context
// ---------------------------------------------------------------------------

/// Dense actor handle within one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ActorId(u64);

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
fn spawn_region(topo: &Topology, part: &Partition, host: HostId) -> Option<usize> {
    if host.index() >= topo.host_count() {
        return None;
    }
    Some(part.region_of_host(host))
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
        let from = self.my_endpoint;
        self.core.send_packet(self.topo, self.part, from, to, payload, None);
    }

    fn send_via(&mut self, to: Endpoint, payload: Bytes, via: NetId) {
        let from = self.my_endpoint;
        self.core.send_packet(self.topo, self.part, from, to, payload, Some(via));
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.core.now + delay;
        self.core.push(at, Queued::Timer { actor: self.me, token });
    }

    fn spawn_portable(
        &mut self,
        host: HostId,
        port: u16,
        actor: Box<dyn Actor>,
    ) -> Option<Endpoint> {
        let r = spawn_region(self.topo, self.part, host)?;
        if r != self.core.region as usize {
            debug_assert_eq!(
                r, self.core.region as usize,
                "cross-region spawn from region {}",
                self.core.region
            );
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
        let now = self.core.now;
        self.core.push(now, Queued::Signal { from, to, signum });
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

// ---------------------------------------------------------------------------
// Core-internal types
// ---------------------------------------------------------------------------

enum Queued {
    Deliver { from: Endpoint, to: Endpoint, payload: Bytes },
    Timer { actor: ActorId, token: u64 },
    Signal { from: Option<Endpoint>, to: Endpoint, signum: u32 },
}

struct Slot {
    actor: Option<Box<dyn Actor>>,
    endpoint: Endpoint,
    alive: bool,
}

/// A cross-region packet in flight between rounds. `(at, src_region,
/// src_seq)` totally orders every item of a round — the mailbox
/// tie-break that makes destination-side sequence numbers independent
/// of thread count.
struct MailboxItem {
    at: SimTime,
    src_region: u32,
    src_seq: u64,
    from: Endpoint,
    to: Endpoint,
    payload: Bytes,
}

/// Work the coordinator hands a core at a round boundary, applied
/// in-order before the window runs.
enum Inbound {
    Deliver { at: SimTime, from: Endpoint, to: Endpoint, payload: Bytes },
    HostEvent { at: SimTime, host: HostId, up: bool },
    SetChaos { at: SimTime, chaos: Option<PacketChaos>, seed: u64 },
    Restart { at: SimTime, ep: Endpoint, actor: Box<dyn Actor> },
}

/// Where a core's engine events are recorded (module docs, "Trace
/// sinks").
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceSink {
    Off,
    /// The constructing thread's flight recorder.
    Thread,
    /// This core's own ring.
    Ring,
}

// ---------------------------------------------------------------------------
// ShardCore
// ---------------------------------------------------------------------------

type RouteKey = (HostId, HostId, Option<NetId>);

/// One region's complete engine state: queue, clock, stats, RNG
/// streams, route cache, dense busy vectors, actors, outbox, ring.
struct ShardCore {
    region: u32,
    now: SimTime,
    queue: EventQueue<Queued>,
    slots: Vec<Slot>,
    bindings: FnvMap<Endpoint, ActorId>,
    ephemeral: FnvMap<HostId, u16>,
    rng: Xoshiro256,
    /// Per-packet chaos injection, `None` when chaos is off (the common
    /// case — one branch per send).
    chaos: Option<PacketChaos>,
    /// Chaos draws come from their own stream so a chaos plan never
    /// perturbs the workload's RNG: a failing run replays bit-for-bit
    /// from `(plan seed, workload seed)` independently.
    chaos_rng: Xoshiro256,
    stats: NetStats,
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
    outbox: Vec<MailboxItem>,
    /// Monotone per-core mailbox emission counter — the `src_seq` of
    /// the deterministic mailbox tie-break.
    out_seq: u64,
    /// High-water mark of the longest single delivery stream.
    stream_hwm: usize,
    /// One predictable branch on a plain field per hot-path record
    /// site, not a TLS lookup per event.
    sink: TraceSink,
    ring: Recorder,
}

impl ShardCore {
    fn new(
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
        let depth = self.queue.depth() as u64;
        if depth > self.stats.engine.peak_queue_depth {
            self.stats.engine.peak_queue_depth = depth;
        }
    }

    fn note_drop(&mut self, reason: DropReason) {
        self.stats.drop(reason);
        self.record(|| TraceKind::Drop { reason });
    }

    fn push(&mut self, at: SimTime, kind: Queued) {
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

    fn peek_ns(&self) -> u64 {
        self.queue.peek_at().map(|t| t.as_nanos()).unwrap_or(u64::MAX)
    }

    fn spawn(&mut self, host: HostId, port: u16, actor: Box<dyn Actor>) -> Option<Endpoint> {
        let ep = Endpoint::new(host, port);
        if self.bindings.contains_key(&ep) {
            return None;
        }
        let id = ActorId(self.slots.len() as u64);
        self.slots.push(Slot { actor: Some(actor), endpoint: ep, alive: true });
        self.bindings.insert(ep, id);
        let now = self.now;
        self.push(now, Queued::Signal { from: None, to: ep, signum: SIGSTART });
        Some(ep)
    }

    fn alloc_port(&mut self, host: HostId) -> u16 {
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

    fn kill(&mut self, ep: Endpoint) {
        if let Some(id) = self.bindings.remove(&ep) {
            let slot = &mut self.slots[id.0 as usize];
            slot.alive = false;
            slot.actor = None; // drop immediately unless currently executing
        }
    }

    fn actor_at(&self, ep: Endpoint) -> Option<&dyn Actor> {
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
    fn select_path(
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
        let (free, channel) = if medium.shared_bus {
            let slot = part.net_slot[src_net.index()] as usize;
            (self.bus_busy[slot], TxChannel::Bus(src_net))
        } else {
            topo.host(from.host)
                .interfaces
                .iter()
                .find(|i| i.net == src_net)
                .map(|i| {
                    (
                        self.link_busy[part.link_slot[i.link.index()] as usize],
                        TxChannel::Link(i.link),
                    )
                })
                .unwrap_or((SimTime::ZERO, TxChannel::Bus(src_net)))
        };
        let start = if free > self.now { free } else { self.now };
        let finish = start + tx;
        match channel {
            TxChannel::Bus(n) if medium.shared_bus => {
                self.bus_busy[part.net_slot[n.index()] as usize] = finish;
            }
            TxChannel::Link(l) => self.link_busy[part.link_slot[l.index()] as usize] = finish,
            TxChannel::Bus(_) => {}
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
            if cross {
                self.push_outbox(dup_at, from, to, payload.clone());
            } else {
                self.push(dup_at, Queued::Deliver { from, to, payload: payload.clone() });
            }
            self.stats.chaos.duplicated += 1;
        }
        if fx.reorder > 0.0 && self.chaos_rng.gen_bool(fx.reorder) {
            let late_at = at + self.jitter_draw(fx.jitter);
            if cross {
                self.push_outbox(late_at, from, to, payload);
            } else {
                self.push(late_at, Queued::Deliver { from, to, payload });
            }
            self.stats.chaos.reordered += 1;
            return;
        }
        if cross {
            self.push_outbox(at, from, to, payload);
        } else {
            self.push_delivery(at, Queued::Deliver { from, to, payload }, channel, latency);
        }
    }

    fn jitter_draw(&mut self, max: SimDuration) -> SimDuration {
        SimDuration::from_nanos(1 + self.chaos_rng.gen_range(max.as_nanos().max(1)))
    }

    fn dispatch_to(&mut self, topo: &Topology, part: &Partition, ep: Endpoint, event: Event) {
        let Some(&id) = self.bindings.get(&ep) else {
            return;
        };
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
        {
            let mut ctx = ShardCtx { core: self, topo, part, me: id, my_endpoint: ep };
            actor.on_event(&mut ctx, event);
        }
        let slot = &mut self.slots[id.0 as usize];
        if slot.alive {
            slot.actor = Some(actor);
        }
    }

    /// Run one queued event. Returns false if the queue is empty.
    fn step(&mut self, topo: &Topology, part: &Partition) -> bool {
        let Some((ev, tier)) = self.queue.pop() else {
            return false;
        };
        match tier {
            Tier::Now => self.stats.engine.now_pops += 1,
            Tier::Heap => self.stats.engine.heap_pops += 1,
            Tier::Stream => self.stats.engine.stream_pops += 1,
        }
        debug_assert!(ev.at >= self.now, "time went backwards in region {}", self.region);
        self.now = ev.at;
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
                let idx = actor.0 as usize;
                if idx < self.slots.len() && self.slots[idx].alive {
                    let ep = self.slots[idx].endpoint;
                    // Timers do not fire while the host is down.
                    if topo.host(ep.host).up {
                        self.record(|| TraceKind::TimerFire { token });
                        self.dispatch_to(topo, part, ep, Event::Timer { token });
                    }
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
    fn apply_inbound(&mut self, topo: &Topology, part: &Partition, inbound: &mut Vec<Inbound>) {
        for item in inbound.drain(..) {
            match item {
                Inbound::Deliver { at, from, to, payload } => {
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
    fn run_round(
        &mut self,
        topo: &Topology,
        part: &Partition,
        inbound: &mut Vec<Inbound>,
        end_ns: u64,
    ) {
        self.apply_inbound(topo, part, inbound);
        while let Some(at) = self.queue.peek_at() {
            if at.as_nanos() >= end_ns {
                break;
            }
            self.step(topo, part);
        }
        let smax = self.queue.stream_depth_max();
        if smax > self.stream_hwm {
            self.stream_hwm = smax;
        }
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// Builds the replacement actor for a [`FaultCmd::Restart`].
pub type ActorFactory = Arc<dyn Fn() -> Box<dyn Actor> + Send + Sync>;

/// A fault as plain data: scheduled with [`World::schedule_fault`] or
/// applied immediately by the fault methods on [`World`], and routed to
/// the owning core at a round boundary.
#[derive(Clone)]
pub enum FaultCmd {
    /// Crash a host (actors on it get [`Event::HostDown`]).
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
    /// new actor gets [`Event::Start`] at the fault's timestamp and
    /// every later packet to the endpoint.
    Restart(Endpoint, ActorFactory),
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Round-planning state: the fault timeline, the per-core inbound
/// lists and the mailbox. One implementation serves the inline path,
/// the threaded path and the immediate fault API, so they cannot
/// diverge. Every buffer is reused across rounds and runs — the
/// steady state allocates nothing.
struct Coordinator {
    /// Pending faults; `(at, seq)`-sorted when `faults_sorted`.
    faults: VecDeque<(SimTime, u64, FaultCmd)>,
    fault_seq: u64,
    faults_sorted: bool,
    /// Most mailbox items routed into each core in one round.
    mailbox_hwm: Vec<u64>,
    inbound: Vec<Vec<Inbound>>,
    /// Lower bound (ns) on any event the pending inbound lists can
    /// introduce. Cores report their queue minima *before* inbound
    /// application, so the window planner folds this in.
    floor_ns: u64,
    have_inbound: bool,
    /// Each core's earliest pending event after the previous window.
    mins: Vec<u64>,
    /// The round's outbox items, gathered from every core.
    items: Vec<MailboxItem>,
    counts: Vec<u64>,
    /// Record segment-level faults into the calling thread's flight
    /// recorder (host faults, chaos toggles and restarts are recorded
    /// by the core that applies them).
    thread_trace: bool,
}

impl Coordinator {
    fn new(regions: usize, thread_trace: bool) -> Coordinator {
        Coordinator {
            faults: VecDeque::new(),
            fault_seq: 0,
            faults_sorted: true,
            mailbox_hwm: vec![0; regions],
            inbound: (0..regions).map(|_| Vec::new()).collect(),
            floor_ns: u64::MAX,
            have_inbound: false,
            mins: vec![u64::MAX; regions],
            items: Vec::new(),
            counts: vec![0; regions],
            thread_trace,
        }
    }

    fn sort_faults(&mut self) {
        if !self.faults_sorted {
            self.faults.make_contiguous().sort_by_key(|f| (f.0, f.1));
            self.faults_sorted = true;
        }
    }

    fn next_fault_ns(&self) -> Option<u64> {
        self.faults.front().map(|(at, _, _)| at.as_nanos())
    }

    /// Pop the next fault if it is due at or before `by_ns`.
    fn pop_fault_due(&mut self, by_ns: u64) -> Option<(SimTime, FaultCmd)> {
        if self.next_fault_ns()? > by_ns {
            return None;
        }
        self.faults.pop_front().map(|(at, _, cmd)| (at, cmd))
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
        while let Some((at, cmd)) = self.pop_fault_due(completed_ns.min(horizon_ns - 1)) {
            self.apply_fault(topo, part, at, cmd);
        }
    }

    fn note_inbound(&mut self, at_ns: u64) {
        self.have_inbound = true;
        if at_ns < self.floor_ns {
            self.floor_ns = at_ns;
        }
    }

    /// Apply one fault at `at`. Idempotent: a command that does not
    /// change state leaves the topology epoch (and thus every route
    /// cache) alone and notifies nobody.
    fn apply_fault(
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

    /// Plan the next window end (exclusive, in ns), or `None` when the
    /// run is complete.
    fn plan(&mut self, la_ns: u64, horizon_ns: u64) -> Option<u64> {
        let ev_min = self.mins.iter().copied().min().unwrap_or(u64::MAX);
        let t_min = ev_min.min(self.floor_ns);
        let fault = self.next_fault_ns().filter(|&f| f < horizon_ns);
        let next = t_min.min(fault.unwrap_or(u64::MAX));
        if next >= horizon_ns {
            if self.have_inbound {
                // Final apply-only round: pending cross-region arrivals
                // (due after the horizon) still need to land in their
                // cores' queues for a later `run_until`.
                return Some(horizon_ns);
            }
            return None;
        }
        let mut end = horizon_ns;
        end = end.min(t_min.saturating_add(la_ns));
        if let Some(f) = fault {
            end = end.min(f);
        }
        Some(end)
    }

    /// The inbound lists are about to be handed to the cores.
    fn begin_round(&mut self) {
        self.have_inbound = false;
        self.floor_ns = u64::MAX;
    }

    /// Route the round's outbox items (`self.items`) through the
    /// deterministic mailbox: global `(at, src_region, src_seq)` order,
    /// then appended to the destination cores' inbound lists.
    fn route(&mut self, part: &Partition, end_ns: u64) {
        if self.items.is_empty() {
            return;
        }
        self.items.sort_by_key(|i| (i.at, i.src_region, i.src_seq));
        self.counts.fill(0);
        let mut items = std::mem::take(&mut self.items);
        for it in items.drain(..) {
            debug_assert!(
                it.at.as_nanos() >= end_ns,
                "cross-region arrival inside the window violates lookahead"
            );
            let r = part.region_of_host(it.to.host);
            self.counts[r] += 1;
            self.note_inbound(it.at.as_nanos());
            self.inbound[r].push(Inbound::Deliver {
                at: it.at,
                from: it.from,
                to: it.to,
                payload: it.payload,
            });
        }
        self.items = items; // keep the capacity
        for (hwm, c) in self.mailbox_hwm.iter_mut().zip(&self.counts) {
            *hwm = (*hwm).max(*c);
        }
    }
}

/// Per-core slots the worker threads and the coordinator exchange
/// round data through.
struct CoreSlot {
    inbound: Mutex<Vec<Inbound>>,
    outbox: Mutex<Vec<MailboxItem>>,
    min_ns: AtomicU64,
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

/// Per-shard load figures for the boundedness oracle: aggregate totals
/// can hide one runaway shard, these cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLoad {
    /// Region index.
    pub region: usize,
    /// Events currently pending in this shard's queue.
    pub queue_depth: usize,
    /// Lifetime peak of the shard's heap body slab.
    pub slab_hwm: usize,
    /// High-water mark of the longest single delivery stream.
    pub stream_hwm: usize,
    /// Most mailbox items routed into this shard in one round.
    pub mailbox_hwm: u64,
    /// High-water mark of total pending events.
    pub peak_queue_depth: u64,
    /// Events this shard has executed.
    pub events: u64,
}

/// The simulation world: one `ShardCore` per region of its
/// [`Partition`], executed on up to `threads` OS threads, bit-for-bit
/// identically at any thread count. See the module docs for the
/// execution model and for what [`World::new`] and [`World::sharded`]
/// each guarantee.
pub struct World {
    topo: RwLock<Topology>,
    part: Partition,
    cores: Vec<ShardCore>,
    coord: Coordinator,
    slots: Vec<CoreSlot>,
    threads: usize,
    now: SimTime,
}

impl World {
    /// A one-region world over `topo`, seeded for determinism, run
    /// inline on the calling thread.
    pub fn new(topo: Topology, seed: u64) -> World {
        let part = Partition::single(&topo);
        World::over(topo, part, seed, 1)
    }

    /// A world over the natural partition of `topo`, executing on up to
    /// `threads` worker threads (clamped to the region count; `<= 1`
    /// runs inline). The seed/thread-count split is the whole point:
    /// `threads` never influences results. Requires routable media with
    /// nonzero latency between regions (see [`Partition::of`]).
    pub fn sharded(topo: Topology, seed: u64, threads: usize) -> World {
        let part = Partition::of(&topo);
        World::over(topo, part, seed, threads)
    }

    fn over(topo: Topology, part: Partition, seed: u64, threads: usize) -> World {
        let regions = part.regions();
        let threads = threads.max(1);
        // Inline execution stays on this thread, so its recorder (if
        // on) is a valid sink for the cores' engine events.
        let thread_trace = threads.min(regions) <= 1 && trace::enabled();
        let sink = if thread_trace { TraceSink::Thread } else { TraceSink::Off };
        let cores =
            (0..part.regions).map(|r| ShardCore::new(r, &topo, &part, seed, sink)).collect();
        let slots = (0..regions)
            .map(|_| CoreSlot {
                inbound: Mutex::new(Vec::new()),
                outbox: Mutex::new(Vec::new()),
                min_ns: AtomicU64::new(0),
            })
            .collect();
        World {
            topo: RwLock::new(topo),
            part,
            cores,
            coord: Coordinator::new(regions, thread_trace),
            slots,
            threads,
            now: SimTime::ZERO,
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.part.regions()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the topology (use the fault APIs to mutate).
    pub fn topology(&self) -> RwLockReadGuard<'_, Topology> {
        read_topo(&self.topo)
    }

    /// Total events pending across all regions and queue tiers.
    /// Invariant oracles use this to assert the engine quiesces.
    pub fn queue_depth(&self) -> usize {
        self.cores.iter().map(|c| c.queue.depth()).sum()
    }

    /// Merged delivery statistics (sums; `peak_queue_depth` is the
    /// worst single region).
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats::default();
        s.reserve_nets(self.topology().net_count());
        for c in &self.cores {
            s.merge(&c.stats);
        }
        s
    }

    /// Per-region load/high-water figures for the boundedness oracle.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.cores
            .iter()
            .enumerate()
            .map(|(r, c)| ShardLoad {
                region: r,
                queue_depth: c.queue.depth(),
                slab_hwm: c.queue.slab_high_water(),
                stream_hwm: c.stream_hwm,
                mailbox_hwm: self.coord.mailbox_hwm[r],
                peak_queue_depth: c.stats.engine.peak_queue_depth,
                events: c.stats.events,
            })
            .collect()
    }

    fn core_of(&self, host: HostId) -> &ShardCore {
        &self.cores[self.part.region_of_host(host)]
    }

    fn core_of_mut(&mut self, host: HostId) -> &mut ShardCore {
        &mut self.cores[self.part.region_of_host(host)]
    }

    /// Spawn an actor bound to `(host, port)` on its owning core.
    /// Delivers [`Event::Start`] at the current time. `None` if the
    /// port is taken or the host id is unknown.
    pub fn spawn(&mut self, host: HostId, port: u16, actor: Box<dyn Actor>) -> Option<Endpoint> {
        let r = spawn_region(&self.topology(), &self.part, host)?;
        self.cores[r].spawn(host, port, actor)
    }

    // benchmark/ compat — delete when benchmark/ stops importing it
    #[doc(hidden)]
    pub fn spawn_portable(&mut self, h: HostId, port: u16, a: Box<dyn Actor>) -> Option<Endpoint> {
        self.spawn(h, port, a)
    }

    /// Allocate an unused ephemeral port on `host`.
    ///
    /// # Panics
    /// Panics if every ephemeral port on the host is bound — scanning
    /// is bounded to one full wrap of the ephemeral range so exhaustion
    /// fails loudly instead of spinning forever.
    pub fn alloc_port(&mut self, host: HostId) -> u16 {
        self.core_of_mut(host).alloc_port(host)
    }

    /// Is an actor currently bound at `ep`?
    pub fn is_bound(&self, ep: Endpoint) -> bool {
        self.core_of(ep.host).bindings.contains_key(&ep)
    }

    /// Kill the actor at `ep` (no-op if none). Packets already in
    /// flight to it are dropped as [`DropReason::NoListener`].
    pub fn kill(&mut self, ep: Endpoint) {
        self.core_of_mut(ep.host).kill(ep);
    }

    /// Deliver a signal at the current time.
    pub fn signal(&mut self, from: Option<Endpoint>, to: Endpoint, signum: u32) {
        let core = self.core_of_mut(to.host);
        core.push(core.now, Queued::Signal { from, to, signum });
    }

    /// Borrow the concrete actor state at `ep` (between runs), e.g.
    /// for workload invariant checks. `None` if nothing is bound there
    /// or the bound actor is not a `T`.
    pub fn actor_ref<T: Actor + 'static>(&self, ep: Endpoint) -> Option<&T> {
        self.core_of(ep.host).actor_at(ep)?.as_any().downcast_ref::<T>()
    }

    // benchmark/ compat — delete when benchmark/ stops importing it
    #[doc(hidden)]
    pub fn portable_ref<T: Actor + 'static>(&self, ep: Endpoint) -> Option<&T> {
        self.actor_ref(ep)
    }

    /// The route the engine would use for a packet from `from` to `to`
    /// right now (memoized, exactly as the send path sees it).
    pub fn route(&mut self, from: HostId, to: HostId, via: Option<NetId>) -> Option<PathInfo> {
        let topo = read_topo(&self.topo);
        self.cores[self.part.region_of_host(from)].select_path(&topo, from, to, via)
    }

    /// Fresh, uncached route computation — the reference the cache is
    /// validated against in tests.
    pub fn route_uncached(&self, from: HostId, to: HostId, via: Option<NetId>) -> Option<PathInfo> {
        compute_path(&self.topology(), from, to, via)
    }

    /// Schedule a fault command for `at`; it is applied before any
    /// event at `at`. Gray faults are clamped to `latency_factor >=
    /// 1.0` (see [`FaultCmd::Gray`]).
    pub fn schedule_fault(&mut self, at: SimTime, cmd: FaultCmd) {
        let cmd = match cmd {
            FaultCmd::Gray(n, Some(mut g)) => {
                if g.latency_factor < 1.0 {
                    g.latency_factor = 1.0;
                }
                FaultCmd::Gray(n, Some(g))
            }
            c => c,
        };
        self.coord.faults.push_back((at, self.coord.fault_seq, cmd));
        self.coord.fault_seq += 1;
        self.coord.faults_sorted = false;
    }

    /// Apply a fault at the current time, notifying affected actors
    /// before returning.
    fn fault_now(&mut self, at: SimTime, cmd: FaultCmd) {
        self.coord.apply_fault(&self.topo, &self.part, at, cmd);
        if self.coord.have_inbound {
            self.coord.begin_round();
            let topo = read_topo(&self.topo);
            for (core, inb) in self.cores.iter_mut().zip(&mut self.coord.inbound) {
                core.apply_inbound(&topo, &self.part, inb);
            }
        }
    }

    /// Take a host down; every actor on it gets [`Event::HostDown`].
    /// Like every fault method here, a no-op when already in the
    /// requested state: the topology epoch (and so every route cache)
    /// is left alone.
    pub fn host_down(&mut self, h: HostId) {
        self.fault_now(self.now, FaultCmd::HostDown(h));
    }

    /// Bring a host back up; every actor on it gets [`Event::HostUp`].
    pub fn host_up(&mut self, h: HostId) {
        self.fault_now(self.now, FaultCmd::HostUp(h));
    }

    /// Take a network segment down/up.
    pub fn set_net_up(&mut self, n: NetId, up: bool) {
        self.fault_now(self.now, FaultCmd::NetUp(n, up));
    }

    /// Take one host's interface on `n` down/up. Returns `false` if the
    /// host has no interface on that network.
    pub fn set_iface_up(&mut self, h: HostId, n: NetId, up: bool) -> bool {
        let exists = self.topology().host(h).interfaces.iter().any(|i| i.net == n);
        self.fault_now(self.now, FaultCmd::IfaceUp(h, n, up));
        exists
    }

    /// Override the loss rate of a network (None restores the medium).
    pub fn set_net_loss(&mut self, n: NetId, loss: Option<f64>) {
        self.fault_now(self.now, FaultCmd::NetLoss(n, loss));
    }

    /// Put a network segment in a partition group.
    pub fn set_partition(&mut self, n: NetId, group: u32) {
        self.fault_now(self.now, FaultCmd::PartitionNet(n, group));
    }

    /// Degrade a network into a gray link (None restores the medium).
    pub fn set_gray(&mut self, n: NetId, gray: Option<GrayLevel>) {
        self.fault_now(self.now, FaultCmd::Gray(n, gray));
    }

    /// Install (or clear) per-packet chaos injection, reseeding the
    /// chaos RNG.
    pub fn set_packet_chaos(&mut self, chaos: Option<PacketChaos>, seed: u64) {
        self.fault_now(self.now, FaultCmd::PacketChaos(chaos, seed));
    }

    /// Give every core its own trace ring of `cap` events (a fresh ring
    /// per call, like `trace::enable`). A world already recording into
    /// its thread's flight recorder keeps that sink.
    pub fn enable_trace(&mut self, cap: usize) {
        for c in self.cores.iter_mut().filter(|c| c.sink != TraceSink::Thread) {
            c.sink = TraceSink::Ring;
            c.ring = Recorder::with_capacity(cap);
        }
    }

    /// Render the last `n` events retained by the per-core rings,
    /// merged in `(at, region, seq)` order.
    pub fn render_trace(&self, n: usize) -> String {
        let mut evs: Vec<(u32, TraceEvent)> =
            self.cores.iter().flat_map(|c| c.ring.iter_ordered().map(|e| (c.region, *e))).collect();
        evs.sort_by_key(|(r, e)| (e.at, *r, e.seq));
        let total: u64 = self.cores.iter().map(|c| c.ring.seq).sum();
        let dropped: u64 = self.cores.iter().map(|c| c.ring.dropped).sum();
        let shown = evs.len().min(n);
        let mut out =
            format!("shard flight recorder: {total} events total, {dropped} overwritten, showing last {shown}\n");
        for (region, ev) in evs.iter().skip(evs.len() - shown) {
            out.push_str(&format!(
                "  r{:<4} #{:<8} t={:>12.6}ms  {:?}\n",
                region,
                ev.seq,
                ev.at.as_secs_f64() * 1e3,
                ev.kind
            ));
        }
        out
    }

    /// Run for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Step one event (or one due fault) at a time until nothing is
    /// pending or `limit` events have fired; returns the number of
    /// events processed. The clock stops at the last thing that
    /// happened.
    ///
    /// # Panics
    /// One-region worlds only: with several regions "the next event"
    /// is a per-core notion and the round driver is the only scheduler.
    pub fn run_until_idle(&mut self, limit: u64) -> u64 {
        assert_eq!(self.cores.len(), 1, "run_until_idle needs a one-region world (World::new)");
        self.coord.sort_faults();
        let mut n = 0;
        while n < limit {
            let next_event = self.cores[0].peek_ns();
            if let Some((at, cmd)) = self.coord.pop_fault_due(next_event) {
                self.cores[0].now = self.cores[0].now.max(at);
                self.fault_now(at, cmd);
            } else if next_event == u64::MAX {
                break;
            } else {
                self.cores[0].step(&read_topo(&self.topo), &self.part);
                n += 1;
            }
        }
        self.now = self.now.max(self.cores[0].now);
        n
    }

    /// FNV-1a digest of every core's behavioural counters: events,
    /// traffic, drops, chaos injections, queue sequence numbers,
    /// clocks, cross-region emissions and per-net bytes. Two runs are
    /// behaviourally identical iff their digests match — this is what
    /// the differential determinism tests and the check.sh
    /// `shard-determinism` gate compare across thread counts.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let put = |hh: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *hh = (*hh ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        put(&mut h, self.cores.len() as u64);
        put(&mut h, self.now.as_nanos());
        for c in &self.cores {
            put(&mut h, c.stats.events);
            put(&mut h, c.stats.sent);
            put(&mut h, c.stats.delivered);
            for r in DropReason::ALL {
                put(&mut h, c.stats.drops(r));
            }
            put(&mut h, c.stats.chaos.corrupted);
            put(&mut h, c.stats.chaos.duplicated);
            put(&mut h, c.stats.chaos.reordered);
            put(&mut h, c.queue.seqs_issued());
            put(&mut h, c.out_seq);
            put(&mut h, c.now.as_nanos());
            for (net, bytes) in c.stats.bytes_by_net() {
                put(&mut h, net.index() as u64);
                put(&mut h, bytes);
            }
        }
        h
    }

    /// Flight-recorder totals of this world's trace sink (module docs,
    /// "Trace sinks"): events recorded per [`TraceKind::tag`] and events
    /// overwritten by ring wrap-around. Exact even after overwrite. A
    /// world recording into its thread's recorder reports that
    /// recorder (actor-level events included); otherwise the per-core
    /// rings, summed (zero when [`World::enable_trace`] was never
    /// called).
    pub fn trace_totals(&self) -> ([u64; TraceKind::COUNT], u64) {
        if self.coord.thread_trace {
            return (trace::kind_counts(), trace::trace_dropped());
        }
        let mut kinds = [0u64; TraceKind::COUNT];
        for c in &self.cores {
            for (k, v) in kinds.iter_mut().zip(c.ring.kind_counts) {
                *k += v;
            }
        }
        (kinds, self.cores.iter().map(|c| c.ring.dropped).sum())
    }

    /// Run events with timestamps `<= t`, then set every clock to `t`.
    ///
    /// This is the round driver. Inline when one thread drives the
    /// cores, otherwise a scoped thread pool; both paths run the same
    /// per-core methods against the same coordinator decisions, which
    /// is the determinism argument. A one-region world has no lookahead
    /// bound, so its single round per fault-free stretch runs straight
    /// to the horizon.
    pub fn run_until(&mut self, t: SimTime) {
        let World { topo, part, cores, coord, slots, threads, .. } = self;
        let (topo, part, slots) = (&*topo, &*part, &*slots);
        let threads = (*threads).min(cores.len());
        coord.sort_faults();
        let horizon_ns = t.as_nanos().saturating_add(1);
        let la_ns = part.la_ns;
        for (min, core) in coord.mins.iter_mut().zip(cores.iter()) {
            *min = core.peek_ns();
        }
        if threads <= 1 {
            let mut completed = 0u64;
            loop {
                coord.apply_due_faults(topo, part, completed, horizon_ns);
                let Some(end) = coord.plan(la_ns, horizon_ns) else { break };
                coord.begin_round();
                {
                    let topo = read_topo(topo);
                    for (core, inb) in cores.iter_mut().zip(&mut coord.inbound) {
                        core.run_round(&topo, part, inb, end);
                    }
                }
                completed = end;
                for (min, core) in coord.mins.iter_mut().zip(cores.iter_mut()) {
                    coord.items.append(&mut core.outbox);
                    *min = core.peek_ns();
                }
                coord.route(part, end);
            }
        } else {
            let regions = cores.len();
            let end_ns = AtomicU64::new(0);
            let stop = AtomicBool::new(false);
            let chunk = regions.div_ceil(threads);
            // chunks_mut may yield fewer chunks than `threads` (e.g.
            // 4 regions on 3 threads → two chunks of 2) — size the
            // barrier by the real worker count or the round deadlocks.
            let workers = regions.div_ceil(chunk);
            let barrier = Barrier::new(workers + 1);
            std::thread::scope(|scope| {
                for (w, cores) in cores.chunks_mut(chunk).enumerate() {
                    let base = w * chunk;
                    let (end_ns, stop, barrier) = (&end_ns, &stop, &barrier);
                    scope.spawn(move || loop {
                        barrier.wait(); // coordinator published end/stop + inbounds
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let end = end_ns.load(Ordering::Acquire);
                        {
                            let topo = read_topo(topo);
                            for (k, core) in cores.iter_mut().enumerate() {
                                let slot = &slots[base + k];
                                core.run_round(&topo, part, &mut lock(&slot.inbound), end);
                                // Swap, not take: both vectors keep
                                // their capacity for the next round.
                                std::mem::swap(&mut *lock(&slot.outbox), &mut core.outbox);
                                slot.min_ns.store(core.peek_ns(), Ordering::Release);
                            }
                        }
                        barrier.wait(); // window done, results in the slots
                    });
                }
                let mut completed = 0u64;
                loop {
                    coord.apply_due_faults(topo, part, completed, horizon_ns);
                    let Some(end) = coord.plan(la_ns, horizon_ns) else {
                        stop.store(true, Ordering::Release);
                        barrier.wait();
                        break;
                    };
                    coord.begin_round();
                    for (slot, inb) in slots.iter().zip(&mut coord.inbound) {
                        std::mem::swap(&mut *lock(&slot.inbound), inb);
                    }
                    end_ns.store(end, Ordering::Release);
                    barrier.wait(); // release the round
                    barrier.wait(); // wait for every core's window
                    completed = end;
                    for (min, slot) in coord.mins.iter_mut().zip(slots) {
                        coord.items.append(&mut lock(&slot.outbox));
                        *min = slot.min_ns.load(Ordering::Acquire);
                    }
                    coord.route(part, end);
                }
            });
        }
        for core in cores.iter_mut() {
            core.now = core.now.max(t);
        }
        self.now = self.now.max(t);
    }
}

// benchmark/ compat — delete when benchmark/ stops importing it
#[doc(hidden)]
pub struct ShardedWorld(World);

impl ShardedWorld {
    #[doc(hidden)]
    pub fn new(topo: Topology, seed: u64, threads: usize) -> ShardedWorld {
        ShardedWorld(World::sharded(topo, seed, threads))
    }
}

impl std::ops::Deref for ShardedWorld {
    type Target = World;
    fn deref(&self) -> &World {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedWorld {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosBinding, ChaosPlan, ChaosShape};
    use crate::medium::Medium;
    use crate::topology::HostCfg;

    /// Workload actor: sends `burst` packets to `peer` on start and on
    /// every timer tick, counts what comes back.
    struct Pinger {
        peer: Endpoint,
        burst: usize,
        ticks: u32,
        got: u64,
        echo: bool,
    }

    impl Actor for Pinger {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Start => {
                    for i in 0..self.burst {
                        ctx.send(self.peer, Bytes::from(vec![i as u8; 64]));
                    }
                    if self.ticks > 0 {
                        ctx.set_timer(SimDuration::from_millis(1), 1);
                    }
                }
                Event::Timer { .. } => {
                    self.ticks -= 1;
                    for i in 0..self.burst {
                        ctx.send(self.peer, Bytes::from(vec![i as u8; 64]));
                    }
                    if self.ticks > 0 {
                        ctx.set_timer(SimDuration::from_millis(1), 1);
                    }
                }
                Event::Packet { from, payload } => {
                    self.got += 1;
                    if self.echo {
                        ctx.send(from, payload);
                    }
                }
                _ => {}
            }
        }
    }

    /// `clusters` routable LANs of `per` hosts each: one region per
    /// LAN, cross-region traffic over routed two-LAN paths.
    fn cluster_topology(clusters: usize, per: usize) -> Topology {
        let mut t = Topology::new();
        for c in 0..clusters {
            let medium = Medium {
                name: "lan",
                bandwidth_bps: 1_000_000_000,
                latency: SimDuration::from_micros(200),
                loss: 0.0,
                mtu: 9000,
                per_packet_overhead: 38,
                shared_bus: false,
            };
            let net = t.add_network("lan", medium.clone(), true);
            for i in 0..per {
                let h = t.add_host(HostCfg::named(format!("h{c}x{i}")));
                t.attach(h, net);
            }
        }
        t
    }

    fn pinger_world(seed: u64, threads: usize) -> World {
        with_pingers(World::sharded(cluster_topology(4, 4), seed, threads))
    }

    /// Spawn a `Pinger` on each of the 16 hosts of a
    /// `cluster_topology(4, 4)` world.
    fn with_pingers(mut w: World) -> World {
        // Every host pings the "next" host — 1/4 of pairs cross regions.
        let hosts = 16u32;
        for i in 0..hosts {
            let me = HostId(i);
            let peer = Endpoint::new(HostId((i + 1) % hosts), 5);
            w.spawn(me, 5, Box::new(Pinger { peer, burst: 3, ticks: 10, got: 0, echo: false }));
        }
        w
    }

    #[test]
    fn partition_finds_connected_components() {
        let topo = cluster_topology(4, 4);
        let part = Partition::of(&topo);
        assert_eq!(part.regions(), 4);
        // Hosts on the same LAN share a region; different LANs differ.
        assert_eq!(part.region_of_host(HostId(0)), part.region_of_host(HostId(3)));
        assert_ne!(part.region_of_host(HostId(0)), part.region_of_host(HostId(4)));
        // Lookahead = 2 × 200µs.
        assert_eq!(part.lookahead(), SimDuration::from_micros(400));

        // A router host attached to two LANs merges them.
        let mut t = cluster_topology(2, 2);
        let router = t.add_host(HostCfg::named("router"));
        let nets: Vec<NetId> = t.nets().map(|n| n.id).collect();
        for n in nets {
            t.attach(router, n);
        }
        assert_eq!(Partition::of(&t).regions(), 1);
    }

    #[test]
    fn isolated_host_gets_own_region() {
        let mut t = cluster_topology(2, 2);
        let _lonely = t.add_host(HostCfg::named("lonely"));
        assert_eq!(Partition::of(&t).regions(), 3);
    }

    #[test]
    fn cross_region_traffic_delivered() {
        let mut w = pinger_world(7, 1);
        w.run_for(SimDuration::from_millis(50));
        let s = w.stats();
        assert_eq!(s.sent, 16 * 3 * 11, "every burst sent");
        assert_eq!(s.delivered, s.sent, "lossless LANs deliver everything");
        assert_eq!(w.queue_depth(), 0, "quiesced");
        // Each Pinger saw its predecessor's bursts.
        for i in 0..16u32 {
            let p = w.actor_ref::<Pinger>(Endpoint::new(HostId(i), 5)).unwrap();
            assert_eq!(p.got, 33, "host {i}");
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let run = |threads: usize| {
            let mut w = pinger_world(42, threads);
            w.run_for(SimDuration::from_millis(50));
            (w.digest(), w.stats(), w.shard_loads(), w.trace_totals())
        };
        let base = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads), base, "results diverged at {threads} threads");
        }
    }

    #[test]
    fn faults_flap_hosts_deterministically() {
        let run = |threads: usize| {
            let mut w = pinger_world(9, threads);
            let victim = HostId(5);
            w.schedule_fault(SimTime::from_nanos(2_000_000), FaultCmd::HostDown(victim));
            w.schedule_fault(SimTime::from_nanos(6_000_000), FaultCmd::HostUp(victim));
            w.run_for(SimDuration::from_millis(50));
            // Route selection excludes down hosts, so send-time drops
            // surface as NoRoute; HostDown catches in-flight packets.
            let drops =
                w.stats().drops(DropReason::NoRoute) + w.stats().drops(DropReason::HostDown);
            (w.digest(), drops, w.stats().delivered)
        };
        let a = run(1);
        assert!(a.1 > 0, "down host must drop packets");
        assert!(a.2 > 0, "recovery resumes delivery");
        assert_eq!(run(4), a, "fault timeline must be thread-count independent");
    }

    #[test]
    fn chaos_plan_replays_bit_for_bit_at_any_thread_count() {
        let shape = ChaosShape { hosts: 8, nets: 4, ifaces: 8, procs: 0, ..ChaosShape::default() };
        let plan = ChaosPlan::generate(0xC0FFEE, &shape);
        let binding = ChaosBinding {
            hosts: (0..16).map(HostId).collect(),
            nets: (0..4).map(NetId).collect(),
            ifaces: (0..16).map(|i| (HostId(i), NetId(i / 4))).collect(),
            procs: Vec::new(),
        };
        let run = |threads: usize| {
            let mut w = pinger_world(11, threads);
            plan.apply(&mut w, &binding);
            w.run_for(SimDuration::from_millis(80));
            w.digest()
        };
        let d1 = run(1);
        assert_eq!(run(2), d1);
        assert_eq!(run(8), d1);
    }

    #[test]
    fn echo_round_trips_cross_region() {
        let topo = cluster_topology(2, 2);
        let mut w = World::sharded(topo, 3, 2);
        let a = Endpoint::new(HostId(0), 5);
        let b = Endpoint::new(HostId(2), 5); // other region
        w.spawn(
            b.host,
            b.port,
            Box::new(Pinger { peer: a, burst: 0, ticks: 0, got: 0, echo: true }),
        );
        w.spawn(
            a.host,
            a.port,
            Box::new(Pinger { peer: b, burst: 5, ticks: 0, got: 0, echo: false }),
        );
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.actor_ref::<Pinger>(b).unwrap().got, 5, "b received the burst");
        assert_eq!(w.actor_ref::<Pinger>(a).unwrap().got, 5, "a received the echoes");
        // Cross-region arrivals respect the routed-path latency floor
        // (= the lookahead bound).
        let s = w.stats();
        assert_eq!(s.delivered, 10);
    }

    #[test]
    fn single_region_world_runs_inline_to_horizon() {
        let topo = cluster_topology(1, 4);
        let mut w = World::sharded(topo, 1, 8);
        assert_eq!(w.regions(), 1);
        let a = Endpoint::new(HostId(0), 5);
        let b = Endpoint::new(HostId(1), 5);
        w.spawn(
            b.host,
            b.port,
            Box::new(Pinger { peer: a, burst: 0, ticks: 0, got: 0, echo: false }),
        );
        w.spawn(
            a.host,
            a.port,
            Box::new(Pinger { peer: b, burst: 2, ticks: 0, got: 0, echo: false }),
        );
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.actor_ref::<Pinger>(b).unwrap().got, 2);
        assert_eq!(w.now(), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn packet_chaos_duplicates_cross_region_packets() {
        let topo = cluster_topology(2, 2);
        let mut w = World::sharded(topo, 5, 2);
        w.schedule_fault(
            SimTime::ZERO,
            FaultCmd::PacketChaos(
                Some(PacketChaos {
                    corrupt: 0.0,
                    duplicate: 1.0,
                    reorder: 0.0,
                    jitter: SimDuration::from_millis(1),
                }),
                99,
            ),
        );
        let b = Endpoint::new(HostId(2), 5);
        w.spawn(
            b.host,
            b.port,
            Box::new(Pinger {
                peer: Endpoint::new(HostId(0), 5),
                burst: 0,
                ticks: 0,
                got: 0,
                echo: false,
            }),
        );
        w.spawn(
            HostId(0),
            5,
            Box::new(Pinger { peer: b, burst: 4, ticks: 0, got: 0, echo: false }),
        );
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.stats().chaos.duplicated, 4);
        assert_eq!(w.actor_ref::<Pinger>(b).unwrap().got, 8, "every packet arrives twice");
    }

    #[test]
    fn shard_loads_and_metrics_expose_per_shard_hwms() {
        let mut w = pinger_world(13, 2);
        w.run_for(SimDuration::from_millis(50));
        let loads = w.shard_loads();
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().all(|l| l.queue_depth == 0), "quiesced");
        assert!(loads.iter().any(|l| l.slab_hwm > 0), "timers went through the heap");
        assert!(loads.iter().any(|l| l.mailbox_hwm > 0), "cross-region traffic flowed");
        // The merged counters agree with the per-shard figures.
        let s = w.stats();
        assert_eq!(loads.iter().map(|l| l.events).sum::<u64>(), s.events);
        let worst = loads.iter().map(|l| l.peak_queue_depth).max();
        assert_eq!(worst, Some(s.engine.peak_queue_depth));
    }

    #[test]
    fn trace_ring_merges_across_shards() {
        let mut w = pinger_world(17, 2);
        w.enable_trace(64);
        w.run_for(SimDuration::from_millis(5));
        let dump = w.render_trace(16);
        assert!(dump.contains("shard flight recorder"), "{dump}");
        assert!(dump.contains("Send"), "{dump}");
        let (kinds, dropped) = w.trace_totals();
        assert!(kinds[0] > 0 && dropped > 0, "{kinds:?} sends, {dropped} overwritten");
    }

    /// `trace_totals` over per-core rings is thread-count invariant and
    /// counts exactly the events `render_trace` merges, kind by kind,
    /// when the rings are large enough to keep every event.
    #[test]
    fn trace_totals_match_the_merged_rings_at_any_thread_count() {
        // `Debug` names of the `TraceKind` variants, in tag order.
        const VARIANTS: [&str; TraceKind::COUNT] =
            ["Send", "Recv", "Drop", "Retransmit", "TimerFire", "PathRotate", "Fault", "Migration"];
        let run = |threads: usize| {
            let mut w = pinger_world(19, threads);
            assert_eq!(w.regions(), 4);
            w.enable_trace(1 << 16);
            w.schedule_fault(SimTime::from_nanos(3_000_000), FaultCmd::HostDown(HostId(6)));
            w.run_for(SimDuration::from_millis(20));
            let mut rendered = [0u64; TraceKind::COUNT];
            for line in w.render_trace(usize::MAX).lines().skip(1) {
                let (_, kind) = line.split_once("ms  ").expect("an event line");
                let name = kind.split([' ', '{']).next().unwrap_or_default();
                let tag = VARIANTS.iter().position(|v| *v == name).expect("a TraceKind");
                rendered[tag] += 1;
            }
            (w.trace_totals(), rendered)
        };
        let ((kinds, dropped), rendered) = run(2);
        assert_eq!(dropped, 0, "the rings kept every event");
        assert_eq!(kinds, rendered, "totals vs the merged dump");
        assert!(kinds[0] > 0 && kinds[2] > 0 && kinds[6] > 0, "sends, drops, faults: {kinds:?}");
        assert_eq!(run(4), ((kinds, dropped), rendered), "4 threads vs 2");
        assert_eq!(run(1), ((kinds, dropped), rendered), "1 thread vs 2");
    }

    /// A disabled recorder records nothing. A one-region world built
    /// and run while the thread's recorder is off leaves that
    /// recorder's counts and ring untouched (the same run with it on
    /// does record), and a multi-region world that never called
    /// `enable_trace` reports zero totals at any thread count.
    #[test]
    fn a_disabled_run_records_nothing() {
        let busy_one_region = || {
            let mut w = with_pingers(World::new(cluster_topology(4, 4), 23));
            w.schedule_fault(SimTime::from_nanos(3_000_000), FaultCmd::HostDown(HostId(6)));
            w.schedule_fault(SimTime::from_nanos(8_000_000), FaultCmd::HostUp(HostId(6)));
            w.schedule_fault(
                SimTime::from_nanos(4_000_000),
                FaultCmd::NetLoss(NetId(1), Some(0.2)),
            );
            w.run_for(SimDuration::from_millis(20));
            w.stats()
        };
        // A ring that exists but is off: a stray record would land in it.
        trace::enable(1 << 12);
        trace::disable();
        let before = (trace::kind_counts(), trace::trace_dropped());
        let s = busy_one_region();
        assert!(s.delivered > 0 && s.total_drops() > 0, "busy and faulted: {s:?}");
        assert_eq!((trace::kind_counts(), trace::trace_dropped()), before);
        assert!(trace::last_events(usize::MAX).is_empty());
        // The same run with the recorder on records sends and faults.
        trace::enable(1 << 12);
        busy_one_region();
        let kinds = trace::kind_counts();
        trace::disable();
        assert!(kinds[0] > 0 && kinds[6] > 0, "sends, faults: {kinds:?}");

        for threads in [1, 2] {
            let mut w = pinger_world(29, threads);
            assert_eq!(w.regions(), 4);
            w.schedule_fault(SimTime::from_nanos(3_000_000), FaultCmd::HostDown(HostId(6)));
            w.run_for(SimDuration::from_millis(20));
            assert!(w.stats().delivered > 0);
            assert_eq!(w.trace_totals(), ([0; TraceKind::COUNT], 0), "{threads} threads");
        }
    }

    /// Streams one datagram per millisecond to `peer`.
    struct Ticker {
        peer: Endpoint,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            if matches!(event, Event::Start | Event::Timer { .. }) {
                ctx.send(self.peer, Bytes::from_static(&[7; 32]));
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
        }
    }

    /// One incarnation of a restartable service: logs its start time
    /// and every arrival as `(incarnation, at)`.
    struct Service {
        incarnation: u64,
        log: Arc<Mutex<Vec<(u64, SimTime)>>>,
        started: Option<SimTime>,
    }

    impl Actor for Service {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Start => self.started = Some(ctx.now()),
                Event::Packet { .. } => lock(&self.log).push((self.incarnation, ctx.now())),
                _ => {}
            }
        }
    }

    #[test]
    fn restart_respawns_at_fault_time_at_any_thread_count() {
        let fault_at = SimTime::from_nanos(10_500_000);
        let run = |threads: usize| {
            let mut w = World::sharded(cluster_topology(2, 2), 21, threads);
            let svc = Endpoint::new(HostId(2), 9); // other region than the ticker
            let log = Arc::new(Mutex::new(Vec::new()));
            let first = Service { incarnation: 0, log: log.clone(), started: None };
            w.spawn(svc.host, svc.port, Box::new(first));
            w.spawn(HostId(0), 9, Box::new(Ticker { peer: svc }));
            let (born, flog) = (Arc::new(AtomicU64::new(0)), log.clone());
            let factory: ActorFactory = Arc::new(move || {
                let incarnation = born.fetch_add(1, Ordering::Relaxed) + 1;
                Box::new(Service { incarnation, log: flog.clone(), started: None })
            });
            w.schedule_fault(fault_at, FaultCmd::Restart(svc, factory));
            w.run_for(SimDuration::from_millis(20));
            let started = w.actor_ref::<Service>(svc).unwrap().started;
            let log = lock(&log).clone();
            (w.digest(), started, log)
        };
        let (digest, started, log) = run(1);
        assert_eq!(started, Some(fault_at), "replacement sees Start at the fault time");
        // The endpoint is rebound at the same instant: packets in
        // flight across the restart reach the new incarnation, none
        // are lost, and the old one hears nothing afterwards.
        assert_eq!(log.len(), 20, "every tick delivered");
        assert!(log.iter().all(|&(inc, at)| (inc == 1) == (at >= fault_at)), "{log:?}");
        assert!(log.iter().any(|&(inc, _)| inc == 0) && log.iter().any(|&(inc, _)| inc == 1));
        for threads in [2, 4] {
            assert_eq!(run(threads), (digest, started, log.clone()), "{threads} threads");
        }
    }

    #[test]
    fn kill_turns_in_flight_packets_into_no_listener_drops() {
        let mut w = World::sharded(cluster_topology(2, 2), 22, 2);
        let svc = Endpoint::new(HostId(2), 9);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(svc.host, svc.port, Box::new(Service { incarnation: 0, log, started: None }));
        w.spawn(HostId(0), 9, Box::new(Ticker { peer: svc }));
        w.run_for(SimDuration::from_millis(5));
        let before = w.stats();
        assert_eq!(before.drops(DropReason::NoListener), 0);
        w.kill(svc);
        assert!(!w.is_bound(svc));
        w.run_for(SimDuration::from_millis(5));
        let after = w.stats();
        assert_eq!(after.delivered, before.delivered, "nothing reaches a killed process");
        // Conservation: everything sent was delivered before the kill,
        // dropped after it, or is still on the wire (the queue holds
        // those plus the ticker's one timer).
        let on_wire = w.queue_depth() as u64 - 1;
        assert!(after.drops(DropReason::NoListener) >= 4);
        assert_eq!(after.delivered + after.drops(DropReason::NoListener) + on_wire, after.sent);
    }

    #[test]
    fn one_region_natural_partition_equals_forced_single_region() {
        // One LAN: the natural partition is a single region, so the
        // two constructors build the same engine.
        let build = |mut w: World| {
            for i in 0..4u32 {
                let peer = Endpoint::new(HostId((i + 1) % 4), 5);
                let p = Pinger { peer, burst: 3, ticks: 10, got: 0, echo: true };
                w.spawn(HostId(i), 5, Box::new(p));
            }
            w.schedule_fault(
                SimTime::from_nanos(2_000_000),
                FaultCmd::NetLoss(NetId(0), Some(0.2)),
            );
            w.schedule_fault(SimTime::from_nanos(5_000_000), FaultCmd::HostDown(HostId(2)));
            w.schedule_fault(SimTime::from_nanos(9_000_000), FaultCmd::HostUp(HostId(2)));
            w.schedule_fault(
                SimTime::ZERO,
                FaultCmd::PacketChaos(
                    Some(PacketChaos {
                        corrupt: 0.1,
                        duplicate: 0.1,
                        reorder: 0.1,
                        jitter: SimDuration::from_millis(1),
                    }),
                    5,
                ),
            );
            w.run_for(SimDuration::from_millis(30));
            (w.digest(), w.stats())
        };
        let forced = build(World::new(cluster_topology(1, 4), 31));
        let s = &forced.1;
        assert!(s.delivered > 0 && s.drops(DropReason::Loss) > 0 && s.chaos.duplicated > 0);
        assert!(s.drops(DropReason::HostDown) + s.drops(DropReason::NoRoute) > 0, "{s:?}");
        // A one-region world with scheduled faults replays exactly.
        assert_eq!(build(World::new(cluster_topology(1, 4), 31)), forced);
        for threads in [1, 4] {
            let natural = World::sharded(cluster_topology(1, 4), 31, threads);
            assert_eq!(natural.regions(), 1);
            assert_eq!(build(natural), forced, "{threads} threads");
        }
    }
}
