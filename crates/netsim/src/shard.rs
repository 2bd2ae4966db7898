//! The engine: one `ShardCore` per topology region, advanced by one
//! deterministic round loop. Every [`World`] is this engine; there is
//! no other event loop. A region's core, with its own three-tier event
//! queue, flat stats, RNG streams, route cache, transmitter
//! busy-tracking, actors and trace sink, implements queueing, routing,
//! transmission, packet chaos, timers, signals, spawn/kill and dispatch
//! exactly once. The partition, the lookahead and the seed rule are in
//! `partition.rs`, the core and the actor context in `region.rs`, the
//! fault timeline, window planning and mailbox in `coord.rs`.
//!
//! ## Region rule
//!
//! * [`World::new`] forces **one region** ([`Partition::single`]): one
//!   round per fault-free stretch, straight to the horizon, with no
//!   lookahead bound and no mailbox traffic. One queue means global
//!   same-timestamp ordering, zero-latency routable media are fine, and
//!   an actor may spawn/kill/signal on any host.
//! * [`World::sharded`] uses the **natural partition**
//!   ([`Partition::of`]: every segment, with all its attached hosts,
//!   lives wholly inside one region), and a round is at most one
//!   lookahead wide.
//!
//! ## Why determinism survives parallelism
//!
//! * Regions are a property of the topology; `threads` only chooses how
//!   many OS threads run the fixed region set. Every per-core decision
//!   (event order, RNG draws, sequence numbers) depends only on that
//!   core's own inputs.
//! * Cross-region packets never touch another core directly. Between
//!   rounds they are gathered from per-core outboxes, sorted by `(at,
//!   src_region, src_seq)` and enqueued into their destination cores in
//!   that order: the **deterministic mailbox**.
//! * There is one loop, the coordinator's. A world of one chunk of
//!   regions runs every core on the calling thread; otherwise the
//!   calling thread runs the first chunk and one worker thread each
//!   later chunk, all through the same per-chunk body and against the
//!   same coordinator decisions. Equality across 1/2/4/8 threads holds by
//!   construction and is pinned by differential tests and the
//!   `shard-determinism` gate in `scripts/check.sh`. A panic on a worker
//!   ends the loop and propagates from [`World::run_until`], as one on
//!   the calling thread does.
//!
//! ## Faults are data
//!
//! [`FaultCmd`] values on a sorted timeline are applied between rounds,
//! and windows are capped at the next fault, so every core sees a fault
//! at `t` before any event at `t` runs. The immediate fault API
//! ([`World::host_down`] …) applies the same command now.
//! [`FaultCmd::Restart`] replaces the actor at an endpoint at the
//! fault's timestamp, at any thread count.
//!
//! ## Trace sinks
//!
//! A world whose cores run inline on the constructing thread records
//! engine events into that thread's flight recorder when it was enabled
//! at construction ([`crate::trace`]); otherwise
//! [`World::enable_trace`] gives every core its own ring.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::ScopedJoinHandle;

use snipe_util::id::{HostId, NetId};
use snipe_util::stats::Log2Histogram;
use snipe_util::time::{SimDuration, SimTime};

use crate::actor::Actor;
use crate::chaos::PacketChaos;
use crate::coord::Coordinator;
use crate::region::{spawn_region, Inbound, MailboxItem, Queued, ShardCore, TraceSink};
use crate::topology::{Endpoint, GrayLevel, PathInfo, Topology};
use crate::trace::{self, DropReason, NetStats, Recorder, TraceEvent, TraceKind};
use crate::world::compute_path;

pub use crate::coord::{ActorFactory, FaultCmd};
pub use crate::partition::Partition;

// The only `expect`s in the engine. A poisoned lock means an actor
// already panicked while the lock was held; propagating that panic is
// the only sound continuation.
fn read_topo(topo: &RwLock<Topology>) -> RwLockReadGuard<'_, Topology> {
    topo.read().expect("topology lock poisoned by an earlier panic")
}

pub(crate) fn write_topo(topo: &RwLock<Topology>) -> RwLockWriteGuard<'_, Topology> {
    topo.write().expect("topology lock poisoned by an earlier panic")
}

/// One worker thread's round buffers, handed over by value: the
/// coordinator sends the window end and the chunk's inbound lists, the
/// worker answers with the chunk's outboxes, queue minima and event
/// count. They stay in the world between runs, so the steady state
/// allocates nothing.
#[derive(Default)]
struct Hand {
    /// The chunk's first region.
    base: usize,
    end_ns: u64,
    inbound: Vec<Vec<Inbound>>,
    items: Vec<MailboxItem>,
    mins: Vec<u64>,
    events: u64,
}

/// The coordinator's end of one worker thread. Dropping `to` stops it.
struct Worker<'s> {
    to: SyncSender<Hand>,
    from: Receiver<Hand>,
    thread: ScopedJoinHandle<'s, ()>,
}

/// Run one window on a chunk of cores: each applies its inbound list
/// and runs its events before `end_ns`, then leaves its outbox in
/// `items` and its earliest pending event in `mins`. Returns the events
/// run. The calling thread and every worker run exactly this.
fn run_window(
    topo: &RwLock<Topology>,
    part: &Partition,
    cores: &mut [ShardCore],
    inbound: &mut [Vec<Inbound>],
    items: &mut Vec<MailboxItem>,
    mins: &mut [u64],
    end_ns: u64,
) -> u64 {
    let topo = read_topo(topo);
    let mut events = 0;
    for ((core, inb), min) in cores.iter_mut().zip(inbound).zip(mins) {
        let before = core.stats.events;
        core.run_round(&topo, part, inb, end_ns);
        events += core.stats.events - before;
        items.append(&mut core.outbox);
        *min = core.peek_ns();
    }
    events
}

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
    /// Regions per thread of a round's work.
    chunk: usize,
    /// One per worker thread.
    hands: Vec<Hand>,
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
        // The one place the thread count is read: the regions split
        // into equal chunks (4 regions on 3 threads are two chunks of
        // 2); the calling thread runs the first, one worker each other.
        let chunk = regions.div_ceil(threads.clamp(1, regions.max(1))).max(1);
        let hands: Vec<Hand> = (chunk..regions)
            .step_by(chunk)
            .map(|base| {
                let len = chunk.min(regions - base);
                let inbound = (0..len).map(|_| Vec::new()).collect();
                Hand { base, inbound, mins: vec![u64::MAX; len], ..Hand::default() }
            })
            .collect();
        // Inline execution stays on this thread, so its recorder (if
        // on) is a valid sink for the cores' engine events.
        let thread_trace = hands.is_empty() && trace::enabled();
        let sink = if thread_trace { TraceSink::Thread } else { TraceSink::Off };
        let cores =
            (0..part.regions).map(|r| ShardCore::new(r, &topo, &part, seed, sink)).collect();
        World {
            topo: RwLock::new(topo),
            part,
            cores,
            coord: Coordinator::new(regions, thread_trace),
            chunk,
            hands,
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

    /// Coordinator rounds run so far, and how many events each ran.
    /// Like the digest they are equal at every thread count, but they
    /// are not part of it.
    pub fn rounds(&self) -> (u64, &Log2Histogram) {
        (self.coord.rounds, &self.coord.events_per_round)
    }

    fn core_of(&self, host: HostId) -> &ShardCore {
        &self.cores[self.part.region_of_host(host)]
    }

    fn core_of_mut(&mut self, host: HostId) -> &mut ShardCore {
        &mut self.cores[self.part.region_of_host(host)]
    }

    /// Spawn an actor bound to `(host, port)` on its owning core.
    /// Delivers [`Event::Start`](crate::Event::Start) at the current time. `None` if the
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
    pub fn schedule_fault(&mut self, at: SimTime, mut cmd: FaultCmd) {
        if let FaultCmd::Gray(_, Some(g)) = &mut cmd {
            g.latency_factor = g.latency_factor.max(1.0);
        }
        self.coord.schedule(at, cmd);
    }

    /// Apply a fault at the current time, notifying affected actors
    /// before returning. Between runs every inbound list is empty, so
    /// the cores see this fault's work alone.
    fn fault_now(&mut self, at: SimTime, cmd: FaultCmd) {
        self.coord.apply_fault(&self.topo, &self.part, at, cmd);
        self.coord.begin_round();
        let topo = read_topo(&self.topo);
        for (core, inb) in self.cores.iter_mut().zip(&mut self.coord.inbound) {
            core.apply_inbound(&topo, &self.part, inb);
        }
    }

    /// Take a host down; every actor on it gets [`Event::HostDown`](crate::Event::HostDown).
    /// Like every fault method here, a no-op when already in the
    /// requested state: the topology epoch (and so every route cache)
    /// is left alone.
    pub fn host_down(&mut self, h: HostId) {
        self.fault_now(self.now, FaultCmd::HostDown(h));
    }

    /// Bring a host back up; every actor on it gets [`Event::HostUp`](crate::Event::HostUp).
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
    /// The coordinator's one round loop drives the cores: each window,
    /// the calling thread runs the first chunk of regions and one scoped
    /// worker thread each later chunk, all through `run_window`. A
    /// worker that panics ends the loop, and its panic propagates from
    /// here. A one-region world has no lookahead bound, so its single
    /// round per fault-free stretch runs straight to the horizon.
    pub fn run_until(&mut self, t: SimTime) {
        let World { topo, part, cores, coord, chunk, hands, .. } = self;
        let (topo, part, chunk) = (&*topo, &*part, *chunk);
        let horizon_ns = t.as_nanos().saturating_add(1);
        for (min, core) in coord.mins.iter_mut().zip(cores.iter()) {
            *min = core.peek_ns();
        }
        let (own, rest) = cores.split_at_mut(chunk);
        let mut rounds = |pool: &[Worker]| {
            coord.run(topo, part, horizon_ns, |c, end_ns| {
                for (worker, hand) in pool.iter().zip(hands.iter_mut()) {
                    let mut hand = Hand { end_ns, ..std::mem::take(hand) };
                    c.inbound[hand.base..][..hand.inbound.len()].swap_with_slice(&mut hand.inbound);
                    worker.to.send(hand).ok()?;
                }
                let (inbound, items, mins) = (&mut c.inbound, &mut c.items, &mut c.mins);
                let mut events = run_window(topo, part, own, inbound, items, mins, end_ns);
                for (worker, hand) in pool.iter().zip(hands.iter_mut()) {
                    let mut back = worker.from.recv().ok()?;
                    events += back.events;
                    c.items.append(&mut back.items);
                    c.mins[back.base..][..back.mins.len()].copy_from_slice(&back.mins);
                    *hand = back;
                }
                Some(events)
            })
        };
        if rest.is_empty() {
            rounds(&[]);
        } else {
            std::thread::scope(|scope| {
                let pool: Vec<Worker> = rest
                    .chunks_mut(chunk)
                    .map(|cores| {
                        let (to, work) = sync_channel::<Hand>(1);
                        let (done, from) = sync_channel::<Hand>(1);
                        let thread = scope.spawn(move || {
                            for mut hand in work {
                                let Hand { end_ns, inbound, items, mins, events, .. } = &mut hand;
                                *events =
                                    run_window(topo, part, cores, inbound, items, mins, *end_ns);
                                if done.send(hand).is_err() {
                                    break;
                                }
                            }
                        });
                        Worker { to, from, thread }
                    })
                    .collect();
                rounds(&pool);
                // Stop every worker; one that panicked re-raises its panic.
                for Worker { to, thread, .. } in pool {
                    drop(to);
                    if let Err(panic) = thread.join() {
                        std::panic::resume_unwind(panic);
                    }
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    use bytes::Bytes;

    use super::*;
    use crate::actor::{Event, SimCtx};
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

    /// Panics on its first packet: an actor bug.
    struct Panicker;

    impl Actor for Panicker {
        fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
            if let Event::Packet { .. } = event {
                panic!("actor bug on its first packet");
            }
        }
    }

    /// An actor's panic ends the run at every thread count, whichever
    /// thread ran its region, and the panic that propagates is the
    /// actor's own. The run happens on a spawned thread, so a run that
    /// hangs instead fails this test rather than the whole suite.
    #[test]
    fn a_panicking_actor_fails_the_run_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut w = pinger_world(3, threads);
                let victim = Endpoint::new(HostId(5), 5);
                w.kill(victim);
                w.spawn(victim.host, victim.port, Box::new(Panicker));
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    w.run_for(SimDuration::from_millis(50))
                }));
                let message = run.err().map(|panic| match panic.downcast::<&str>() {
                    Ok(s) => s.to_string(),
                    Err(panic) => panic.downcast::<String>().map(|s| *s).unwrap_or_default(),
                });
                let _ = tx.send(message);
            });
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(message) => assert_eq!(
                    message.as_deref(),
                    Some("actor bug on its first packet"),
                    "{threads} threads"
                ),
                Err(_) => panic!("{threads} threads: the run is still running after 10 s"),
            }
        }
    }

    /// The round counters are coordinator decisions, so every thread
    /// count sees the same rounds with the same events in each; a
    /// one-region world takes one round per fault-free stretch.
    #[test]
    fn round_counters_are_equal_at_any_thread_count() {
        let faults = |w: &mut World| {
            w.schedule_fault(SimTime::from_nanos(3_000_000), FaultCmd::HostDown(HostId(6)));
            w.schedule_fault(SimTime::from_nanos(8_000_000), FaultCmd::HostUp(HostId(6)));
        };
        let run = |threads: usize| {
            let mut w = pinger_world(37, threads);
            faults(&mut w);
            w.run_for(SimDuration::from_millis(20));
            let (rounds, per_round) = w.rounds();
            (rounds, per_round.clone(), w.stats().events)
        };
        let base = run(1);
        assert!(base.0 > 20, "{} rounds", base.0);
        assert!(base.1.quantile_bound(1.0) > 1, "some round ran several events");
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "{threads} threads");
        }
        let mut one = with_pingers(World::new(cluster_topology(4, 4), 37));
        faults(&mut one);
        one.run_for(SimDuration::from_millis(20));
        assert_eq!(one.rounds().0, 3, "0–3 ms, 3–8 ms, 8–20 ms");
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
        const VARIANTS: [&str; TraceKind::COUNT] = [
            "Send",
            "Recv",
            "Drop",
            "Retransmit",
            "TimerFire",
            "PathRotate",
            "Fault",
            "Migration",
            "Wake",
        ];
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
                Event::Packet { .. } => {
                    self.log.lock().unwrap().push((self.incarnation, ctx.now()))
                }
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
            let log = log.lock().unwrap().clone();
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
