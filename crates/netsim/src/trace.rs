//! Counters, the flight recorder, and optional packet tracing.
//!
//! All hot-path counters are flat arrays/vectors rather than hash maps:
//! `send_packet` and `step` bump them once per packet/event, so a
//! `HashMap` entry lookup there costs more than the rest of the
//! accounting combined. Drop reasons index a fixed array; per-network
//! byte counts index a `Vec` by `NetId` (network ids are dense, handed
//! out sequentially by `Topology::add_network`).
//!
//! ## Flight recorder
//!
//! A fixed-capacity ring of structured [`TraceEvent`]s, stamped with
//! virtual time and a per-run sequence number. Every layer above the
//! simulator records into it — the engine (sends, deliveries, drops,
//! timer fires, fault ops), the wire transports (retransmits, path
//! rotations) and the process layer (migration phases) — so when a
//! chaos oracle trips, the harness can dump the last N events as a
//! readable story instead of bisecting seeds blind.
//!
//! The recorder is **thread-local** and off by default: disabled, the
//! whole record path is one `Cell<bool>` load. Enabled, it never
//! allocates after [`enable`] preallocates the ring — at capacity it
//! drops the *oldest* event and counts it in `trace_dropped`. Thread
//! locality keeps recording deterministic under the chaos soak's
//! fan-out (each seeded run owns its thread, and its trace) with zero
//! synchronization on the simulator hot path.

use std::cell::{Cell, RefCell};

use snipe_util::id::NetId;
use snipe_util::time::SimTime;

use crate::topology::Endpoint;

/// Why a packet never arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on the medium.
    Loss,
    /// No usable path between the hosts.
    NoRoute,
    /// Destination host down at delivery time.
    HostDown,
    /// No actor bound to the destination port.
    NoListener,
    /// Payload exceeded the path MTU (wire layer should have fragmented).
    TooBig,
}

impl DropReason {
    /// Number of variants (size of the flat drop-counter array).
    pub const COUNT: usize = 5;

    /// All variants, in counter order.
    pub const ALL: [DropReason; DropReason::COUNT] = [
        DropReason::Loss,
        DropReason::NoRoute,
        DropReason::HostDown,
        DropReason::NoListener,
        DropReason::TooBig,
    ];

    /// Stable lowercase name (reports, trace dumps).
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::NoRoute => "no_route",
            DropReason::HostDown => "host_down",
            DropReason::NoListener => "no_listener",
            DropReason::TooBig => "too_big",
        }
    }
}

/// Event-engine internals: queue and route-cache behaviour. Exposed for
/// the bench harness and for regression tests on the fast path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped from the future-event heap.
    pub heap_pops: u64,
    /// Events popped from the same-timestamp now-queue (these skipped
    /// the heap entirely).
    pub now_pops: u64,
    /// Deliveries popped from per-transmitter FIFO streams (in-flight
    /// serialized packets that never paid heap sift costs).
    pub stream_pops: u64,
    /// Route lookups answered from the cache.
    pub route_cache_hits: u64,
    /// Route lookups that fell through to a fresh computation.
    pub route_cache_misses: u64,
    /// High-water mark of pending events (heap + now-queue).
    pub peak_queue_depth: u64,
    /// Wake-ups popped but not delivered, not counted as events: the
    /// actor's answer had moved (or it died).
    pub superseded_wakes: u64,
}

/// Per-packet fault injections performed by the chaos layer. Corrupted
/// and duplicated packets are still *delivered* (the wire layer's
/// checksums and dedup must cope), so none of these count as drops.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Payloads with flipped bytes.
    pub corrupted: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Deliveries given extra reordering jitter.
    pub reordered: u64,
}

/// Aggregate statistics kept by the world.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to `send_packet`.
    pub sent: u64,
    /// Packets delivered to an actor.
    pub delivered: u64,
    /// Events dispatched in total.
    pub events: u64,
    /// Engine internals (queue tiers, route cache, queue depth).
    pub engine: EngineStats,
    /// Per-packet chaos injections (zero unless chaos is enabled).
    pub chaos: ChaosStats,
    drops: [u64; DropReason::COUNT],
    bytes_by_net: Vec<u64>,
}

impl NetStats {
    /// Drops for one reason.
    pub fn drops(&self, r: DropReason) -> u64 {
        self.drops[r as usize]
    }

    /// Total drops across reasons.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Payload bytes carried by network `n`.
    pub fn bytes_on(&self, n: NetId) -> u64 {
        self.bytes_by_net.get(n.index()).copied().unwrap_or(0)
    }

    /// `(net, bytes)` for every network that carried traffic.
    pub fn bytes_by_net(&self) -> impl Iterator<Item = (NetId, u64)> + '_ {
        self.bytes_by_net
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (NetId::from_index(i), b))
    }

    /// Record a drop.
    pub(crate) fn drop(&mut self, r: DropReason) {
        self.drops[r as usize] += 1;
    }

    /// Account `len` payload bytes to network `n`.
    pub(crate) fn add_bytes(&mut self, n: NetId, len: u64) {
        let i = n.index();
        if i >= self.bytes_by_net.len() {
            self.bytes_by_net.resize(i + 1, 0);
        }
        self.bytes_by_net[i] += len;
    }

    /// Pre-size the per-network byte counters so the send path never
    /// grows the vector.
    pub(crate) fn reserve_nets(&mut self, nets: usize) {
        if self.bytes_by_net.len() < nets {
            self.bytes_by_net.resize(nets, 0);
        }
    }

    /// Fold another stats block into this one. Counters add;
    /// `peak_queue_depth` takes the max (it is a high-water mark of one
    /// queue, and the merged view reports the worst single queue). The
    /// world merges its per-region stats through this.
    pub(crate) fn merge(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.events += other.events;
        self.engine.heap_pops += other.engine.heap_pops;
        self.engine.now_pops += other.engine.now_pops;
        self.engine.stream_pops += other.engine.stream_pops;
        self.engine.superseded_wakes += other.engine.superseded_wakes;
        self.engine.route_cache_hits += other.engine.route_cache_hits;
        self.engine.route_cache_misses += other.engine.route_cache_misses;
        self.engine.peak_queue_depth =
            self.engine.peak_queue_depth.max(other.engine.peak_queue_depth);
        self.chaos.corrupted += other.chaos.corrupted;
        self.chaos.duplicated += other.chaos.duplicated;
        self.chaos.reordered += other.chaos.reordered;
        for (i, d) in other.drops.iter().enumerate() {
            self.drops[i] += d;
        }
        self.reserve_nets(other.bytes_by_net.len());
        for (i, b) in other.bytes_by_net.iter().enumerate() {
            self.bytes_by_net[i] += b;
        }
    }
}

/// A fault-layer operation, recorded as `what` plus two generic
/// operands (host/net ids, group numbers, process keys — whatever the
/// op manipulates). `&'static str` keeps the event `Copy` and the
/// record path allocation-free while dumps stay self-describing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOp {
    /// Operation name (`"host_down"`, `"set_gray"`, `"respawn"`, …).
    pub what: &'static str,
    /// First operand (meaning depends on `what`).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// Phase marker for a live-process migration (§6 of the paper): the
/// checkpoint on the old host, the cutover to forwarding, the old
/// incarnation vanishing, and the resume on the new host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPhase {
    /// State checkpointed and shipped in a spawn request.
    Checkpoint,
    /// Spawn confirmed: stack dropped, forwarding redirect installed.
    Cutover,
    /// Grace period over; the old incarnation exits.
    Vanish,
    /// New incarnation imported the snapshot and took over.
    Resume,
}

/// One structured flight-recorder event kind. Every variant is `Copy`
/// and fixed-size: recording is a ring-slot write, never a heap touch.
#[derive(Clone, Copy, Debug)]
pub enum TraceKind {
    /// A datagram entered `send_packet`.
    Send {
        /// Sender endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Payload length.
        len: u32,
    },
    /// A datagram reached a bound actor.
    Recv {
        /// Original sender.
        from: Endpoint,
        /// Receiving endpoint.
        to: Endpoint,
        /// Payload length.
        len: u32,
    },
    /// A datagram was dropped by the engine.
    Drop {
        /// Why it never arrived.
        reason: DropReason,
    },
    /// A wire driver re-sent unacknowledged data (RTO or kicked).
    Retransmit {
        /// Peer process key (or 0 when unkeyed).
        peer: u64,
        /// Bytes re-sent.
        len: u32,
    },
    /// An actor timer fired.
    TimerFire {
        /// The actor's timer token.
        token: u64,
    },
    /// The path selector rotated a peer to a new primary route.
    PathRotate {
        /// Peer process key.
        peer: u64,
        /// Raw id of the network now carrying traffic (`u32::MAX`
        /// when the peer has no pinned candidates).
        rank: u32,
    },
    /// A fault-layer or supervision operation ran.
    Fault {
        /// The operation.
        op: FaultOp,
    },
    /// A process migration crossed a phase boundary.
    Migration {
        /// Which phase.
        phase: MigrationPhase,
        /// The migrating process key.
        key: u64,
    },
    /// An actor's wake-up fired ([`crate::actor::Actor::next_wake`]).
    Wake {
        /// The woken actor.
        actor: Endpoint,
    },
}

impl TraceKind {
    /// Number of variants (size of the per-kind counter array).
    pub const COUNT: usize = 9;

    /// Kind names, indexed by [`TraceKind::tag`].
    pub const NAMES: [&'static str; TraceKind::COUNT] = [
        "send",
        "recv",
        "drop",
        "retransmit",
        "timer_fire",
        "path_rotate",
        "fault_op",
        "migration",
        "wake",
    ];

    /// Dense discriminant for the per-kind counters.
    pub fn tag(&self) -> usize {
        match self {
            TraceKind::Send { .. } => 0,
            TraceKind::Recv { .. } => 1,
            TraceKind::Drop { .. } => 2,
            TraceKind::Retransmit { .. } => 3,
            TraceKind::TimerFire { .. } => 4,
            TraceKind::PathRotate { .. } => 5,
            TraceKind::Fault { .. } => 6,
            TraceKind::Migration { .. } => 7,
            TraceKind::Wake { .. } => 8,
        }
    }
}

/// One recorded event: virtual timestamp, seed-deterministic sequence
/// number (position in this run's record stream), and the payload.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Monotone per-run sequence number (0-based).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// The drop-oldest ring behind both trace sinks: the thread-local
/// flight recorder below and the per-core rings a threaded world
/// records engine events into (see [`crate::world::World::enable_trace`]).
pub(crate) struct Recorder {
    buf: Vec<TraceEvent>,
    /// Ring capacity; 0 while disabled.
    pub(crate) cap: usize,
    /// Next slot to (over)write once the ring is full.
    next: usize,
    pub(crate) seq: u64,
    pub(crate) dropped: u64,
    pub(crate) kind_counts: [u64; TraceKind::COUNT],
}

impl Recorder {
    pub(crate) const fn empty() -> Recorder {
        Recorder {
            buf: Vec::new(),
            cap: 0,
            next: 0,
            seq: 0,
            dropped: 0,
            kind_counts: [0; TraceKind::COUNT],
        }
    }

    /// A fresh ring preallocated for `capacity` events (at least 1).
    pub(crate) fn with_capacity(capacity: usize) -> Recorder {
        let mut r = Recorder::empty();
        r.cap = capacity.max(1);
        r.buf.reserve_exact(r.cap);
        r
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: TraceKind) {
        let ev = TraceEvent { seq: self.seq, at, kind };
        self.seq += 1;
        self.kind_counts[kind.tag()] += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            // Full: overwrite the oldest (the slot `next` points at).
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events in chronological order, oldest retained first.
    pub(crate) fn iter_ordered(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.buf.split_at(self.next.min(self.buf.len()));
        head.iter().chain(tail.iter())
    }
}

thread_local! {
    static TRACE_ON: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::empty()) };
}

/// Turn the flight recorder on for this thread with a fresh ring of
/// `capacity` events (clamped to at least 1). Resets sequence numbers,
/// per-kind counts and the `trace_dropped` counter — one `enable` per
/// seeded run is what keeps traces replayable.
pub fn enable(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::with_capacity(capacity));
    TRACE_ON.with(|t| t.set(true));
}

/// Turn the recorder off (the ring is kept until the next [`enable`],
/// so a post-mortem can still render it).
pub fn disable() {
    TRACE_ON.with(|t| t.set(false));
}

/// Is the recorder on for this thread? One `Cell` load — cheap enough
/// for cold call sites; hot loops should cache it (the engine cores do).
#[inline]
pub fn enabled() -> bool {
    TRACE_ON.with(|t| t.get())
}

/// Record one event at virtual time `at`. No-op when disabled; never
/// allocates when enabled (the ring was preallocated by [`enable`]).
///
/// The enabled path is outlined (`#[cold]`): the TLS + ring machinery
/// would otherwise be inlined — dead — into every guarded call site in
/// the engine hot loop, bloating the code the benchmark's `storm`
/// workload times.
#[inline]
pub fn record(at: SimTime, kind: TraceKind) {
    if !enabled() {
        return;
    }
    record_cached(at, kind);
}

/// [`record`] minus the thread-local `enabled()` re-check, for call
/// sites that already guard on a cached copy of the flag (each engine
/// core keeps one in a plain field). A stale `true` after [`disable`] just
/// writes into the ring that `disable` deliberately keeps around.
#[cold]
#[inline(never)]
pub(crate) fn record_cached(at: SimTime, kind: TraceKind) {
    RECORDER.with(|r| r.borrow_mut().push(at, kind));
}

/// Events overwritten because the ring was full (drop-oldest policy).
pub fn trace_dropped() -> u64 {
    RECORDER.with(|r| r.borrow().dropped)
}

/// Total events recorded since [`enable`], by kind tag. Survives ring
/// overwrite, so rates (retransmits, rotations) stay exact on long
/// runs even though only the tail of the story is retained.
pub fn kind_counts() -> [u64; TraceKind::COUNT] {
    RECORDER.with(|r| r.borrow().kind_counts)
}

/// Copy out the last `n` retained events in chronological order.
pub fn last_events(n: usize) -> Vec<TraceEvent> {
    RECORDER.with(|r| {
        let r = r.borrow();
        let have = r.buf.len();
        r.iter_ordered().skip(have.saturating_sub(n)).copied().collect()
    })
}

/// Render the last `n` retained events as a readable multi-line trace
/// (one event per line, virtual-time stamped), with a header noting
/// how much of the run the ring retained.
pub fn render_last(n: usize) -> String {
    RECORDER.with(|r| {
        let r = r.borrow();
        let have = r.buf.len();
        let shown = have.min(n);
        let mut out = format!(
            "flight recorder: {} events total, {} overwritten, showing last {}\n",
            r.seq, r.dropped, shown
        );
        for ev in r.iter_ordered().skip(have - shown) {
            out.push_str(&format!(
                "  #{:<8} t={:>12.6}ms  {:?}\n",
                ev.seq,
                ev.at.as_secs_f64() * 1e3,
                ev.kind
            ));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_counting() {
        let mut s = NetStats::default();
        s.drop(DropReason::Loss);
        s.drop(DropReason::Loss);
        s.drop(DropReason::NoRoute);
        assert_eq!(s.total_drops(), 3);
        assert_eq!(s.drops(DropReason::Loss), 2);
        assert_eq!(s.drops(DropReason::TooBig), 0);
    }

    #[test]
    fn drop_reason_indices_are_dense() {
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(*r as usize, i);
        }
    }

    /// Off-by-one hunting at the wrap point: fill a capacity-8 ring
    /// with 11 events. Exactly the 3 oldest must be overwritten (and
    /// counted), the survivors must come back in order with no seam at
    /// the wrap, and rendering must agree.
    #[test]
    fn ring_wraps_drop_oldest_and_count() {
        enable(8);
        assert!(enabled());
        assert_eq!(trace_dropped(), 0);
        for i in 0..11u64 {
            record(SimTime::from_nanos(1000 * i), TraceKind::TimerFire { token: i });
        }
        assert_eq!(trace_dropped(), 3, "capacity 8, 11 pushed: 3 overwritten");
        let evs = last_events(100);
        assert_eq!(evs.len(), 8, "ring retains exactly its capacity");
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (3..=10).collect::<Vec<u64>>(), "oldest 3 gone, order intact");
        for (e, want) in evs.iter().zip(3u64..) {
            assert_eq!(e.at, SimTime::from_nanos(1000 * want));
            assert!(matches!(e.kind, TraceKind::TimerFire { token } if token == want));
        }
        // last_events(n < retained) returns the newest n.
        let tail: Vec<u64> = last_events(2).iter().map(|e| e.seq).collect();
        assert_eq!(tail, vec![9, 10]);
        let dump = render_last(4);
        assert!(dump.contains("11 events total, 3 overwritten, showing last 4"), "{dump}");
        assert!(dump.contains("#7"), "{dump}");
        assert!(dump.contains("#10"), "{dump}");
        assert!(!dump.contains("#6 "), "{dump}");
        assert_eq!(kind_counts()[4], 11, "kind counts survive overwrite");
        disable();
        record(SimTime::ZERO, TraceKind::TimerFire { token: 99 });
        assert_eq!(kind_counts()[4], 11, "disabled recorder must not record");
    }

    /// Exactly-at-capacity is the other wrap-point edge: nothing may
    /// be dropped, and the very next event evicts exactly one.
    #[test]
    fn ring_at_exact_capacity_drops_nothing() {
        enable(4);
        for i in 0..4u64 {
            record(SimTime::from_nanos(i), TraceKind::TimerFire { token: i });
        }
        assert_eq!(trace_dropped(), 0);
        assert_eq!(last_events(100).len(), 4);
        assert_eq!(last_events(100)[0].seq, 0);
        record(SimTime::from_nanos(4), TraceKind::TimerFire { token: 4 });
        assert_eq!(trace_dropped(), 1);
        let seqs: Vec<u64> = last_events(100).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        disable();
    }

    #[test]
    fn byte_accounting_by_net() {
        let mut s = NetStats::default();
        let n0 = NetId::from_index(0);
        let n2 = NetId::from_index(2);
        s.add_bytes(n2, 100);
        s.add_bytes(n0, 7);
        s.add_bytes(n2, 1);
        assert_eq!(s.bytes_on(n0), 7);
        assert_eq!(s.bytes_on(NetId::from_index(1)), 0);
        assert_eq!(s.bytes_on(n2), 101);
        let carried: Vec<_> = s.bytes_by_net().collect();
        assert_eq!(carried, vec![(n0, 7), (n2, 101)]);
    }
}
