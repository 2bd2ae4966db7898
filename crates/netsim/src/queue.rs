//! The three-tier event queue: now-queue, per-transmitter delivery
//! streams, and a slab-backed future heap.
//!
//! Every region's core ([`crate::shard`]) owns one. The queue is
//! generic over the event body `T` and knows nothing about actors,
//! packets or the clock — callers pass `now` in and account pops
//! against their own stats.
//!
//! ## Why three tiers
//!
//! * **Now-queue** — events scheduled *at the current timestamp*, in
//!   seq (FIFO) order. Packet storms are dominated by same-instant
//!   bursts (loopback sends, signals, zero-delay chains); pushing those
//!   through the heap costs `O(log n)` sift per event for an ordering
//!   the FIFO already has.
//! * **Delivery streams** — FIFOs of pending deliveries that share a
//!   serializing transmitter and a propagation latency. Such deliveries
//!   arrive in exactly the order they were sent: each transmitter's
//!   free-at time only moves forward, so serialization finish times are
//!   monotone per channel, and adding a constant latency preserves
//!   that. An oversubscribed segment can have hundreds of thousands of
//!   packets in flight — as a heap they are `O(log n)` sift traffic
//!   each, as a stream they cost `O(1)` at both ends.
//! * **Heap** — everything else (timers, far-future events, jittered
//!   chaos copies), ordered by `(at, seq)` with bodies parked in a slab
//!   so the sifted element stays three words.
//!
//! The pop scan takes the global `(at, seq)` minimum across all three
//! tiers, so dispatch order is identical to a single heap's.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use snipe_util::id::{LinkId, NetId};
use snipe_util::time::{SimDuration, SimTime};

/// FNV-1a, for the hot-path maps (route cache, port bindings, stream
/// ids). Those are probed once or more per packet, where SipHash
/// (std's default, DoS-hardened) is measurable overhead; keys are
/// attacker-free simulator ids, so the cheap hash is safe. Keys hash
/// identically across runs, keeping behaviour independent of
/// process-random hash state.
#[derive(Default)]
pub(crate) struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf29ce484222325 } else { self.0 };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` on the FNV hasher (deterministic, fast for small keys).
pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// The serializing transmitter of a delivery: the segment itself for
/// shared-bus media, the sender's interface for switched media.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum TxChannel {
    /// A shared-bus segment serializes the whole segment.
    Bus(NetId),
    /// A switched medium serializes per sending interface.
    Link(LinkId),
}

/// A queued event body plus its ordering key.
pub(crate) struct QueuedEvent<T> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: T,
}

/// Which tier an event was popped from — callers bump their own
/// `EngineStats` counters from this (the world's tests pin those
/// counters, and each shard accounts pops to its own flat stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Same-timestamp FIFO.
    Now,
    /// Slab-backed future heap.
    Heap,
    /// Per-transmitter delivery stream.
    Stream,
}

/// Future-heap entry: ordering key plus a slab index for the event
/// body. Keeping the heap element at three words matters more than
/// anything else in the engine — an oversubscribed storm parks
/// hundreds of thousands of pending deliveries in the heap, and every
/// push/pop sifts `O(log n)` elements. Sifting 24-byte keys instead of
/// full `QueuedEvent`s (5+ words of payload enum) cuts the dominant
/// memory traffic of the event loop; the bodies sit still in the slab
/// and are touched exactly twice (insert, remove).
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // (at, seq) is unique: idx never participates.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// FIFO of pending deliveries that share a transmitter and a
/// propagation latency (see module docs).
struct DeliveryStream<T> {
    /// `(at, seq)` of the front event; `STREAM_EMPTY` when drained.
    /// Kept inline so the pop scan touches one contiguous array.
    front: (SimTime, u64),
    queue: VecDeque<QueuedEvent<T>>,
}

/// Sort key no real event can have (seq is bumped past any use long
/// before u64 wraps).
const STREAM_EMPTY: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// Cap on distinct `(channel, latency)` streams; beyond it, new
/// channels fall back to the heap. Real topologies produce a handful
/// (shared buses × path latencies + active switched links); the cap
/// only bounds the per-pop scan in adversarial shapes.
const MAX_STREAMS: usize = 64;

/// The three-tier event queue. Owns the seq counter that totally
/// orders same-timestamp events.
pub(crate) struct EventQueue<T> {
    /// Future events, ordered by `(at, seq)`; bodies live in `slab`.
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Bodies of heap-resident events, indexed by `HeapEntry::idx`.
    /// Vacated slots are recycled through `slab_free`, so the slab
    /// stops allocating once it reaches the high-water mark.
    slab: Vec<Option<T>>,
    slab_free: Vec<u32>,
    /// Per-transmitter delivery FIFOs.
    streams: Vec<DeliveryStream<T>>,
    stream_ids: FnvMap<(TxChannel, SimDuration), u32>,
    /// Events scheduled at the caller's current timestamp, in seq
    /// (FIFO) order. Invariant: every entry has `at == now` as of its
    /// push (enforced by `push`; the caller's clock only advances once
    /// this queue is drained, because its entries sort before anything
    /// later).
    now_queue: VecDeque<QueuedEvent<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            slab_free: Vec::new(),
            streams: Vec::new(),
            stream_ids: FnvMap::default(),
            now_queue: VecDeque::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> EventQueue<T> {
        EventQueue::default()
    }

    /// Sequence numbers handed out so far (= events ever pushed).
    pub(crate) fn seqs_issued(&self) -> u64 {
        self.seq
    }

    /// Total events pending across all three tiers.
    pub(crate) fn depth(&self) -> usize {
        self.heap.len()
            + self.now_queue.len()
            + self.streams.iter().map(|s| s.queue.len()).sum::<usize>()
    }

    /// High-water mark of the heap's body slab (never shrinks: slots
    /// are recycled, so `slab.len()` is the lifetime peak).
    pub(crate) fn slab_high_water(&self) -> usize {
        self.slab.len()
    }

    /// Longest single delivery stream right now.
    pub(crate) fn stream_depth_max(&self) -> usize {
        self.streams.iter().map(|s| s.queue.len()).max().unwrap_or(0)
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Push an event for `at`; `now` routes same-instant events to the
    /// now-queue.
    pub(crate) fn push(&mut self, now: SimTime, at: SimTime, kind: T) {
        let seq = self.next_seq();
        if at == now {
            self.now_queue.push_back(QueuedEvent { at, seq, kind });
        } else {
            self.push_heap(QueuedEvent { at, seq, kind });
        }
    }

    /// Queue a delivery serialized by `channel` with a fixed
    /// propagation latency, using its FIFO stream when the arrival
    /// order allows (it always does — the guard only covers hostile
    /// direct topology mutation).
    pub(crate) fn push_delivery(
        &mut self,
        now: SimTime,
        at: SimTime,
        kind: T,
        channel: TxChannel,
        latency: SimDuration,
    ) {
        let seq = self.next_seq();
        let ev = QueuedEvent { at, seq, kind };
        if at == now {
            self.now_queue.push_back(ev);
            return;
        }
        let sid = match self.stream_ids.get(&(channel, latency)) {
            Some(&s) => Some(s),
            None if self.streams.len() < MAX_STREAMS => {
                let s = self.streams.len() as u32;
                self.streams.push(DeliveryStream { front: STREAM_EMPTY, queue: VecDeque::new() });
                self.stream_ids.insert((channel, latency), s);
                Some(s)
            }
            None => None,
        };
        match sid {
            Some(s) => {
                let stream = &mut self.streams[s as usize];
                if stream.queue.back().is_some_and(|b| ev.at < b.at) {
                    self.push_heap(ev);
                } else {
                    if stream.queue.is_empty() {
                        stream.front = (ev.at, ev.seq);
                    }
                    stream.queue.push_back(ev);
                }
            }
            None => self.push_heap(ev),
        }
    }

    fn push_heap(&mut self, ev: QueuedEvent<T>) {
        let idx = match self.slab_free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(ev.kind);
                i
            }
            None => {
                let i = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(Some(ev.kind));
                i
            }
        };
        self.heap.push(Reverse(HeapEntry { at: ev.at, seq: ev.seq, idx }));
    }

    /// Pop the globally next event by `(at, seq)` across the three
    /// tiers. Any tier can hold events tied on timestamp with another —
    /// e.g. the heap keeps events at `now` that were scheduled *before*
    /// the clock reached it — so ties always compare by seq, and the
    /// pop order is exactly the order a single heap would produce.
    pub(crate) fn pop(&mut self) -> Option<(QueuedEvent<T>, Tier)> {
        // 0 = now-queue, 1 = heap, 2+i = stream i.
        let mut best = match self.now_queue.front() {
            Some(ev) => (ev.at, ev.seq),
            None => STREAM_EMPTY,
        };
        let mut src = 0usize;
        if let Some(Reverse(h)) = self.heap.peek() {
            if (h.at, h.seq) < best {
                best = (h.at, h.seq);
                src = 1;
            }
        }
        for (i, s) in self.streams.iter().enumerate() {
            if s.front < best {
                best = s.front;
                src = 2 + i;
            }
        }
        if best == STREAM_EMPTY {
            return None;
        }
        match src {
            0 => self.now_queue.pop_front().map(|ev| (ev, Tier::Now)),
            1 => {
                let Reverse(h) = self.heap.pop()?;
                let kind = self.slab[h.idx as usize].take().expect("heap entry without body");
                self.slab_free.push(h.idx);
                Some((QueuedEvent { at: h.at, seq: h.seq, kind }, Tier::Heap))
            }
            i => {
                let stream = &mut self.streams[i - 2];
                let ev = stream.queue.pop_front();
                stream.front = match stream.queue.front() {
                    Some(next) => (next.at, next.seq),
                    None => STREAM_EMPTY,
                };
                ev.map(|ev| (ev, Tier::Stream))
            }
        }
    }

    /// Timestamp of the next pending event, if any.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        let mut best = match self.now_queue.front() {
            Some(ev) => ev.at,
            None => SimTime::MAX,
        };
        if let Some(Reverse(h)) = self.heap.peek() {
            best = best.min(h.at);
        }
        for s in &self.streams {
            best = best.min(s.front.0);
        }
        // An event at SimTime::MAX is unschedulable (arrival times add
        // latency to a finite clock), so MAX means "no events".
        (best != SimTime::MAX).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pop_order_is_global_at_seq_min_across_tiers() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Heap event at t=10, stream events at t=5 and t=10, now events at t=0.
        q.push(T0, t(10), 0);
        let ch = TxChannel::Bus(NetId(0));
        q.push_delivery(T0, t(5), 1, ch, SimDuration::from_nanos(1));
        q.push_delivery(T0, t(10), 2, ch, SimDuration::from_nanos(1));
        q.push(T0, T0, 3);
        q.push(T0, T0, 4);
        let mut got = Vec::new();
        while let Some((ev, _)) = q.pop() {
            got.push((ev.at, ev.kind));
        }
        assert_eq!(got, vec![(T0, 3), (T0, 4), (t(5), 1), (t(10), 0), (t(10), 2)]);
    }

    #[test]
    fn tiers_reported_and_depth_tracked() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(T0, T0, 0);
        q.push(T0, t(7), 1);
        q.push_delivery(T0, t(3), 2, TxChannel::Link(LinkId(1)), SimDuration::from_nanos(2));
        assert_eq!(q.depth(), 3);
        let tiers: Vec<Tier> = std::iter::from_fn(|| q.pop().map(|(_, tier)| tier)).collect();
        assert_eq!(tiers, vec![Tier::Now, Tier::Stream, Tier::Heap]);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.seqs_issued(), 3);
    }

    #[test]
    fn slab_recycles_and_high_water_is_peak() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10 {
            q.push(T0, t(1 + i), i as u32);
        }
        assert_eq!(q.slab_high_water(), 10);
        for _ in 0..10 {
            q.pop();
        }
        // Refill: recycled slots, no slab growth.
        for i in 0..10 {
            q.push(t(11), t(20 + i), i as u32);
        }
        assert_eq!(q.slab_high_water(), 10);
    }

    #[test]
    fn out_of_order_stream_push_falls_back_to_heap() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let ch = TxChannel::Bus(NetId(0));
        let lat = SimDuration::from_nanos(1);
        q.push_delivery(T0, t(10), 0, ch, lat);
        // Earlier arrival on the same stream: must not corrupt FIFO order.
        q.push_delivery(T0, t(5), 1, ch, lat);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(ev, _)| ev.kind)).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn peek_at_sees_all_tiers() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.push(T0, t(9), 0);
        assert_eq!(q.peek_at(), Some(t(9)));
        q.push_delivery(T0, t(4), 1, TxChannel::Bus(NetId(2)), SimDuration::from_nanos(1));
        assert_eq!(q.peek_at(), Some(t(4)));
        q.push(T0, T0, 2);
        assert_eq!(q.peek_at(), Some(T0));
    }
}
