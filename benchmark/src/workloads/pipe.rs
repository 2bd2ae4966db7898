//! The benchmark-owned medium for the engine-less wire workloads.
//!
//! A binary heap on virtual time carries datagrams between stacks and
//! wakes stacks for their protocol timers. Each sender has one
//! transmit queue per route (serialisation at the route's bandwidth,
//! then a fixed propagation delay); loss and reordering are drawn from
//! a seeded stream. It is deliberately the cheapest thing that gives
//! the wire layer a realistic clock: its host time counts against
//! `bench.generator_share`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::NetId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimTime;

/// Routes between every pair of stacks.
pub const ROUTES: usize = 2;

/// The pipe's model parameters.
#[derive(Clone, Copy, Debug)]
pub struct PipeCfg {
    /// One-way propagation per route, ns.
    pub latency_ns: [u64; ROUTES],
    /// Serialisation rate, bits/s.
    pub bandwidth_bps: u64,
    /// Probability a datagram is lost.
    pub loss: f64,
    /// Probability a datagram is held back by `reorder_extra_ns`.
    pub reorder: f64,
    pub reorder_extra_ns: u64,
}

/// What the pipe hands back when its clock advances.
pub enum PipeEvent {
    /// A datagram reached stack `to`.
    Arrive { to: usize, from: Endpoint, bytes: Bytes },
    /// Stack `stack` asked to be woken now.
    Timer { stack: usize },
}

struct Item {
    at: u64,
    seq: u64,
    ev: PipeEvent,
}

impl PartialEq for Item {
    fn eq(&self, o: &Item) -> bool {
        (self.at, self.seq) == (o.at, o.seq)
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, o: &Item) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Item {
    fn cmp(&self, o: &Item) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

/// Per-direction datagram counts of one (sender, receiver) pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairCount {
    pub sent: u64,
    pub lost: u64,
    pub bytes: u64,
}

/// The seeded pipe.
pub struct Pipe {
    cfg: PipeCfg,
    heap: BinaryHeap<Reverse<Item>>,
    seq: u64,
    now: u64,
    stacks: usize,
    /// When each (sender, route) transmit queue is next free, ns.
    link_free: Vec<[u64; ROUTES]>,
    rng: Xoshiro256,
    /// Bytes put on the pipe (lost ones too: they were transmitted).
    pub wire_bytes: u64,
    pub datagrams: u64,
    pub lost: u64,
    pub reordered: u64,
    /// Counts per ordered pair, indexed `src * stacks + dst`.
    pub pairs: Vec<PairCount>,
}

impl Pipe {
    pub fn new(cfg: PipeCfg, stacks: usize, seed: u64) -> Pipe {
        Pipe {
            cfg,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            stacks,
            link_free: vec![[0; ROUTES]; stacks],
            rng: Xoshiro256::seed_from_u64(seed),
            wire_bytes: 0,
            datagrams: 0,
            lost: 0,
            reordered: 0,
            pairs: vec![PairCount::default(); stacks * stacks],
        }
    }

    /// Restart the loss/reorder stream (each pass draws from its own).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Xoshiro256::seed_from_u64(seed);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    fn push(&mut self, at: u64, ev: PipeEvent) {
        self.seq += 1;
        self.heap.push(Reverse(Item { at, seq: self.seq, ev }));
    }

    /// Put a datagram from stack `src` on the pipe.
    pub fn transmit(
        &mut self,
        src: usize,
        from: Endpoint,
        to: Endpoint,
        via: Option<NetId>,
        bytes: Bytes,
    ) {
        let dst = to.host.0 as usize;
        let route = via.map_or(0, |n| n.0 as usize % ROUTES);
        let len = bytes.len() as u64;
        let tx_ns = len * 8 * 1_000_000_000 / self.cfg.bandwidth_bps;
        let free = &mut self.link_free[src][route];
        let done = (*free).max(self.now) + tx_ns;
        *free = done;
        self.wire_bytes += len;
        self.datagrams += 1;
        let pair = &mut self.pairs[src * self.stacks + dst];
        pair.sent += 1;
        pair.bytes += len;
        if self.cfg.loss > 0.0 && self.rng.gen_bool(self.cfg.loss) {
            self.lost += 1;
            pair.lost += 1;
            return;
        }
        let mut at = done + self.cfg.latency_ns[route];
        if self.cfg.reorder > 0.0 && self.rng.gen_bool(self.cfg.reorder) {
            self.reordered += 1;
            at += self.cfg.reorder_extra_ns;
        }
        self.push(at, PipeEvent::Arrive { to: dst, from, bytes });
    }

    /// Wake `stack` at `at`.
    pub fn arm(&mut self, stack: usize, at: SimTime) {
        self.push(at.as_nanos().max(self.now), PipeEvent::Timer { stack });
    }

    /// Advance to the next event. `None` when nothing is in flight or
    /// armed — the workload stalled.
    pub fn pop(&mut self) -> Option<PipeEvent> {
        let Reverse(item) = self.heap.pop()?;
        self.now = item.at;
        Some(item.ev)
    }
}
