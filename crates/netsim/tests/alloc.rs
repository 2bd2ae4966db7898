//! Allocation regression tests for the cached send path and the round
//! driver.
//!
//! After warm-up (route cache populated, queue tiers and slabs at
//! steady-state capacity) the engine must drive packets without heap
//! allocation: no `Medium` clones, no per-packet `Vec` collection in
//! path selection, no per-event boxing, and no per-round cost in the
//! mailbox, the inbound lists or the hand-off to worker threads. A
//! counting global allocator makes any regression an immediate test
//! failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per thread: libtest runs sibling tests on other threads, and their
// allocations must not land in this test's count. `const`-initialised,
// so reading it never allocates.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use bytes::Bytes;
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::id::HostId;
use snipe_util::time::SimDuration;

/// Timer-driven flooder. Deliberately does NOT echo received packets:
/// an echo loop amplifies the backlog every round, which would grow the
/// queues (and thus allocate) forever instead of reaching steady state.
struct Flooder {
    peer: Endpoint,
    burst: usize,
}

impl Actor for Flooder {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } => {
                for _ in 0..self.burst {
                    ctx.send(self.peer, Bytes::from_static(&[0x5A; 64]));
                }
                ctx.set_timer(SimDuration::from_millis(1), 1);
            }
            _ => {}
        }
    }
}

#[test]
fn steady_state_send_path_does_not_allocate() {
    let mut topo = Topology::new();
    let eth = topo.add_network("eth", Medium::ethernet100(), true);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    topo.attach(a, eth);
    topo.attach(b, eth);
    let mut w = World::new(topo, 7);
    w.spawn(a, 40, Box::new(Flooder { peer: Endpoint::new(b, 40), burst: 4 }));
    w.spawn(b, 40, Box::new(Flooder { peer: Endpoint::new(a, 40), burst: 4 }));

    // Warm-up: populate the route cache and grow every queue tier,
    // slab and counter vector to its steady-state capacity.
    w.run_for(SimDuration::from_millis(200));
    let sent_before = w.stats().sent;
    assert!(w.stats().engine.route_cache_hits > 0, "cache should be warm");

    let before = allocs();
    w.run_for(SimDuration::from_millis(200));
    let allocated = allocs() - before;

    let sent = w.stats().sent - sent_before;
    assert!(sent > 1_000, "workload too quiet: {sent} packets");
    assert_eq!(allocated, 0, "cached send path allocated {allocated} times over {sent} packets");
}

/// Two routable segments of two hosts each, so two regions, and every
/// flooder sends to the other region: each round routes mail through
/// the coordinator. At 1 thread a warmed run allocates nothing. At 2
/// the calling thread pays a small cost to start each run's worker (its
/// thread and channels) and nothing per round, so runs of 100 and of
/// 400 rounds stay under the same small bound. Worker-thread
/// allocations land in that thread's count, not this one.
#[test]
fn steady_state_round_driver_does_not_allocate_per_round() {
    for threads in [1, 2] {
        let mut topo = Topology::new();
        let mut hosts: Vec<HostId> = Vec::new();
        for seg in 0..2 {
            let eth = topo.add_network("eth", Medium::ethernet100(), true);
            for i in 0..2 {
                let h = topo.add_host(HostCfg::named(format!("s{seg}h{i}")));
                topo.attach(h, eth);
                hosts.push(h);
            }
        }
        let mut w = World::sharded(topo, 7, threads);
        assert_eq!(w.regions(), 2);
        for (i, &h) in hosts.iter().enumerate() {
            let peer = Endpoint::new(hosts[(i + 2) % 4], 40);
            w.spawn(h, 40, Box::new(Flooder { peer, burst: 4 }));
        }
        w.run_for(SimDuration::from_millis(200));
        let mut run = |ms: u64| {
            let (rounds, before) = (w.rounds().0, allocs());
            w.run_for(SimDuration::from_millis(ms));
            (allocs() - before, w.rounds().0 - rounds)
        };
        let (short, short_rounds) = run(50);
        let (long, long_rounds) = run(200);
        assert!(
            long_rounds > 3 * short_rounds && short_rounds > 50,
            "{short_rounds}, {long_rounds} rounds"
        );
        assert!(w.shard_loads().iter().all(|l| l.mailbox_hwm > 0), "mail both ways");
        // Whether the calling thread ever blocks on a channel (and so
        // registers a waker) is timing, so the start-up cost is bounded,
        // not exact; a per-round cost would be hundreds.
        assert!(short.max(long) <= 16, "{threads} threads: {short} and {long} allocations");
        if threads == 1 {
            assert_eq!((short, long), (0, 0), "a one-thread run allocated");
        }
    }
}
