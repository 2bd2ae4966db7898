//! Allocation regression test for the cached send path.
//!
//! After warm-up (route cache populated, queue tiers and slabs at
//! steady-state capacity) the engine must drive packets without heap
//! allocation: no `Medium` clones, no per-packet `Vec` collection in
//! path selection, no per-event boxing. A counting global allocator
//! makes any regression an immediate test failure.

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
