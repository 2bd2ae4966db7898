//! Allocation regression test for the stack's steady-state queries.
//!
//! The daemon's supervision sweep polls every process stack once per
//! tick: which peers exist, which of them are in RTO trouble (and so
//! need an RC location re-resolution), plus the timer sweep itself.
//! After warm-up (scratch vectors at capacity, transport state
//! populated) those per-tick calls must not touch the heap. A counting
//! global allocator makes any regression an immediate test failure.

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
use snipe_netsim::topology::Endpoint;
use snipe_util::id::HostId;
use snipe_util::time::SimTime;
use snipe_wire::stack::{StackConfig, WireStack};

const PEERS: u64 = 32;

#[test]
fn steady_state_peer_queries_do_not_allocate() {
    let now = SimTime::ZERO;
    let mut stack = WireStack::new(1, StackConfig::default());
    // Populate transport state: a located peer plus one queued message
    // each, so every peer has SRUDP protocol state and a path entry.
    for i in 0..PEERS {
        let key = 100 + i;
        stack.set_peer(key, Endpoint::new(HostId(i as u32 + 2), 40), Vec::new());
        stack.send(now, key, Bytes::from_static(b"supervision ping")).unwrap();
    }
    let _ = stack.drain();

    // Warm-up: grow both scratch vectors to steady-state capacity
    // (threshold 0 matches every peer, so the trouble scan appends the
    // full key set before filtering) and run one timer sweep so the
    // stack's internal key scratch reaches capacity too.
    let mut keys = Vec::new();
    let mut trouble = Vec::new();
    stack.known_peers_into(&mut keys);
    assert_eq!(keys.len(), PEERS as usize, "warm-up should see every peer");
    stack.peers_in_trouble_into(0, &mut trouble);
    assert_eq!(trouble.len(), PEERS as usize);
    stack.on_timer(now);
    let _ = stack.drain();

    let before = allocs();
    for _ in 0..10_000 {
        keys.clear();
        stack.known_peers_into(&mut keys);
        trouble.clear();
        stack.peers_in_trouble_into(1, &mut trouble);
        stack.on_timer(now);
    }
    let allocated = allocs() - before;

    assert_eq!(keys.len(), PEERS as usize);
    assert!(trouble.is_empty(), "no peer has timed out");
    assert_eq!(allocated, 0, "steady-state peer queries allocated {allocated} times");
}

/// The hosting adapter runs after every event an actor handles, most
/// of which leave the stack with nothing to send, deliver or re-arm.
/// That flush must not touch the heap (the engine around it does not
/// either: `netsim/tests/alloc.rs`).
#[test]
fn an_idle_flush_does_not_allocate() {
    use snipe_netsim::actor::{Actor, Event, SimCtx};
    use snipe_netsim::medium::Medium;
    use snipe_netsim::topology::{HostCfg, Topology};
    use snipe_netsim::world::World;
    use snipe_util::time::SimDuration;
    use snipe_wire::host::StackHost;

    const TICK: u64 = 1;
    const TIMER_STACK: u64 = 2;

    struct Idle {
        stack: StackHost,
        flushes: u32,
    }

    impl Actor for Idle {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Start => {
                    let mut stack = WireStack::new(1, StackConfig::default());
                    stack.set_peer(100, Endpoint::new(HostId(7), 40), Vec::new());
                    self.stack.start(stack);
                }
                Event::Timer { token: TICK } => {}
                _ => return,
            }
            assert!(self.stack.flush(ctx).is_empty());
            self.flushes += 1;
            ctx.set_timer(SimDuration::from_millis(1), TICK);
        }
    }

    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let h = topo.add_host(HostCfg::named("h"));
    topo.attach(h, net);
    let mut world = World::new(topo, 1);
    let ep = world.spawn(h, 40, Box::new(Idle { stack: StackHost::new(TIMER_STACK), flushes: 0 }));
    world.run_for(SimDuration::from_millis(100));

    let before = allocs();
    world.run_for(SimDuration::from_secs(10));
    let allocated = allocs() - before;

    let flushes = world.actor_ref::<Idle>(ep.unwrap()).unwrap().flushes;
    assert!(flushes > 10_000, "only {flushes} flushes ran");
    assert_eq!(allocated, 0, "{flushes} idle flushes allocated {allocated} times");
}
