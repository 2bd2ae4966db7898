//! Allocation regression test for the observability layer.
//!
//! The flight recorder is compiled into every hot path (engine, wire
//! drivers, process actors), so its steady-state cost budget is one
//! branch when disabled and one ring-slot write when enabled — never a
//! heap touch. A counting global allocator turns any regression into an
//! immediate test failure.

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

use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, DropReason, TraceKind};
use snipe_util::id::HostId;
use snipe_util::time::SimTime;

#[test]
fn enabled_recorder_steady_state_does_not_allocate() {
    // Cold setup: the ring buffer is reserved up front. All allocation
    // happens here.
    trace::enable(1024);

    let from = Endpoint::new(HostId(1), 40);
    let to = Endpoint::new(HostId(2), 40);

    // Warm-up: wrap the ring completely so steady state is the
    // overwrite path, not the initial fill.
    for i in 0..2048u64 {
        trace::record(SimTime::from_nanos(i), TraceKind::Send { from, to, len: 64 });
    }
    assert!(trace::trace_dropped() > 0, "ring must have wrapped during warm-up");

    let before = allocs();
    for i in 0..10_000u64 {
        let at = SimTime::from_nanos(i * 1000);
        trace::record(at, TraceKind::Send { from, to, len: 64 });
        trace::record(at, TraceKind::Recv { from, to, len: 64 });
        trace::record(at, TraceKind::Drop { reason: DropReason::Loss });
        trace::record(at, TraceKind::Retransmit { peer: 7, len: 64 });
        trace::record(at, TraceKind::TimerFire { token: i });
    }
    let allocated = allocs() - before;
    assert_eq!(allocated, 0, "recorder steady state allocated {allocated} times");

    // The counts are all there despite the zero-alloc path.
    let counts = trace::kind_counts();
    assert_eq!(counts[TraceKind::Send { from, to, len: 0 }.tag()], 12_048);
    trace::disable();
}

#[test]
fn disabled_recorder_steady_state_does_not_allocate() {
    // With recording off (the bench configuration), record() must be a
    // branch and nothing else.
    trace::disable();
    let from = Endpoint::new(HostId(1), 40);
    let to = Endpoint::new(HostId(2), 40);
    let before = allocs();
    for i in 0..10_000u64 {
        trace::record(SimTime::from_nanos(i), TraceKind::Send { from, to, len: 64 });
    }
    let allocated = allocs() - before;
    assert_eq!(allocated, 0, "disabled recorder allocated {allocated} times");
    assert!(trace::last_events(4).is_empty());
}
