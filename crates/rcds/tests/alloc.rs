//! Allocation pin of the catalog's per-name cost.
//!
//! A counting global allocator measures what applying one replicated
//! update for a fresh one-attribute name costs a warmed replica: the
//! URI key, the name's exact-size one-slot assertion list, and the
//! assertion's name and value. Nothing else may allocate: the origin's
//! log run and the URI table have room, and the update itself moves
//! into the log.
//!
//! The layout this replaced (a hash table of attributes per URI, the
//! log one B-tree over `(origin, seq)`) made 5 allocations of 562
//! requested bytes for the same apply: a 4-bucket table of 532 bytes
//! in place of the 104-byte list, plus a second copy of the attribute
//! name as the table's key.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snipe_rcds::assertion::{Assertion, Stamp};
use snipe_rcds::store::{RcStore, Update};

struct CountingAlloc;

// Per thread: libtest runs sibling tests on other threads.
thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count(new);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes `f` makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (n0, b0) = ALLOCS.with(|c| c.get());
    let v = f();
    let (n1, b1) = ALLOCS.with(|c| c.get());
    (v, (n1 - n0, b1 - b0))
}

/// The `names` benchmark's shape: one attribute `v` per URI, pushed
/// by the group's primary (origin 1) in seq order.
fn update(seq: u64) -> Update {
    let mut assertion = Assertion::new("v", "0");
    assertion.stamp = Stamp { lamport: seq + 1, server: 1 };
    Update { origin: 1, seq, uri: format!("urn:snipe:bench:obj-{seq:07}"), assertion }
}

#[test]
fn applying_a_fresh_one_attribute_name_allocates_exact_copies() {
    let mut store = RcStore::new(2);
    for seq in 0..20 {
        store.apply(update(seq));
    }
    let fresh = update(20);
    let uri_len = fresh.uri.len() as u64;
    let ((), (allocs, bytes)) = counted(|| store.apply(fresh));
    assert_eq!(store.uri_count(), 21);
    assert_eq!(store.log_len(), 21);
    // URI key + one-slot assertion list (104 B) + name + value.
    assert_eq!(
        (allocs, bytes),
        (4, uri_len + 104 + 1 + 1),
        "apply made {allocs} allocations, {bytes} B"
    );
}
