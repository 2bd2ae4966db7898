//! Allocation counts of the constructors the wire layer leans on.
//!
//! A counting global allocator makes a second allocation (or a second
//! copy through an intermediate `Vec`) an immediate test failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};

struct CountingAlloc;

// Per thread: libtest runs sibling tests on other threads.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let v = f();
    (v, allocs() - before)
}

#[test]
fn copy_from_slice_allocates_once() {
    let src = [7u8; 1400];
    let (b, n) = counted(|| Bytes::copy_from_slice(&src));
    assert_eq!(n, 1, "copy_from_slice allocated {n} times");
    assert_eq!(&b[..], &src[..]);
    // Empty input is still one shared buffer, and still one allocation
    // at most.
    let (e, n) = counted(|| Bytes::copy_from_slice(&[]));
    assert!(n <= 1, "empty copy_from_slice allocated {n} times");
    assert!(e.is_empty());
}

#[test]
fn clones_and_slices_of_a_copy_allocate_nothing() {
    let b = Bytes::copy_from_slice(b"shared storage");
    let ((c, s), n) = counted(|| (b.clone(), b.slice(2..8)));
    assert_eq!(n, 0);
    assert_eq!(c, b);
    assert_eq!(&s[..], b"ared s");
}

#[test]
fn a_cleared_bytes_mut_reuses_its_capacity() {
    let mut m = BytesMut::with_capacity(64);
    m.extend_from_slice(&[1; 64]);
    let (_, n) = counted(|| {
        for round in 0..100u8 {
            m.clear();
            m.extend_from_slice(&[round; 64]);
        }
    });
    assert_eq!(n, 0, "a cleared buffer grew again");
    assert_eq!(&m[..], &[99u8; 64][..]);
}
