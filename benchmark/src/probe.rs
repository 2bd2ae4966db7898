//! Resource probes: a counting global allocator, process CPU time and
//! peak resident memory. Standard library only — the two system
//! facts it needs (`clock_gettime`, `/proc/self/status`) are declared
//! or parsed by hand.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Counter slots. The sharded engine spawns fresh worker threads for
/// every `run_for`, so per-thread counters would be lost at thread
/// exit; instead each thread picks one of these cache-line-separated
/// slots, which keeps two busy workers off one contended line.
const SLOTS: usize = 8;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) };
static COUNTERS: [Slot; SLOTS] = [EMPTY; SLOTS];
static COUNTING: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts allocations while [`count_allocs`] is on; otherwise a
/// pass-through to the system allocator. A `realloc` counts as one
/// allocation of the new size.
pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        let slot = MY_SLOT.with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        });
        COUNTERS[slot].allocs.fetch_add(1, Relaxed);
        COUNTERS[slot].bytes.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer, so `System`'s contract is the caller's contract;
// the counting touches only atomics and a const thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn allocation counting on or off (on only inside timed regions).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_totals() -> (u64, u64) {
    COUNTERS
        .iter()
        .fold((0, 0), |(a, b), s| (a + s.allocs.load(Relaxed), b + s.bytes.load(Relaxed)))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process (all threads), nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only platform this benchmark
    // supports) and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Spin for at least `ns` nanoseconds of wall time and return how long
/// it really was. Used only by `selftest`'s injected delay (and the
/// tracer's unit test).
#[inline]
pub fn busy_wait_ns(ns: u64) -> u64 {
    let t0 = std::time::Instant::now();
    loop {
        let waited = t0.elapsed().as_nanos() as u64;
        if waited >= ns {
            return waited;
        }
        std::hint::spin_loop();
    }
}
