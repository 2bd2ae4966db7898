//! How fast the host is right now, from the benchmark's own reference
//! kernels.
//!
//! The box this benchmark runs on is a few vCPUs of a shared host whose
//! speed moves in plateaus of seconds to minutes: a fixed loop takes
//! 1.0× to 1.8× its best time depending on what the neighbours do, with
//! no steal time reported. Two runs of one commit then differ by more
//! than any bound worth setting. So every host-timed region is
//! bracketed by two fixed kernels owned by the benchmark — one bound by
//! instruction issue and L1/L2, one by loads that miss to L3/DRAM — and
//! its time is divided by how much slower than nominal they ran
//! ([`slowdown`]). The result is host time *at nominal host speed*. A
//! change to the program cannot move the kernels, so a speed-up shows
//! one to one; a busy neighbour moves both and cancels.

use std::sync::OnceLock;
use std::time::Instant;

/// Entries of the compute kernel's table (256 KiB: L2-resident).
const SMALL: usize = 64 << 10;
/// Entries of the memory kernel's table (64 MiB: far beyond L2).
const BIG: usize = 8 << 20;
const COMPUTE_STEPS: u32 = 1_500_000;
const MEMORY_LOADS: u32 = 400_000;
/// What the two kernels take on the reference box at its usual speed.
/// Constants, so that normalised times stay comparable across runs and
/// read as seconds of that box.
const NOMINAL_COMPUTE_NS: f64 = 4.0e6;
const NOMINAL_MEMORY_NS: f64 = 5.5e6;

/// Resident memory the reference tables hold, MB (every page is
/// written when they are built).
pub const TABLES_MB: f64 = (SMALL * 4 + BIG * 8) as f64 / (1024.0 * 1024.0);

struct Tables {
    small: Vec<u32>,
    big: Vec<u64>,
}

static TABLES: OnceLock<Tables> = OnceLock::new();

#[inline]
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn tables() -> &'static Tables {
    TABLES.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        Tables {
            small: (0..SMALL).map(|_| xorshift(&mut x) as u32).collect(),
            big: (0..BIG).map(|_| xorshift(&mut x)).collect(),
        }
    })
}

/// Build the tables now, so that the first [`slowdown`] does not.
pub fn init() {
    tables();
}

/// Four independent arithmetic chains, two table loads and one
/// data-dependent branch per step: high instruction-level parallelism,
/// L1/L2 traffic, mispredictions — what a busy sibling thread or a
/// lower clock slows.
fn compute_ns(t: &Tables) -> f64 {
    let t0 = Instant::now();
    let (mut a, mut b, mut c, mut d, mut acc) = (1u64, 2u64, 3u64, 4u64, 0u64);
    let mask = (SMALL - 1) as u64;
    for _ in 0..COMPUTE_STEPS {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        xorshift(&mut b);
        c = c.wrapping_add(t.small[((a >> 40) & mask) as usize] as u64);
        d = d.rotate_left(5) ^ t.small[(b & mask) as usize] as u64;
        if (a ^ b) & 0x10 != 0 {
            acc = acc.wrapping_add(c ^ d);
        } else {
            acc ^= c.wrapping_sub(d);
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// Independent random loads over 64 MiB: what a neighbour's cache and
/// memory traffic slows.
fn memory_ns(t: &Tables) -> f64 {
    let t0 = Instant::now();
    let mask = (BIG - 1) as u64;
    let (mut x, mut sum) = (88172645463325252u64, 0u64);
    for _ in 0..MEMORY_LOADS {
        sum = sum.wrapping_add(t.big[(xorshift(&mut x) & mask) as usize]);
    }
    std::hint::black_box(sum);
    t0.elapsed().as_nanos() as f64
}

/// How many times slower than nominal the host runs right now: the
/// geometric mean of the two kernels' slowdowns (≈10 ms to measure).
pub fn slowdown() -> f64 {
    let t = tables();
    ((compute_ns(t) / NOMINAL_COMPUTE_NS) * (memory_ns(t) / NOMINAL_MEMORY_NS)).sqrt()
}
