//! The five workloads and what they share: the pass result, the
//! virtual-time pass clock and the latency summary.

pub mod campus;
pub mod names;
pub mod pipe;
pub mod storm;
pub mod wire;

use snipe_util::time::{SimDuration, SimTime};

use crate::stats::{fold_digest, quantile_sorted};

/// The workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 5] = ["storm", "wire-small", "wire-bulk", "names", "campus"];

/// Why each workload exists (one line; also written to BENCHMARK.json).
pub fn why(name: &str) -> &'static str {
    match name {
        "storm" => "10k-host datagram storm on the 2-thread sharded engine: the engine does ~all the work, so queue, route-cache, mailbox and barrier changes show here and wire or service changes must not",
        "wire-small" => "64 B-1 KiB SRUDP/RSTREAM messages over a lossless benchmark-owned pipe, no engine: per-message cost (header encode, timers, acks, allocation) dominates",
        "wire-bulk" => "128 KiB messages (94 fragments; plain, FEC-sprayed, RSTREAM) over a 5% loss + 1% reorder pipe: per-byte cost (split, GF(2^8) coding, reassembly, retransmit) dominates",
        "names" => "sharded RCDS (4 groups x 3 replicas, anti-entropy on, 200k names) under 8 caching clients on the serial engine: RCDS + codec do the work; gets beside puts, so a tax on either shows",
        "campus" => "full SNIPE stack (daemons, RC, RM, file servers) on the sharded engine, driven only through SnipeApi by 32 clients with a 7-kind op mix: every layer holds a share, none dominates",
        _ => "",
    }
}

/// Which pass a workload is asked to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The untimed warm-up that ends set-up (shorter than a timed pass).
    Warm,
    /// Timed pass `k` (0-based).
    Timed(u64),
}

impl Pass {
    /// 0 for the warm-up, `k + 1` for timed pass `k`: the index actors
    /// derive from virtual time via [`PassClock`].
    pub fn index(self) -> u64 {
        match self {
            Pass::Warm => 0,
            Pass::Timed(k) => k + 1,
        }
    }
}

/// Maps virtual time to pass index for workloads whose passes are
/// fixed virtual durations inside one long-lived world.
#[derive(Clone, Copy, Debug)]
pub struct PassClock {
    pub warm: SimDuration,
    pub pass: SimDuration,
}

impl PassClock {
    /// Pass index at `now` (see [`Pass::index`]). An event exactly on
    /// a boundary belongs to the pass that ends there, because
    /// `run_for` executes events with timestamps `<=` its horizon.
    pub fn index(&self, now: SimTime) -> u64 {
        let t = now.as_nanos();
        let w = self.warm.as_nanos();
        if t <= w {
            0
        } else {
            1 + (t - w - 1) / self.pass.as_nanos()
        }
    }

    /// Virtual length of `p`.
    pub fn len(&self, p: Pass) -> SimDuration {
        match p {
            Pass::Warm => self.warm,
            Pass::Timed(_) => self.pass,
        }
    }
}

/// What one pass did. Everything here is simulated or counted, never
/// host-timed: replaying the pass must reproduce it bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassStats {
    /// Operations that completed (verified or not) or were lost.
    pub attempted: u64,
    /// Operations whose output passed the workload's oracle.
    pub ok: u64,
    /// Application payload bytes delivered by OK operations.
    pub payload_bytes: u64,
    /// Bytes put on modelled links.
    pub wire_bytes: u64,
    /// Engine events dispatched (wire workloads: stack calls).
    pub events: u64,
    /// Virtual issue→completion latencies of (a fixed sample of) the
    /// OK operations, ns, in completion order.
    pub lat_ns: Vec<u64>,
}

impl PassStats {
    /// Digest of every field: equal digests ⇔ the pass replayed exactly.
    pub fn digest(&self) -> u64 {
        let head = [self.attempted, self.ok, self.payload_bytes, self.wire_bytes, self.events];
        head.iter().chain(&self.lat_ns).fold(0, |h, v| fold_digest(h, *v))
    }
}

/// `(p50, p99)` in µs of the latencies pooled over `passes`, and the
/// sample count behind them.
pub fn pooled_latency_us<'a>(passes: impl Iterator<Item = &'a PassStats>) -> (f64, f64, usize) {
    let mut all: Vec<u64> = passes.flat_map(|p| p.lat_ns.iter().copied()).collect();
    all.sort_unstable();
    (quantile_sorted(&all, 0.50) / 1e3, quantile_sorted(&all, 0.99) / 1e3, all.len())
}

/// A built workload. Construction (`build` in each module) is the
/// timed set-up; it ends with `pass(Pass::Warm)`.
pub trait Workload {
    /// Run one pass: the host-timed region. Nothing but the work
    /// under measurement (and the generator that drives it) runs here.
    fn run(&mut self, p: Pass);

    /// Gather what the pass just run did (counter diffs, latency
    /// quantiles). Untimed: called after the clocks are read.
    fn collect(&mut self) -> PassStats;

    /// `run` then `collect`, for callers that do not time.
    fn pass(&mut self, p: Pass) -> PassStats {
        self.run(p);
        self.collect()
    }

    /// Whole-run oracles that are not per-operation (conservation,
    /// zero drops, FEC engaged, …). Returns human-readable violations.
    fn final_check(&mut self) -> Vec<String>;

    /// Thread-count oracle, run once right after set-up (`storm`: the
    /// 2-thread engine digest must equal a 1-thread digest of `seed`).
    fn thread_oracle(&self, seed: u64) -> Vec<String> {
        let _ = seed;
        Vec::new()
    }

    /// Per-layer numbers this workload can produce from counters
    /// (names are the BENCHMARK.json `per_layer` names).
    fn layer_metrics(&mut self, out: &mut Vec<(String, f64)>);

    /// Host nanoseconds spent inside the benchmark's own actors on
    /// engine worker threads since the last call, estimated from
    /// sampled callbacks (0 for single-threaded workloads, whose
    /// generator time the span tracer sees directly).
    fn worker_generator_ns(&mut self) -> f64 {
        0.0
    }
}
