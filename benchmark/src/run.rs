//! The run shape shared by all workloads, and the end-to-end metrics.
//!
//! A run builds the workload's world [`REPLAYS`] times from the same
//! seed. Each build (preload and one untimed warm-up pass included) is
//! timed — `setup_s` is the median — and is followed by the same timed
//! passes of fixed work; every replay must repeat the first bit for
//! bit in everything simulated or counted, which is the replay oracle.
//! `--seconds` chooses the number of passes ([`pass_count`]): passes
//! are sized to ≈[`NOMINAL_PASS_S`] on the 2-core reference box, so the
//! timed region lasts about `--seconds` there — but the *work* is a
//! function of (workload, seed, seconds) only, never of how fast the
//! host is. Simulated metrics therefore repeat exactly, and a speed-up
//! shortens the run instead of changing what it measures.
//!
//! Every host-timed region (set-up, pass) is bracketed by two readings
//! of [`hostspeed::slowdown`], and the host-time metrics divide its
//! time by their mean: they are times at nominal host speed. Raw times
//! are kept beside them ([`TimedPass::wall_s`], `--record`).

use std::time::Instant;

use crate::hostspeed;
use crate::probe;
use crate::stats::{coeff_of_variation, median};
use crate::workloads::campus::Campus;
use crate::workloads::names::Names;
use crate::workloads::storm::{self, EngineKind, Storm};
use crate::workloads::wire::{Wire, WireKind};
use crate::workloads::{pooled_latency_us, Pass, PassStats, Workload};

/// Passes every run executes at least.
pub const MIN_PASSES: usize = 8;
/// Host seconds a timed pass is sized to on the reference box.
pub const NOMINAL_PASS_S: f64 = 1.25;

/// Timed passes a run of `seconds` executes.
pub fn pass_count(seconds: f64) -> usize {
    ((seconds / NOMINAL_PASS_S).round() as usize).max(MIN_PASSES)
}
/// Worlds built per run; each runs the same passes.
pub const REPLAYS: usize = 3;

/// Build `name` from `seed` and run its warm-up pass.
pub fn build(name: &str, seed: u64) -> (Box<dyn Workload>, PassStats) {
    fn boxed<W: Workload + 'static>((w, warm): (W, PassStats)) -> (Box<dyn Workload>, PassStats) {
        (Box::new(w), warm)
    }
    match name {
        "storm" => boxed(Storm::build(seed, EngineKind::Sharded(storm::THREADS))),
        "wire-small" => boxed(Wire::build(seed, WireKind::Small)),
        "wire-bulk" => boxed(Wire::build(seed, WireKind::Bulk)),
        "names" => boxed(Names::build(seed)),
        "campus" => boxed(Campus::build(seed)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// One timed pass: what it did and what it cost the host.
#[derive(Clone, Debug)]
pub struct TimedPass {
    pub stats: PassStats,
    pub wall_s: f64,
    pub cpu_ns: u64,
    /// How much slower than nominal the host ran around this pass.
    pub slowdown: f64,
}

impl TimedPass {
    /// Verified operations per second of wall time at nominal host speed.
    pub fn rate(&self) -> f64 {
        self.stats.ok as f64 / (self.wall_s / self.slowdown)
    }
}

/// Everything an untraced run measured.
pub struct RunResult {
    /// Host seconds of each set-up at nominal host speed; `setup_s` is
    /// their median.
    pub setups_s: Vec<f64>,
    /// The same set-ups as the clock read them.
    pub setups_raw_s: Vec<f64>,
    /// Replay-major: pass `k` of replay `r` is `passes[r * per_replay + k]`.
    pub passes: Vec<TimedPass>,
    pub per_replay: usize,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub peak_rss_mb: f64,
    /// Oracle violations other than per-operation failures.
    pub violations: Vec<String>,
}

/// Run timed passes `0..count` on a freshly set-up world.
pub fn timed_passes(w: &mut dyn Workload, count: usize) -> Vec<TimedPass> {
    timed_passes_from(w, 0, count)
}

/// Run timed passes `first..end` (the world has run `0..first`).
pub fn timed_passes_from(w: &mut dyn Workload, first: usize, end: usize) -> Vec<TimedPass> {
    let mut passes = Vec::new();
    let mut before = hostspeed::slowdown();
    for k in first as u64..end as u64 {
        probe::count_allocs(true);
        let cpu0 = probe::process_cpu_ns();
        let t0 = Instant::now();
        w.run(Pass::Timed(k));
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ns = probe::process_cpu_ns() - cpu0;
        probe::count_allocs(false);
        let after = hostspeed::slowdown();
        let stats = w.collect();
        passes.push(TimedPass { stats, wall_s, cpu_ns, slowdown: (before + after) / 2.0 });
        before = after;
    }
    passes
}

/// The full untraced run of one workload: [`REPLAYS`] worlds built
/// from the same seed, each timed over the same passes.
pub fn run_untraced(name: &str, seed: u64, seconds: f64) -> RunResult {
    let per_replay = pass_count(seconds).div_ceil(REPLAYS);
    let mut r = RunResult {
        setups_s: Vec::new(),
        setups_raw_s: Vec::new(),
        passes: Vec::new(),
        per_replay,
        allocs: 0,
        alloc_bytes: 0,
        peak_rss_mb: 0.0,
        violations: Vec::new(),
    };
    hostspeed::init();
    let mut first_warm: Option<PassStats> = None;
    for replay in 0..REPLAYS {
        let before = hostspeed::slowdown();
        let t0 = Instant::now();
        let (mut w, warm) = build(name, seed);
        let raw_s = t0.elapsed().as_secs_f64();
        r.setups_raw_s.push(raw_s);
        r.setups_s.push(raw_s / ((before + hostspeed::slowdown()) / 2.0));
        if replay == 0 {
            r.violations.extend(w.thread_oracle(seed));
        }
        let (a0, b0) = probe::alloc_totals();
        let passes = timed_passes(w.as_mut(), per_replay);
        let (a1, b1) = probe::alloc_totals();
        r.allocs += a1 - a0;
        r.alloc_bytes += b1 - b0;
        r.violations.extend(w.final_check());
        // The replay oracle: everything simulated or counted repeats.
        let same = first_warm.get_or_insert(warm.clone()) == &warm
            && passes.iter().zip(&r.passes).all(|(p, q)| p.stats == q.stats);
        if !same {
            r.violations.push(format!("{name}: replay {replay} differs from the first"));
        }
        r.passes.extend(passes);
    }
    // The reference tables are the benchmark's, resident from the start.
    r.peak_rss_mb = probe::peak_rss_mb() - hostspeed::TABLES_MB;
    r
}

/// The eleven end-to-end metrics, `(name, unit, value)`, in
/// BENCHMARK.json order.
pub fn end_to_end(r: &RunResult) -> Vec<(&'static str, &'static str, f64)> {
    let ok: u64 = r.passes.iter().map(|p| p.stats.ok).sum();
    let attempted: u64 = r.passes.iter().map(|p| p.stats.attempted).sum();
    let rates: Vec<f64> = r.passes.iter().map(TimedPass::rate).collect();
    let cpu: Vec<f64> =
        r.passes.iter().map(|p| p.cpu_ns as f64 / p.slowdown / p.stats.ok.max(1) as f64).collect();
    let payload: u64 = r.passes.iter().map(|p| p.stats.payload_bytes).sum();
    let wire: u64 = r.passes.iter().map(|p| p.stats.wire_bytes).sum();
    let events: u64 = r.passes.iter().map(|p| p.stats.events).sum();
    let (p50, p99, _) = pooled_latency_us(r.passes.iter().map(|p| &p.stats));
    let per_op = |x: u64| x as f64 / ok.max(1) as f64;
    vec![
        ("setup_s", "s", median(&r.setups_s)),
        ("ops_per_s", "1/s", median(&rates)),
        ("cpu_ns_per_op", "ns", median(&cpu)),
        ("op_ok_ratio", "ratio", ok as f64 / attempted.max(1) as f64),
        ("allocs_per_op", "count", per_op(r.allocs)),
        ("alloc_bytes_per_op", "B", per_op(r.alloc_bytes)),
        ("peak_rss_mb", "MB", r.peak_rss_mb),
        ("virtual_op_us_p50", "sim_us", p50),
        ("virtual_op_us_p99", "sim_us", p99),
        ("wire_bytes_per_payload_byte", "ratio", wire as f64 / payload.max(1) as f64),
        ("events_per_op", "count", per_op(events)),
    ]
}

/// Std-dev ÷ mean of the pass wall times: the run's own noise figure.
pub fn pass_wall_cv(passes: &[TimedPass]) -> f64 {
    coeff_of_variation(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
}
