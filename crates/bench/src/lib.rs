//! # snipe-bench — experiment runners for every figure and table
//!
//! Each module reproduces one artifact of the paper's evaluation (see
//! `DESIGN.md` §4 for the index). The `harness` binary runs them and
//! prints the same rows/series the paper reports; `EXPERIMENTS.md`
//! records paper-vs-measured.
//!
//! Parameter sweeps are embarrassingly parallel across *simulations*
//! (each is deterministic, and all but the multi-region chaos rows are
//! single-threaded), so runners fan out through [`par_map`], a fixed
//! pool of one worker per available core.
//!
//! Robustness has one home: [`chaos`] holds every chaos workload as a
//! table row — a *body* (the actors, the drive loop, the oracles)
//! staged on a LAN or on the multi-region campus — with one soak, one
//! regression corpus and one flight-recorder replay path.

pub mod ablations;
pub mod chaos;
pub mod e2_mpiconnect;
pub mod e3_availability;
pub mod e4_scalability;
pub mod e5_migration;
pub mod e6_multicast;
pub mod e7_failover;
pub mod e8_spof;
pub mod engine;
pub mod fig1;
pub mod oracles;
pub mod rcds_bench;
pub mod report;
pub mod shard_storm;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads [`par_map`] uses: one per core this process may run
/// on (the simulations are CPU-bound; more threads only add contention,
/// and the multi-region chaos rows bring worker threads of their own).
pub fn par_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` over `inputs` on [`par_workers`] threads pulling jobs from a
/// shared cursor, preserving input order in the output.
pub fn par_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    // Relaxed: the cursor hands out indices and publishes no data —
    // inputs are shared immutably, results come back through `join`.
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return mine;
                }
                mine.push((i, f(&inputs[i])));
            }
        };
        let handles: Vec<_> = (0..par_workers().min(n)).map(|_| s.spawn(worker)).collect();
        for h in handles {
            for (i, o) in h.join().expect("experiment thread panicked") {
                out[i] = Some(o);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every index was claimed by one worker")).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let out = super::par_map((0..16).collect(), |&x| x * 2);
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// However many jobs are queued, no more than `par_workers()` run
    /// at once (the old one-thread-per-job fan-out reached the job
    /// count).
    #[test]
    fn par_map_never_exceeds_its_worker_count() {
        let (live, hwm) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let out = super::par_map((0..64usize).collect(), |&x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            hwm.fetch_max(now, Ordering::SeqCst);
            // Hold the slot long enough for every worker to overlap.
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 64);
        let hwm = hwm.load(Ordering::SeqCst);
        assert!((1..=super::par_workers()).contains(&hwm), "{hwm} jobs ran concurrently");
    }
}
