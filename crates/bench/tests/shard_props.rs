//! Differential determinism properties of partitioned worlds.
//!
//! The contract under test: for any seed and any fault script, a
//! `World::sharded` run is a pure function of the world — the worker
//! thread count must never leak into behaviour. Each case runs a small
//! multi-region storm (with a seed-derived host flap so the coordinator
//! path is exercised) at 1, 2, 3, 4 and 8 threads and demands
//! bit-identical digests *and* counters: the merged `NetStats`, every
//! region's `ShardLoad` and the trace totals. A pinned digest at the end catches silent
//! behavioural drift between PRs (the digest folds event counts, drop
//! taxonomies, chaos counters and per-shard clocks).

use proptest::{prop_assert_eq, proptest};
use snipe_bench::{chaos, shard_storm};
use snipe_netsim::shard::{FaultCmd, ShardLoad};
use snipe_netsim::trace::{NetStats, TraceKind};
use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};

/// A small cross-region storm (2 clusters) with a seed-derived flap,
/// run to a short horizon; returns its digest and typed counters.
fn probe(seed: u64, threads: usize) -> Probe {
    let hosts = 128;
    let mut w = shard_storm::build_storm(hosts, seed, threads);
    // Per-region rings at every thread count, so the trace totals count.
    w.enable_trace(256);
    // Flap a seed-chosen host across a seed-chosen window so fault
    // dispatch and post-recovery traffic are inside the property.
    let victim = HostId((seed % hosts as u64) as u32);
    let down_ns = 1_000_000 + (seed % 3_000_000);
    let up_ns = down_ns + 1_500_000 + (seed / 7 % 2_000_000);
    w.schedule_fault(SimTime::from_nanos(down_ns), FaultCmd::HostDown(victim));
    w.schedule_fault(SimTime::from_nanos(up_ns), FaultCmd::HostUp(victim));
    w.run_for(SimDuration::from_millis(8));
    (w.digest(), w.stats(), w.shard_loads(), w.trace_totals())
}

type Probe = (u64, NetStats, Vec<ShardLoad>, ([u64; TraceKind::COUNT], u64));

proptest! {
    #[test]
    fn digest_and_metrics_are_thread_count_invariant(seed in proptest::any::<u32>()) {
        let (d1, s1, l1, t1) = probe(seed as u64, 1);
        for threads in [2usize, 3, 4, 8] {
            let (dt, st, lt, tt) = probe(seed as u64, threads);
            prop_assert_eq!(d1, dt, "digest diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(&s1, &st, "stats diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(&l1, &lt, "shard loads diverged at {} threads (seed {})", threads, seed);
            prop_assert_eq!(t1, tt, "trace totals diverged at {} threads (seed {})", threads, seed);
        }
    }
}

/// The `shard-determinism` gate's fixed configuration, pinned. If an
/// intentional engine change shifts behaviour, re-pin via
/// `cargo run -p snipe-bench --release --bin harness -- shard-digest 1`
/// and say why in the PR.
#[test]
fn pinned_digest_run_stays_stable() {
    let d = shard_storm::digest_run(1, 42);
    assert_eq!(d, shard_storm::digest_run(8, 42), "thread-count invariance of the gate config");
    assert_eq!(d, PINNED_DIGEST, "digest_run(_, 42) drifted — intentional? re-pin with rationale");
}

const PINNED_DIGEST: u64 = 0x9493_0970_f057_78f1;

/// The full protocol stack (daemons, RCDS, replicated files, RM) on a
/// 6-cluster campus must also be a pure function of the world: same
/// engine digest and same application log at every thread count.
#[test]
fn full_protocol_digest_is_thread_count_invariant() {
    let (d1, l1) = chaos::full_protocol_calm(42, Some(1), 20);
    assert!(
        !l1.is_empty(),
        "full-protocol run produced no application log lines — workload broken"
    );
    for threads in [2usize, 4, 8] {
        let (dt, lt) = chaos::full_protocol_calm(42, Some(threads), 20);
        assert_eq!(d1, dt, "full-protocol digest diverged at {threads} threads");
        assert_eq!(l1, lt, "full-protocol app log diverged at {threads} threads");
    }
}

/// The erasure-coded share-spray chaos workload — the real
/// `FragStrategy::Fec` driver between two campus regions — must be a
/// pure function of the world too: same digest (and a green verdict)
/// at every thread count, under a six-op plan with packet corruption.
#[test]
fn fec_spray_digest_is_thread_count_invariant() {
    use snipe_netsim::chaos::ChaosPlan;
    let w = chaos::Workload::from_name("fec-spray@campus").expect("table row");
    let plan = ChaosPlan::generate(0xC0FF_EE02, &w.shape());
    assert!(plan.ops.len() == 6 && plan.packet.is_some_and(|p| p.corrupt > 0.0), "{plan:?}");
    let (v1, d1) = w.run(&plan, 0x5EED + 2, 1);
    assert!(v1.is_empty(), "fec spray violated its oracles at 1 thread: {v1:?}");
    for threads in [2usize, 4, 8] {
        let (vt, dt) = w.run(&plan, 0x5EED + 2, threads);
        assert!(vt.is_empty(), "fec spray violated its oracles at {threads} threads: {vt:?}");
        assert_eq!(d1, dt, "fec spray digest diverged at {threads} threads");
    }
}

/// The same workload forced into one region (`build()`) must reach the
/// same application outcome (milestone log lines) as over the natural
/// partition (`build_sharded`). Engine digests are incomparable across
/// partitions — one region draws from one RNG stream, several regions
/// from one each — so the differential is judged at the SNIPE-process
/// level.
#[test]
fn full_protocol_one_region_matches_natural_partition_app_log() {
    let (_, one_region) = chaos::full_protocol_calm(42, None, 20);
    let (_, natural) = chaos::full_protocol_calm(42, Some(1), 20);
    assert_eq!(one_region, natural, "forced one region vs natural partition app log diverged");
}
