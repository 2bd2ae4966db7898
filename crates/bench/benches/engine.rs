//! `bench_engine` — event-engine throughput under the storm workload.
//!
//! Drives the same deterministic packet storm as `harness engine`
//! (multi-network topology, periodic fault injection) through criterion
//! so regressions in the event-queue fast path show up in `cargo bench`.
//! `results/bench_engine.json` (written by the harness) tracks the
//! headline events/second figure across PRs.

use criterion::{criterion_group, criterion_main, Criterion};

use snipe_bench::engine;
use snipe_util::time::SimDuration;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    let sim = SimDuration::from_millis(200);
    g.bench_function("storm_16h_200ms", |b| b.iter(|| engine::storm("storm", 16, sim, 42)));
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
