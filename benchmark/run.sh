#!/usr/bin/env bash
# One entry point: build the benchmark (release, the repository's own
# profile), run the five workloads and then the traced run for one
# seed, and leave one stamped record per run in benchmark/out/<set>/.
#
#   benchmark/run.sh [seed] [set-name]
#
# Records carry nproc, `rustc --version`, the git commit, the seed, the
# pass count and the operation counts. Two sets (five or more seeds
# each) are what `benchmark compare <set-A> <set-B>` reads.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-1997}
set_name=${2:-seed-$seed}
out=benchmark/out/$set_name
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$out"

BENCH_RUSTC=$(rustc --version)
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_RUSTC BENCH_COMMIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark

status=0
for workload in storm wire-small wire-bulk names campus; do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --record "$out/$workload-$seed.json" >/dev/null || status=1
done
# The traced run covers all five workloads whatever --workload says.
"$bin" --workload storm --seed "$seed" --seconds "$seconds" --trace 1 \
    --out "$out" --record "$out/traced-$seed.json" >/dev/null || status=1
echo "records in $out"
exit $status
