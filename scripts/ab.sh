#!/usr/bin/env bash
# Interleaved base-vs-head differential on the repo benchmark: the only
# way a wall-clock claim is judged here (ROADMAP item 1) — absolute
# numbers on a shared box swing far more than most changes move them.
#
#   scripts/ab.sh <base-ref> [workload…]
#
# Builds the benchmark binary of <base-ref> and of the working tree,
# each from its own sources into its own target directory under
# target/ab/, then runs ten same-seed pairs per workload (default: all
# five), alternating which side goes first, with seeds 1997…2006.
# Records land in target/ab/{base,head}/ and `benchmark compare` judges
# them: host-time metrics by medians and quartiles against the
# benchmark's bounds, counted and simulated metrics seed by seed. A
# per-pair ops_per_s tally follows, for the "wins at least nine pairs in
# ten" rule. `benchmark compare` needs all five workloads, so a run
# restricted to some of them is informational: it prints the tally only.
#
# The base tree is a `git archive` export, not a `git worktree`: same
# sources, nothing registered in .git to clean up afterwards. Nothing
# under benchmark/ is touched.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/ab.sh <base-ref> [workload…]" >&2
    exit 2
fi
base_ref=$1
shift
workloads=("$@")
subset=1
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(storm wire-small wire-bulk names campus)
    subset=0
fi
pairs=10
first_seed=1997
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

ab=$PWD/target/ab
base_commit=$(git rev-parse --short "$base_ref^{commit}")
head_commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- || head_commit=$head_commit-dirty

rm -rf "$ab/base" "$ab/head" "$ab/base-src"
mkdir -p "$ab/base" "$ab/head" "$ab/base-src"
git archive "$base_commit" | tar -x -C "$ab/base-src"
# The export keeps the base commit's file dates, older than any build,
# so cargo would take artefacts built from another base for fresh: the
# base target directory serves one base commit only.
if [ "$(cat "$ab/base-target/base-commit" 2>/dev/null)" != "$base_commit" ]; then
    rm -rf "$ab/base-target"
    mkdir -p "$ab/base-target"
    echo "$base_commit" >"$ab/base-target/base-commit"
fi

echo "ab: building base $base_commit and head $head_commit"
CARGO_TARGET_DIR=$ab/base-target cargo build --release --offline --quiet \
    --manifest-path "$ab/base-src/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$ab/head-target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml

BENCH_RUSTC=$(rustc --version)
export BENCH_RUSTC

run_side() { # side workload seed
    local side=$1 workload=$2 seed=$3 commit=$base_commit
    [ "$side" = head ] && commit=$head_commit
    BENCH_COMMIT=$commit "$ab/$side-target/release/benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --record "$ab/$side/$workload-$seed.json" >/dev/null 2>&1 ||
        echo "ab: $side $workload seed $seed exited nonzero (see its record)" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    for workload in "${workloads[@]}"; do
        if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
        echo "ab: pair $((i + 1))/$pairs $workload seed $seed (${order[*]})"
        for side in "${order[@]}"; do
            run_side "$side" "$workload" "$seed"
        done
    done
done

status=0
if ((subset)); then
    echo "ab: workload subset — informational, no \`benchmark compare\` verdict"
else
    "$ab/head-target/release/benchmark" compare "$ab/base" "$ab/head" || status=$?
fi

ops() { sed -n 's/.*"ops_per_s": {"value": \([0-9.e+-]*\).*/\1/p' "$1"; }
for workload in "${workloads[@]}"; do
    wins=0
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        b=$(ops "$ab/base/$workload-$seed.json")
        h=$(ops "$ab/head/$workload-$seed.json")
        awk -v b="$b" -v h="$h" 'BEGIN { exit !(h > b) }' && wins=$((wins + 1))
    done
    echo "ab: $workload ops_per_s: head ahead in $wins of $pairs pairs"
done
exit $status
