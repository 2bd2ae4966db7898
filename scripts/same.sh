#!/usr/bin/env bash
# Byte identity of every simulated artefact, base against head
# (ROADMAP item 18): what a refactor must leave alone, and what a
# re-baseline moved.
#
#   scripts/same.sh <base-ref>
#
# Exports <base-ref> with `git archive` into target/ab/base-src, as
# scripts/ab.sh does, builds its harness and the working tree's, and
# runs the same commands on both sides, each in its own scratch
# directory under target/same/:
#   - the twelve paper tables (bare `harness`, then `harness fec`);
#   - the bare run's 240-digest chaos soak, results/chaos.{txt,json};
#   - `harness chaos-smoke` stdout;
#   - `harness trace` of every chaos row at one fixed seed pair;
#   - `shard-digest`, `full-proto-digest` and the E4-sharded table at
#     1/2/4/8 worker threads (its wall-clock column dropped);
#   - the digest and verdict of every REGRESSION_CORPUS triple.
# Each artefact prints `same`, or `moved` with its first differing
# line; the script exits nonzero if anything moved. No host time is
# judged here: that is scripts/ab.sh's job.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/same.sh <base-ref>" >&2
    exit 2
fi
base_commit=$(git rev-parse --short "$1^{commit}")
head_commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- || head_commit=$head_commit-dirty

ab=$PWD/target/ab
out=$PWD/target/same
rm -rf "$ab/base-src" "$out"
mkdir -p "$ab/base-src" "$out/base" "$out/head"
git archive "$base_commit" | tar -x -C "$ab/base-src"
# The export keeps the base commit's file dates, older than any build,
# so cargo would take artefacts built from another base for fresh: the
# base target directory serves one base commit only.
if [ "$(cat "$ab/base-target/base-commit" 2>/dev/null)" != "$base_commit" ]; then
    rm -rf "$ab/base-target"
    mkdir -p "$ab/base-target"
    echo "$base_commit" >"$ab/base-target/base-commit"
fi

echo "same: building base $base_commit and head $head_commit" >&2
CARGO_TARGET_DIR=$ab/base-target cargo build --release --offline --quiet \
    --manifest-path "$ab/base-src/Cargo.toml" -p snipe-bench --bin harness
cargo build --release --offline --quiet -p snipe-bench --bin harness

# The triples pinned in head's REGRESSION_CORPUS, one "name plan wseed"
# line each, seeds evaluated (`0xC0FF_EE07`, `0x5EED + 7`).
corpus=$(
    sed -n '/^pub const REGRESSION_CORPUS/,/^];/p' crates/bench/src/chaos.rs |
        sed -n 's/^ *("\([^"]*\)", *\([^,]*\), *\([^)]*\)),.*/\1 \2 \3/p' |
        while read -r name plan wseed; do
            echo "$name $((${plan//_/})) $((${wseed//_/}))"
        done
)

run_side() { # side binary
    local dir=$out/$1 harness=$2
    (
        cd "$dir"
        run() { # artefact command…: its stdout and exit status
            "$harness" "${@:2}" >"$1" 2>/dev/null && echo "exit 0" >>"$1" || echo "exit $?" >>"$1"
        }
        run paper.out
        run fec.out fec
        mkdir soak && cp results/chaos.txt results/chaos.json soak/
        run chaos-smoke.out chaos-smoke
        run trace.out trace 0xC0FFEE00 0x5EED
        for threads in 1 2 4 8; do
            run "shard-digest-$threads.out" shard-digest "$threads"
            run "full-proto-digest-$threads.out" full-proto-digest "$threads"
        done
        run e4-shard.out e4-shard
        while read -r name plan wseed; do
            echo "$name $plan $wseed: $("$harness" trace "$plan" "$wseed" "$name" |
                grep -e '^regions:' -e '^verdict:' -e '^VIOLATION' | tr '\n' ' ')"
        done <<<"$corpus" >corpus.out
    )
}

echo "same: running base" >&2
run_side base "$ab/base-target/release/harness"
echo "same: running head" >&2
run_side head "$PWD/target/release/harness"

# One "<artefact> <file>" row per comparison, paths relative to a side.
artefacts=()
for t in f1 e2 e3 e4 e5 e6 e7 e8 a1 a2 a3 fec; do
    artefacts+=("$t.txt results/$t.txt")
done
artefacts+=("chaos.txt soak/chaos.txt" "chaos.json soak/chaos.json")
artefacts+=("chaos-smoke chaos-smoke.out" "trace trace.out")
for threads in 1 2 4 8; do
    artefacts+=("shard-digest@$threads shard-digest-$threads.out")
    artefacts+=("full-proto-digest@$threads full-proto-digest-$threads.out")
done
artefacts+=("e4-shard e4-shard.txt")
artefacts+=("corpus($(wc -l <<<"$corpus")) corpus.out")

# E4-sharded prints wall-clock milliseconds: keep every column but that.
for side in base head; do
    table=$out/$side/results/e4_shard.txt
    [ ! -f "$table" ] || awk -F'|' -v OFS='|' 'NF > 4 { $5 = "" } { print }' "$table" \
        >"$out/$side/e4-shard.txt"
done

moved=0
for row in "${artefacts[@]}"; do
    read -r name file <<<"$row"
    b=$out/base/$file h=$out/head/$file
    if [ ! -f "$b" ] || [ ! -f "$h" ]; then
        moved=1
        printf '%-22s moved: no %s on one side\n' "$name" "$file"
    elif cmp -s "$b" "$h"; then
        printf '%-22s same\n' "$name"
    else
        moved=1
        # `cmp` names the first differing line (or where one side ends).
        n=$(cmp "$b" "$h" 2>&1 | grep -o 'line [0-9]*' | cut -d' ' -f2 || true)
        first=$(sed -n "${n:-1}p" "$h")
        [ -n "$first" ] || first="(head ends; base has: $(sed -n "${n:-1}p" "$b"))"
        printf '%-22s moved at line %s: %s\n' "$name" "${n:-?}" "$first"
    fi
done
exit $moved
