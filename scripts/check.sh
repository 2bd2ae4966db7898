#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   ./scripts/check.sh
#
# Builds release (the bench harness and perf-sensitive tests run
# optimized), runs the whole workspace's test suite (the root manifest's
# `default-members` make the bare commands cover every crate), then
# lints with clippy at deny-warnings. CI and local workflows run the
# exact same line.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hosting-glue gate: turning a sans-IO machine's outputs into engine
# calls (transmit, arm the wake-up, recover on HostUp) is written once,
# in `snipe_wire::host` for a `WireStack` and `snipe_rcds::host` for an
# `RcClient`. A hand copy in an actor is how every timer wedge in this
# repo was born, so its two fingerprints may appear nowhere else:
# `ctx.send_via(` (only a stack host pins routes; the engine crate
# defines and tests the call) and `.drain_sends()` (`rcds_bench.rs`
# drives a client with no world at all).
glue=$(
    grep -rn --include='*.rs' 'ctx\.send_via(' crates/*/src |
        grep -v -e '^crates/netsim/' -e '^crates/wire/src/host\.rs:' || true
    grep -rn --include='*.rs' '\.drain_sends()' crates/*/src |
        grep -v -e '^crates/rcds/src/client\.rs:' -e '^crates/rcds/src/host\.rs:' \
            -e '^crates/bench/src/rcds_bench\.rs:' || true
)
if [ -n "$glue" ]; then
    echo "hosting-glue gate: FAIL — host the machine through StackHost / RcHost instead:"
    echo "$glue"
    exit 1
fi
# Codec gate: a service-plane message is declared once, as a
# `snipe_util::wire_codec!` listing next to its type, and an endpoint is
# encoded by its own `WireEncode` impl. A hand decoder is where tag
# tables, magic checks and count checks drifted apart (five private
# endpoint helpers, two migrate-order encoders, a mode byte that read
# anything but 1 as passive), so its fingerprints may appear only in the
# codec itself, in `crates/wire` (datagram headers, not tagged
# messages) and in `crypto/src/sign.rs` (big-integer keys and
# signatures).
codec=$(
    grep -rnE --include='*.rs' 'fn (put|get)_(ep|endpoint)\b|!= MAGIC|impl WireDecode for' crates/*/src |
        grep -v -e '^crates/util/src/codec\.rs:' -e '^crates/wire/' -e '^crates/crypto/src/sign\.rs:' || true
)
if [ -n "$codec" ]; then
    echo "codec gate: FAIL — list the message in a snipe_util::wire_codec! instead:"
    echo "$codec"
    exit 1
fi
# Deadline-scan gate: "what is pending, when is it due, in which order
# do due things fire" is written once, in `snipe_util::deadlines`. A
# request map with its own expiry filter and its own earliest-deadline
# scan is how retry order came to follow `HashMap` iteration three
# times and how a pending entry came to exist with no deadline at all,
# so the fingerprints of such a copy may appear nowhere else: the
# `deadline`-field spellings of a request map, and the `sent_at`
# spellings of a transport's in-flight table (which belongs in a
# `snipe_wire::recovery::Flight`, a `Deadlines` filed at the last send).
scan=$(
    grep -rnE --include='*.rs' \
        'deadline <= now|\.deadline\)\.min\(\)|sent_at \+ .*<= now|sent_at.*\.min\(\)' crates/*/src |
        grep -v '^crates/util/src/deadlines\.rs:' || true
)
if [ -n "$scan" ]; then
    echo "deadline-scan gate: FAIL — keep pending requests in a snipe_util::deadlines::Deadlines instead:"
    echo "$scan"
    exit 1
fi
# Loss-recovery gate: the RFC 6298 estimator (smoothed RTT, its
# variance, the clamped and backed-off RTO) is written once, in
# `snipe_wire::recovery::Rtt`. Its variance term is the fingerprint of a
# second copy. (`wire/src/path.rs` smooths samples to score routes,
# keeps no variance and yields no timeout; it is deliberately separate.)
rtt=$(grep -rn --include='*.rs' 'rttvar' crates/*/src | grep -v '^crates/wire/src/recovery\.rs:' || true)
if [ -n "$rtt" ]; then
    echo "loss-recovery gate: FAIL — keep the RTT estimate in a snipe_wire::recovery::Rtt instead:"
    echo "$rtt"
    exit 1
fi
# Side-channel gate: an experiment's actor keeps its counters as plain
# fields, and the runner reads them in place (`World::actor_ref`)
# between drive slices or after the run. A shared cell is left only
# where no accessor reaches the state: E2's MPI ranks and E4's
# coordinators live inside wrapper actors, and E5's worker log must
# outlive the process instance that migrates. (`bin/harness.rs` holds
# a test fixture.)
cells=$(
    grep -rn --include='*.rs' 'Mutex' crates/bench/src |
        grep -v -e '^crates/bench/src/e2_mpiconnect\.rs:' -e '^crates/bench/src/e4_scalability\.rs:' \
            -e '^crates/bench/src/e5_migration\.rs:' -e '^crates/bench/src/bin/harness\.rs:' || true
)
if [ -n "$cells" ]; then
    echo "side-channel gate: FAIL — keep the counters in the actor and read them through actor_ref instead:"
    echo "$cells"
    exit 1
fi
cargo build --release
cargo test -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: first-party crates must document cleanly. Broken
# intra-doc links and malformed examples rot fastest in the wire layer,
# where the Driver trait docs double as the transport-author guide.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p snipe-util -p snipe-netsim -p snipe-wire -p snipe-rcds \
    -p snipe-core -p snipe-crypto -p snipe-daemon -p snipe-files \
    -p snipe-rm -p snipe-bench -p snipe-playground -p snipe
# Bounded chaos smoke: two seeded fault plans for every row of the
# workload table — LAN and campus placements alike, the campus ones run
# at 4 threads and again at 1 with equal digests demanded — plus the
# planted-bug drill; exits nonzero on any oracle violation or digest
# divergence and writes results/chaos.json for inspection.
cargo run -q --release -p snipe-bench --bin harness -- chaos-smoke
# Shard-determinism gate: the sharded engine must produce the same
# behavioural digest no matter how many worker threads drive it. The
# fixed digest-run config (512 hosts, 8 regions, cross-region storm
# with a host flap) is compared byte-for-byte at 1 vs 4 threads.
d1=$(./target/release/harness shard-digest 1)
d4=$(./target/release/harness shard-digest 4)
echo "shard-determinism gate: 1 thread $d1, 4 threads $d4"
if [ "$d1" != "$d4" ]; then
    echo "shard-determinism gate: FAIL (digests differ)"
    exit 1
fi
# FEC smoke: regenerate the goodput-vs-loss A/B curve (plain
# fragmentation vs erasure-coded share spray, 3 seeds per point). The
# harness exits nonzero unless FEC is strictly ahead at every loss rate
# >= 5% and every FEC delivery really used the reconstruction path;
# results/fec.txt records the curve.
./target/release/harness fec
# Same property for the full protocol stack: the daemons + RCDS +
# files + RM campus workload prints its engine digest plus the sorted
# application log; both must be byte-identical at 1 vs 4 threads.
fp1=$(./target/release/harness full-proto-digest 1)
fp4=$(./target/release/harness full-proto-digest 4)
echo "shard-determinism gate (full protocol): 1 thread ${fp1%%$'\n'*}, 4 threads ${fp4%%$'\n'*}"
if [ "$fp1" != "$fp4" ]; then
    echo "shard-determinism gate (full protocol): FAIL (digest or app log differs)"
    exit 1
fi
# Metadata-plane scale gate: register one million names into the
# consistent-hash-sharded catalog and resolve through the ring plus
# the client TTL cache; exits nonzero unless the full count registers,
# every shard group owns names and the latency histogram is populated.
# results/bench_rcds.txt records the measured table.
./target/release/harness rcds
# Observability overhead gate: the flight recorder + metrics layer is
# compiled into the engine hot path, so the recorder-disabled build must
# stay within 2% of an observability-free (`--features obs-off`) build
# of the same tree. The comparison is differential — both binaries are
# probed interleaved on this machine right now — because wall-clock
# noise on a shared box dwarfs a 2% effect against any stored absolute
# baseline. The statistic is the one `scripts/ab.sh` uses for host
# time: the median of per-pair ratios over 15 interleaved pairs (a
# probe is ~150ms, so pairs are cheap). A pair shares the machine's
# load, so its ratio cancels the drift that a per-side best-of-N keeps.
# Five sets of 15 pairs from one tree on a 2-core Xeon VM:
#   best-of-15 per side        0.954 0.980 1.004 1.004 1.020 (one set
#                              failed, one sat on the floor)
#   median of per-pair ratios  0.995 1.037 0.991 0.991 0.989 (all pass)
#   single pairs ranged 0.726-1.109.
# Fourteen more sets later on the same VM: the median failed 3, best-of
# failed 9. Same-binary pairs read 0.982-1.011, so the recorder-disabled
# build's real cost (~1-2%) sits close to the 2% budget.
# It runs last, so a failure here cannot hide the gates above, all of
# which have already run against the normal `target/release/harness`.
cargo build -q --release -p snipe-bench --bin harness --features obs-off
cp target/release/harness target/release/harness-obs-off
cargo build -q --release -p snipe-bench --bin harness
ratios=()
for _ in $(seq 15); do
    b=$(./target/release/harness-obs-off engine-probe)
    h=$(./target/release/harness engine-probe)
    ratios+=("$(awk -v h="$h" -v b="$b" 'BEGIN { printf "%.4f", h / b }')")
done
sorted=$(printf '%s\n' "${ratios[@]}" | sort -g)
echo "overhead gate: per-pair ratios, recorder-disabled / obs-off:" $sorted
awk -v m="$(sed -n 8p <<<"$sorted")" 'BEGIN {
    printf "overhead gate: median ratio %.3f (floor 0.980)\n", m;
    exit (m >= 0.98 ? 0 : 1);
}'
echo "check.sh: all gates green"
