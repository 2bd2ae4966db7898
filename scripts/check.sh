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
# calls (transmit its sends, hand back its deliveries) is written once,
# in `snipe_wire::host` for a `WireStack` and `snipe_rcds::host` for an
# `RcClient`; neither arms anything, since the engine keeps each actor's
# one wake-up. A hand copy in an actor is how every timer wedge in this
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
# One-wake gate: a protocol deadline is an actor's `next_wake` answer,
# and the engine keeps the one wake-up per actor. A hand-held timer gate
# (the deduplicating `TimerGate` type, its `arm_deadline` / `arm_after`,
# the one-tick `DEADLINE_SKEW`, a `*_armed: bool` flag) is how a stale
# fire came to start a second live timer chain, so outside test modules
# none may appear in `crates/*/src`, except the three-method type kept
# for the frozen benchmark in `netsim/src/actor.rs`. A chain an actor
# re-arms with `set_timer` dies for good when one link comes due while
# its host is down, so outside test modules every crate but the engine
# (the bench harness's drivers included) may name `set_timer(` only in
# the two app APIs (`core/src/api.rs`, `PvmTaskApi` in `pvm/src/task.rs`)
# and an application's calls through its `api` handle, `mpiconnect`'s
# transport trait and its forwards, and the RC server's sync tick (until
# ROADMAP 15); and no token may be bit-packed with an `APP_TIMER_BIT`
# anywhere.
wake=$(
    find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0; compat = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        FILENAME ~ /netsim\/src\/actor\.rs$/ && /^pub struct TimerGate / { compat = 2 }
        compat > 0 { if ($0 ~ /^}$/) compat--; next }
        in_test { next }
        /TimerGate|arm_deadline|arm_after|DEADLINE_SKEW|_armed: bool/ { print FILENAME ":" FNR ":" $0 }
        /set_timer\(/ && FILENAME !~ /^crates\/netsim\/|^crates\/(core\/src\/api|rcds\/src\/server)\.rs$/ {
            api = FILENAME ~ /^crates\/(pvm\/src\/task\.rs|mpiconnect\/src\/)/ && /fn set_timer\(|self\.inner\.set_timer\(/
            app = /(^|[^[:alnum:]_.])api\.set_timer\(/
            if (!api && !app) print FILENAME ":" FNR ":" $0
        }
    '
    grep -rn 'APP_TIMER_BIT' crates src tests examples benchmark/src || true
)
if [ -n "$wake" ]; then
    echo "one-wake gate: FAIL — answer the deadline from Actor::next_wake instead:"
    echo "$wake"
    exit 1
fi
# One-cast gate: a sender streaming to a receiver is one
# `fig1::Transfer` value, spawned by `Transfer::spawn`, and an RC
# replica group is one `RcServerActor::group`. Each was once written
# out by hand, eight and five times, and the copies differed only by
# accident, so their fingerprints may appear only where the casts are
# written: `Hosted::new(` in `bench/src/fig1.rs`, and, outside test
# modules, `RcServerActor::new(` under `rcds/src/` plus chaos.rs's
# restart factory (a restarted replica gets a fresh server id on
# purpose).
cast=$(
    grep -rn --include='*.rs' 'Hosted::new(' crates/bench/src |
        grep -v '^crates/bench/src/fig1\.rs:' || true
    find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /RcServerActor::new\(/ { print FILENAME ":" FNR ":" $0 }
    ' | grep -v -e '^crates/rcds/src/' -e '^crates/bench/src/chaos\.rs:.*RcServerActor::new(id, ' || true
)
if [ -n "$cast" ]; then
    echo "one-cast gate: FAIL — stage the cast through Transfer::spawn / RcServerActor::group instead:"
    echo "$cast"
    exit 1
fi
# Codec gate: a message, a transport header and a migration snapshot
# are each declared once, as a `snipe_util::wire_codec!` listing next
# to its type, and an endpoint is encoded by its own `WireEncode` impl.
# A hand decoder is where tag tables, magic checks and count checks
# drifted apart (five private endpoint helpers, two migrate-order
# encoders, a mode byte that read anything but 1 as passive, a stack
# snapshot whose forged section count aborted the process), so its
# fingerprints may appear only in the codec itself, in
# `wire/src/frame.rs` (the envelope and its checksum) and in
# `crypto/src/sign.rs` (big-integer keys and signatures). Outside test
# modules, a hand decoder's entry point, a `Decoder` built over raw
# bytes, belongs to the codec and the envelope alone.
codec=$(
    grep -rnE --include='*.rs' 'fn (put|get)_(ep|endpoint)\b|!= MAGIC|impl WireDecode for' crates/*/src |
        grep -v -e '^crates/util/src/codec\.rs:' -e '^crates/wire/src/frame\.rs:' \
            -e '^crates/crypto/src/sign\.rs:' || true
    find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /Decoder::new\(/ { print FILENAME ":" FNR ":" $0 }
    ' | grep -v -e '^crates/util/src/codec\.rs:' -e '^crates/wire/src/frame\.rs:' || true
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
# Request-table gate: "send to a target, wait until a deadline, then
# retry or give up, and drop a late or misdirected reply" is written
# once, in `snipe_util::requests::Requests`. Five service clients once
# kept that rule each in its own id-keyed `Deadlines`, with its own
# attempt count and its own idea of a stale reply, and counted it five
# ways or not at all. Outside test modules, an id-keyed table
# (`Deadlines<u64, _>`) may therefore appear only in `requests.rs`, the
# two app-timer tables (`core/src/actor.rs`, `pvm/src/task.rs`), the
# resolver's back-off and the resource manager's allocation table (whose
# unit of retry is a whole allocation over several daemon spawns); and
# only `requests.rs` may bump a stale or mismatched counter.
requests=$(
    find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test || FILENAME == "crates/util/src/requests.rs" { next }
        /Deadlines<u64,|(stale|mismatched)[a-z_]* *\+=/ { print FILENAME ":" FNR ":" $0 }
    ' | grep -v -e '^crates/core/src/actor\.rs:[0-9]*: *app_timers: Deadlines<u64, u64>,$' \
        -e '^crates/pvm/src/task\.rs:[0-9]*: *timers: Deadlines<u64, u64>,$' \
        -e '^crates/core/src/resolver\.rs:[0-9]*: *retry: Deadlines<u64, u32>,$' \
        -e '^crates/rm/src/manager\.rs:[0-9]*: *pending: Deadlines<u64, PendingAlloc>,$' || true
)
if [ -n "$requests" ]; then
    echo "request-table gate: FAIL — keep pending requests in a snipe_util::requests::Requests instead:"
    echo "$requests"
    exit 1
fi
# Loss-recovery gate: the RFC 6298 estimator (smoothed RTT, its
# variance, the clamped and backed-off RTO) is written once, in
# `snipe_wire::recovery::Rtt`, the tree's only RTT smoother. Its
# variance term is the fingerprint of a second copy.
rtt=$(grep -rn --include='*.rs' 'rttvar' crates/*/src | grep -v '^crates/wire/src/recovery\.rs:' || true)
if [ -n "$rtt" ]; then
    echo "loss-recovery gate: FAIL — keep the RTT estimate in a snipe_wire::recovery::Rtt instead:"
    echo "$rtt"
    exit 1
fi
# Route-rule gate: a pinned peer's traffic takes its current route, and
# only a rotation on timeout or duplicate evidence moves it
# (`snipe_wire::path`). A per-route score of smoothed RTT plus a
# decaying failover penalty once overruled that rotation and sent
# traffic back to the route just left, so outside test modules in
# `crates/*/src` the score's fingerprints may not appear: a penalty,
# the calls that fed it samples and progress, the best-score read and
# the score-ranked route list.
route=$(
    find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /penalty|record_rtt|record_progress|best_score|select_k_distinct/ {
            print FILENAME ":" FNR ":" $0
        }
    '
)
if [ -n "$route" ]; then
    echo "route-rule gate: FAIL — route on the current route and move it only by PeerPaths::rotate instead:"
    echo "$route"
    exit 1
fi
# One-allocation-per-datagram gate: a driver writes each datagram into
# the thread's scratch encoder through `frame::seal_with`, which freezes
# it with one exact-size copy, and the stack only routes what drivers
# drain. A fresh
# encoder per datagram and a second seal in the stack's harvest are how
# a DATA fragment came to cost four allocations and four payload
# copies, so outside test modules the transports build no `Encoder`
# and call no `seal(`, and the stack seals only the bodies its callers
# hand to `send_raw` / `send_mcast`.
dgram=$(
    awk '
        FNR == 1 { in_test = 0; in_fn = "" }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        match($0, /fn [a-z0-9_]+/) { in_fn = substr($0, RSTART + 3, RLENGTH - 3) }
        FILENAME ~ /stack\.rs$/ {
            if ($0 ~ /(^|[^a-z0-9_])seal\(/ && in_fn != "send_raw" && in_fn != "send_mcast")
                print FILENAME ":" FNR ":" $0
            next
        }
        /Encoder::new\(\)|Encoder::with_capacity\(|(^|[^a-z0-9_])seal\(/ { print FILENAME ":" FNR ":" $0 }
    ' crates/wire/src/srudp.rs crates/wire/src/rstream.rs crates/wire/src/mcast.rs crates/wire/src/stack.rs
)
if [ -n "$dgram" ]; then
    echo "datagram gate: FAIL — write the datagram through frame::seal_with instead:"
    echo "$dgram"
    exit 1
fi
# Sans-IO gate: a process's protocols are machines in core (`Resolver`,
# `Groups`, `FileOps`, `Migration`) that read `(now, input)` and queue
# `Out`s, so each can be driven and explored without a world; only the
# glue, `core/src/actor.rs`, turns those outputs into engine calls and
# flight-recorder records. Outside test modules the machine modules may
# therefore name neither the engine context nor the recorder.
sansio=$(
    awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /SimCtx|ctx\.|trace::record/ { print FILENAME ":" FNR ":" $0 }
    ' crates/core/src/resolver.rs crates/core/src/groups.rs crates/core/src/fileops.rs \
        crates/core/src/migration.rs
)
if [ -n "$sansio" ]; then
    echo "sans-IO gate: FAIL — queue an Out and let ProcessActor make the engine call instead:"
    echo "$sansio"
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
# One-round-loop gate: the engine's round loop (apply the due faults,
# plan the window, run it, route the mailbox) is written once, in
# `Coordinator::run`, and every thread count runs its windows through
# the one closure in `World::run_until`. A second copy of the loop for
# the thread pool is how a worker's panic came to hang the run instead
# of failing it, so outside test modules in `crates/netsim/src` the
# window planner has one call site and the scoped pool is opened once.
loops=$(
    find crates/netsim/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /\.plan\(/ { plan = plan FILENAME ":" FNR ":" $0 "\n"; plans++ }
        /thread::scope/ { scope = scope FILENAME ":" FNR ":" $0 "\n"; scopes++ }
        END {
            if (plans != 1) printf "%d call sites of the window planner, want 1:\n%s", plans, plan
            if (scopes != 1) printf "%d scoped thread pools, want 1:\n%s", scopes, scope
        }
    '
)
if [ -n "$loops" ]; then
    echo "one-round-loop gate: FAIL — drive every window through Coordinator::run instead:"
    printf '%s\n' "$loops"
    exit 1
fi
cargo build --release
cargo test -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: first-party crates must document cleanly. Broken
# intra-doc links and malformed examples rot fastest in the wire layer,
# whose module docs state the transports' sans-IO contract.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p snipe-util -p snipe-netsim -p snipe-wire -p snipe-rcds \
    -p snipe-core -p snipe-crypto -p snipe-daemon -p snipe-files \
    -p snipe-rm -p snipe-bench -p snipe-playground -p snipe
# Benchmark gate: `benchmark/` is a package of its own (own workspace,
# own lock file) that nothing above builds, yet it is the last caller
# of the names ROADMAP 15 means to delete, so an API change could break
# it unseen. Build it in its own target directory and run one short
# pass of every workload `BENCHMARK.json` declares; each exits nonzero
# if an operation fails or an oracle trips.
for workload in storm wire-small wire-bulk names campus; do
    CARGO_TARGET_DIR=target/benchmark cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- --workload "$workload" --seconds 1
done
# Traced benchmark run: one process over the probes and every workload
# with the flight recorder on (about 40 s on two cores). It exits
# nonzero on any failed operation, a replay that is not bit-for-bit, a
# missing per-layer row or a generator share above 20 % on any
# workload, none of which the short passes above check.
CARGO_TARGET_DIR=target/benchmark cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- --workload storm --seed 1997 --trace 1 \
    --out target/benchmark/out
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
# The measured table is wall-clock, so it is printed and never written
# under results/: a green run leaves the tree as it found it.
./target/release/harness rcds
echo "check.sh: all gates green"
