//! The experiment harness: regenerates every figure and table of the
//! paper's evaluation (see DESIGN.md §4 for the index).
//!
//! ```text
//! cargo run -p snipe-bench --release --bin harness            # the paper set
//! cargo run -p snipe-bench --release --bin harness -- f1 e3   # selected
//! cargo run -p snipe-bench --release --bin harness -- chaos 4 # with operands
//! ```
//!
//! The paper's figures and tables are the rows of [`PAPER`]: `harness
//! <name>` runs the row and rewrites `results/<name>.txt`. Every other
//! command (gates, digests, chaos, replay) is a row of [`COMMANDS`].
//! Every word naming a row starts a command; the words after it are
//! that command's operands. Output goes to stdout and `results/`; a
//! command clears only the files it writes. An unknown command prints
//! the command names and exits 2.

use snipe_bench::report::{mbps, Table};
use snipe_bench::{
    ablations, chaos, e2_mpiconnect, e3_availability, e4_scalability, e5_migration, e6_multicast,
    e7_failover, e8_spof, fig1, par_map, rcds_bench, shard_storm,
};
use snipe_util::time::SimDuration;

fn run_f1() -> Table {
    let mut jobs = Vec::new();
    for medium in fig1::standard_media() {
        for proto in [fig1::Protocol::Srudp, fig1::Protocol::Rstream, fig1::Protocol::Mcast] {
            for &size in &fig1::standard_sizes() {
                jobs.push((medium.clone(), proto, size));
            }
        }
    }
    let points = par_map(jobs, |(m, p, s)| fig1::measure(m.clone(), *p, *s));
    let mut t = Table::new(
        "F1 (Fig. 1): bandwidth offered to SNIPE clients, MB/s",
        &["medium", "protocol", "msg size", "MB/s", "media ceiling MB/s", "% of ceiling"],
    );
    for p in points.into_iter().flatten() {
        let frac = p.goodput / p.ceiling * 100.0;
        t.row(vec![
            p.medium.to_string(),
            p.protocol.to_string(),
            format!("{}", p.msg_size),
            mbps(p.goodput),
            mbps(p.ceiling),
            format!("{frac:.1}%"),
        ]);
    }
    t
}

fn run_e2() -> Table {
    // Sizes stay below the Ethernet MTU: the mini-PVM baseline (like
    // early pvm_send without direct routing) does not fragment, and the
    // §6.1 claim is about point-to-point latency/overheads.
    let sizes = vec![64usize, 256, 1024, 1400];
    let mut rows = Vec::new();
    for &s in &sizes {
        rows.push(e2_mpiconnect::run_snipe(s));
        rows.push(e2_mpiconnect::run_pvmpi(s));
    }
    let mut t = Table::new(
        "E2 (§6.1): MPI Connect (SNIPE) vs PVMPI (PVM), inter-MPP pt2pt",
        &["system", "msg size", "latency (ms)", "bandwidth MB/s"],
    );
    for r in rows {
        t.row(vec![
            r.system.to_string(),
            format!("{}", r.msg_size),
            format!("{:.3}", r.latency * 1e3),
            mbps(r.bandwidth),
        ]);
    }
    t
}

fn run_e3() -> Table {
    let ks = vec![1usize, 2, 3, 4, 5];
    let points = par_map(ks, |&k| e3_availability::run(k, 365, 1000 + k as u64));
    let mut t = Table::new(
        "E3 (§6): metadata availability over one simulated year (MTBF 10d, MTTR 4h)",
        &["RC replicas", "availability", "single-host expectation"],
    );
    for p in points {
        t.row(vec![
            format!("{}", p.replicas),
            format!("{:.5}", p.availability),
            format!("{:.5}", p.single_host),
        ]);
    }
    t
}

fn run_e4() -> Table {
    use e4_scalability::{pvm_burst_model, pvm_enrolment_model, HOSTS};
    let snipe = par_map(HOSTS.to_vec(), |&n| e4_scalability::run_snipe(n, 40));
    let pvm = par_map(HOSTS.to_vec(), |&n| e4_scalability::run_pvm(n, 40));
    let mut t = Table::new(
        "E4 (§2.2): time to start one task on each of N hosts, after PVM enrols them all",
        &[
            "hosts",
            "SNIPE (s)",
            "PVM (s)",
            "PVM model (s)",
            "PVM/SNIPE",
            "enrol (s)",
            "enrol model (s)",
        ],
    );
    let secs = |s: Option<f64>| s.map_or("DNF".into(), |s| format!("{s:.4}"));
    for (s, p) in snipe.iter().zip(&pvm) {
        let ratio = if s.complete && p.complete { p.elapsed / s.elapsed } else { f64::NAN };
        t.row(vec![
            format!("{}", s.hosts),
            secs(s.complete.then_some(s.elapsed)),
            secs(p.complete.then_some(p.elapsed)),
            format!("{:.4}", pvm_burst_model(p.hosts)),
            format!("{ratio:.2}x"),
            secs(p.enrolment),
            format!("{:.4}", pvm_enrolment_model(p.hosts)),
        ]);
    }
    t
}

fn run_e5() -> Table {
    let p = e5_migration::run(200, 6);
    let mut t = Table::new(
        "E5 (§5.6): migration under load — zero loss contract",
        &["sent", "received", "lost", "out-of-order", "max stall (ms)", "migrated at (s)"],
    );
    t.row(vec![
        format!("{}", p.sent),
        format!("{}", p.received),
        format!("{}", p.sent - p.received),
        format!("{}", p.out_of_order),
        format!("{:.1}", p.max_gap * 1e3),
        format!("{:.3}", p.migrated_at),
    ]);
    t
}

fn run_e6() -> Table {
    let configs = vec![(3usize, 1usize), (5, 2), (7, 3), (9, 4)];
    let points = par_map(configs, |&(r, k)| e6_multicast::run(r, 6, k, 200, 11));
    let mut t = Table::new(
        "E6 (§5.4): multicast delivery with routers killed mid-stream",
        &["routers", "killed", "sent", "min delivered", "delivery", "dup suppressed"],
    );
    for p in points {
        t.row(vec![
            format!("{}", p.routers),
            format!("{}", p.killed),
            format!("{}", p.sent),
            format!("{}", p.min_delivered),
            format!("{:.1}%", p.min_delivered as f64 / p.sent as f64 * 100.0),
            format!("{}", p.duplicates),
        ]);
    }
    t
}

fn run_e7() -> Table {
    let p = e7_failover::run(4 << 20, 13);
    let mut t = Table::new(
        "E7 (§6): route failover when the preferred (ATM) path blackholes",
        &["bytes", "delivered", "failover seen", "fault at (s)", "done at (s)"],
    );
    t.row(vec![
        format!("{}", p.total),
        format!("{}", p.delivered),
        format!("{}", p.failovers_observed),
        format!("{:.3}", p.fault_at),
        format!("{:.3}", p.elapsed),
    ]);
    t
}

fn run_e8() -> Table {
    let s = e8_spof::run_snipe(21);
    let p = e8_spof::run_pvm(21);
    let mut t = Table::new(
        "E8 (§2.2): killing the name service mid-workload",
        &["system", "ok before kill", "ok after kill", "post-kill availability"],
    );
    for r in [s, p] {
        t.row(vec![
            r.system.to_string(),
            format!("{}/{}", r.ok_before, r.ops_before),
            format!("{}/{}", r.ok_after, r.ops_after),
            format!("{:.1}%", r.availability_after() * 100.0),
        ]);
    }
    t
}

fn run_a1() -> Table {
    let mut jobs = Vec::new();
    for window in [4usize, 16, 64, 256] {
        for frag in [512usize, 1400] {
            jobs.push((window, frag));
        }
    }
    let points = par_map(jobs, |&(w, f)| ablations::run_a1(w, f, 0.05, 31));
    let mut t = Table::new(
        "A1: SRUDP window/fragment sweep on 5%-loss WAN",
        &["window", "frag size", "goodput MB/s"],
    );
    for p in points {
        t.row(vec![
            format!("{}", p.window),
            format!("{}", p.frag_size),
            if p.goodput.is_nan() { "stalled".into() } else { mbps(p.goodput) },
        ]);
    }
    t
}

fn run_a2() -> Table {
    let intervals = vec![100u64, 250, 500, 1000, 2000, 5000];
    let points = par_map(intervals, |&ms| ablations::run_a2(SimDuration::from_millis(ms), 32));
    let mut t = Table::new(
        "A2: anti-entropy interval vs cross-replica staleness",
        &["sync interval (s)", "staleness (s)"],
    );
    for p in points {
        t.row(vec![format!("{:.2}", p.sync_interval), format!("{:.3}", p.staleness)]);
    }
    t
}

fn run_a3() -> Table {
    let slices = vec![500u64, 1_000, 5_000, 20_000, 100_000];
    let points = par_map(slices, |&s| ablations::run_a3(s, 33));
    let mut t = Table::new(
        "A3: playground fuel-slice size vs completion and checkpoint size",
        &["slice (instr)", "completion (s)", "checkpoint (bytes)"],
    );
    for p in points {
        t.row(vec![
            format!("{}", p.slice),
            format!("{:.3}", p.completion),
            format!("{}", p.checkpoint_bytes),
        ]);
    }
    t
}

/// A paper figure or table: its command name and the runner that
/// builds it.
type Paper = (&'static str, fn() -> Table);

/// The paper's figures and tables, in the order bare `harness`
/// regenerates them: `harness <name>` runs a row and rewrites
/// `results/<name>.txt` with its table.
const PAPER: &[Paper] = &[
    ("f1", run_f1),
    ("e2", run_e2),
    ("e3", run_e3),
    ("e4", run_e4),
    ("e5", run_e5),
    ("e6", run_e6),
    ("e7", run_e7),
    ("e8", run_e8),
    ("a1", run_a1),
    ("a2", run_a2),
    ("a3", run_a3),
];

/// `harness e4-shard`: the E4 spawn burst on a partitioned world — a
/// 6-cluster campus (one region per cluster) at 1/2/4/8 worker
/// threads. Virtual completion time and the engine digest must be
/// thread-count invariant; wall-clock is what threads buy.
fn run_e4_shard() -> bool {
    fresh("e4_shard.txt");
    let points: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&th| e4_scalability::run_snipe_sharded(6, 8, 40, th))
        .collect();
    let mut t = Table::new(
        "E4-sharded: one task on each of 48 campus hosts, by worker threads",
        &[
            "threads",
            "hosts",
            "virtual (s)",
            "wall (ms)",
            "digest",
            "complete",
            "rounds",
            "events/round",
        ],
    );
    for p in &points {
        t.row(vec![
            format!("{}", p.threads),
            format!("{}", p.hosts),
            if p.complete { format!("{:.4}", p.elapsed) } else { "DNF".into() },
            format!("{:.1}", p.wall_ms),
            format!("{:#018x}", p.digest),
            format!("{}", p.complete),
            format!("{}", p.rounds),
            format!("{:.1}", p.events_per_round),
        ]);
    }
    t.emit("e4_shard.txt");
    let ok =
        points.iter().all(|p| p.complete) && points.windows(2).all(|w| w[0].digest == w[1].digest);
    if !ok {
        println!("E4-sharded: digest or completion diverged across thread counts");
    }
    ok
}

/// Operands of the two digest commands: `<threads> [seed]` (seed 42
/// by default).
fn threads_and_seed(name: &str, rest: &[String]) -> Option<(usize, u64)> {
    let parsed = match rest {
        [threads] => threads.parse().ok().zip(Some(42)),
        [threads, seed] => threads.parse().ok().zip(parse_seed(seed)),
        _ => None,
    };
    let parsed = parsed.filter(|&(threads, _)| threads > 0);
    if parsed.is_none() {
        eprintln!("usage: harness {name} <threads> [seed]");
    }
    parsed
}

/// `harness full-proto-digest <threads> [seed]`: run the chaos-free
/// full-protocol campus workload (daemons + RCDS + files + RM) for a
/// fixed virtual duration and print the engine digest plus the sorted
/// application log. The `shard-determinism` gate byte-compares the
/// whole output across thread counts.
fn run_full_proto_digest(rest: &[String]) -> bool {
    let Some((threads, seed)) = threads_and_seed("full-proto-digest", rest) else {
        return false;
    };
    let (digest, lines) = chaos::full_protocol_calm(seed, Some(threads), 20);
    println!("{digest:#018x}");
    for l in &lines {
        println!("{l}");
    }
    true
}

/// `harness fec`: the Fig.1-style A/B curve — goodput vs loss for
/// plain fragmentation vs erasure-coded share spray, three seeds per
/// point, strict stop-and-wait so both variants carry one message in
/// flight. Fails unless FEC is strictly ahead at every loss rate ≥ 5%
/// and every FEC delivery was reconstructed from shares.
fn run_fec() -> bool {
    fresh("fec.txt");
    const SEEDS: [u64; 3] = [11, 12, 13];
    const LOSSES: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];
    let mut jobs = Vec::new();
    for &loss in &LOSSES {
        for fec in [false, true] {
            for &seed in &SEEDS {
                jobs.push((fec, loss, seed));
            }
        }
    }
    let points = par_map(jobs, |&(fec, loss, seed)| ablations::run_fec_ab(fec, loss, seed));
    // Average the seeds per (strategy, loss) cell.
    let cell = |fec: bool, loss: f64| {
        let sel: Vec<_> = points.iter().filter(|p| p.fec == fec && p.loss == loss).collect();
        let goodput = sel.iter().map(|p| p.goodput).sum::<f64>() / sel.len() as f64;
        let delivered: u64 = sel.iter().map(|p| p.delivered).sum();
        let fec_delivered: u64 = sel.iter().map(|p| p.fec_delivered).sum();
        (goodput, delivered, fec_delivered)
    };
    let mut t = Table::new(
        "FEC A/B: goodput vs loss, plain fragments vs 9-share erasure spray \
         (60 x 7000 B stop-and-wait, 3 seeds)",
        &["loss", "plain B/s", "fec B/s", "fec/plain"],
    );
    let mut ok = true;
    for &loss in &LOSSES {
        let (plain_gp, ..) = cell(false, loss);
        let (fec_gp, fec_del, fec_rec) = cell(true, loss);
        if loss >= 0.05 && fec_gp <= plain_gp {
            println!("FEC A/B: fec not ahead at loss {loss} ({fec_gp:.0} vs {plain_gp:.0} B/s)");
            ok = false;
        }
        // The FEC path must actually engage (not fall back to plain).
        if fec_rec != fec_del {
            println!("FEC A/B: only {fec_rec} of {fec_del} deliveries used FEC at loss {loss}");
            ok = false;
        }
        t.row(vec![
            format!("{:.0}%", loss * 100.0),
            format!("{plain_gp:.0}"),
            format!("{fec_gp:.0}"),
            format!("{:.2}", fec_gp / plain_gp),
        ]);
    }
    t.emit("fec.txt");
    ok
}

fn print_dump(what: &str, dump: Option<&String>) {
    if let Some(dump) = dump {
        println!("  flight recorder — last {} events {what}:", chaos::TRACE_DUMP_EVENTS);
        for line in dump.lines() {
            println!("    {line}");
        }
    }
}

/// `harness chaos [seeds-per-workload]` (C1): fan seeded fault plans
/// over every workload row, demand green oracles (and, on multi-region
/// rows, equal digests at two thread counts), then prove the oracles
/// have teeth by catching the planted migration-freeze bug and
/// shrinking its plan.
fn run_chaos(rest: &[String]) -> bool {
    let seeds = match rest {
        [] => Some(16),
        [n] => n.parse::<u64>().ok().filter(|n| *n > 0),
        _ => None,
    };
    let Some(seeds) = seeds else {
        eprintln!("usage: harness chaos [seeds-per-workload]");
        return false;
    };
    chaos_soak(seeds)
}

fn chaos_soak(seeds_per_workload: u64) -> bool {
    fresh("chaos.txt");
    let runs = chaos::soak(seeds_per_workload);
    let mut t = Table::new(
        "C1: chaos soak — seeded fault plans vs invariant oracles",
        &["workload", "plan seed", "wseed", "ops", "packet", "regions", "digest", "verdict"],
    );
    let failures: Vec<_> = runs.iter().filter(|r| !r.violations.is_empty()).collect();
    for r in &runs {
        t.row(vec![
            r.workload.to_string(),
            format!("{:#x}", r.plan_seed),
            format!("{:#x}", r.workload_seed),
            format!("{}", r.ops),
            format!("{}", r.packet),
            format!("{}", r.regions),
            format!("{:#x}", r.digest),
            if r.violations.is_empty() { "green".into() } else { "VIOLATED".into() },
        ]);
    }
    t.emit("chaos.txt");
    for f in &failures {
        println!("VIOLATION in {}: {}", f.workload, f.violations[0]);
        println!("  {}", f.replay);
        let shrunk = chaos::shrink_violation(f);
        println!("  shrunk {} {:?}", shrunk.replay_line(f.workload, f.workload_seed), shrunk.ops);
        print_dump("before the verdict", f.trace_dump.as_ref());
    }

    let drill = chaos::planted_bug_drill(8);
    let mut d = Table::new(
        "C1b: planted-bug drill — migration freeze disabled on purpose",
        &["caught", "violation", "shrunk plan"],
    );
    d.row(vec![format!("{}", drill.caught), drill.first_violation.clone(), drill.replay.clone()]);
    d.emit("chaos.txt");
    if drill.caught {
        println!("planted bug caught: {}", drill.first_violation);
        println!("  {}", drill.replay);
        print_dump("of the shrunk replay", drill.trace_dump.as_ref());
    } else {
        println!("planted bug NOT caught — the oracle layer has a blind spot");
    }

    let per_workload: Vec<String> = chaos::WORKLOADS
        .iter()
        .map(|w| {
            let mine = || runs.iter().filter(|r| r.workload == w.name);
            format!(
                "    {{\"workload\": \"{}\", \"plans\": {}, \"regions\": {}, \
                 \"violations\": {}, \"digest_divergences\": {}, \"metrics\": {}}}",
                w.name,
                seeds_per_workload,
                mine().next().map_or(0, |r| r.regions),
                mine().filter(|r| !r.violations.is_empty()).count(),
                mine().filter(|r| r.diverged).count(),
                chaos::trace_metrics_json(mine(), 4).trim_end(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"chaos_soak\",\n  \"plans\": {},\n  \"violations\": {},\n  \
         \"digest_divergences\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"planted_bug_caught\": {},\n  \"planted_bug_replay\": \"{}\",\n  \
         \"metrics_one_region\": {},\n  \"metrics\": {}\n}}\n",
        runs.len(),
        failures.len(),
        runs.iter().filter(|r| r.diverged).count(),
        per_workload.join(",\n"),
        drill.caught,
        drill.replay.replace('"', "'"),
        chaos::trace_metrics_json(runs.iter().filter(|r| r.regions == 1), 2).trim_end(),
        chaos::trace_metrics_json(&runs, 2).trim_end(),
    );
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/chaos.json", json);
    failures.is_empty() && drill.caught
}

/// Parse a seed as printed by the soak table / replay lines: decimal or
/// `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// `harness trace <plan-seed> <workload-seed> [workload]`: replay any
/// chaos run with the flight recorder armed and print the full trace
/// (merged across regions on a multi-region row) and the digest, green
/// or not. Defaults to replaying the seed pair against every workload;
/// name one (as printed in replay lines) to narrow it.
fn run_trace(rest: &[String]) -> bool {
    let names = || chaos::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ");
    let (Some(plan_seed), Some(workload_seed), true) = (
        rest.first().and_then(|s| parse_seed(s)),
        rest.get(1).and_then(|s| parse_seed(s)),
        rest.len() <= 3,
    ) else {
        eprintln!("usage: harness trace <plan-seed> <workload-seed> [workload]");
        eprintln!("workloads: {}", names());
        return false;
    };
    let workloads: Vec<&chaos::Workload> = match rest.get(2) {
        Some(name) => match chaos::Workload::from_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name:?}; expected one of: {}", names());
                return false;
            }
        },
        None => chaos::WORKLOADS.iter().collect(),
    };
    let mut ok = true;
    for w in workloads {
        let r = chaos::trace_one(w, plan_seed, workload_seed);
        println!("=== {} | {}", r.workload, r.replay);
        println!("{}", r.trace_dump.as_deref().unwrap_or("(no events recorded)"));
        println!("event totals: {}", chaos::trace_metrics_json([&r], 6).trim_end());
        println!("regions: {}  digest: {:#018x}", r.regions, r.digest);
        if r.violations.is_empty() {
            println!("verdict: green");
        } else {
            ok = false;
            for v in &r.violations {
                println!("VIOLATION: {v}");
            }
        }
        println!();
    }
    ok
}

/// `harness shard`: the sharded-engine scaling matrix — every world
/// size in [`shard_storm::scaling_matrix`] at every thread count in
/// [`shard_storm::THREAD_SWEEP`]. Digests must agree across thread
/// counts at each size (determinism is not optional in a benchmark
/// that exists to prove it).
fn run_shard() -> bool {
    fresh("shard.txt");
    let mut t = Table::new(
        "SHARD: sharded-engine storm scaling, hosts x worker threads",
        &[
            "hosts",
            "threads",
            "regions",
            "events",
            "delivered",
            "digest",
            "wall (s)",
            "events/sec",
            "speedup",
        ],
    );
    let mut ok = true;
    for (hosts, sim) in shard_storm::scaling_matrix() {
        let mut runs = Vec::new();
        for &threads in &shard_storm::THREAD_SWEEP {
            runs.push(shard_storm::storm(hosts, sim, 42, threads));
        }
        let base = runs[0].events_per_sec;
        for r in &runs {
            if r.digest != runs[0].digest {
                ok = false;
                println!(
                    "DETERMINISM VIOLATION at {hosts} hosts: {} threads -> {:#x}, 1 thread -> {:#x}",
                    r.threads, r.digest, runs[0].digest
                );
            }
            t.row(vec![
                format!("{hosts}"),
                format!("{}", r.threads),
                format!("{}", r.regions),
                format!("{}", r.events),
                format!("{}", r.delivered),
                format!("{:#018x}", r.digest),
                format!("{:.3}", r.wall_seconds),
                format!("{:.0}", r.events_per_sec),
                format!("{:.2}x", r.events_per_sec / base),
            ]);
        }
    }
    t.emit("shard.txt");
    ok
}

/// `harness shard-digest <threads> [seed]`: print the behavioural
/// digest of the fixed [`shard_storm::digest_run`] configuration. The
/// `shard-determinism` gate in `scripts/check.sh` compares the output
/// at 1 and 4 threads byte-for-byte.
fn run_shard_digest(rest: &[String]) -> bool {
    let Some((threads, seed)) = threads_and_seed("shard-digest", rest) else {
        return false;
    };
    println!("{:#018x}", shard_storm::digest_run(threads, seed));
    true
}

/// `harness rcds` (RCDS): register [`rcds_bench::NAMES`] names into the
/// sharded catalog and print resolution throughput with p50/p99 from
/// a log2 latency histogram. The table is wall-clock, so it goes to
/// stdout only: no file under `results/` records it. Fails unless
/// ≥1M names register, every shard group owns some and the latency
/// histogram is populated.
fn run_rcds() -> bool {
    let r = rcds_bench::run(rcds_bench::NAMES);
    let mut t = Table::new(
        "RCDS: sharded metadata plane — 1M-name registration and resolution",
        &["phase", "ops", "ops/sec", "p50 ns", "p99 ns"],
    );
    t.row(vec![
        "register".into(),
        format!("{}", r.names),
        format!("{:.0}", r.register_per_sec),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "resolve (store)".into(),
        format!("{}", r.lookups),
        format!("{:.0}", r.resolve_per_sec),
        format!("{}", r.p50_ns),
        format!("{}", r.p99_ns),
    ]);
    t.row(vec![
        "resolve (client+cache)".into(),
        format!("{}", r.client_lookups),
        format!("{:.0}", r.client_per_sec),
        format!("{}", r.client_p50_ns),
        format!("{}", r.client_p99_ns),
    ]);
    println!("{}", t.render());
    println!(
        "shard balance: min {} / max {} names per shard across {} shards; cache hits {}",
        r.shard_min, r.shard_max, r.shards, r.cache_hits
    );
    let ok = r.names >= 1_000_000 && r.p99_ns > 0 && r.shard_min > 0;
    if !ok {
        eprintln!(
            "rcds bench gate FAILED: names={} p99={} shard_min={}",
            r.names, r.p99_ns, r.shard_min
        );
    }
    ok
}

/// Remove the `results/<file>` a command is about to regenerate
/// ([`Table::emit`] appends).
fn fresh(file: &str) {
    let _ = std::fs::remove_file(format!("results/{file}"));
}

type Command = (&'static str, fn(&[String]) -> bool);

/// Every command besides the [`PAPER`] rows. A command returns `false`
/// on bad operands or a failed gate.
const COMMANDS: &[Command] = &[
    ("chaos", run_chaos),
    // Bounded gate for CI: 2 plans per workload plus the drill.
    ("chaos-smoke", |r| r.is_empty() && chaos_soak(2)),
    ("trace", run_trace),
    ("fec", |r| r.is_empty() && run_fec()),
    ("rcds", |r| r.is_empty() && run_rcds()),
    ("shard", |r| r.is_empty() && run_shard()),
    ("shard-digest", run_shard_digest),
    ("full-proto-digest", run_full_proto_digest),
    ("e4-shard", |r| r.is_empty() && run_e4_shard()),
];

/// What bare `harness` regenerates: the paper's figures and tables, the
/// ablations and the full chaos soak.
fn paper_set() -> Vec<String> {
    PAPER.iter().map(|p| p.0).chain(["chaos"]).map(String::from).collect()
}

/// The command table `harness` dispatches over.
struct Harness {
    paper: &'static [Paper],
    commands: &'static [Command],
}

const HARNESS: Harness = Harness { paper: PAPER, commands: COMMANDS };

impl Harness {
    /// Every command name, paper rows first.
    fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.paper.iter().map(|p| p.0).chain(self.commands.iter().map(|c| c.0))
    }

    /// Split `args` into `(command, operands)` runs: every word naming a
    /// command starts one, the words after it are its operands. `Err`
    /// carries a leading word that names no command.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Vec<(&'a str, &'a [String])>, &'a str> {
        let known = |w: &str| self.names().any(|n| n == w);
        let mut runs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let cmd = Some(args[i].as_str()).filter(|w| known(w)).ok_or(args[i].as_str())?;
            let operands = args[i + 1..].iter().take_while(|w| !known(w)).count();
            runs.push((cmd, &args[i + 1..i + 1 + operands]));
            i += 1 + operands;
        }
        Ok(runs)
    }

    /// Run the command `name`. A paper row takes no operands and
    /// rewrites `results/<name>.txt`.
    fn run(&self, name: &str, operands: &[String]) -> bool {
        let Some((_, table)) = self.paper.iter().find(|p| p.0 == name) else {
            let (_, run) = self.commands.iter().find(|c| c.0 == name).expect("a parsed command");
            return run(operands);
        };
        if let Some(extra) = operands.first() {
            eprintln!("unexpected operand {extra:?}");
            return false;
        }
        let file = format!("{name}.txt");
        fresh(&file);
        table().emit(&file);
        true
    }

    /// Run `args` (the paper set when empty); returns the process exit
    /// code: 0, 1 if a command failed, 2 — with nothing run — if a word
    /// where a command belongs names none.
    fn dispatch(&self, args: &[String]) -> i32 {
        let paper_set = paper_set();
        match self.parse(if args.is_empty() { &paper_set } else { args }) {
            Err(word) => {
                let names: Vec<&str> = self.names().collect();
                eprintln!("unknown command {word:?}; commands: {}", names.join(", "));
                2
            }
            Ok(runs) => {
                let failed = runs.into_iter().filter(|(cmd, operands)| !self.run(cmd, operands));
                i32::from(failed.count() > 0)
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(HARNESS.dispatch(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    static RAN: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Record the call; the fake command named `gate` fails.
    fn note(name: &str, rest: &[String]) -> bool {
        RAN.lock().unwrap().push(format!("{name}{rest:?}"));
        name != "gate"
    }

    const FAKE: Harness = Harness {
        paper: &[],
        commands: &[
            ("chaos", |r| note("chaos", r)),
            ("chaos-smoke", |r| note("chaos-smoke", r)),
            ("e5", |r| note("e5", r)),
            ("gate", |r| note("gate", r)),
        ],
    };

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A typo must not be a vacuous pass: nothing runs, exit code 2 —
    /// wherever a command is expected, not only in first position.
    #[test]
    fn unknown_command_runs_nothing_and_exits_2() {
        assert!(FAKE.parse(&words("chaos-smok")).is_err());
        assert!(HARNESS.parse(&words("chaos-smok")).is_err());
        let before = RAN.lock().unwrap().len();
        assert_eq!(FAKE.dispatch(&words("chaos-smok")), 2);
        assert_eq!(FAKE.dispatch(&words("soak 4")), 2);
        assert_eq!(RAN.lock().unwrap().len(), before, "a command ran");
        // Operands go to the command before them; a failed command is 1.
        assert_eq!(FAKE.dispatch(&words("chaos 4 e5")), 0);
        assert_eq!(FAKE.dispatch(&words("e5 gate")), 1);
        let ran = RAN.lock().unwrap()[before..].join(" ");
        assert_eq!(ran, r#"chaos["4"] e5[] e5[] gate[]"#);
        // Bare `harness` is the paper set, every word of it a command.
        assert_eq!(HARNESS.parse(&paper_set()).map(|runs| runs.len()), Ok(12));
        // A stray operand on an operand-less experiment is refused.
        assert_eq!(HARNESS.dispatch(&words("e5 e55")), 1);
    }

    /// Run in a scratch directory; the process-wide cwd is put back (and
    /// the scratch removed) on drop, so a failed assert restores it too.
    struct Scratch {
        home: std::path::PathBuf,
        dir: std::path::PathBuf,
    }

    impl Scratch {
        fn enter() -> Scratch {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("../../target/tmp/harness-test-{}", std::process::id()));
            std::fs::create_dir_all(dir.join("results")).unwrap();
            let home = std::env::current_dir().unwrap();
            std::env::set_current_dir(&dir).unwrap();
            Scratch { home, dir }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::env::set_current_dir(&self.home);
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// A command regenerates its own files and leaves every other
    /// artefact in `results/` alone. The only test of this binary that
    /// may touch a relative path: the cwd is process-global.
    #[test]
    fn a_command_clears_only_the_files_it_writes() {
        let _scratch = Scratch::enter();
        for f in ["shard.txt", "e6.txt", "e5.txt"] {
            std::fs::write(format!("results/{f}"), "stale").unwrap();
        }
        assert_eq!(HARNESS.dispatch(&words("e5")), 0);
        assert_eq!(std::fs::read_to_string("results/shard.txt").unwrap(), "stale");
        assert_eq!(std::fs::read_to_string("results/e6.txt").unwrap(), "stale");
        let e5 = std::fs::read_to_string("results/e5.txt").unwrap();
        assert!(e5.starts_with("== E5") && !e5.contains("stale"), "{e5}");
    }

    /// DESIGN.md's experiment index cites only this binary: every code
    /// span of its "Bench target" column is `harness <cmd> …` for a row
    /// of [`PAPER`] or [`COMMANDS`], and the text between spans is
    /// separators and parenthesised notes, never the name of another
    /// tool.
    #[test]
    fn design_index_cites_only_harness_commands() {
        let design = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
        let design = std::fs::read_to_string(design).unwrap();
        let rows: Vec<&str> = design
            .lines()
            .skip_while(|l| !l.ends_with("| Bench target |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        assert!(rows.len() >= 12, "experiment index not found in DESIGN.md");
        for row in rows {
            let cell = row.trim_end_matches('|').rsplit('|').next().unwrap();
            let mut cited = 0;
            for (i, part) in cell.split('`').enumerate() {
                if i % 2 == 1 {
                    let cmd = part.strip_prefix("harness ").and_then(|c| c.split(' ').next());
                    assert!(
                        cmd.is_some_and(|c| HARNESS.names().any(|n| n == c)),
                        "`{part}` names no harness command: {row}"
                    );
                    cited += 1;
                } else {
                    // Even pieces lie outside the parenthesised notes.
                    let mut outside = part.split(['(', ')']).step_by(2);
                    assert!(
                        outside.all(|s| s.trim_matches([',', ' ']).is_empty()),
                        "{part:?} cites something other than a harness command: {row}"
                    );
                }
            }
            assert!(cited > 0, "no harness command cited: {row}");
        }
    }

    /// The cheap paper tables regenerate byte for byte: a change that
    /// moves anything simulated under them, or a committed table left
    /// stale, fails here rather than at the next hand-run `harness`.
    #[test]
    fn cheap_paper_tables_match_the_committed_results() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for name in ["e2", "e5", "e6", "e7", "e8", "a1", "a2"] {
            let (_, table) = PAPER.iter().find(|p| p.0 == name).expect("a paper row");
            let committed = std::fs::read_to_string(results.join(format!("{name}.txt"))).unwrap();
            // `Table::emit` ends the file with a blank line.
            assert_eq!(format!("{}\n", table().render()), committed, "results/{name}.txt");
        }
    }
}
