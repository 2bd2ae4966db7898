//! The traced run: every per-layer metric, from outside the program.
//!
//! For each workload it runs a short untraced reference (3 passes),
//! then sets the same world up again from the same seed and re-runs
//! the first two passes with the span tracer on and the third with it
//! off. The two replays must agree bit for bit in everything simulated
//! (the replay oracle); the traced passes' wall time against the
//! reference's, normalised by the untraced third pass of both worlds,
//! is the tracing overhead; the span table gives per-call and self
//! times. Span logs are written to `<out>/trace-<workload>.json` after
//! all timing is over.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::probes;
use crate::run::{pass_wall_cv, timed_passes, timed_passes_from, TimedPass};
use crate::schema::PER_LAYER;
use crate::stats::quantile_sorted;
use crate::trace::{self, Report, Sp};
use crate::workloads::campus::{self, Campus, KINDS};
use crate::workloads::names::{self, Names};
use crate::workloads::storm::{self, EngineKind, Storm};
use crate::workloads::wire::{Class, Wire, WireKind};
use crate::workloads::{PassStats, Workload};

/// Reference passes (untraced) and traced passes per workload.
const REF_PASSES: usize = 3;
const TRACED_PASSES: usize = 2;
/// Spans retained per trace file (the per-name table covers all).
const LOG_CAP: usize = 20_000;
/// The run fails if the benchmark's own code takes a larger share of
/// the busy host time than this: the numbers would measure the generator.
const MAX_GENERATOR_SHARE: f64 = 0.20;

/// What the traced run produced.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

struct Pair<W> {
    reference: Vec<TimedPass>,
    traced: Vec<TimedPass>,
    /// The traced world's last pass, run with the tracer off.
    tail: Vec<TimedPass>,
    report: Report,
    /// The traced world, for counters.
    world: W,
    /// Benchmark-own host ns on engine worker threads while traced.
    worker_ns: f64,
}

impl Traced {
    fn put(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    /// Run the reference and the traced replay of one workload and
    /// record what is common to all: overhead, noise, generator share,
    /// the replay oracle, counter-derived layer metrics.
    fn pair<W: Workload>(
        &mut self,
        name: &str,
        cal: (f64, f64),
        build: impl Fn() -> (W, PassStats),
        sample: impl Fn(bool),
        threaded: bool,
    ) -> Pair<W> {
        let (mut a, warm_a) = build();
        let reference = timed_passes(&mut a, REF_PASSES);
        self.violations.extend(a.final_check());
        drop(a);

        let (mut b, warm_b) = build();
        if warm_a != warm_b {
            self.violations.push(format!("{name}: warm-up did not replay bit for bit"));
        }
        b.worker_generator_ns(); // discard what set-up accumulated
        sample(true);
        trace::start(LOG_CAP);
        let traced = timed_passes(&mut b, TRACED_PASSES);
        let report = trace::finish(cal);
        sample(false);
        let worker_ns = b.worker_generator_ns();
        // One more pass untraced: how this world's speed compares with
        // the reference world's, tracing aside.
        let tail = timed_passes_from(&mut b, TRACED_PASSES, REF_PASSES);
        for (k, (t, r)) in traced.iter().chain(&tail).zip(&reference).enumerate() {
            if t.stats != r.stats {
                self.violations.push(format!(
                    "{name}: pass {k} did not replay bit for bit ({:#x} vs {:#x})",
                    t.stats.digest(),
                    r.stats.digest()
                ));
            }
        }
        for p in reference.iter().chain(&traced) {
            self.attempted += p.stats.attempted;
            self.failed += p.stats.attempted - p.stats.ok;
        }
        let wall = |ps: &[TimedPass]| ps.iter().map(|p| p.wall_s).sum::<f64>();
        let world_ratio = wall(&tail) / wall(&reference[TRACED_PASSES..]);
        self.put(
            &format!("bench.trace_overhead_ratio.{name}"),
            wall(&traced) / wall(&reference[..TRACED_PASSES]) / world_ratio,
        );
        self.put(&format!("bench.pass_wall_cv.{name}"), pass_wall_cv(&reference));
        let share = if threaded {
            worker_ns / traced.iter().map(|p| p.cpu_ns as f64).sum::<f64>()
        } else {
            (report.self_ns(Sp::BenchPass) + report.self_ns(Sp::BenchActor))
                / report.total_ns(Sp::BenchPass)
        };
        self.put(&format!("bench.generator_share.{name}"), share);
        if share > MAX_GENERATOR_SHARE {
            self.violations.push(format!(
                "{name}: the benchmark's own code took {:.1}% of busy host time (limit {:.0}%)",
                share * 100.0,
                MAX_GENERATOR_SHARE * 100.0
            ));
        }
        let mut counters = Vec::new();
        b.layer_metrics(&mut counters);
        for (k, v) in counters {
            // Two workloads feed these: keep the worse.
            let v = match self.metrics.get(&k) {
                Some(old) if k.ends_with("_hwm") => old.max(v),
                Some(old) if k.ends_with("drops") => old + v,
                _ => v,
            };
            self.metrics.insert(k, v);
        }
        Pair { reference, traced, tail, report, world: b, worker_ns }
    }
}

fn write_trace(out: &Path, name: &str, report: &Report, extra: Vec<(String, Json)>) {
    let path = out.join(format!("trace-{name}.json"));
    let text = report.to_json(name, extra).render();
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }
}

fn sum<T>(ps: &[TimedPass], f: impl Fn(&TimedPass) -> T) -> T
where
    T: std::iter::Sum<T>,
{
    ps.iter().map(f).sum()
}

/// Run the whole traced run for `seed`, writing trace files to `out`.
pub fn run(seed: u64, out: &Path) -> Traced {
    let mut t =
        Traced { metrics: BTreeMap::new(), violations: Vec::new(), attempted: 0, failed: 0 };
    let cal = trace::calibrate();
    let cal_extra = || vec![("seed".to_string(), Json::Num(seed as f64))];

    // --- direct probes -----------------------------------------------------
    trace::start(LOG_CAP);
    for (k, v) in probes::run(seed, cal.0 + cal.1) {
        t.put(&k, v);
    }
    write_trace(out, "probes", &trace::finish(cal), cal_extra());

    // --- storm -------------------------------------------------------------
    {
        let p = t.pair(
            "storm",
            cal,
            || Storm::build(seed, EngineKind::Sharded(storm::THREADS)),
            Storm::sample_actors,
            true,
        );
        let events = sum(&p.reference, |x| x.stats.events) as f64;
        let wall = sum(&p.reference, |x| x.wall_s);
        let cpu = sum(&p.reference, |x| x.cpu_ns) as f64;
        t.put("netsim.shard.ns_per_event", wall * 1e9 / events);
        t.put("netsim.shard.cpu_ns_per_event", cpu / events);
        t.put("netsim.shard.events_per_s", events / wall);
        // The same storm on one inline thread and on the serial engine.
        let one_pass = |kind| {
            let (mut w, _) = Storm::build(seed, kind);
            let ps = timed_passes(&mut w, 1);
            (ps[0].wall_s, ps[0].stats.events as f64, ps[0].stats.clone())
        };
        let (t1_wall, t1_events, t1_stats) = one_pass(EngineKind::Sharded(1));
        if t1_stats != p.reference[0].stats {
            t.violations.push("storm: 1-thread pass 0 differs from the 2-thread pass 0".into());
        }
        t.put("netsim.shard.t1.ns_per_event", t1_wall * 1e9 / t1_events);
        t.put("netsim.shard.speedup_t2_over_t1", t1_wall / p.reference[0].wall_s);
        let (w_wall, w_events, _) = one_pass(EngineKind::Serial);
        t.put("netsim.world.ns_per_event", w_wall * 1e9 / w_events);
        let extra = vec![
            ("seed".to_string(), Json::Num(seed as f64)),
            ("sampled_actor_self_ns".to_string(), Json::Num(p.worker_ns)),
        ];
        write_trace(out, "storm", &p.report, extra);
    }

    // --- wire-small ----------------------------------------------------------
    {
        let base = std::cell::Cell::new([(0u64, 0u64); 3]);
        let p = t.pair(
            "wire-small",
            cal,
            || {
                let (w, warm) = Wire::build(seed, WireKind::Small);
                base.set(class_totals(&w));
                (w, warm)
            },
            |_| {},
            false,
        );
        let r = &p.report;
        let sends = r.calls(Sp::WireSend) + r.calls(Sp::WireRstreamSend);
        t.put(
            "wire.send.ns_per_call",
            (r.total_ns(Sp::WireSend) + r.total_ns(Sp::WireRstreamSend)) / sends.max(1) as f64,
        );
        t.put("wire.on_datagram.ns_per_call", r.ns_per_call(Sp::WireOnDatagram));
        t.put("wire.on_timer.ns_per_call", r.ns_per_call(Sp::WireOnTimer));
        t.put("wire.drain.ns_per_call", r.ns_per_call(Sp::WireDrain));
        let now = class_totals(&p.world);
        for (class, label) in [(Class::Srudp, "srudp"), (Class::Rstream, "rstream")] {
            let msgs = (now[class as usize].0 - base.get()[class as usize].0).max(1) as f64;
            let (ns, allocs) = r.tagged(class as usize, "wire.");
            t.put(&format!("wire.{label}.ns_per_msg"), ns / msgs);
            t.put(&format!("wire.{label}.allocs_per_msg"), allocs as f64 / msgs);
        }
        write_trace(out, "wire-small", r, cal_extra());
    }

    // --- wire-bulk -----------------------------------------------------------
    {
        let base = std::cell::Cell::new([(0u64, 0u64); 3]);
        let p = t.pair(
            "wire-bulk",
            cal,
            || {
                let (w, warm) = Wire::build(seed, WireKind::Bulk);
                base.set(class_totals(&w));
                (w, warm)
            },
            |_| {},
            false,
        );
        let now = class_totals(&p.world);
        for (class, label) in
            [(Class::Srudp, "plain"), (Class::SrudpFec, "fec"), (Class::Rstream, "rstream")]
        {
            let bytes = (now[class as usize].1 - base.get()[class as usize].1) as f64;
            let (ns, _) = p.report.tagged(class as usize, "wire.");
            t.put(&format!("wire.bulk.{label}.mb_s"), bytes / 1e6 / (ns / 1e9).max(1e-9));
        }
        write_trace(out, "wire-bulk", &p.report, cal_extra());
    }

    // --- names -----------------------------------------------------------------
    {
        let p = t.pair("names", cal, || Names::build(seed), |_| {}, false);
        let r = &p.report;
        t.put("rcds.client.get.ns_per_call", r.ns_per_call(Sp::RcGet));
        t.put("rcds.client.put.ns_per_call", r.ns_per_call(Sp::RcPut));
        t.put("rcds.client.on_packet.ns_per_call", r.ns_per_call(Sp::RcOnPacket));
        t.put(
            "rcds.server.on_event.ns_per_call",
            r.self_ns(Sp::RcServerOnEvent) / r.calls(Sp::RcServerOnEvent).max(1) as f64,
        );
        let ops = sum(&p.traced, |x| x.stats.ok).max(1) as f64;
        let events = sum(&p.traced, |x| x.stats.events).max(1) as f64;
        t.put("rcds.allocs_per_op", r.self_allocs_prefix("rcds.") as f64 / ops);
        t.put("netsim.world.ns_per_event.names", r.self_ns(Sp::WorldRunFor) / events);
        let extra = vec![
            ("seed".to_string(), Json::Num(seed as f64)),
            ("setup_converge_s".to_string(), Json::Num(p.world.converge_s)),
            ("catalog_names".to_string(), Json::Num(names::NAMES as f64)),
        ];
        write_trace(out, "names", r, extra);
    }

    // --- campus ----------------------------------------------------------------
    {
        let base = std::cell::Cell::new(((0u64, 0u64), 0u64));
        let mut p = t.pair(
            "campus",
            cal,
            || {
                let (w, warm) = Campus::build(seed);
                base.set((w.service_counts(), w.datagrams()));
                (w, warm)
            },
            Campus::sample_processes,
            true,
        );
        // Counters cover every pass the traced world ran, so rates do too.
        let ran: Vec<TimedPass> = p.traced.iter().chain(&p.tail).cloned().collect();
        let ops = sum(&ran, |x| x.stats.ok).max(1) as f64;
        let events = sum(&ran, |x| x.stats.events) as f64;
        let wall = sum(&ran, |x| x.wall_s);
        let virt = TRACED_PASSES as f64 * campus::virtual_seconds_per_pass();
        let ref_wall: f64 = p.reference.iter().take(TRACED_PASSES).map(|x| x.wall_s).sum();
        let ((grants0, spawns0), sent0) = base.get();
        let (grants, spawns) = p.world.service_counts();
        t.put("campus.host_s_per_virtual_s", ref_wall / virt);
        t.put("campus.events_per_op", events / ops);
        t.put("campus.datagrams_per_op", (p.world.datagrams() - sent0) as f64 / ops);
        // The flight recorder was mirrored only while sampling was on.
        let sampled_ops = sum(&p.traced, |x| x.stats.ok).max(1) as f64;
        t.put("campus.srudp.retransmits_per_op", p.world.retransmits() as f64 / sampled_ops);
        t.put("rm.grants_per_s", (grants - grants0) as f64 / wall);
        t.put("daemon.spawns_per_s", (spawns - spawns0) as f64 / wall);
        // Per-kind simulated latency, pooled over the traced world's
        // warm-up and passes.
        let mut by_kind: Vec<Vec<u64>> = vec![Vec::new(); KINDS.len()];
        for &(k, ns) in &p.world.lat_log {
            by_kind[k as usize].push(ns);
        }
        for (i, (_, label, _)) in KINDS.iter().enumerate() {
            by_kind[i].sort_unstable();
            t.put(
                &format!("core.op.{label}.virtual_us_p50"),
                quantile_sorted(&by_kind[i], 0.5) / 1e3,
            );
        }
        let read = &by_kind[campus::Kind::ReadFile as usize];
        let read_s = read.iter().sum::<u64>() as f64 / 1e9;
        t.put(
            "files.read.virtual_mb_s",
            read.len() as f64 * campus::FILE_LEN as f64 / 1e6 / read_s.max(1e-9),
        );
        t.put("files.fetch.refetch_ratio", p.world.striped_fetch_probe());
        // The same two passes on two engine threads: the coordination
        // tax on the full stack (noisy on shared boxes; never gated).
        let (mut two, _) = Campus::build_on(seed, 2);
        let t2 = timed_passes(&mut two, TRACED_PASSES);
        if t2.iter().zip(&p.reference).any(|(a, b)| a.stats != b.stats) {
            t.violations.push("campus: 2-thread passes differ from the 1-thread passes".into());
        }
        t.put("campus.t2_over_t1_wall", sum(&t2, |x| x.wall_s) / ref_wall);
        let extra = vec![
            ("seed".to_string(), Json::Num(seed as f64)),
            ("process_callback_ns".to_string(), Json::Num(p.worker_ns)),
        ];
        write_trace(out, "campus", &p.report, extra);
    }

    for m in PER_LAYER {
        if !t.metrics.contains_key(m.name) {
            t.violations.push(format!("traced run did not produce per-layer metric {}", m.name));
        }
    }
    t
}

fn class_totals(w: &Wire) -> [(u64, u64); 3] {
    [Class::Srudp, Class::Rstream, Class::SrudpFec].map(|c| w.class_totals(c))
}
