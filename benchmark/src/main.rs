//! The SNIPE reproduction's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--record <file>]
//! benchmark compare <dir-A> <dir-B>
//! benchmark selftest [--seed <n>]
//! benchmark schema [--markdown]
//! ```

mod compare;
mod hostspeed;
mod json;
mod layers;
mod probe;
mod probes;
mod run;
mod schema;
mod selftest;
mod stats;
mod trace;
mod tracerun;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Engine worker threads `storm` needs to be a 2-thread measurement.
const MIN_CPUS: usize = 2;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--record <file>]\n  benchmark compare <dir-A> <dir-B>\n  benchmark selftest [--seed <n>]\n  benchmark schema [--markdown]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 1997,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => r.workload = value.clone(),
            "--seed" => r.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => r.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                r.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => r.out = PathBuf::from(value),
            "--record" => r.record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&r.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(r.seconds > 0.0 && r.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(r)
}

fn metrics_json(metrics: &[(String, String, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                let body = vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ];
                (name.clone(), Json::Obj(body))
            })
            .collect(),
    )
}

fn run_cmd(a: RunArgs) -> ExitCode {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < MIN_CPUS {
        eprintln!("benchmark: {cpus} CPU available; the 2-thread storm needs {MIN_CPUS}");
        return ExitCode::from(2);
    }
    let (metrics, attempted, failed, violations, passes) = if a.trace {
        // Every traced run covers all five workloads, because it must
        // print every per-layer metric; `--workload` is recorded only.
        let t = tracerun::run(a.seed, &a.out);
        let metrics: Vec<(String, String, f64)> = schema::PER_LAYER
            .iter()
            .filter_map(|m| t.metrics.get(m.name).map(|v| (m.name.into(), m.unit.into(), *v)))
            .collect();
        (metrics, t.attempted, t.failed, t.violations, Vec::new())
    } else {
        let r = run::run_untraced(&a.workload, a.seed, a.seconds);
        let metrics = run::end_to_end(&r)
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u.to_string(), v))
            .collect();
        let attempted: u64 = r.passes.iter().map(|p| p.stats.attempted).sum();
        let ok: u64 = r.passes.iter().map(|p| p.stats.ok).sum();
        let (_, _, samples) = workloads::pooled_latency_us(r.passes.iter().map(|p| &p.stats));
        eprintln!(
            "{}: seed {} · set-ups {:.3?} s as clocked · {} replays × {} timed passes · {} ops · {} latency samples · pass wall cv {:.3} · host slowdown {:.3}",
            a.workload,
            a.seed,
            r.setups_raw_s,
            run::REPLAYS,
            r.per_replay,
            attempted,
            samples,
            run::pass_wall_cv(&r.passes),
            stats::median(&r.passes.iter().map(|p| p.slowdown).collect::<Vec<_>>())
        );
        let walls = r.passes.iter().map(|p| (p.wall_s, p.slowdown)).collect();
        (metrics, attempted, attempted - ok, r.violations, walls)
    };
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<44} {value:>18.6} {unit}");
    }
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    let correct =
        failed == 0 && violations.is_empty() && metrics.iter().all(|(_, _, v)| v.is_finite());
    let result = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted.max(1) as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), metrics_json(&metrics)),
    ];
    if let Some(path) = &a.record {
        let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_default());
        let mut rec = vec![
            ("workload".to_string(), Json::Str(a.workload.clone())),
            ("seed".to_string(), Json::Num(a.seed as f64)),
            ("seconds".to_string(), Json::Num(a.seconds)),
            ("trace".to_string(), Json::Bool(a.trace)),
            ("nproc".to_string(), Json::Num(cpus as f64)),
            ("rustc".to_string(), env("BENCH_RUSTC")),
            ("commit".to_string(), env("BENCH_COMMIT")),
            ("passes".to_string(), Json::Num(passes.len() as f64)),
            ("pass_wall_s".to_string(), Json::Arr(passes.iter().map(|w| Json::Num(w.0)).collect())),
            (
                "pass_host_slowdown".to_string(),
                Json::Arr(passes.iter().map(|w| Json::Num(w.1)).collect()),
            ),
            (
                "violations".to_string(),
                Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect()),
            ),
        ];
        rec.extend(result.clone());
        if let Err(e) = std::fs::write(path, Json::Obj(rec).render() + "\n") {
            eprintln!("benchmark: could not write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", Json::Obj(result).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("schema") => {
            if args.get(1).map(String::as_str) == Some("--markdown") {
                print!("{}", schema::per_layer_markdown());
            } else {
                print!("{}", schema::benchmark_json());
            }
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("selftest") => {
            let seed = match args.get(1).map(String::as_str) {
                Some("--seed") => args.get(2).and_then(|s| s.parse().ok()),
                None => Some(1997),
                _ => None,
            };
            seed.map_or_else(usage, selftest::run)
        }
        Some(flag) if flag.starts_with("--") => match parse_run(&args) {
            Ok(a) => run_cmd(a),
            Err(e) => {
                eprintln!("benchmark: {e}");
                usage()
            }
        },
        _ => usage(),
    }
}
