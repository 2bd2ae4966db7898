//! `benchmark compare A B`: is B worse than A?
//!
//! `A` and `B` are directories of run records (`--record` files, as
//! `run.sh` writes them), at least five untraced runs per workload
//! each. One row per workload × end-to-end metric: both medians and
//! quartiles, the change in the metric's bad direction, and a label.
//!
//! * `regressed` — B's median is worse than A's by more than the bound.
//! * `unresolved` — it is not, but a side's own run-to-run spread
//!   (quartile distance ÷ median) exceeds the bound, so "no
//!   regression" cannot be claimed either.
//! * `ok` — otherwise.
//!
//! Counted and simulated metrics are deterministic functions of the
//! seed. When both sets ran the same seeds they are compared seed by
//! seed against their tight tolerance (0 for `op_ok_ratio`, 1 % for
//! allocation counts, 0.5 % for simulated values) instead of the
//! cross-seed bound: a change that claims a speed-up must leave every
//! one of them where it was.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::schema::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

/// Runs per workload a set needs before medians mean anything.
const MIN_RUNS: usize = 5;

/// `workload → metric → seed → value` for the untraced records in `dir`.
type Set = BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>>;

fn load(dir: &str) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rec = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if rec.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let (Some(workload), Some(seed), Some(metrics)) = (
            rec.get("workload").and_then(Json::as_str),
            rec.get("seed").and_then(Json::as_f64),
            rec.get("metrics"),
        ) else {
            return Err(format!("{}: not a run record", path.display()));
        };
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .insert(seed as u64, v);
            }
        }
    }
    Ok(set)
}

/// Change of `b` against `a` in the metric's bad direction, as a share
/// of `a` (positive = worse).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = if m.better == "lower" { b - a } else { a - b };
    if delta.abs() <= m.floor {
        0.0
    } else {
        delta / a.abs().max(f64::MIN_POSITIVE)
    }
}

fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE)
}

/// Label one workload × metric row.
fn judge(m: &EndToEnd, a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> (&'static str, f64) {
    let (va, vb): (Vec<f64>, Vec<f64>) =
        (a.values().copied().collect(), b.values().copied().collect());
    let same_seeds = a.keys().eq(b.keys());
    if let (Some(tol), true) = (m.exact, same_seeds) {
        let worst = a.iter().map(|(seed, x)| worsening(m, *x, b[seed])).fold(f64::MIN, f64::max);
        return (if worst > tol { "regressed" } else { "ok" }, worst);
    }
    let w = worsening(m, median(&va), median(&vb));
    let label = if w > m.bound {
        "regressed"
    } else if spread(&va).max(spread(&vb)) > m.bound {
        "unresolved"
    } else {
        "ok"
    };
    (label, w)
}

/// Compare result set `b` against `a`; non-zero exit if anything regressed.
pub fn run(a_dir: &str, b_dir: &str) -> ExitCode {
    let (a, b) = match (load(a_dir), load(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<11} {:<28} {:>14} {:>24} {:>14} {:>24} {:>8}  label",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse %"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for w in WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w), b.get(w)) else {
            eprintln!("benchmark compare: workload {w} missing from a set");
            return ExitCode::from(2);
        };
        for m in &END_TO_END {
            let (Some(xa), Some(xb)) = (ma.get(m.name), mb.get(m.name)) else {
                eprintln!("benchmark compare: {w}/{} missing from a set", m.name);
                return ExitCode::from(2);
            };
            if xa.len() < MIN_RUNS || xb.len() < MIN_RUNS {
                eprintln!(
                    "benchmark compare: {w} has {} and {} runs; need {MIN_RUNS} per set",
                    xa.len(),
                    xb.len()
                );
                return ExitCode::from(2);
            }
            let (va, vb): (Vec<f64>, Vec<f64>) =
                (xa.values().copied().collect(), xb.values().copied().collect());
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let (label, worse) = judge(m, xa, xb);
            regressed += (label == "regressed") as u32;
            unresolved += (label == "unresolved") as u32;
            println!(
                "{:<11} {:<28} {:>14.6} {:>24} {:>14.6} {:>24} {:>8.2}  {label}",
                w,
                m.name,
                median(&va),
                format!("[{:.5}, {:.5}]", qa.0, qa.1),
                median(&vb),
                format!("[{:.5}, {:.5}]", qb.0, qb.1),
                worse * 100.0,
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(vals: &[f64]) -> BTreeMap<u64, f64> {
        vals.iter().enumerate().map(|(i, v)| (i as u64, *v)).collect()
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("known metric")
    }

    #[test]
    fn labels() {
        let ops = metric("ops_per_s");
        let steady = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = runs(&[70.0, 71.0, 69.0, 70.5, 69.5]);
        let noisy = runs(&[100.0, 140.0, 60.0, 120.0, 80.0]);
        assert_eq!(judge(ops, &steady, &steady).0, "ok");
        assert_eq!(judge(ops, &steady, &slower).0, "regressed");
        assert_eq!(judge(ops, &slower, &steady).0, "ok");
        assert_eq!(judge(ops, &steady, &noisy).0, "unresolved");
        // Same seeds: simulated metrics are held to their tight tolerance.
        let ev = metric("events_per_op");
        let base = runs(&[3.0, 3.1, 3.2, 3.3, 3.4]);
        let drifted = runs(&[3.0, 3.1, 3.25, 3.3, 3.4]);
        assert_eq!(judge(ev, &base, &base).0, "ok");
        assert_eq!(judge(ev, &base, &drifted).0, "regressed");
    }
}
