//! `benchmark selftest`: does the benchmark measure?
//!
//! Without touching the program, a calibrated busy-wait is injected
//! into the benchmark's own wrapper around one layer's calls
//! ([`crate::layers::inject`]); `ops_per_s` must fall by the amount the
//! injected time predicts on the workload that exercises the layer,
//! and stay within its bound on a workload that bypasses it. This is
//! the only place the injection is ever turned on.

use std::process::ExitCode;

use crate::layers::{injection_overhead_ns, set_injection, take_injected, Layer};
use crate::run::{build, timed_passes, timed_passes_from};
use crate::schema::END_TO_END;
use crate::stats::median;
use crate::workloads::storm;

/// Passes per arm (baseline, injected).
const PASSES: usize = 6;
/// How far the measured ratio may sit from the predicted one.
const TOLERANCE: f64 = 0.12;

struct Case {
    layer: Layer,
    layer_name: &'static str,
    wait_ns: u64,
    workload: &'static str,
    /// Does the workload call into the layer?
    target: bool,
}

const fn case(
    layer: Layer,
    layer_name: &'static str,
    wait_ns: u64,
    workload: &'static str,
    target: bool,
) -> Case {
    Case { layer, layer_name, wait_ns, workload, target }
}

const CASES: [Case; 7] = [
    case(Layer::Netsim, "netsim", 100, "storm", true),
    case(Layer::Netsim, "netsim", 100, "wire-small", false),
    case(Layer::Wire, "wire", 1_000, "wire-small", true),
    case(Layer::Wire, "wire", 2_000, "wire-bulk", true),
    case(Layer::Wire, "wire", 1_000, "storm", false),
    case(Layer::Rcds, "rcds", 2_000, "names", true),
    case(Layer::Rcds, "rcds", 2_000, "wire-small", false),
];

/// Engine threads the injected waits are spread over.
fn threads(workload: &str) -> f64 {
    if workload == "storm" {
        storm::THREADS as f64
    } else {
        1.0
    }
}

/// Run every case and print the table (markdown). Fails if a target
/// workload does not respond as predicted or a bypass workload moves.
pub fn run(seed: u64) -> ExitCode {
    let bound = END_TO_END.iter().find(|m| m.name == "ops_per_s").expect("ops_per_s").bound;
    println!(
        "| layer slowed | wait/call | workload | role | base ops/s | slowed ops/s | measured ratio | predicted ratio | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    let per_wait_ns = injection_overhead_ns();
    for c in &CASES {
        let (mut w, _) = build(c.workload, seed);
        let rate = |ps: &[crate::run::TimedPass]| {
            median(&ps.iter().map(crate::run::TimedPass::rate).collect::<Vec<_>>())
        };
        // One discarded pass, then plain and slowed passes alternate, so
        // drift in the machine or the workload hits both arms alike.
        timed_passes(w.as_mut(), 1);
        let (mut base, mut slowed, mut predicted) = (Vec::new(), Vec::new(), Vec::new());
        for k in 1..=2 * PASSES {
            let inject = k % 2 == 0;
            set_injection(c.layer, if inject { c.wait_ns } else { 0 });
            take_injected();
            let p = timed_passes_from(w.as_mut(), k, k + 1).remove(0);
            if inject {
                // What the pass would have cost without the injected
                // waits, as a share of what it did cost.
                let (inside_ns, waits) = take_injected();
                let injected_s =
                    (inside_ns as f64 + waits as f64 * per_wait_ns) / 1e9 / threads(c.workload);
                predicted.push((p.wall_s - injected_s).max(0.0) / p.wall_s);
                slowed.push(p);
            } else {
                base.push(p);
            }
        }
        set_injection(c.layer, 0);
        let (base_rate, slow_rate) = (rate(&base), rate(&slowed));
        let measured = slow_rate / base_rate;
        let predicted = median(&predicted);
        let ok = if c.target {
            (measured - predicted).abs() <= TOLERANCE && measured < 1.0 - TOLERANCE
        } else {
            (measured - 1.0).abs() <= bound && predicted > 0.999
        };
        failures += !ok as u32;
        println!(
            "| {} | {} ns | {} | {} | {:.0} | {:.0} | {:.3} | {:.3} | {} |",
            c.layer_name,
            c.wait_ns,
            c.workload,
            if c.target { "exercises it" } else { "bypasses it" },
            base_rate,
            slow_rate,
            measured,
            predicted,
            match (ok, c.target) {
                (true, true) => "responds as predicted",
                (true, false) => "unmoved",
                (false, true) => "DOES NOT RESPOND AS PREDICTED",
                (false, false) => "MOVED",
            }
        );
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
