//! Structural properties of chaos plans for every row of the workload
//! table (LAN and campus placements alike).
//!
//! These run the *generator and minimizer* over many seeds, not full
//! simulations, so they are cheap enough for tier-1. The contracts:
//! plans are pure functions of their seed, faults respect the shape's
//! horizon discipline (start after 5%, quiesce by 90%), packet-chaos
//! levels stay under the shape's ceilings, and the greedy shrinker
//! reaches a fixpoint where every surviving op is load-bearing.

use proptest::{prop_assert, prop_assert_eq, proptest};
use snipe_bench::chaos::{Workload, WORKLOADS};
use snipe_netsim::chaos::{shrink_plan, ChaosOp, ChaosPlan};
use snipe_util::time::SimTime;

fn op_start(op: &ChaosOp) -> SimTime {
    match *op {
        ChaosOp::HostFlap { at, .. }
        | ChaosOp::NetFlap { at, .. }
        | ChaosOp::IfaceFlap { at, .. }
        | ChaosOp::Gray { at, .. }
        | ChaosOp::LossBurst { at, .. }
        | ChaosOp::Partition { at, .. }
        | ChaosOp::ProcRestart { at, .. } => at,
    }
}

proptest! {
    #[test]
    fn plans_are_pure_functions_of_their_seed(seed in proptest::any::<u32>()) {
        for w in &WORKLOADS {
            let shape = w.shape();
            let a = ChaosPlan::generate(seed as u64, &shape);
            let b = ChaosPlan::generate(seed as u64, &shape);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.packet_seed(), b.packet_seed());
        }
    }

    #[test]
    fn every_workload_shape_respects_horizon_discipline(seed in proptest::any::<u32>()) {
        for w in &WORKLOADS {
            let shape = w.shape();
            let plan = ChaosPlan::generate(seed as u64, &shape);
            let h = shape.horizon.as_nanos();
            let lo = SimTime::from_nanos((h as f64 * 0.05) as u64);
            let hi = SimTime::from_nanos((h as f64 * 0.9) as u64);
            prop_assert!(!plan.ops.is_empty());
            prop_assert!(plan.ops.len() <= shape.max_ops as usize);
            for op in &plan.ops {
                prop_assert!(op_start(op) >= lo, "{}: op starts too early: {op:?}", w.name);
            }
            // Quiesce covers both the last op end and packet cutoff.
            prop_assert!(
                plan.quiesce_at() <= hi.max(plan.packet_until),
                "{}: plan quiesces too late",
                w.name
            );
            if let Some(pc) = plan.packet {
                prop_assert!(pc.corrupt <= shape.corrupt_max);
                prop_assert!(pc.duplicate <= shape.duplicate_max);
                prop_assert!(pc.reorder <= shape.reorder_max);
                prop_assert!(pc.jitter <= shape.jitter_max);
            }
        }
    }

    #[test]
    fn mcast_shape_never_generates_corruption(seed in proptest::any::<u32>()) {
        // The multicast contract: duplication/reordering only — a
        // corrupt-capable plan would make the distinct-delivery oracle
        // unsound, wherever the group is staged.
        for name in ["mcast", "mcast@campus"] {
            let shape = Workload::from_name(name).expect("table row").shape();
            if let Some(pc) = ChaosPlan::generate(seed as u64, &shape).packet {
                prop_assert_eq!(pc.corrupt, 0.0);
            }
        }
    }

    #[test]
    fn shrinker_reaches_a_load_bearing_fixpoint(seed in proptest::any::<u32>()) {
        // Synthetic failure predicate: "fails iff ≥2 net-level ops
        // remain". The shrunk plan must sit exactly on the boundary.
        let shape = Workload::from_name("srudp-transfer@campus").expect("table row").shape();
        let plan = ChaosPlan::generate(seed as u64, &shape);
        let net_ops = |p: &ChaosPlan| {
            p.ops
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        ChaosOp::NetFlap { .. }
                            | ChaosOp::Gray { .. }
                            | ChaosOp::LossBurst { .. }
                            | ChaosOp::Partition { .. }
                    )
                })
                .count()
        };
        if net_ops(&plan) >= 2 {
            let min = shrink_plan(plan, |p| net_ops(p) >= 2);
            prop_assert_eq!(net_ops(&min), 2);
            prop_assert_eq!(min.ops.len(), 2, "non-culprit ops all dropped: {:?}", min.ops);
            prop_assert_eq!(min.packet, None, "irrelevant packet chaos cleared");
        }
    }
}
