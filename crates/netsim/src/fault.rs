//! Failure injection: crash/repair processes for availability studies.
//!
//! The paper's §6 claims the replicated testbed "maintained an almost
//! perfect level of availability" from autumn 1997. Experiments E3/E8
//! reproduce that statistically: hosts fail and recover following
//! exponential inter-arrival processes, and we measure the fraction of
//! operations that still succeed.

use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};

use crate::shard::FaultCmd;
use crate::world::World;

/// Parameters of a crash/repair renewal process.
#[derive(Clone, Copy, Debug)]
pub struct FailureModel {
    /// Mean time between failures per host.
    pub mtbf: SimDuration,
    /// Mean time to repair.
    pub mttr: SimDuration,
}

impl FailureModel {
    /// Steady-state availability of a single host under this model.
    pub fn single_host_availability(&self) -> f64 {
        let up = self.mtbf.as_secs_f64();
        let down = self.mttr.as_secs_f64();
        up / (up + down)
    }
}

/// Pre-computed (deterministic) schedule of crash/repair events for one
/// host over a horizon.
pub fn schedule_host_failures(
    world: &mut World,
    host: HostId,
    model: FailureModel,
    horizon: SimTime,
    rng: &mut Xoshiro256,
) {
    let mut t = SimTime::ZERO;
    loop {
        let up_for = SimDuration::from_secs_f64(rng.gen_exp(model.mtbf.as_secs_f64()));
        t += up_for;
        if t >= horizon {
            break;
        }
        let down_at = t;
        world.schedule_fault(down_at, FaultCmd::HostDown(host));
        let down_for = SimDuration::from_secs_f64(rng.gen_exp(model.mttr.as_secs_f64()));
        t += down_for;
        if t >= horizon {
            // Leave it down past the horizon; still schedule recovery so
            // post-horizon queries find a live system.
            world.schedule_fault(t, FaultCmd::HostUp(host));
            break;
        }
        let up_at = t;
        world.schedule_fault(up_at, FaultCmd::HostUp(host));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::Medium;
    use crate::topology::{HostCfg, Topology};

    #[test]
    fn availability_formula() {
        let m = FailureModel { mtbf: SimDuration::from_days(10), mttr: SimDuration::from_hours(4) };
        let a = m.single_host_availability();
        assert!((a - 0.9836).abs() < 0.001, "availability {a}");
    }

    #[test]
    fn schedule_produces_alternating_states() {
        let mut t = Topology::new();
        let n = t.add_network("n", Medium::ethernet100(), true);
        let h = t.add_host(HostCfg::named("h"));
        t.attach(h, n);
        let mut w = World::new(t, 1);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let model =
            FailureModel { mtbf: SimDuration::from_secs(100), mttr: SimDuration::from_secs(10) };
        let horizon = SimTime::ZERO + SimDuration::from_secs(10_000);
        schedule_host_failures(&mut w, h, model, horizon, &mut rng);
        // Sample availability by stepping through the horizon.
        let mut up_samples = 0u32;
        let total = 1000u32;
        for i in 0..total {
            w.run_until(SimTime::ZERO + SimDuration::from_secs(10) * i as u64);
            if w.topology().host(h).up {
                up_samples += 1;
            }
        }
        let frac = up_samples as f64 / total as f64;
        let expect = model.single_host_availability();
        assert!((frac - expect).abs() < 0.05, "measured {frac}, expected {expect}");
    }

    #[test]
    fn overlapping_schedules_leave_world_consistent() {
        let mut t = Topology::new();
        let n = t.add_network("n", Medium::ethernet100(), true);
        let h = t.add_host(HostCfg::named("h"));
        t.attach(h, n);
        let mut w = World::new(t, 1);
        let horizon = SimTime::ZERO + SimDuration::from_secs(1_000);
        // Two independent renewal processes targeting the same host:
        // down/up events interleave arbitrarily. host_down/host_up are
        // idempotent, so the overlap must neither panic nor wedge the
        // host in a phantom state.
        let mut rng_a = Xoshiro256::seed_from_u64(11);
        let mut rng_b = Xoshiro256::seed_from_u64(99);
        let fast =
            FailureModel { mtbf: SimDuration::from_secs(30), mttr: SimDuration::from_secs(5) };
        let slow =
            FailureModel { mtbf: SimDuration::from_secs(70), mttr: SimDuration::from_secs(20) };
        schedule_host_failures(&mut w, h, fast, horizon, &mut rng_a);
        schedule_host_failures(&mut w, h, slow, horizon, &mut rng_b);
        w.run_until(horizon + SimDuration::from_secs(120));
        // Every schedule ends with a recovery event, so after both
        // horizons pass the host must be up and the queue drained.
        assert!(w.topology().host(h).up, "host recovered after overlap");
        assert_eq!(w.queue_depth(), 0, "no stragglers in the event queue");
    }
}
