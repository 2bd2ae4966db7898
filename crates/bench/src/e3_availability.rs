//! E3 — §6: "SNIPE testbeds have been running ... since autumn 1997 and
//! due to replication have maintained an almost perfect level of
//! availability."
//!
//! A client issues metadata lookups continuously for a simulated year
//! while every host (including the RC replicas) crashes and repairs
//! following exponential processes. We report the fraction of lookups
//! answered, versus the replica count k.

use snipe_netsim::fault::{schedule_host_failures, FailureModel};
use snipe_netsim::medium::Medium;
use snipe_rcds::client::RcClient;
use snipe_rcds::uri::Uri;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};

use crate::{lan, rc_group, RcLoad};

/// One measured row.
#[derive(Clone, Debug)]
pub struct E3Point {
    /// RC replica count.
    pub replicas: usize,
    /// Fraction of lookups answered.
    pub availability: f64,
    /// Expected single-host availability under the failure model.
    pub single_host: f64,
}

/// One RC attempt's timeout.
const RC_TRY: SimDuration = SimDuration::from_millis(300);
/// The RC client's whole retry budget: six attempts of [`RC_TRY`].
const RC_BUDGET: SimDuration = SimDuration::from_millis(6 * 300);

/// Run one availability measurement.
///
/// `horizon_days` of simulated operation, hosts failing with the given
/// model; lookups every `lookup_interval`.
pub fn run(replicas: usize, horizon_days: u64, seed: u64) -> E3Point {
    let model = FailureModel { mtbf: SimDuration::from_days(10), mttr: SimDuration::from_hours(4) };
    // The client (the last host) never fails: we measure service
    // availability, not client uptime.
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], replicas + 1);
    let (rc_hosts, client) = (&hosts[..replicas], hosts[replicas]);
    let eps = rc_group(&mut world, rc_hosts, SimDuration::from_secs(30));
    let horizon = SimTime::ZERO + SimDuration::from_days(horizon_days);
    let mut frng = Xoshiro256::seed_from_u64(seed ^ 0xFA11);
    for &h in rc_hosts {
        schedule_host_failures(&mut world, h, model, horizon, &mut frng);
    }
    // Op 0 seeds the URI; the lookups follow, one every ten minutes.
    let load = RcLoad::new(
        RcClient::new(eps, RC_TRY),
        Uri::process(7),
        vec!["v".into()],
        world.now(),
        SimDuration::from_secs(600),
        u32::MAX,
    );
    let load = world.spawn(client, 50, Box::new(load)).expect("client host exists");
    world.run_until(horizon);
    // A lookup counts only if its whole retry budget fits before the
    // horizon: one issued later is cut off by the end of the run, not
    // by an outage (the last lookup is issued at the horizon itself).
    let log = &world.actor_ref::<RcLoad>(load).expect("the load lives").log[1..];
    let lookups: Vec<_> = log.iter().filter(|op| op.issued + RC_BUDGET <= horizon).collect();
    let answered = lookups.iter().filter(|op| op.answer().is_some_and(|a| !a.is_empty())).count();
    E3Point {
        replicas,
        availability: if lookups.is_empty() { 0.0 } else { answered as f64 / lookups.len() as f64 },
        single_host: model.single_host_availability(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_raises_availability() {
        let one = run(1, 40, 3);
        let three = run(3, 40, 3);
        assert!(three.availability > one.availability, "{one:?} vs {three:?}");
        assert!(three.availability > 0.99, "k=3 must be near-perfect: {three:?}");
    }
}
