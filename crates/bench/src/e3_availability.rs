//! E3 — §6: "SNIPE testbeds have been running ... since autumn 1997 and
//! due to replication have maintained an almost perfect level of
//! availability."
//!
//! A client issues metadata lookups continuously for a simulated year
//! while every host (including the RC replicas) crashes and repairs
//! following exponential processes. We report the fraction of lookups
//! answered, versus the replica count k.

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::fault::{schedule_host_failures, FailureModel};
use snipe_netsim::medium::Medium;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::uri::Uri;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};

use crate::{lan, rc_group};

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

const TIMER_TICK: u64 = 10;

struct LookupLoad {
    rc: RcHost,
    interval: SimDuration,
    uri: Uri,
    issued: u64,
    answered: u64,
    seeded: bool,
}

impl LookupLoad {
    /// Flush the RC client and count the lookups it answered.
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        for (_, result) in self.rc.flush(ctx) {
            if let Ok(reply) = result {
                if !self.seeded {
                    self.seeded = true; // the initial put
                } else if !reply.assertions.is_empty() {
                    self.answered += 1;
                }
            }
        }
    }
}

impl Actor for LookupLoad {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => {
                self.rc.put(now, &self.uri, vec![Assertion::new("k", "v")]);
                self.pump(ctx);
                ctx.set_timer(self.interval, TIMER_TICK);
            }
            Event::Timer { token: TIMER_TICK } => {
                self.rc.get(now, &self.uri);
                self.issued += 1;
                self.pump(ctx);
                ctx.set_timer(self.interval, TIMER_TICK);
            }
            Event::Wake => {
                self.rc.on_wake(now);
                self.pump(ctx);
            }
            Event::Packet { from, payload } => {
                self.rc.on_datagram(now, from, payload);
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.rc.next_deadline()
    }
}

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
    let load = LookupLoad {
        rc: RcHost::new(RcClient::new(eps, SimDuration::from_millis(300))),
        interval: SimDuration::from_secs(600),
        uri: Uri::process(7),
        issued: 0,
        answered: 0,
        seeded: false,
    };
    let load = world.spawn(client, 50, Box::new(load)).expect("client host exists");
    world.run_until(horizon);
    let LookupLoad { issued, answered, .. } = *world.actor_ref(load).expect("the load lives");
    E3Point {
        replicas,
        availability: if issued == 0 { 0.0 } else { answered as f64 / issued as f64 },
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
