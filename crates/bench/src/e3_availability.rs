//! E3 — §6: "SNIPE testbeds have been running ... since autumn 1997 and
//! due to replication have maintained an almost perfect level of
//! availability."
//!
//! A client issues metadata lookups continuously for a simulated year
//! while every host (including the RC replicas) crashes and repairs
//! following exponential processes. We report the fraction of lookups
//! answered, versus the replica count k.

use std::sync::{Arc, Mutex};

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::fault::{schedule_host_failures, FailureModel};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::uri::Uri;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::ports;

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
const TIMER_RC: u64 = 11;

struct LookupLoad {
    rc: RcHost,
    interval: SimDuration,
    uri: Uri,
    issued: Arc<Mutex<u64>>,
    answered: Arc<Mutex<u64>>,
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
                    *self.answered.lock().unwrap() += 1;
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
                *self.issued.lock().unwrap() += 1;
                self.pump(ctx);
                ctx.set_timer(self.interval, TIMER_TICK);
            }
            Event::Timer { token: TIMER_RC } => {
                self.rc.on_timer(now);
                self.pump(ctx);
            }
            Event::HostUp => {
                self.rc.on_host_up(now);
                self.pump(ctx);
            }
            Event::Packet { from, payload } => {
                self.rc.on_datagram(now, from, payload);
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

/// Run one availability measurement.
///
/// `horizon_days` of simulated operation, hosts failing with the given
/// model; lookups every `lookup_interval`.
pub fn run(replicas: usize, horizon_days: u64, seed: u64) -> E3Point {
    let model = FailureModel { mtbf: SimDuration::from_days(10), mttr: SimDuration::from_hours(4) };
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let mut rc_hosts = Vec::new();
    for i in 0..replicas {
        let h = topo.add_host(HostCfg::named(format!("rc{i}")));
        topo.attach(h, net);
        rc_hosts.push(h);
    }
    // The client host never fails (we measure service availability, not
    // client uptime).
    let client = topo.add_host(HostCfg::named("client"));
    topo.attach(client, net);
    let mut world = World::new(topo, seed);
    let eps: Vec<Endpoint> = rc_hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
    for (i, ep) in eps.iter().enumerate() {
        let peers: Vec<Endpoint> = eps.iter().copied().filter(|e| e != ep).collect();
        world.spawn(
            ep.host,
            ep.port,
            Box::new(RcServerActor::new(i as u64 + 1, peers, SimDuration::from_secs(30))),
        );
    }
    let horizon = SimTime::ZERO + SimDuration::from_days(horizon_days);
    let mut frng = Xoshiro256::seed_from_u64(seed ^ 0xFA11);
    for &h in &rc_hosts {
        schedule_host_failures(&mut world, h, model, horizon, &mut frng);
    }
    let issued = Arc::new(Mutex::new(0u64));
    let answered = Arc::new(Mutex::new(0u64));
    let load = LookupLoad {
        rc: RcHost::new(RcClient::new(eps, SimDuration::from_millis(300)), TIMER_RC),
        interval: SimDuration::from_secs(600),
        uri: Uri::process(7),
        issued: issued.clone(),
        answered: answered.clone(),
        seeded: false,
    };
    world.spawn(client, 50, Box::new(load));
    world.run_until(horizon);
    let i = *issued.lock().unwrap();
    let a = *answered.lock().unwrap();
    E3Point {
        replicas,
        availability: if i == 0 { 0.0 } else { a as f64 / i as f64 },
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
