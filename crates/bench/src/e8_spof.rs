//! E8 — §2.2: "PVM can tolerate slave failures but not failure of its
//! master host" vs SNIPE's redundancy. The same lookup workload runs
//! against a 2-replica RC service and against a PVM master; midway the
//! preferred server dies. SNIPE fails over; PVM goes dark.

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::Endpoint;
use snipe_rcds::client::RcClient;
use snipe_rcds::uri::Uri;
use snipe_util::time::{SimDuration, SimTime};

use pvm_baseline::proto::PvmMsg;
use pvm_baseline::{PvmMaster, MASTER_PORT};

use crate::{lan, rc_group, RcLoad};

/// Measured outcome of one system.
#[derive(Clone, Debug)]
pub struct E8Point {
    /// System name.
    pub system: &'static str,
    /// Operations issued before the kill.
    pub ops_before: u64,
    /// Of those, answered.
    pub ok_before: u64,
    /// Operations issued after the kill.
    pub ops_after: u64,
    /// Of those, answered.
    pub ok_after: u64,
}

impl E8Point {
    /// Post-failure availability.
    pub fn availability_after(&self) -> f64 {
        if self.ops_after == 0 {
            0.0
        } else {
            self.ok_after as f64 / self.ops_after as f64
        }
    }

    /// Tally `(issued at, answered)` lookups on either side of `kill_at`.
    fn new(
        system: &'static str,
        kill_at: SimTime,
        lookups: impl Iterator<Item = (SimTime, bool)>,
    ) -> E8Point {
        let mut p = E8Point { system, ops_before: 0, ok_before: 0, ops_after: 0, ok_after: 0 };
        for (issued, ok) in lookups {
            let (ops, oks) = if issued >= kill_at {
                (&mut p.ops_after, &mut p.ok_after)
            } else {
                (&mut p.ops_before, &mut p.ok_before)
            };
            *ops += 1;
            *oks += u64::from(ok);
        }
        p
    }
}

/// Both loads issue a lookup every `TICK`.
const TICK: SimDuration = SimDuration::from_millis(100);

/// SNIPE side: two RC replicas; kill the preferred one midway.
pub fn run_snipe(seed: u64) -> E8Point {
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], 3);
    let (r0, r1, c) = (hosts[0], hosts[1], hosts[2]);
    let eps = rc_group(&mut world, &[r0, r1], SimDuration::from_millis(200));
    let kill_at = SimTime::ZERO + SimDuration::from_secs(5);
    world.schedule_fault(kill_at, FaultCmd::HostDown(r0));
    // Op 0 seeds the URI; lookups follow until 10 s, then 3 s drain.
    let load = RcLoad::new(
        RcClient::new(eps, SimDuration::from_millis(200)),
        Uri::process(3),
        vec!["v".into()],
        world.now(),
        TICK,
        100,
    );
    let load = world.spawn(c, 50, Box::new(load)).expect("client host exists");
    world.run_for(SimDuration::from_secs(13));
    let log = &world.actor_ref::<RcLoad>(load).expect("the load lives").log;
    let lookups = log[1..].iter().map(|op| (op.issued, op.answer().is_some_and(|a| !a.is_empty())));
    E8Point::new("SNIPE (2 RC replicas)", kill_at, lookups)
}

struct PvmLoad {
    master: Endpoint,
    /// When the next lookup goes out.
    next: SimTime,
    /// Every lookup by request id − 1: when it was issued, whether it
    /// was answered.
    lookups: Vec<(SimTime, bool)>,
}

impl Actor for PvmLoad {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => {
                // Register tid 3 so lookups succeed while the master
                // lives.
                let me = ctx.me();
                ctx.send(self.master, PvmMsg::Register { tid: 3, endpoint: me }.sealed());
            }
            Event::Wake => {
                self.lookups.push((now, false));
                let req_id = self.lookups.len() as u64;
                ctx.send(self.master, PvmMsg::LookupReq { req_id, tid: 3 }.sealed());
                self.next = now + TICK;
            }
            Event::Packet { from: _, payload } => {
                if let Some(PvmMsg::LookupResp { req_id, ok: true, .. }) = PvmMsg::open(payload) {
                    let i = req_id.checked_sub(1).and_then(|i| usize::try_from(i).ok());
                    if let Some(lookup) = i.and_then(|i| self.lookups.get_mut(i)) {
                        lookup.1 = true;
                    }
                }
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        Some(self.next)
    }
}
/// PVM side: single master; kill it midway.
pub fn run_pvm(seed: u64) -> E8Point {
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], 2);
    let (m, c) = (hosts[0], hosts[1]);
    let master_ep = Endpoint::new(m, MASTER_PORT);
    world.spawn(m, MASTER_PORT, Box::new(PvmMaster::new()));
    let kill_at = SimTime::ZERO + SimDuration::from_secs(5);
    world.schedule_fault(kill_at, FaultCmd::HostDown(m));
    let load = PvmLoad { master: master_ep, next: world.now() + TICK, lookups: Vec::new() };
    let load = world.spawn(c, 50, Box::new(load)).expect("client host exists");
    world.run_for(SimDuration::from_secs(10));
    let load = world.actor_ref::<PvmLoad>(load).expect("the load lives");
    E8Point::new("PVM (single master)", kill_at, load.lookups.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snipe_survives_pvm_does_not() {
        let s = run_snipe(21);
        let p = run_pvm(21);
        assert!(s.availability_after() > 0.9, "{s:?}");
        assert!(p.availability_after() < 0.1, "{p:?}");
        assert!(s.ok_before > 0 && p.ok_before > 0);
    }
}
