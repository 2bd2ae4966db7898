//! E8 — §2.2: "PVM can tolerate slave failures but not failure of its
//! master host" vs SNIPE's redundancy. The same lookup workload runs
//! against a 2-replica RC service and against a PVM master; midway the
//! preferred server dies. SNIPE fails over; PVM goes dark.

use std::collections::HashMap;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::Endpoint;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::uri::Uri;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};

use pvm_baseline::proto::PvmMsg;
use pvm_baseline::{PvmMaster, MASTER_PORT};

use crate::{lan, rc_group};

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

    fn new(system: &'static str, t: &Tally) -> E8Point {
        let ([ops_before, ops_after], [ok_before, ok_after]) = (t.issued, t.answered);
        E8Point { system, ops_before, ok_before, ops_after, ok_after }
    }
}

const TIMER_TICK: u64 = 1;

/// Lookups issued and answered, indexed by epoch (0 before the kill, 1
/// after); read in place once the run ends.
#[derive(Default)]
struct Tally {
    issued: [u64; 2],
    answered: [u64; 2],
    /// The epoch of every outstanding lookup, by request id.
    pending: HashMap<u64, usize>,
}

impl Tally {
    fn issue(&mut self, id: u64, after_kill: bool) {
        self.pending.insert(id, usize::from(after_kill));
        self.issued[usize::from(after_kill)] += 1;
    }

    fn answer(&mut self, id: u64) {
        if let Some(epoch) = self.pending.remove(&id) {
            self.answered[epoch] += 1;
        }
    }
}

struct SnipeLoad {
    rc: RcHost,
    uri: Uri,
    kill_at: SimTime,
    stop_at: SimTime,
    tally: Tally,
    seeded: bool,
}

impl SnipeLoad {
    /// Flush the RC client and count the lookups it answered.
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        for (id, result) in self.rc.flush(ctx) {
            if !self.seeded {
                self.seeded = true;
                continue;
            }
            if result.is_ok_and(|r| !r.assertions.is_empty()) {
                self.tally.answer(id);
            }
        }
    }
}

impl Actor for SnipeLoad {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => {
                self.rc.put(now, &self.uri, vec![Assertion::new("k", "v")]);
                self.pump(ctx);
                ctx.set_timer(SimDuration::from_millis(100), TIMER_TICK);
            }
            Event::Timer { token: TIMER_TICK } => {
                if now >= self.stop_at {
                    return; // drain window: let pending ops finish
                }
                let id = self.rc.get(now, &self.uri);
                self.tally.issue(id, now >= self.kill_at);
                self.pump(ctx);
                ctx.set_timer(SimDuration::from_millis(100), TIMER_TICK);
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

/// SNIPE side: two RC replicas; kill the preferred one midway.
pub fn run_snipe(seed: u64) -> E8Point {
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], 3);
    let (r0, r1, c) = (hosts[0], hosts[1], hosts[2]);
    let eps = rc_group(&mut world, &[r0, r1], SimDuration::from_millis(200));
    let kill_at = SimTime::ZERO + SimDuration::from_secs(5);
    world.schedule_fault(kill_at, FaultCmd::HostDown(r0));
    let load = SnipeLoad {
        rc: RcHost::new(RcClient::new(eps, SimDuration::from_millis(200))),
        uri: Uri::process(3),
        kill_at,
        stop_at: SimTime::ZERO + SimDuration::from_secs(10),
        tally: Tally::default(),
        seeded: false,
    };
    let load = world.spawn(c, 50, Box::new(load)).expect("client host exists");
    world.run_for(SimDuration::from_secs(13));
    let load = world.actor_ref::<SnipeLoad>(load).expect("the load lives");
    E8Point::new("SNIPE (2 RC replicas)", &load.tally)
}

struct PvmLoad {
    master: Endpoint,
    kill_at: SimTime,
    tally: Tally,
    next_req: u64,
}

impl Actor for PvmLoad {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                // Register tid 3 so lookups succeed while the master
                // lives.
                let me = ctx.me();
                let reg = PvmMsg::Register { tid: 3, endpoint: me };
                ctx.send(self.master, seal(Proto::Raw, reg.encode_to_bytes()));
                ctx.set_timer(SimDuration::from_millis(100), TIMER_TICK);
            }
            Event::Timer { token: TIMER_TICK } => {
                let req = self.next_req;
                self.next_req += 1;
                self.tally.issue(req, ctx.now() >= self.kill_at);
                let msg = PvmMsg::LookupReq { req_id: req, tid: 3 };
                ctx.send(self.master, seal(Proto::Raw, msg.encode_to_bytes()));
                ctx.set_timer(SimDuration::from_millis(100), TIMER_TICK);
            }
            Event::Packet { from: _, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    return;
                };
                if let Ok(PvmMsg::LookupResp { req_id, ok: true, .. }) =
                    PvmMsg::decode_from_bytes(body)
                {
                    self.tally.answer(req_id);
                }
            }
            _ => {}
        }
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
    let load = PvmLoad { master: master_ep, kill_at, tally: Tally::default(), next_req: 1 };
    let load = world.spawn(c, 50, Box::new(load)).expect("client host exists");
    world.run_for(SimDuration::from_secs(10));
    let load = world.actor_ref::<PvmLoad>(load).expect("the load lives");
    E8Point::new("PVM (single master)", &load.tally)
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
