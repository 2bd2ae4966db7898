//! E8 — §2.2: "PVM can tolerate slave failures but not failure of its
//! master host" vs SNIPE's redundancy. The same lookup workload runs
//! against a 2-replica RC service and against a PVM master; midway the
//! preferred server dies. SNIPE fails over; PVM goes dark.

use std::sync::{Arc, Mutex};

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::uri::Uri;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::ports;

use pvm_baseline::proto::PvmMsg;
use pvm_baseline::{PvmMaster, MASTER_PORT};

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
}

const TIMER_TICK: u64 = 1;
const TIMER_RC: u64 = 2;

struct SnipeLoad {
    rc: RcHost,
    uri: Uri,
    kill_at: SimTime,
    stop_at: SimTime,
    issued: Arc<Mutex<(u64, u64)>>,
    answered: Arc<Mutex<(u64, u64)>>,
    pending_epoch: std::collections::HashMap<u64, bool>,
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
            let after = self.pending_epoch.remove(&id).unwrap_or(false);
            if result.is_ok_and(|r| !r.assertions.is_empty()) {
                let mut a = self.answered.lock().unwrap();
                if after {
                    a.1 += 1;
                } else {
                    a.0 += 1;
                }
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
                let after = now >= self.kill_at;
                let id = self.rc.get(now, &self.uri);
                self.pending_epoch.insert(id, after);
                let mut i = self.issued.lock().unwrap();
                if after {
                    i.1 += 1;
                } else {
                    i.0 += 1;
                }
                drop(i);
                self.pump(ctx);
                ctx.set_timer(SimDuration::from_millis(100), TIMER_TICK);
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

/// SNIPE side: two RC replicas; kill the preferred one midway.
pub fn run_snipe(seed: u64) -> E8Point {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let r0 = topo.add_host(HostCfg::named("rc0"));
    let r1 = topo.add_host(HostCfg::named("rc1"));
    let c = topo.add_host(HostCfg::named("client"));
    for h in [r0, r1, c] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, seed);
    let eps = vec![Endpoint::new(r0, ports::RC_SERVER), Endpoint::new(r1, ports::RC_SERVER)];
    world.spawn(
        r0,
        ports::RC_SERVER,
        Box::new(RcServerActor::new(1, vec![eps[1]], SimDuration::from_millis(200))),
    );
    world.spawn(
        r1,
        ports::RC_SERVER,
        Box::new(RcServerActor::new(2, vec![eps[0]], SimDuration::from_millis(200))),
    );
    let kill_at = SimTime::ZERO + SimDuration::from_secs(5);
    world.schedule_fault(kill_at, FaultCmd::HostDown(r0));
    let issued = Arc::new(Mutex::new((0u64, 0u64)));
    let answered = Arc::new(Mutex::new((0u64, 0u64)));
    let load = SnipeLoad {
        rc: RcHost::new(RcClient::new(eps, SimDuration::from_millis(200)), TIMER_RC),
        uri: Uri::process(3),
        kill_at,
        stop_at: SimTime::ZERO + SimDuration::from_secs(10),
        issued: issued.clone(),
        answered: answered.clone(),
        pending_epoch: Default::default(),
        seeded: false,
    };
    world.spawn(c, 50, Box::new(load));
    world.run_for(SimDuration::from_secs(13));
    let i = *issued.lock().unwrap();
    let a = *answered.lock().unwrap();
    E8Point {
        system: "SNIPE (2 RC replicas)",
        ops_before: i.0,
        ok_before: a.0,
        ops_after: i.1,
        ok_after: a.1,
    }
}

struct PvmLoad {
    master: Endpoint,
    kill_at: SimTime,
    issued: Arc<Mutex<(u64, u64)>>,
    answered: Arc<Mutex<(u64, u64)>>,
    pending_epoch: std::collections::HashMap<u64, bool>,
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
                let after = ctx.now() >= self.kill_at;
                let req = self.next_req;
                self.next_req += 1;
                self.pending_epoch.insert(req, after);
                let mut i = self.issued.lock().unwrap();
                if after {
                    i.1 += 1;
                } else {
                    i.0 += 1;
                }
                drop(i);
                let msg = PvmMsg::LookupReq { req_id: req, tid: 3 };
                ctx.send(self.master, seal(Proto::Raw, msg.encode_to_bytes()));
                ctx.set_timer(SimDuration::from_millis(100), TIMER_TICK);
            }
            Event::Packet { from: _, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    return;
                };
                let Ok(PvmMsg::LookupResp { req_id, ok, .. }) = PvmMsg::decode_from_bytes(body)
                else {
                    return;
                };
                if ok {
                    if let Some(after) = self.pending_epoch.remove(&req_id) {
                        let mut a = self.answered.lock().unwrap();
                        if after {
                            a.1 += 1;
                        } else {
                            a.0 += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// PVM side: single master; kill it midway.
pub fn run_pvm(seed: u64) -> E8Point {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let m = topo.add_host(HostCfg::named("master"));
    let c = topo.add_host(HostCfg::named("client"));
    for h in [m, c] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, seed);
    let master_ep = Endpoint::new(m, MASTER_PORT);
    world.spawn(m, MASTER_PORT, Box::new(PvmMaster::new()));
    let kill_at = SimTime::ZERO + SimDuration::from_secs(5);
    world.schedule_fault(kill_at, FaultCmd::HostDown(m));
    let issued = Arc::new(Mutex::new((0u64, 0u64)));
    let answered = Arc::new(Mutex::new((0u64, 0u64)));
    let load = PvmLoad {
        master: master_ep,
        kill_at,
        issued: issued.clone(),
        answered: answered.clone(),
        pending_epoch: Default::default(),
        next_req: 1,
    };
    world.spawn(c, 50, Box::new(load));
    world.run_for(SimDuration::from_secs(10));
    let i = *issued.lock().unwrap();
    let a = *answered.lock().unwrap();
    E8Point {
        system: "PVM (single master)",
        ops_before: i.0,
        ok_before: a.0,
        ops_after: i.1,
        ok_after: a.1,
    }
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
