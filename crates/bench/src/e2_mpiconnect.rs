//! E2 — §6.1: MPI Connect (SNIPE) vs PVMPI (PVM) point-to-point
//! performance between two "MPPs" (two LAN sites over routable edges).

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use mpi_connect::{MpiApi, MpiRank, PvmpiRankActor, SnipeMpiProcess};
use pvm_baseline::{PvmMaster, PvmSlave, MASTER_PORT, SLAVE_PORT};
use snipe_core::SnipeWorldBuilder;
use snipe_daemon::registry::ProgramRegistry;
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::time::{SimDuration, SimTime};

use crate::drive;

/// One measured row.
#[derive(Clone, Debug)]
pub struct E2Point {
    /// "MPI Connect (SNIPE)" or "PVMPI (PVM)".
    pub system: &'static str,
    /// Message size.
    pub msg_size: usize,
    /// Mean one-way latency per message (seconds) over the run.
    pub latency: f64,
    /// Payload bandwidth (bytes/second) for the streamed phase.
    pub bandwidth: f64,
}

struct Pinger {
    peer: u64,
    rounds: u32,
    msg_size: usize,
    start: Arc<Mutex<Option<SimTime>>>,
    done: Arc<Mutex<Option<SimTime>>>,
    remaining: u32,
}

impl MpiRank for Pinger {
    fn on_start(&mut self, api: &mut dyn MpiApi) {
        self.remaining = self.rounds;
        *self.start.lock().unwrap() = Some(api.now());
        api.send(self.peer, Bytes::from(vec![0u8; self.msg_size]));
    }
    fn on_recv(&mut self, api: &mut dyn MpiApi, _from: u64, _data: Bytes) {
        self.remaining -= 1;
        if self.remaining == 0 {
            *self.done.lock().unwrap() = Some(api.now());
        } else {
            api.send(self.peer, Bytes::from(vec![0u8; self.msg_size]));
        }
    }
}

struct Ponger;
impl MpiRank for Ponger {
    fn on_start(&mut self, _api: &mut dyn MpiApi) {}
    fn on_recv(&mut self, api: &mut dyn MpiApi, from: u64, data: Bytes) {
        api.send(from, data);
    }
}

const ROUNDS: u32 = 40;

/// Drive until the pinger is done (a minute at most) and turn its two
/// timestamps into a row.
fn finish(
    world: &mut World,
    system: &'static str,
    msg_size: usize,
    start: &Mutex<Option<SimTime>>,
    done: &Mutex<Option<SimTime>>,
) -> E2Point {
    let deadline = world.now() + SimDuration::from_secs(60);
    drive(world, SimDuration::from_millis(500), deadline, |_| done.lock().unwrap().is_some());
    let t0 = start.lock().unwrap().expect("started");
    let t1 = done.lock().unwrap().expect("the pinger finishes within a minute");
    let elapsed = t1.since(t0).as_secs_f64();
    E2Point {
        system,
        msg_size,
        latency: elapsed / (2.0 * ROUNDS as f64),
        bandwidth: (ROUNDS as usize * msg_size) as f64 / elapsed,
    }
}

/// Run the SNIPE-substrate (MPI Connect) side.
pub fn run_snipe(msg_size: usize) -> E2Point {
    let mut w = SnipeWorldBuilder::two_site(2, 77).build();
    let start = Arc::new(Mutex::new(None));
    let done = Arc::new(Mutex::new(None));
    w.register_process("ponger", |_| Box::new(SnipeMpiProcess::new(Box::new(Ponger))));
    let (pong_key, _) = w.spawn_on("site1-host1", "ponger", Bytes::new()).unwrap();
    // Let the ponger register its location before timing starts (the
    // PVMPI runner likewise enrols its VM first).
    w.run_for(SimDuration::from_millis(100));
    let (s, d) = (start.clone(), done.clone());
    w.register_process("pinger", move |_| {
        Box::new(SnipeMpiProcess::new(Box::new(Pinger {
            peer: pong_key,
            rounds: ROUNDS,
            msg_size,
            start: s.clone(),
            done: d.clone(),
            remaining: 0,
        })))
    });
    w.spawn_on("site0-host1", "pinger", Bytes::new()).unwrap();
    finish(w.sim(), "MPI Connect (SNIPE)", msg_size, &start, &done)
}

/// Run the PVM-substrate (PVMPI) side on an identical physical layout.
pub fn run_pvmpi(msg_size: usize) -> E2Point {
    let mut topo = Topology::new();
    let s0 = topo.add_network("site0", Medium::ethernet100(), true);
    let s1 = topo.add_network("site1", Medium::ethernet100(), true);
    let mut hosts = Vec::new();
    for i in 0..2 {
        let h = topo.add_host(HostCfg::named(format!("site0-host{i}")));
        topo.attach(h, s0);
        hosts.push(h);
    }
    for i in 0..2 {
        let h = topo.add_host(HostCfg::named(format!("site1-host{i}")));
        topo.attach(h, s1);
        hosts.push(h);
    }
    let mut world = World::new(topo, 77);
    let registry = ProgramRegistry::new();
    let master_ep = Endpoint::new(hosts[0], MASTER_PORT);
    world.spawn(hosts[0], MASTER_PORT, Box::new(PvmMaster::new()));
    for &h in &hosts {
        world.spawn(h, SLAVE_PORT, Box::new(PvmSlave::new(master_ep, registry.clone())));
    }
    world.run_for(SimDuration::from_millis(200));
    let start = Arc::new(Mutex::new(None));
    let done = Arc::new(Mutex::new(None));
    let pong = PvmpiRankActor::build(2, master_ep, Box::new(Ponger));
    world.spawn(hosts[3], 300, Box::new(pong));
    world.run_for(SimDuration::from_millis(100));
    let ping = PvmpiRankActor::build(
        1,
        master_ep,
        Box::new(Pinger {
            peer: 2,
            rounds: ROUNDS,
            msg_size,
            start: start.clone(),
            done: done.clone(),
            remaining: 0,
        }),
    );
    world.spawn(hosts[1], 300, Box::new(ping));
    finish(&mut world, "PVMPI (PVM)", msg_size, &start, &done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snipe_latency_beats_pvmpi() {
        let s = run_snipe(64);
        let p = run_pvmpi(64);
        assert!(s.latency < p.latency, "snipe {} vs pvmpi {}", s.latency, p.latency);
    }
}
