//! Engine benchmark: raw event-loop throughput of the netsim world.
//!
//! Every experiment in this repro funnels through the engine's send
//! path and event queue, so wall-clock events/second is the ceiling on
//! how large E4 host counts and how long E3 horizons can get. This
//! module drives a packet storm over a multi-network topology with
//! periodic fault injection (the workload shape of E3/E7) and reports
//! simulator throughput. `harness engine-probe` prints that figure for
//! the observability-overhead gate in `scripts/check.sh`; the
//! benchmark's `storm` workload and its `netsim.*` rows track engine
//! speed across changes.
//!
//! The storm is deterministic in simulation terms (event and packet
//! counts depend only on the seed); only the wall-clock figures vary
//! between machines/runs.

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::id::{HostId, NetId};
use snipe_util::time::SimDuration;

/// Outcome of one storm run: the seed-deterministic counters and the
/// one wall-clock figure `harness engine-probe` prints.
#[derive(Debug)]
pub struct EngineRun {
    /// Events dispatched by the engine.
    pub events: u64,
    /// Datagrams handed to `send_packet`.
    pub sent: u64,
    /// Datagrams delivered to an actor.
    pub delivered: u64,
    /// Datagrams dropped (loss, partitions, downed interfaces...).
    pub drops: u64,
    /// Engine throughput: events per wall-clock second.
    pub events_per_sec: f64,
}

const STORM_PAYLOAD: &[u8] = &[0xA5; 64];
/// Port every storm actor binds.
const STORM_PORT: u16 = 9000;

/// Traffic generator: timer-driven bursts to two peers plus a loopback
/// datagram and a signal to a neighbor; echoes every non-loopback
/// packet back to its sender. The timer keeps load alive through fault
/// windows that would otherwise extinguish a pure ping-pong.
struct StormActor {
    peer_far: Endpoint,
    peer_near: Endpoint,
    neighbor: Endpoint,
    burst: usize,
    period: SimDuration,
}

impl Actor for StormActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } => {
                for i in 0..self.burst {
                    let to = if i % 2 == 0 { self.peer_far } else { self.peer_near };
                    ctx.send(to, Bytes::from_static(STORM_PAYLOAD));
                }
                // Same-timestamp work: a loopback datagram and a signal.
                ctx.send(ctx.me(), Bytes::from_static(STORM_PAYLOAD));
                ctx.signal(self.neighbor, 7);
                ctx.set_timer(self.period, 1);
            }
            // Echo, except loopback (which would self-amplify).
            Event::Packet { from, payload } if from.host != ctx.host() => ctx.send(from, payload),
            _ => {}
        }
    }
}

/// Two Ethernet sites bridged by IP routing, with an ATM fabric
/// spanning every third host — the multi-homed UTK shape scaled up.
fn storm_topology(hosts: usize) -> (Topology, Vec<HostId>, [NetId; 3]) {
    assert!(hosts >= 4 && hosts.is_multiple_of(2), "need an even host count >= 4");
    let mut t = Topology::new();
    let eth0 = t.add_network("site0-eth", Medium::ethernet100(), true);
    let eth1 = t.add_network("site1-eth", Medium::ethernet100(), true);
    let atm = t.add_network("campus-atm", Medium::atm155(), false);
    let mut ids = Vec::with_capacity(hosts);
    for i in 0..hosts {
        let h = t.add_host(HostCfg::named(format!("storm{i}")));
        t.attach(h, if i < hosts / 2 { eth0 } else { eth1 });
        if i % 3 == 0 {
            t.attach(h, atm);
        }
        ids.push(h);
    }
    (t, ids, [eth0, eth1, atm])
}

/// Periodic fault script: every 50 ms of simulated time one rotating
/// mutation lands (interface flaps, loss injection, a partition window,
/// one host crash/repair cycle) — enough churn to invalidate routing
/// state the way E3/E7 do, while most packets still see a stable
/// topology.
fn schedule_faults(world: &mut World, ids: &[HostId], nets: [NetId; 3], sim: SimDuration) {
    let [eth0, eth1, atm] = nets;
    let step = SimDuration::from_millis(50);
    let steps = (sim.as_nanos() / step.as_nanos()) as usize;
    let victim = ids[0];
    let flapper = ids[ids.len() / 2];
    for k in 0..steps {
        let at = snipe_util::time::SimTime::ZERO + step * k as u64;
        let cmd = match k % 8 {
            0 => FaultCmd::IfaceUp(victim, atm, false),
            1 => FaultCmd::IfaceUp(victim, atm, true),
            2 => FaultCmd::NetLoss(eth0, Some(0.02)),
            3 => FaultCmd::NetLoss(eth0, None),
            4 => FaultCmd::PartitionNet(eth1, 1),
            5 => FaultCmd::PartitionNet(eth1, 0),
            6 => FaultCmd::HostDown(flapper),
            _ => FaultCmd::HostUp(flapper),
        };
        world.schedule_fault(at, cmd);
    }
}

/// Build the storm world that [`storm`] runs.
pub fn build_storm(hosts: usize, sim: SimDuration, seed: u64) -> World {
    let (topo, ids, nets) = storm_topology(hosts);
    let n = ids.len();
    let mut world = World::new(topo, seed);
    for (i, &h) in ids.iter().enumerate() {
        let actor = StormActor {
            peer_far: Endpoint::new(ids[(i + n / 2) % n], STORM_PORT),
            peer_near: Endpoint::new(ids[(i + 1) % n], STORM_PORT),
            neighbor: Endpoint::new(ids[(i + 2) % n], STORM_PORT),
            burst: 6,
            period: SimDuration::from_millis(1),
        };
        world.spawn(h, STORM_PORT, Box::new(actor));
    }
    schedule_faults(&mut world, &ids, nets, sim);
    world
}

/// Run the storm for `sim` simulated time and measure engine
/// throughput.
pub fn storm(hosts: usize, sim: SimDuration, seed: u64) -> EngineRun {
    let mut world = build_storm(hosts, sim, seed);
    let t0 = std::time::Instant::now();
    world.run_for(sim);
    let wall = t0.elapsed().as_secs_f64();
    let stats = world.stats();
    EngineRun {
        events: stats.events,
        sent: stats.sent,
        delivered: stats.delivered,
        drops: stats.total_drops(),
        events_per_sec: stats.events as f64 / wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic fingerprint of a run (must not depend on wall clock).
    fn fingerprint(r: &EngineRun) -> (u64, u64, u64, u64) {
        (r.events, r.sent, r.delivered, r.drops)
    }

    #[test]
    fn storm_is_deterministic_and_busy() {
        let a = storm(16, SimDuration::from_millis(200), 42);
        let b = storm(16, SimDuration::from_millis(200), 42);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert!(a.delivered > 10_000, "storm too quiet: {a:?}");
        assert!(a.drops > 0, "faults should cause some drops: {a:?}");
    }
}
