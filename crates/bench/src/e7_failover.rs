//! E7 — §6: "the ability to switch routes/interfaces as links failed
//! without user applications intervention."
//!
//! Dual-homed hosts (Ethernet + ATM, the UTK shape). The sender pins
//! its ranked routes [ATM, Ethernet]; mid-transfer the ATM fabric
//! silently blackholes (loss = 100%, interfaces still "up", so the
//! simulator cannot reroute by itself). The SRUDP timeout escalation
//! must rotate to Ethernet and complete the transfer with no
//! application involvement.

use std::sync::{Arc, Mutex};

use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::stack::StackConfig;

use crate::fig1::{Hosted, Receiver, SrudpSender};

/// Measured outcome.
#[derive(Clone, Debug)]
pub struct E7Point {
    /// Bytes to transfer.
    pub total: usize,
    /// Bytes delivered.
    pub delivered: usize,
    /// Route failovers performed by the stack.
    pub failovers_observed: bool,
    /// Transfer completion time (seconds); NaN if incomplete.
    pub elapsed: f64,
    /// When the blackhole was injected (seconds).
    pub fault_at: f64,
}

/// Run the blackhole failover drill.
pub fn run(total: usize, seed: u64) -> E7Point {
    let mut topo = Topology::new();
    let eth = topo.add_network("eth", Medium::ethernet100(), true);
    let atm = topo.add_network("atm", Medium::atm155(), false);
    let a = topo.add_host(HostCfg::named("a"));
    let b = topo.add_host(HostCfg::named("b"));
    for h in [a, b] {
        topo.attach(h, eth);
        topo.attach(h, atm);
    }
    let mut world = World::new(topo, seed);
    let received = Arc::new(Mutex::new(0usize));
    let done_at: Arc<Mutex<Option<SimTime>>> = Arc::new(Mutex::new(None));
    let mut cfg = StackConfig::default();
    cfg.srudp.rto_initial = SimDuration::from_millis(20);
    world.spawn(
        b,
        20,
        Box::new(Hosted::new(Receiver {
            cfg: cfg.clone(),
            pin: Some(vec![atm, eth]),
            received: received.clone(),
            done_at: done_at.clone(),
            expect: total,
        })),
    );
    // Pin routes: prefer ATM, fall back to Ethernet.
    let sender = SrudpSender {
        peer: Endpoint::new(b, 20),
        msg_size: 16 * 1024,
        remaining: total,
        inflight: 64 * 1400,
        cfg,
        pin: Some(vec![atm, eth]),
    };
    world.spawn(a, 20, Box::new(Hosted::new(sender)));
    // Blackhole the ATM fabric at 40% of the expected transfer time.
    let fault_at = SimTime::ZERO + SimDuration::from_millis(100);
    world.schedule_fault(fault_at, FaultCmd::NetLoss(atm, Some(1.0)));
    for _ in 0..300 {
        world.run_for(SimDuration::from_millis(100));
        if done_at.lock().unwrap().is_some() {
            break;
        }
    }
    let elapsed = done_at.lock().unwrap().map(|t| t.as_secs_f64()).unwrap_or(f64::NAN);
    // Failovers happened iff bytes flowed on Ethernet after the fault.
    let eth_bytes = world.stats().bytes_on(eth);
    let delivered = *received.lock().unwrap();
    E7Point {
        total,
        delivered,
        failovers_observed: eth_bytes > 0,
        elapsed,
        fault_at: fault_at.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_survives_blackholed_preferred_route() {
        let p = run(4 << 20, 13);
        assert!(p.delivered >= p.total, "{p:?}");
        assert!(p.failovers_observed, "{p:?}");
        assert!(p.elapsed.is_finite());
    }
}
