//! E7 — §6: "the ability to switch routes/interfaces as links failed
//! without user applications intervention."
//!
//! Dual-homed hosts (Ethernet + ATM, the UTK shape). The sender pins
//! its ranked routes [ATM, Ethernet]; mid-transfer the ATM fabric
//! silently blackholes (loss = 100%, interfaces still "up", so the
//! simulator cannot reroute by itself). The SRUDP timeout escalation
//! must rotate to Ethernet and complete the transfer with no
//! application involvement.

use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_util::id::NetId;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::stack::StackConfig;

use crate::fig1::{hosted, Flow, Receiver, Transfer};
use crate::{drive, lan};

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
    // Ethernet is net 0 (routable), ATM net 1 (pinned routes only).
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100(), Medium::atm155()], 2);
    let (a, b, eth, atm) = (hosts[0], hosts[1], NetId(0), NetId(1));
    let mut cfg = StackConfig::default();
    cfg.srudp.rto_initial = SimDuration::from_millis(20);
    // Pin routes: prefer ATM, fall back to Ethernet.
    let rx = Transfer {
        flow: Flow::Srudp(cfg),
        pin: Some(vec![atm, eth]),
        msg_size: 16 * 1024,
        work: total,
        window: 64 * 1400,
    }
    .spawn(&mut world, a, b);
    // Blackhole the ATM fabric at 40% of the expected transfer time.
    let fault_at = SimTime::ZERO + SimDuration::from_millis(100);
    world.schedule_fault(fault_at, FaultCmd::NetLoss(atm, Some(1.0)));
    drive(
        &mut world,
        SimDuration::from_millis(100),
        SimTime::ZERO + SimDuration::from_secs(30),
        |w| hosted::<Receiver>(w, rx).app.done_at.is_some(),
    );
    let Receiver { received: delivered, done_at, .. } = hosted::<Receiver>(&world, rx).app;
    E7Point {
        total,
        delivered,
        // Failovers happened iff bytes flowed on Ethernet after the fault.
        failovers_observed: world.stats().bytes_on(eth) > 0,
        elapsed: done_at.map_or(f64::NAN, |t| t.as_secs_f64()),
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
