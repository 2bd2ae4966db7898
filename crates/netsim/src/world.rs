//! The world's public face plus route selection. The event loop
//! itself — queueing, transmission, chaos, dispatch — is the per-region
//! core in [`crate::shard`]; [`World`] is defined there and re-exported
//! here, and this module's tests pin its engine semantics.
//!
//! ## Delivery model
//!
//! A datagram from `a` to `b` takes the best usable path per the
//! paper's §5.3: the fastest common network if one exists, otherwise
//! "normal IP routing" over each side's routable networks. Delivery
//! time is `max(now, transmitter_free) + serialization + propagation`;
//! shared-bus media (classic Ethernet) serialize the whole segment
//! through one channel, switched media serialize per interface. For
//! routed (two-segment) paths serialization is charged once at the
//! bottleneck bandwidth and both propagation latencies are added —
//! the WAN transit itself is modelled by the edge media.
//!
//! Packets are dropped (never duplicated or reordered beyond what
//! differing path delays produce) on: random medium loss, no route,
//! destination host down, no listener on the port, or payload > MTU.
//! Reliability is the job of `snipe-wire`, exactly as UDP left it to
//! SNIPE's selective-resend protocol.

use snipe_util::id::{HostId, NetId};

use crate::topology::{PathInfo, Topology};

pub use crate::shard::World;

/// First ephemeral port handed out by [`World::alloc_port`].
pub const EPHEMERAL_BASE: u16 = 49152;

/// Internal signal number used to carry `Event::Start`.
pub(crate) const SIGSTART: u32 = u32::MAX;

/// Uncached route selection per §5.3, over an explicit topology. Runs
/// allocation-free: the candidate scans are iterator-based and
/// `PathInfo` is `Copy`.
pub(crate) fn compute_path(
    topo: &Topology,
    from: HostId,
    to: HostId,
    via: Option<NetId>,
) -> Option<PathInfo> {
    if let Some(n) = via {
        if topo.is_common_network(from, to, n) {
            return Some(topo.direct_path(n));
        }
        return None;
    }
    // Fastest common network first, by *effective* speed: a grayed
    // segment can lose the preference to a healthy slower one.
    if let Some(best) = topo.common_networks_iter(from, to).max_by_key(|&n| {
        (topo.effective_bandwidth(n), std::cmp::Reverse(topo.effective_latency(n).as_nanos()))
    }) {
        return Some(topo.direct_path(best));
    }
    // Normal IP routing over routable edges in the same partition.
    let mut best: Option<PathInfo> = None;
    for na in topo.routable_networks_iter(from) {
        for nb in topo.routable_networks_iter(to) {
            if topo.net(na).partition != topo.net(nb).partition {
                continue;
            }
            let p = topo.routed_path(na, nb);
            let better = match &best {
                None => true,
                Some(b) => {
                    (p.bandwidth_bps, std::cmp::Reverse(p.latency.as_nanos()))
                        > (b.bandwidth_bps, std::cmp::Reverse(b.latency.as_nanos()))
                }
            };
            if better {
                best = Some(p);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Event, SimCtx};
    use crate::medium::Medium;
    use crate::shard::FaultCmd;
    use crate::topology::{Endpoint, HostCfg};
    use crate::trace::DropReason;
    use bytes::Bytes;
    use snipe_util::time::{SimDuration, SimTime};
    use std::sync::{Arc, Mutex};

    /// Test actor: records received payload lengths + timestamps,
    /// optionally echoes packets back.
    struct Recorder {
        log: Arc<Mutex<Vec<(SimTime, usize)>>>,
        echo: bool,
    }

    impl Actor for Recorder {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            if let Event::Packet { from, payload } = event {
                self.log.lock().unwrap().push((ctx.now(), payload.len()));
                if self.echo {
                    ctx.send(from, payload);
                }
            }
        }
    }

    struct SendOnStart {
        to: Endpoint,
        sizes: Vec<usize>,
    }

    impl Actor for SendOnStart {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            if matches!(event, Event::Start) {
                for &s in &self.sizes {
                    ctx.send(self.to, Bytes::from(vec![0u8; s]));
                }
            }
        }
    }

    fn eth_pair() -> (World, HostId, HostId) {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        (World::new(t, 1), a, b)
    }

    #[test]
    fn packet_delivery_with_latency() {
        let (mut w, a, b) = eth_pair();
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone(), echo: false }));
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![1000] }));
        w.run_for(SimDuration::from_secs(1));
        let entries = log.lock().unwrap();
        assert_eq!(entries.len(), 1);
        let (at, len) = entries[0];
        assert_eq!(len, 1000);
        // tx(1000+38 bytes @100Mb) ≈ 83us + 50us latency
        let us = at.as_secs_f64() * 1e6;
        assert!((us - 133.0).abs() < 5.0, "arrival at {us}us");
    }

    #[test]
    fn shared_bus_serializes_packets() {
        let (mut w, a, b) = eth_pair();
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone(), echo: false }));
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![1000, 1000] }));
        w.run_for(SimDuration::from_secs(1));
        let entries = log.lock().unwrap();
        assert_eq!(entries.len(), 2);
        let gap = entries[1].0.since(entries[0].0);
        // Second packet waits for the first to clear the bus: gap ≈ tx time ≈ 83us.
        assert!(gap >= SimDuration::from_micros(80), "gap {gap}");
    }

    #[test]
    fn echo_round_trip() {
        let (mut w, a, b) = eth_pair();
        let log_a = Arc::new(Mutex::new(Vec::new()));
        w.spawn(a, 7, Box::new(Recorder { log: log_a.clone(), echo: false }));
        w.spawn(b, 5, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())), echo: true }));
        // a:7 sends to b:5 which echoes back to a:7.
        w.spawn(a, 8, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![64] }));
        // redirect: make the sender the recorder instead
        w.run_for(SimDuration::from_secs(1));
        // the echo goes back to a:8 (the sender), which has no recorder;
        // verify delivery stats instead.
        assert_eq!(w.stats().delivered, 2);
    }

    #[test]
    fn host_down_drops_and_notifies() {
        let (mut w, a, b) = eth_pair();
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone(), echo: false }));
        w.run_for(SimDuration::from_secs(1));
        w.host_down(b);
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![100] }));
        w.run_for(SimDuration::from_secs(1));
        assert!(log.lock().unwrap().is_empty());
        let d = w.stats().drops(DropReason::NoRoute) + w.stats().drops(DropReason::HostDown);
        assert_eq!(d, 1);
        w.host_up(b);
        w.spawn(a, 9, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![100] }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 1);
    }

    #[test]
    fn no_listener_counted() {
        let (mut w, a, b) = eth_pair();
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 99), sizes: vec![10] }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.stats().drops(DropReason::NoListener), 1);
    }

    #[test]
    fn mtu_enforced() {
        let (mut w, a, b) = eth_pair();
        w.spawn(b, 5, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())), echo: false }));
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![2000] }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.stats().drops(DropReason::TooBig), 1);
    }

    #[test]
    fn loss_rate_roughly_honoured() {
        let mut t = Topology::new();
        let n = t.add_network("lossy", Medium::wan_lossy(0.3), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, n);
        t.attach(b, n);
        let mut w = World::new(t, 7);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone(), echo: false }));
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![100; 1000] }));
        w.run_for(SimDuration::from_secs(1));
        let received = log.lock().unwrap().len() as f64;
        assert!((received / 1000.0 - 0.7).abs() < 0.05, "received {received}");
    }

    #[test]
    fn fastest_common_network_preferred() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        t.attach(a, atm);
        t.attach(b, atm);
        let mut w = World::new(t, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log, echo: false }));
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![1000] }));
        w.run_for(SimDuration::from_secs(1));
        // ATM (faster) carried the bytes.
        assert_eq!(w.stats().bytes_on(atm), 1000);
        assert_eq!(w.stats().bytes_on(eth), 0);
    }

    #[test]
    fn pinned_route_respected_and_validated() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        t.attach(a, atm);
        t.attach(b, atm);
        struct PinnedSend {
            to: Endpoint,
            via: NetId,
        }
        impl Actor for PinnedSend {
            fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
                if matches!(event, Event::Start) {
                    ctx.send_via(self.to, Bytes::from_static(&[0; 100]), self.via);
                }
            }
        }
        let mut w = World::new(t, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone(), echo: false }));
        w.spawn(a, 6, Box::new(PinnedSend { to: Endpoint::new(b, 5), via: eth }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.stats().bytes_on(eth), 100);
        assert_eq!(log.lock().unwrap().len(), 1);
    }

    #[test]
    fn routed_path_when_no_common_segment() {
        let mut t = Topology::new();
        let n1 = t.add_network("site1", Medium::ethernet100(), true);
        let n2 = t.add_network("site2", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, n1);
        t.attach(b, n2);
        let mut w = World::new(t, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone(), echo: false }));
        w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![500] }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 1);
        // Both edge networks carried the payload.
        assert_eq!(w.stats().bytes_on(n1), 500);
        assert_eq!(w.stats().bytes_on(n2), 500);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut w, a, _b) = eth_pair();
        struct TimerActor {
            log: Arc<Mutex<Vec<u64>>>,
        }
        impl Actor for TimerActor {
            fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
                match event {
                    Event::Start => {
                        ctx.set_timer(SimDuration::from_millis(20), 2);
                        ctx.set_timer(SimDuration::from_millis(10), 1);
                        ctx.set_timer(SimDuration::from_millis(30), 3);
                    }
                    Event::Timer { token } => self.log.lock().unwrap().push(token),
                    _ => {}
                }
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(a, 5, Box::new(TimerActor { log: log.clone() }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(&*log.lock().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn scheduled_fault_applies_at_its_time_before_same_time_events() {
        let (mut w, a, b) = eth_pair();
        /// Logs when its host went down; on its 5 ms timer, whether
        /// `peer` was still up.
        struct Watch {
            peer: HostId,
            down_at: Option<SimTime>,
            peer_up_at_timer: Option<bool>,
        }
        impl Actor for Watch {
            fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
                match event {
                    Event::Start => ctx.set_timer(SimDuration::from_millis(5), 1),
                    Event::Timer { .. } => self.peer_up_at_timer = Some(ctx.host_up(self.peer)),
                    Event::HostDown => self.down_at = Some(ctx.now()),
                    _ => {}
                }
            }
        }
        let watch = |peer| Box::new(Watch { peer, down_at: None, peer_up_at_timer: None });
        let on_a = w.spawn(a, 5, watch(b)).unwrap();
        let on_b = w.spawn(b, 5, watch(a)).unwrap();
        let at = SimTime::from_nanos(5_000_000);
        w.schedule_fault(at, FaultCmd::HostDown(b));
        w.run_for(SimDuration::from_secs(1));
        assert!(!w.topology().host(b).up);
        assert_eq!(w.actor_ref::<Watch>(on_b).unwrap().down_at, Some(at));
        // a's timer is due at exactly the fault time: the fault wins.
        assert_eq!(w.actor_ref::<Watch>(on_a).unwrap().peer_up_at_timer, Some(false));
        // b's own timer never fires (host down).
        assert_eq!(w.actor_ref::<Watch>(on_b).unwrap().peer_up_at_timer, None);
    }

    #[test]
    fn kill_unbinds() {
        let (mut w, _a, b) = eth_pair();
        let ep = w
            .spawn(b, 5, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())), echo: false }))
            .unwrap();
        w.run_for(SimDuration::from_secs(1));
        assert!(w.is_bound(ep));
        w.kill(ep);
        assert!(!w.is_bound(ep));
        // Port is reusable.
        assert!(w
            .spawn(b, 5, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())), echo: false }))
            .is_some());
    }

    #[test]
    fn duplicate_port_rejected() {
        let (mut w, _a, b) = eth_pair();
        let r = || Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())), echo: false });
        assert!(w.spawn(b, 5, r()).is_some());
        assert!(w.spawn(b, 5, r()).is_none());
    }

    #[test]
    fn ephemeral_ports_unique() {
        let (mut w, _a, b) = eth_pair();
        let p1 = w.alloc_port(b);
        let p2 = w.alloc_port(b);
        assert_ne!(p1, p2);
        assert!(p1 >= EPHEMERAL_BASE);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> (u64, u64) {
            let mut t = Topology::new();
            let n = t.add_network("lossy", Medium::wan_lossy(0.2), true);
            let a = t.add_host(HostCfg::named("a"));
            let b = t.add_host(HostCfg::named("b"));
            t.attach(a, n);
            t.attach(b, n);
            let mut w = World::new(t, seed);
            w.spawn(b, 5, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())), echo: true }));
            w.spawn(a, 6, Box::new(SendOnStart { to: Endpoint::new(b, 5), sizes: vec![100; 200] }));
            w.run_for(SimDuration::from_secs(1));
            (w.stats().delivered, w.stats().total_drops())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // loss pattern differs (with overwhelming probability)
    }

    #[test]
    fn timers_suppressed_while_host_down() {
        let (mut w, a, _b) = eth_pair();
        struct T {
            fired: Arc<Mutex<u32>>,
        }
        impl Actor for T {
            fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
                match event {
                    Event::Start => ctx.set_timer(SimDuration::from_millis(10), 1),
                    Event::Timer { .. } => *self.fired.lock().unwrap() += 1,
                    _ => {}
                }
            }
        }
        let fired = Arc::new(Mutex::new(0));
        w.spawn(a, 5, Box::new(T { fired: fired.clone() }));
        w.run_for(SimDuration::from_millis(1)); // deliver Start only
        w.host_down(a);
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(*fired.lock().unwrap(), 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::actor::{Actor, Event, SimCtx};
    use crate::medium::Medium;
    use crate::topology::{Endpoint, GrayLevel, HostCfg};
    use bytes::Bytes;
    use snipe_util::time::{SimDuration, SimTime};
    use std::sync::{Arc, Mutex};

    struct Recorder {
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Actor for Recorder {
        fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
            if let Event::Packet { payload, .. } = event {
                self.log.lock().unwrap().push(payload.len());
            }
        }
    }

    struct Sender {
        to: Endpoint,
        size: usize,
    }

    impl Actor for Sender {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            if matches!(event, Event::Start) {
                ctx.send(self.to, Bytes::from(vec![0u8; self.size]));
            }
        }
    }

    #[test]
    fn loopback_delivery_between_ports_of_one_host() {
        let mut t = Topology::new();
        let _n = t.add_network("lan", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        // Loopback works even with no attached interface.
        let mut w = World::new(t, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(a, 5, Box::new(Recorder { log: log.clone() }));
        w.spawn(a, 6, Box::new(Sender { to: Endpoint::new(a, 5), size: 1 << 20 }));
        w.run_for(SimDuration::from_secs(1));
        // Huge loopback datagrams pass (MTU is effectively unlimited).
        assert_eq!(&*log.lock().unwrap(), &[1 << 20]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let t = Topology::new();
        let mut w = World::new(t, 1);
        w.run_until(SimTime::from_nanos(5_000));
        assert_eq!(w.now(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn iface_down_reroutes_to_remaining_network() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        for h in [a, b] {
            t.attach(h, eth);
            t.attach(h, atm);
        }
        let mut w = World::new(t, 1);
        // ATM preferred (faster); kill a's ATM interface: traffic must
        // flow over Ethernet instead, automatically.
        w.set_iface_up(a, atm, false);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone() }));
        w.spawn(a, 6, Box::new(Sender { to: Endpoint::new(b, 5), size: 500 }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(w.stats().bytes_on(eth), 500);
        assert_eq!(w.stats().bytes_on(atm), 0);
    }

    #[test]
    fn partition_heals() {
        let mut t = Topology::new();
        let n1 = t.add_network("s1", Medium::ethernet100(), true);
        let n2 = t.add_network("s2", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, n1);
        t.attach(b, n2);
        let mut w = World::new(t, 1);
        w.set_partition(n2, 9);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone() }));
        w.spawn(a, 6, Box::new(Sender { to: Endpoint::new(b, 5), size: 10 }));
        w.run_for(SimDuration::from_secs(1));
        assert!(log.lock().unwrap().is_empty(), "partitioned: nothing may arrive");
        w.set_partition(n2, 0);
        w.spawn(a, 7, Box::new(Sender { to: Endpoint::new(b, 5), size: 10 }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 1, "healed: delivery resumes");
    }

    #[test]
    fn alloc_port_skips_bound_ports_and_wraps() {
        let mut t = Topology::new();
        let _ = t.add_network("lan", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let mut w = World::new(t, 1);
        w.spawn(a, EPHEMERAL_BASE, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())) }));
        assert_eq!(w.alloc_port(a), EPHEMERAL_BASE + 1);
    }

    #[test]
    #[should_panic(expected = "ephemeral ports")]
    fn alloc_port_exhaustion_panics() {
        let mut t = Topology::new();
        let _ = t.add_network("lan", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let mut w = World::new(t, 1);
        for p in EPHEMERAL_BASE..=u16::MAX {
            w.spawn(a, p, Box::new(Recorder { log: Arc::new(Mutex::new(Vec::new())) }));
        }
        let _ = w.alloc_port(a); // must panic, not spin forever
    }

    #[test]
    fn route_cache_invalidated_by_every_fault_api() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        for h in [a, b] {
            t.attach(h, eth);
            t.attach(h, atm);
        }
        let mut w = World::new(t, 1);
        let check = |w: &mut World| {
            assert_eq!(w.route(a, b, None), w.route_uncached(a, b, None));
            assert_eq!(w.route(b, a, None), w.route_uncached(b, a, None));
            assert_eq!(w.route(a, b, Some(atm)), w.route_uncached(a, b, Some(atm)));
        };
        check(&mut w);
        // Cached path is ATM; each mutation must be visible immediately.
        w.set_iface_up(a, atm, false);
        assert_eq!(w.route(a, b, None).unwrap().first_net(), eth);
        check(&mut w);
        w.set_iface_up(a, atm, true);
        check(&mut w);
        w.set_net_up(atm, false);
        assert_eq!(w.route(a, b, None).unwrap().first_net(), eth);
        w.set_net_up(atm, true);
        w.set_net_loss(atm, Some(0.25));
        assert_eq!(w.route(a, b, None).unwrap().loss, 0.25);
        w.set_net_loss(atm, None);
        w.host_down(b);
        assert_eq!(w.route(a, b, None), None);
        w.host_up(b);
        check(&mut w);
        w.set_partition(eth, 3);
        check(&mut w);
        assert!(w.stats().engine.route_cache_hits > 0, "repeated same-epoch lookups should hit");
    }

    #[test]
    fn engine_counters_track_queue_tiers() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        let mut w = World::new(t, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log }));
        w.spawn(a, 6, Box::new(Sender { to: Endpoint::new(b, 5), size: 100 }));
        w.spawn(a, 7, Box::new(Sender { to: Endpoint::new(b, 5), size: 100 }));
        w.run_for(SimDuration::from_secs(1));
        let e = &w.stats().engine;
        // Start signals fire at t=0 (now-queue); bus deliveries ride
        // their transmitter's FIFO stream. Every event came off
        // exactly one tier.
        assert_eq!(e.now_pops + e.heap_pops + e.stream_pops, w.stats().events);
        assert!(e.now_pops >= 3, "Start signals should use the now-queue: {e:?}");
        assert!(e.stream_pops >= 2, "shared-bus deliveries should stream: {e:?}");
        assert!(e.peak_queue_depth >= 2);
    }

    #[test]
    fn fault_apis_are_idempotence_aware() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        t.attach(a, eth);
        let mut w = World::new(t, 1);
        let epoch = |w: &World| w.topology().epoch();

        // No-op mutations leave the epoch (and thus the route cache)
        // alone; real mutations bump it.
        let e0 = epoch(&w);
        w.set_net_up(eth, true);
        w.set_net_loss(eth, None);
        w.set_partition(eth, 0);
        w.set_gray(eth, None);
        assert!(w.set_iface_up(a, eth, true));
        assert_eq!(epoch(&w), e0, "unchanged state must not invalidate routes");

        w.set_net_up(eth, false);
        assert_eq!(epoch(&w), e0 + 1);
        w.set_net_up(eth, false); // repeat: no bump
        assert_eq!(epoch(&w), e0 + 1);
        w.set_net_up(eth, true);
        w.set_net_loss(eth, Some(0.1));
        w.set_net_loss(eth, Some(0.1));
        w.set_partition(eth, 2);
        w.set_partition(eth, 2);
        w.set_gray(eth, Some(GrayLevel { latency_factor: 2.0, bandwidth_factor: 0.5 }));
        w.set_gray(eth, Some(GrayLevel { latency_factor: 2.0, bandwidth_factor: 0.5 }));
        assert!(w.set_iface_up(a, eth, false));
        assert!(w.set_iface_up(a, eth, false));
        assert_eq!(epoch(&w), e0 + 6, "one bump per actual state change");

        // Missing interface is surfaced, not silently ignored, and
        // does not touch the epoch.
        let e1 = epoch(&w);
        assert!(!w.set_iface_up(a, atm, false), "host a has no ATM interface");
        assert_eq!(epoch(&w), e1);
    }

    #[test]
    fn chaos_corruption_still_delivers_and_counts() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        let mut w = World::new(t, 1);
        w.set_packet_chaos(
            Some(crate::chaos::PacketChaos {
                corrupt: 1.0,
                duplicate: 0.0,
                reorder: 0.0,
                jitter: SimDuration::from_millis(1),
            }),
            99,
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone() }));
        w.spawn(a, 6, Box::new(Sender { to: Endpoint::new(b, 5), size: 100 }));
        w.run_for(SimDuration::from_secs(1));
        // Corruption is not a drop: the mangled payload arrives.
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(w.stats().chaos.corrupted, 1);
        assert_eq!(w.stats().total_drops(), 0);
    }

    #[test]
    fn chaos_duplication_delivers_extra_copies() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        let mut w = World::new(t, 1);
        w.set_packet_chaos(
            Some(crate::chaos::PacketChaos {
                corrupt: 0.0,
                duplicate: 1.0,
                reorder: 0.0,
                jitter: SimDuration::from_millis(2),
            }),
            7,
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone() }));
        for p in 0..4 {
            w.spawn(a, 10 + p, Box::new(Sender { to: Endpoint::new(b, 5), size: 64 }));
        }
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 8, "every packet arrives twice");
        assert_eq!(w.stats().chaos.duplicated, 4);
    }

    #[test]
    fn chaos_reorder_keeps_every_packet() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        t.attach(a, eth);
        t.attach(b, eth);
        let mut w = World::new(t, 1);
        w.set_packet_chaos(
            Some(crate::chaos::PacketChaos {
                corrupt: 0.0,
                duplicate: 0.0,
                reorder: 1.0,
                jitter: SimDuration::from_millis(10),
            }),
            7,
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        w.spawn(b, 5, Box::new(Recorder { log: log.clone() }));
        for p in 0..8 {
            w.spawn(a, 10 + p, Box::new(Sender { to: Endpoint::new(b, 5), size: 64 }));
        }
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(log.lock().unwrap().len(), 8, "reordering never loses packets");
        assert_eq!(w.stats().chaos.reordered, 8);
    }

    #[test]
    fn chaos_is_deterministic_and_does_not_perturb_workload_rng() {
        let run = |chaos: bool| -> (u64, u64, u64) {
            let mut t = Topology::new();
            let n = t.add_network("lossy", Medium::wan_lossy(0.2), true);
            let a = t.add_host(HostCfg::named("a"));
            let b = t.add_host(HostCfg::named("b"));
            t.attach(a, n);
            t.attach(b, n);
            let mut w = World::new(t, 42);
            if chaos {
                w.set_packet_chaos(
                    Some(crate::chaos::PacketChaos {
                        corrupt: 1.0,
                        duplicate: 0.0,
                        reorder: 0.0,
                        jitter: SimDuration::from_millis(1),
                    }),
                    5,
                );
            }
            let log = Arc::new(Mutex::new(Vec::new()));
            w.spawn(b, 5, Box::new(Recorder { log }));
            for p in 0..50 {
                w.spawn(a, 10 + p, Box::new(Sender { to: Endpoint::new(b, 5), size: 100 }));
            }
            w.run_for(SimDuration::from_secs(1));
            (w.stats().delivered, w.stats().total_drops(), w.stats().chaos.corrupted)
        };
        // Chaos draws come from a separate stream: the workload's loss
        // pattern (world RNG) is identical with chaos on or off, and
        // corruption never drops a packet.
        let plain = run(false);
        let chaotic = run(true);
        assert_eq!(plain.0, chaotic.0, "same deliveries");
        assert_eq!(plain.1, chaotic.1, "same loss pattern");
        assert_eq!(plain.2, 0);
        assert_eq!(chaotic.2, chaotic.0, "every delivered packet was corrupted");
        // And the chaotic run itself replays exactly.
        assert_eq!(run(true), chaotic);
    }

    #[test]
    fn gray_link_loses_route_preference() {
        let mut t = Topology::new();
        let eth = t.add_network("eth", Medium::ethernet100(), true);
        let atm = t.add_network("atm", Medium::atm155(), false);
        let a = t.add_host(HostCfg::named("a"));
        let b = t.add_host(HostCfg::named("b"));
        for h in [a, b] {
            t.attach(h, eth);
            t.attach(h, atm);
        }
        let mut w = World::new(t, 1);
        // ATM is normally preferred (155 > 100 Mbit)...
        assert_eq!(w.route(a, b, None).unwrap().first_net(), atm);
        // ...but grayed down to 10% bandwidth it loses to Ethernet.
        w.set_gray(atm, Some(GrayLevel { latency_factor: 5.0, bandwidth_factor: 0.1 }));
        assert_eq!(w.route(a, b, None).unwrap().first_net(), eth);
        w.set_gray(atm, None);
        assert_eq!(w.route(a, b, None).unwrap().first_net(), atm);
    }

    #[test]
    fn signals_are_delivered_with_sender() {
        let mut t = Topology::new();
        let _ = t.add_network("lan", Medium::ethernet100(), true);
        let a = t.add_host(HostCfg::named("a"));
        struct SignalLog {
            got: Vec<(u32, Option<Endpoint>)>,
        }
        impl Actor for SignalLog {
            fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
                if let Event::Signal { signum, from } = event {
                    self.got.push((signum, from));
                }
            }
        }
        let mut w = World::new(t, 1);
        let ep = w.spawn(a, 5, Box::new(SignalLog { got: Vec::new() })).unwrap();
        w.run_for(SimDuration::from_secs(1));
        w.signal(None, ep, 15);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.actor_ref::<SignalLog>(ep).unwrap().got, [(15, None)]);
    }
}
