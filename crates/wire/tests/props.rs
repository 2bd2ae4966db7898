//! Property tests for route failover and the stack snapshot format.
//!
//! The contracts under test: timeout-driven rotation always settles on
//! a surviving route, wherever it sits in the ranking, and stays there
//! while traffic flows; and the per-driver tagged snapshot round-trips
//! transport state — SRUDP queues and locations, multicast dedup —
//! through `export_state`/`import_state`.

use bytes::Bytes;
use proptest::{prop_assert, prop_assert_eq, proptest};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::WireEncode;
use snipe_util::id::{HostId, NetId};
use snipe_util::time::SimTime;
use snipe_wire::frame::{seal, Proto};
use snipe_wire::mcast::McastMsg;
use snipe_wire::path::PeerPaths;
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::stack::{StackConfig, WireStack};
use snipe_wire::Out;

/// Drive escalating consecutive-timeout reports until the route
/// rotates off `dead` (bounded; panics on non-termination via the
/// assert in the caller). Returns how many reports it took.
fn kill_route(p: &mut PeerPaths, dead: NetId) -> u32 {
    let mut consecutive = 0;
    while p.current() == Some(dead) && consecutive < 64 {
        consecutive += 1;
        p.report_timeouts(consecutive);
    }
    consecutive
}

proptest! {
    /// However many routes exist and wherever the survivor ranks,
    /// escalating timeouts rotate route-by-route until the survivor
    /// carries traffic — and once it does, polling with zero timeouts
    /// never rotates away.
    #[test]
    fn failover_converges_to_the_surviving_route(
        n in 2usize..6,
        survivor_off in 0usize..5,
    ) {
        let nets: Vec<NetId> = (0..n as u32).map(NetId).collect();
        let survivor = nets[survivor_off % n];
        let mut p = PeerPaths::new(nets);
        let mut rounds = 0;
        while p.current() != Some(survivor) {
            prop_assert!(rounds < 64, "never settled on survivor: {p:?}");
            let dead = p.current().unwrap();
            kill_route(&mut p, dead);
            rounds += 1;
        }
        // Traffic flows on the survivor; the stack keeps polling.
        p.report_timeouts(0);
        for _ in 0..32 {
            prop_assert!(!p.report_timeouts(0));
            prop_assert_eq!(p.current(), Some(survivor));
            prop_assert_eq!(p.spray_route(4, 0), Some(survivor));
        }
    }

    /// Cross-driver snapshot round-trip: a stack running all three
    /// drivers exports per-driver tagged sections; importing restores
    /// SRUDP peers, locations and backlog, kicks retransmission of
    /// everything unacked, and preserves multicast dedup state. A
    /// slimmer configuration imports the same snapshot by dropping the
    /// sections it does not register.
    #[test]
    fn cross_driver_snapshot_round_trips(
        peer_rows in proptest::collection::vec(
            (2u64..200, 1u32..50, proptest::collection::vec(proptest::any::<u8>(), 1..60)),
            1..4,
        ),
        mcasts in proptest::collection::vec((0u64..3, 5u64..9, 0u64..6), 1..8),
    ) {
        // Dedup generated rows by key (the shim has no map strategy).
        let peers: std::collections::BTreeMap<u64, (u32, Vec<u8>)> = peer_rows
            .into_iter()
            .map(|(key, host, payload)| (key, (host, payload)))
            .collect();
        let now = SimTime::ZERO;
        let cfg = StackConfig {
            rstream: Some(RstreamConfig::default()),
            mcast_member: true,
            ..StackConfig::default()
        };
        let mut stack = WireStack::new(1, cfg.clone());
        for (&key, &(host, ref payload)) in &peers {
            stack.set_peer(key, Endpoint::new(HostId(host), 40), Vec::new());
            stack.send(now, key, Bytes::from(payload.clone())).unwrap();
        }
        let relay = Endpoint::new(HostId(99), 7);
        let data = |(group, origin, seq): (u64, u64, u64)| {
            McastMsg::Data { group, origin, seq, ttl: 2, payload: Bytes::from_static(b"x") }
                .encode_to_bytes()
        };
        for &m in &mcasts {
            let r = stack.on_datagram(now, relay, seal(Proto::Mcast, data(m))).unwrap();
            prop_assert_eq!(r, None, "registered member must consume MCAST");
        }
        let _ = stack.drain();

        let snap = stack.export_state();
        let mut imported = WireStack::import_state(snap.clone(), cfg, now).unwrap();
        prop_assert_eq!(imported.key(), stack.key());
        prop_assert_eq!(imported.known_peers(), stack.known_peers());
        prop_assert_eq!(imported.backlog_total(), stack.backlog_total());
        prop_assert!(imported.backlog_total() > 0, "every peer has a queued message");
        for &key in peers.keys() {
            prop_assert_eq!(imported.peer_endpoint(key), stack.peer_endpoint(key));
        }
        // Import kicks retransmission: the unacked queue goes back out.
        let outs = imported.drain();
        prop_assert!(
            outs.iter().any(|o| matches!(o, Out::Send { .. })),
            "import must retransmit the unacked backlog"
        );
        // Multicast dedup state travelled: replaying every original
        // datagram delivers nothing, while a fresh sequence still does.
        for &m in &mcasts {
            imported.on_datagram(now, relay, seal(Proto::Mcast, data(m))).unwrap();
        }
        let dups = imported
            .drain()
            .iter()
            .filter(|o| matches!(o, Out::Deliver { proto: Proto::Mcast, .. }))
            .count();
        prop_assert_eq!(dups, 0, "imported member re-delivered a seen message");
        imported.on_datagram(now, relay, seal(Proto::Mcast, data((0, 5, 1_000)))).unwrap();
        let fresh = imported
            .drain()
            .iter()
            .filter(|o| matches!(o, Out::Deliver { proto: Proto::Mcast, .. }))
            .count();
        prop_assert_eq!(fresh, 1, "fresh multicast traffic must still deliver");
        // A snapshot from a three-driver stack loads into an
        // SRUDP-only configuration; unregistered sections are dropped.
        let slim = WireStack::import_state(snap, StackConfig::default(), now).unwrap();
        prop_assert_eq!(slim.known_peers(), stack.known_peers());
    }
}

/// With exactly one candidate, rotation has nothing to rotate to: it
/// must be a strict no-op, not a self-swap that counts a phantom
/// failover.
#[test]
fn single_candidate_rotation_is_a_no_op() {
    let a = NetId(0);
    let mut p = PeerPaths::new(vec![a]);
    assert_eq!(p.rotate(), Some(a), "the only route stays current");
    assert_eq!(p.failovers, 0, "no failover may be counted");
    assert!(!p.report_timeouts(10), "timeouts cannot rotate a single route");
    // A later RC refresh adding a second route keeps traffic on the
    // route that has been carrying it.
    for _ in 0..5 {
        p.rotate();
    }
    p.update(vec![NetId(1), a]);
    assert_eq!(p.current(), Some(a), "the current route survives the refresh");
}
