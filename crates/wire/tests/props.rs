//! Property tests for the path scorer and the stack snapshot format.
//!
//! The contracts under test are the refactor's load-bearing promises:
//! timeout-driven rotation always settles on a surviving route (no
//! matter where it sits in the ranking or how good the dead routes
//! once looked), a gray link that heals earns selection back instead
//! of being blacklisted forever, and the per-driver tagged snapshot
//! round-trips transport state — SRUDP queues and locations, multicast
//! dedup — through `export_state`/`import_state`.

use bytes::Bytes;
use proptest::{prop_assert, prop_assert_eq, proptest};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::WireEncode;
use snipe_util::id::{HostId, NetId};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};
use snipe_wire::mcast::McastMsg;
use snipe_wire::path::{
    PeerPaths, PENALTY_PER_FAILOVER, RTT_SAMPLE_MAX, RTT_SAMPLE_MIN, UNMEASURED_RTT_SCORE,
};
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::stack::{StackConfig, WireStack};
use snipe_wire::Out;

/// Drive escalating consecutive-timeout reports until the scorer
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
    /// However many routes exist, wherever the survivor ranks, and
    /// however fast the dead routes once measured, escalating timeouts
    /// rotate route-by-route until the survivor carries traffic — and
    /// once it does, polling with zero timeouts never rotates away.
    #[test]
    fn failover_converges_to_the_surviving_route(
        n in 2usize..6,
        survivor_off in 0usize..5,
        dead_rtt_ms in 1u64..80,
    ) {
        let nets: Vec<NetId> = (0..n as u32).map(NetId).collect();
        let survivor = nets[survivor_off % n];
        let mut p = PeerPaths::new(nets);
        // The first route measures excellently before it dies: a good
        // history must not keep a dead route selected.
        p.record_rtt(SimDuration::from_millis(dead_rtt_ms));
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
            p.record_rtt(SimDuration::from_millis(dead_rtt_ms));
            p.record_progress();
            prop_assert!(!p.report_timeouts(0));
            prop_assert_eq!(p.current(), Some(survivor));
            prop_assert_eq!(p.select(), Some(survivor));
        }
    }

    /// A fast route that goes gray accumulates failover penalty and
    /// loses selection; once rotation retries it and it carries
    /// traffic again, forward progress decays the penalty to exactly
    /// zero and its measured RTT wins selection back.
    #[test]
    fn scores_recover_after_a_gray_link_heals(
        fast_ms in 1u64..40,
        slow_ms in 50u64..90,
        gray_cycles in 1u32..4,
    ) {
        let a = NetId(0);
        let b = NetId(1);
        let mut p = PeerPaths::new(vec![a, b]);
        p.record_rtt(SimDuration::from_millis(fast_ms));
        for _ in 0..gray_cycles {
            // A goes gray: timeouts rotate to B, penalising A. While
            // the penalty is fresh, B wins selection outright.
            kill_route(&mut p, a);
            prop_assert_eq!(p.current(), Some(b));
            prop_assert_eq!(p.select(), Some(b));
            // B carries traffic for a while (at its slower RTT)...
            p.report_timeouts(0);
            p.record_rtt(SimDuration::from_millis(slow_ms));
            p.record_progress();
            // ...then fails in turn, sending rotation back to A.
            kill_route(&mut p, b);
            prop_assert_eq!(p.current(), Some(a));
            p.report_timeouts(0);
        }
        let grayed = p.score(a).unwrap();
        prop_assert!(grayed >= PENALTY_PER_FAILOVER, "no penalty recorded: {grayed}");
        // The link heals: A carries traffic and is forgiven. The
        // penalty floor snaps the decay to exactly zero, so the score
        // converges to the measured RTT alone, below B's.
        for _ in 0..600 {
            p.record_rtt(SimDuration::from_millis(fast_ms));
            p.record_progress();
        }
        let healed = p.score(a).unwrap();
        prop_assert!((healed - fast_ms as f64 / 1e3).abs() < 1e-9, "penalty residue: {healed}");
        prop_assert!(p.score(a).unwrap() < p.score(b).unwrap());
        prop_assert_eq!(p.select(), Some(a));
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

// ---------------------------------------------------------------------
// Pinned regressions: PathSelector edge cases reachable from corrupted
// transport input (hostile RTT echoes) or degenerate RC metadata (a
// single advertised route). Each of these failed before the fix.
// ---------------------------------------------------------------------

/// A zero RTT sample (corrupted timestamp echo) must not seed the EWMA
/// at 0: a score of exactly 0.0 is unbeatable, so the poisoned route
/// would stay selected forever no matter how it fails later.
#[test]
fn zero_rtt_sample_cannot_seed_a_perfect_score() {
    let a = NetId(0);
    let b = NetId(1);
    let mut p = PeerPaths::new(vec![a, b]);
    p.record_rtt(SimDuration::ZERO);
    let s = p.score(a).unwrap();
    assert!(
        s >= RTT_SAMPLE_MIN.as_nanos() as f64 / 1e9,
        "zero sample must clamp to RTT_SAMPLE_MIN, got score {s}"
    );
    // The clamped route is still beatable: after a failover penalty it
    // loses selection to the untried alternative.
    p.rotate();
    assert_eq!(p.select(), Some(b), "poisoned route must not be unbeatable");
}

/// A huge RTT sample (corrupted echo claiming ~11.5 days) must clamp:
/// unclamped it poisons the EWMA so badly that no realistic number of
/// genuine samples wins the route back.
#[test]
fn huge_rtt_sample_is_clamped() {
    let a = NetId(0);
    let mut p = PeerPaths::new(vec![a]);
    p.record_rtt(SimDuration::from_millis(1_000_000_000));
    let cap = RTT_SAMPLE_MAX.as_nanos() as f64 / 1e9;
    let s = p.score(a).unwrap();
    assert!(s <= cap + 1e-9, "huge sample must clamp to RTT_SAMPLE_MAX, got {s}");
    // Genuine traffic recovers the score in a handful of samples, not
    // thousands: 64 samples at 5ms must pull the EWMA under 100ms.
    for _ in 0..64 {
        p.record_rtt(SimDuration::from_millis(5));
    }
    assert!(p.score(a).unwrap() < 0.100, "EWMA must recover: {:?}", p.score(a));
}

/// With exactly one candidate, rotation has nothing to rotate to: it
/// must be a strict no-op, not a self-swap that penalises the only
/// usable route and counts a phantom failover.
#[test]
fn single_candidate_rotation_is_a_no_op() {
    let a = NetId(0);
    let mut p = PeerPaths::new(vec![a]);
    assert_eq!(p.rotate(), Some(a), "the only route stays current");
    assert_eq!(p.failovers, 0, "no failover may be counted");
    assert!(
        (p.score(a).unwrap() - UNMEASURED_RTT_SCORE).abs() < 1e-12,
        "no penalty may accrue: {:?}",
        p.score(a)
    );
    // The un-poisoned score means a later RC refresh adding a second
    // (untried) route does not instantly steal traffic from a healthy
    // single route that had weathered a few such calls.
    for _ in 0..5 {
        p.rotate();
    }
    p.update(vec![a, NetId(1)]);
    assert_eq!(p.select(), Some(a), "healthy route keeps selection after refresh");
}

/// Scores must stay finite (and selection functional) under a hostile
/// history: extreme samples, thousands of rotations, decay cycles.
/// NaN is the killer — it compares false against everything, so one
/// non-finite score would wedge selection permanently.
#[test]
fn scores_stay_finite_under_hostile_history() {
    let a = NetId(0);
    let b = NetId(1);
    let mut p = PeerPaths::new(vec![a, b]);
    p.record_rtt(SimDuration::from_nanos(u64::MAX));
    for _ in 0..10_000 {
        p.rotate();
    }
    for _ in 0..10_000 {
        p.record_progress();
    }
    p.record_rtt(SimDuration::ZERO);
    for net in [a, b] {
        let s = p.score(net).unwrap();
        assert!(s.is_finite(), "score({net:?}) went non-finite: {s}");
    }
    assert!(p.select().is_some(), "selection must survive hostile history");
    assert!(!p.report_timeouts(0), "a zero-timeout poll never rotates");
}
