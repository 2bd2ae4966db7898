//! Allocation regression tests for the stack's steady-state queries
//! and its per-message cost.
//!
//! The daemon's supervision sweep polls every process stack once per
//! tick: which peers exist, which of them are in RTO trouble (and so
//! need an RC location re-resolution), plus the timer sweep itself.
//! After warm-up (scratch vectors at capacity, transport state
//! populated) those per-tick calls must not touch the heap. A counting
//! global allocator makes any regression an immediate test failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per thread: libtest runs sibling tests on other threads, and their
// allocations must not land in this test's count. `const`-initialised,
// so reading it never allocates.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::HostId;
use snipe_util::time::SimTime;
use snipe_wire::stack::{StackConfig, WireStack};

const PEERS: u64 = 32;

#[test]
fn steady_state_peer_queries_do_not_allocate() {
    let now = SimTime::ZERO;
    let mut stack = WireStack::new(1, StackConfig::default());
    // Populate transport state: a located peer plus one queued message
    // each, so every peer has SRUDP protocol state and a path entry.
    for i in 0..PEERS {
        let key = 100 + i;
        stack.set_peer(key, Endpoint::new(HostId(i as u32 + 2), 40), Vec::new());
        stack.send(now, key, Bytes::from_static(b"supervision ping")).unwrap();
    }
    let _ = stack.drain();

    // Warm-up: grow both scratch vectors to steady-state capacity
    // (threshold 0 matches every peer, so the trouble scan appends the
    // full key set before filtering) and run one timer sweep so the
    // stack's internal key scratch reaches capacity too.
    let mut keys = Vec::new();
    let mut trouble = Vec::new();
    stack.known_peers_into(&mut keys);
    assert_eq!(keys.len(), PEERS as usize, "warm-up should see every peer");
    stack.peers_in_trouble_into(0, &mut trouble);
    assert_eq!(trouble.len(), PEERS as usize);
    stack.on_timer(now);
    let _ = stack.drain();

    let before = allocs();
    for _ in 0..10_000 {
        keys.clear();
        stack.known_peers_into(&mut keys);
        trouble.clear();
        stack.peers_in_trouble_into(1, &mut trouble);
        stack.on_timer(now);
    }
    let allocated = allocs() - before;

    assert_eq!(keys.len(), PEERS as usize);
    assert!(trouble.is_empty(), "no peer has timed out");
    assert_eq!(allocated, 0, "steady-state peer queries allocated {allocated} times");
}

/// The hosting adapter runs after every event an actor handles, most
/// of which leave the stack with nothing to send, deliver or re-arm.
/// That flush must not touch the heap (the engine around it does not
/// either: `netsim/tests/alloc.rs`).
#[test]
fn an_idle_flush_does_not_allocate() {
    use snipe_netsim::actor::{Actor, Event, SimCtx};
    use snipe_netsim::medium::Medium;
    use snipe_netsim::topology::{HostCfg, Topology};
    use snipe_netsim::world::World;
    use snipe_util::time::SimDuration;
    use snipe_wire::host::StackHost;

    const TICK: u64 = 1;

    struct Idle {
        stack: StackHost,
        flushes: u32,
    }

    impl Actor for Idle {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            match event {
                Event::Start => {
                    let mut stack = WireStack::new(1, StackConfig::default());
                    stack.set_peer(100, Endpoint::new(HostId(7), 40), Vec::new());
                    self.stack.start(stack);
                }
                Event::Timer { token: TICK } => {}
                _ => return,
            }
            assert!(self.stack.flush(ctx).is_empty());
            self.flushes += 1;
            ctx.set_timer(SimDuration::from_millis(1), TICK);
        }
    }

    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let h = topo.add_host(HostCfg::named("h"));
    topo.attach(h, net);
    let mut world = World::new(topo, 1);
    let ep = world.spawn(h, 40, Box::new(Idle { stack: StackHost::new(), flushes: 0 }));
    world.run_for(SimDuration::from_millis(100));

    let before = allocs();
    world.run_for(SimDuration::from_secs(10));
    let allocated = allocs() - before;

    let flushes = world.actor_ref::<Idle>(ep.unwrap()).unwrap().flushes;
    assert!(flushes > 10_000, "only {flushes} flushes ran");
    assert_eq!(allocated, 0, "{flushes} idle flushes allocated {allocated} times");
}

/// The transports' deadline table, driven through every transition a
/// lossy exchange makes — RTO filed on send (keep-the-earlier), the
/// receiver's delayed SACK and reassembly sweep filed, the SACK firing,
/// the RTO firing and re-arming, the final SACK cancelling it — must
/// not drift: once warm, every round of the exchange costs the same
/// number of allocations (message bodies, datagrams, the due lists),
/// and the calls that reach nothing but the table — `next_deadline`, a
/// timer sweep with nothing due — cost none. A table that grows with
/// the clock (a bucket touched for the first time, an index rebuilt)
/// shows up as a round that costs more than the one before. The cost of
/// a round is also pinned exactly for the wire layer's allocation diet:
/// a rise is a regression, a fall lowers the pin.
#[test]
fn a_warmed_lossy_exchange_costs_the_same_every_round() {
    use snipe_util::time::SimDuration;
    use snipe_wire::Out;

    let (ka, kb) = (1u64, 2u64);
    let (ea, eb) = (Endpoint::new(HostId(1), 40), Endpoint::new(HostId(2), 40));
    // Repeated timeouts back the RTO off to its cap; a low cap keeps
    // the whole run short of the receiver's 60 s reassembly sweep,
    // whose firing (a due list) would count against an idle call.
    let mut cfg = StackConfig::default();
    cfg.srudp.rto_max = SimDuration::from_millis(200);
    let mut a = WireStack::new(ka, cfg.clone());
    let mut b = WireStack::new(kb, cfg);
    a.set_peer(kb, eb, Vec::new());
    b.set_peer(ka, ea, Vec::new());
    // Three fragments at the default 1400-byte fragment size.
    let msg = Bytes::from(vec![7u8; 3000]);

    fn sends(stack: &mut WireStack) -> Vec<Bytes> {
        stack
            .drain()
            .into_iter()
            .filter_map(|o| match o {
                Out::Send { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect()
    }

    let mut now = SimTime::ZERO;
    let mut delivered = 0u32;
    let mut idle_allocs = 0;
    let mut round = |now: &mut SimTime| -> u64 {
        let before = allocs();
        a.send(*now, kb, msg.clone()).unwrap();
        let data = sends(&mut a);
        assert_eq!(data.len(), 3);
        // The middle fragment is lost; the outer two file the
        // receiver's delayed SACK, which then fires.
        b.on_datagram(*now, ea, data[0].clone()).unwrap();
        b.on_datagram(*now, ea, data[2].clone()).unwrap();
        *now = b.next_deadline().expect("delayed SACK pending") + SimDuration::from_micros(1);
        b.on_timer(*now);
        // That SACK is lost too, so the sender's RTO fires, re-sends
        // and re-arms.
        assert!(!sends(&mut b).is_empty(), "delayed SACK flushed");
        *now = a.next_deadline().expect("RTO pending") + SimDuration::from_micros(1);
        a.on_timer(*now);
        // Now everything gets through: message complete, final SACK
        // cancels the RTO.
        for d in sends(&mut a) {
            b.on_datagram(*now, ea, d).unwrap();
        }
        for o in b.drain() {
            match o {
                Out::Send { bytes, .. } => {
                    a.on_datagram(*now, eb, bytes).unwrap();
                }
                Out::Deliver { .. } => delivered += 1,
                _ => {}
            }
        }
        let _ = a.drain();
        let spent = allocs() - before;
        // Nothing due on either side: these reach only the table.
        let before = allocs();
        a.on_timer(*now);
        b.on_timer(*now);
        let _ = (a.next_deadline(), b.next_deadline());
        idle_allocs += allocs() - before;
        spent
    };

    for _ in 0..8 {
        round(&mut now);
    }
    let costs: Vec<u64> = (0..64).map(|_| round(&mut now)).collect();
    assert_eq!(delivered, 72, "every round delivers its message");
    assert!(now < SimTime::ZERO + SimDuration::from_secs(60), "ran into the 60 s sweep");
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "allocations per round drift: {costs:?}");
    assert_eq!(costs[0], 24, "allocations per round");
    assert_eq!(idle_allocs, 0, "table-only calls allocated");
}

/// Drive one message from `a` to `b` to completion over a lossless
/// pipe: `send` queues it at `a`, then each stack's drain goes to the
/// other until neither has a datagram left. Returns the deliveries.
fn exchange(
    a: &mut WireStack,
    b: &mut WireStack,
    now: SimTime,
    send: &mut dyn FnMut(&mut WireStack, SimTime),
) -> u32 {
    use snipe_wire::Out;
    let (ea, eb) = (Endpoint::new(HostId(1), 40), Endpoint::new(HostId(2), 40));
    // One drain of `from` into `to`: (datagrams moved, deliveries).
    fn pass(
        from: &mut WireStack,
        to: &mut WireStack,
        from_ep: Endpoint,
        now: SimTime,
    ) -> (u32, u32) {
        let (mut moved, mut delivered) = (0, 0);
        for o in from.drain() {
            match o {
                Out::Send { bytes, .. } => {
                    moved += 1;
                    to.on_datagram(now, from_ep, bytes).unwrap();
                }
                Out::Deliver { .. } => delivered += 1,
                Out::Wake { .. } => {}
            }
        }
        (moved, delivered)
    }
    send(a, now);
    let mut delivered = 0;
    loop {
        let (ab, da) = pass(a, b, ea, now);
        let (ba, db) = pass(b, a, eb, now);
        delivered += da + db;
        if ab + ba == 0 {
            return delivered;
        }
    }
}

/// Allocations of each of 16 warmed rounds of one message between two
/// stacks (a located SRUDP peer each way, RSTREAM registered), after 8
/// rounds of warm-up; `connect` opens an RSTREAM connection first.
fn warmed_message_costs(len: usize, rstream: bool) -> Vec<u64> {
    use snipe_util::time::SimDuration;
    use snipe_wire::rstream::RstreamConfig;

    let (ka, kb) = (1u64, 2u64);
    let cfg = StackConfig { rstream: Some(RstreamConfig::default()), ..StackConfig::default() };
    let mut a = WireStack::new(ka, cfg.clone());
    let mut b = WireStack::new(kb, cfg);
    a.set_peer(kb, Endpoint::new(HostId(2), 40), Vec::new());
    b.set_peer(ka, Endpoint::new(HostId(1), 40), Vec::new());
    let mut now = SimTime::ZERO;
    let conn = rstream.then(|| {
        let id = a.rstream_mut().unwrap().connect(now, Endpoint::new(HostId(2), 40));
        exchange(&mut a, &mut b, now, &mut |_, _| {});
        assert!(a.rstream().unwrap().is_established(id));
        id
    });
    let msg = Bytes::from(vec![7u8; len]);
    let mut send = |s: &mut WireStack, now: SimTime| match conn {
        Some(id) => s.rstream_mut().unwrap().send_message(now, id, &msg).unwrap(),
        None => s.send(now, kb, msg.clone()).unwrap(),
    };
    let mut costs = Vec::new();
    for round in 0..24 {
        let before = allocs();
        assert_eq!(exchange(&mut a, &mut b, now, &mut send), 1, "round {round} delivers");
        if round >= 8 {
            costs.push(allocs() - before);
        }
        now += SimDuration::from_micros(10);
    }
    assert!(a.quiescent() && b.quiescent());
    costs
}

/// One message between two warmed stacks, every allocation counted:
/// the sender's fragment list and acknowledgement flags, each datagram
/// (sealed once, in the driver's own buffer), the delivered message
/// where it must be copied, and each `WireStack::drain` result vector.
/// Nothing else — no header encoder, no re-sealing, no route list, no
/// drained driver queue to regrow, no reassembly buffer for a message
/// that arrives whole. The counts are exact: a rise is a regression, a
/// fall lowers the pin.
#[test]
fn a_warmed_message_costs_a_pinned_number_of_allocations() {
    // SRUDP, one fragment: split + acked flags, DATA, SACK, and three
    // non-empty drains (DATA out; SACK out + delivery; nothing left).
    let one = warmed_message_costs(1000, false);
    // SRUDP, three fragments at the default 1400-byte fragment size.
    let three = warmed_message_costs(3000, false);
    // RSTREAM: DATA, ACK, the delivered copy out of the stream buffer.
    let stream = warmed_message_costs(1000, true);
    for (what, costs) in
        [("1-fragment SRUDP", &one), ("3-fragment SRUDP", &three), ("RSTREAM", &stream)]
    {
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{what} drifts: {costs:?}");
    }
    assert_eq!((one[0], three[0], stream[0]), (6, 11, 5), "allocations per message");
}

/// The same transitions on the bare table, where every allocation is
/// the table's own: once its `Vec` has reached the live high-water
/// mark, filing, replacing, keeping the earlier, cancelling,
/// `next_deadline` and an expiry with nothing due allocate nothing.
#[test]
fn warm_deadline_table_calls_do_not_allocate() {
    use snipe_util::deadlines::Deadlines;
    use snipe_util::time::SimDuration;

    const EVICT: u8 = 0;
    const SACK: u8 = 1;
    const RTO: u8 = 2;
    let mut table: Deadlines<(u8, u64)> = Deadlines::new();
    let ms = SimDuration::from_millis;
    let mut cycle = |now: SimTime| {
        for peer in 0..PEERS {
            table.insert_earlier((RTO, peer), now + ms(100), ());
            table.insert_earlier((EVICT, peer), now + ms(60_000), ());
            table.insert((SACK, peer), now + ms(5), ());
        }
        assert!(table.take_due(now + ms(4)).is_empty());
        assert_eq!(table.next_deadline(), Some(now + ms(5)));
        for peer in 0..PEERS {
            table.remove(&(SACK, peer));
            table.insert((RTO, peer), now + ms(50), ());
            table.remove(&(RTO, peer));
        }
    };
    cycle(SimTime::ZERO);
    let before = allocs();
    for i in 1..1_000 {
        cycle(SimTime::ZERO + ms(i));
    }
    let allocated = allocs() - before;
    assert_eq!(allocated, 0, "warm deadline-table calls allocated {allocated} times");
}

/// Building a stack with all three transports, fresh or from a
/// snapshot, costs a pinned number of allocations: each transport is a
/// field of the stack, so none costs a box of its own and there is no
/// list of them to allocate. Importing adds the decoded section list
/// and whatever the SRUDP and multicast snapshots restore.
#[test]
fn building_a_three_transport_stack_costs_a_pinned_number_of_allocations() {
    use snipe_wire::rstream::RstreamConfig;

    let cfg = StackConfig {
        rstream: Some(RstreamConfig::default()),
        mcast_member: true,
        ..StackConfig::default()
    };
    let before = allocs();
    let mut stack = WireStack::new(1, cfg.clone());
    let built = allocs() - before;
    stack.set_peer(2, Endpoint::new(HostId(2), 40), Vec::new());
    stack.send(SimTime::ZERO, 2, Bytes::from_static(b"unacked")).unwrap();
    let _ = stack.drain();
    stack.mcast_member_mut().unwrap().accept(7, 9, 0, Bytes::new());
    let snapshot = stack.export_state();
    let before = allocs();
    let restored = WireStack::import_state(snapshot, cfg, SimTime::ZERO).unwrap();
    let imported = allocs() - before;
    assert_eq!(restored.backlog_total(), 7);
    assert_eq!((built, imported), (0, 18), "allocations to build, to import");
}
