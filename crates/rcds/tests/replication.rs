//! Integration: RC replicas over the network simulator — convergence by
//! anti-entropy and availability through replica failover (paper §2.1,
//! §6; basis of experiment E3).

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::proto::RcMsg;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::store::{RcStore, Update, VersionVector};
use snipe_rcds::uri::Uri;
use snipe_util::codec::WireEncode;
use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};
use snipe_wire::ports;
use std::sync::{Arc, Mutex};

/// What a scripted request came back with: request id, success, and
/// the assertions returned.
type Completed = (u64, bool, Vec<Assertion>);

/// A test client actor wrapping RcClient.
struct ClientActor {
    rc: RcHost,
    script: Vec<(SimDuration, Op)>,
    results: Arc<Mutex<Vec<Completed>>>,
}

enum Op {
    Put(Uri, &'static str, &'static str),
    Get(Uri),
}

const TIMER_SCRIPT: u64 = 100;
const TIMER_RC: u64 = 101;

fn client(replicas: Vec<Endpoint>) -> RcHost {
    RcHost::new(RcClient::new(replicas, SimDuration::from_millis(50)), TIMER_RC)
}

impl ClientActor {
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        for (id, result) in self.rc.flush(ctx) {
            match result {
                Ok(reply) => self.results.lock().unwrap().push((id, true, reply.assertions)),
                Err(_) => self.results.lock().unwrap().push((id, false, vec![])),
            }
        }
    }
}

impl Actor for ClientActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start if !self.script.is_empty() => {
                ctx.set_timer(self.script[0].0, TIMER_SCRIPT);
            }
            Event::Timer { token: TIMER_SCRIPT } => {
                let (_, op) = self.script.remove(0);
                match op {
                    Op::Put(uri, k, v) => {
                        self.rc.put(ctx.now(), &uri, vec![Assertion::new(k, v)]);
                    }
                    Op::Get(uri) => {
                        self.rc.get(ctx.now(), &uri);
                    }
                }
                if !self.script.is_empty() {
                    let next = self.script[0].0;
                    ctx.set_timer(next, TIMER_SCRIPT);
                }
                self.pump(ctx);
            }
            Event::Timer { token: TIMER_RC } => {
                self.rc.on_timer(ctx.now());
                self.pump(ctx);
            }
            Event::HostUp => {
                self.rc.on_host_up(ctx.now());
                self.pump(ctx);
            }
            Event::Packet { from, payload } => {
                self.rc.on_datagram(ctx.now(), from, payload);
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

fn build_world(replicas: usize) -> (World, Vec<Endpoint>, HostId) {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let mut eps = Vec::new();
    for i in 0..replicas {
        let h = topo.add_host(HostCfg::named(format!("rc{i}")));
        topo.attach(h, net);
        eps.push(Endpoint::new(h, ports::RC_SERVER));
    }
    let client_host = topo.add_host(HostCfg::named("client"));
    topo.attach(client_host, net);
    let mut world = World::new(topo, 42);
    for (ep, server) in eps.iter().zip(RcServerActor::group(&eps, SimDuration::from_millis(200))) {
        world.spawn(ep.host, ep.port, Box::new(server));
    }
    (world, eps, client_host)
}

#[test]
fn put_on_one_replica_readable_from_another_after_sync() {
    let (mut world, eps, client_host) = build_world(3);
    let results = Arc::new(Mutex::new(Vec::new()));
    let uri = Uri::process(7);
    // Writer talks only to replica 0; reader only to replica 2.
    let writer = ClientActor {
        rc: client(vec![eps[0]]),
        script: vec![(SimDuration::from_millis(1), Op::Put(uri.clone(), "loc", "h9:100"))],
        results: results.clone(),
    };
    let reader = ClientActor {
        rc: client(vec![eps[2]]),
        script: vec![(SimDuration::from_secs(2), Op::Get(uri.clone()))],
        results: results.clone(),
    };
    world.spawn(client_host, 50, Box::new(writer));
    world.spawn(client_host, 51, Box::new(reader));
    world.run_for(SimDuration::from_secs(3));
    let res = results.lock().unwrap();
    assert_eq!(res.len(), 2, "both ops must complete: {res:?}");
    let get = res.iter().find(|(_, _, a)| !a.is_empty()).expect("get returned data");
    assert_eq!(get.2[0].name, "loc");
    assert_eq!(get.2[0].value, "h9:100");
}

#[test]
fn client_fails_over_when_preferred_replica_dies() {
    let (mut world, eps, client_host) = build_world(3);
    let results = Arc::new(Mutex::new(Vec::new()));
    let uri = Uri::process(9);
    // Seed data into replica 1 (which gossips to all).
    let writer = ClientActor {
        rc: client(vec![eps[1]]),
        script: vec![(SimDuration::from_millis(1), Op::Put(uri.clone(), "k", "v"))],
        results: results.clone(),
    };
    // Reader prefers replica 0, which we kill before the read.
    let reader = ClientActor {
        rc: client(vec![eps[0], eps[1], eps[2]]),
        script: vec![(SimDuration::from_secs(2), Op::Get(uri.clone()))],
        results: results.clone(),
    };
    world.spawn(client_host, 50, Box::new(writer));
    world.spawn(client_host, 51, Box::new(reader));
    let dead = eps[0].host;
    world.schedule_fault(SimTime::ZERO + SimDuration::from_secs(1), FaultCmd::HostDown(dead));
    world.run_for(SimDuration::from_secs(4));
    let res = results.lock().unwrap();
    let get = res.iter().find(|(_, _, a)| !a.is_empty());
    assert!(get.is_some(), "read must succeed via failover: {res:?}");
}

#[test]
fn recovered_replica_catches_up() {
    let (mut world, eps, client_host) = build_world(2);
    let results = Arc::new(Mutex::new(Vec::new()));
    let uri = Uri::process(11);
    // Kill replica 1 first; write to replica 0 while 1 is down; revive
    // 1; then read from 1 only.
    let dead = eps[1].host;
    world.schedule_fault(SimTime::ZERO + SimDuration::from_millis(10), FaultCmd::HostDown(dead));
    let writer = ClientActor {
        rc: client(vec![eps[0]]),
        script: vec![(SimDuration::from_millis(100), Op::Put(uri.clone(), "k", "late"))],
        results: results.clone(),
    };
    world.schedule_fault(SimTime::ZERO + SimDuration::from_secs(1), FaultCmd::HostUp(dead));
    let reader = ClientActor {
        rc: client(vec![eps[1]]),
        script: vec![(SimDuration::from_secs(3), Op::Get(uri.clone()))],
        results: results.clone(),
    };
    world.spawn(client_host, 50, Box::new(writer));
    world.spawn(client_host, 51, Box::new(reader));
    world.run_for(SimDuration::from_secs(5));
    let res = results.lock().unwrap();
    let get = res.iter().find(|(_, _, a)| !a.is_empty());
    assert!(get.is_some(), "revived replica must have caught up: {res:?}");
    assert_eq!(get.unwrap().2[0].value, "late");
}

/// Every replica re-arms its anti-entropy tick on `HostUp`. The engine
/// only drops a timer that pops *while* the host is down, so after a
/// flap shorter than the time to the pending tick the old tick is
/// still queued — re-arming blindly starts a second chain beside it,
/// for good. However often a host flaps, it must keep syncing once per
/// interval: 20 rounds in 10 s at 500 ms.
#[test]
fn short_host_flaps_do_not_multiply_the_sync_tick() {
    for flaps in [0u64, 1, 5, 10] {
        let mut topo = Topology::new();
        let net = topo.add_network("lan", Medium::ethernet100(), true);
        let hosts: Vec<HostId> = (0..2)
            .map(|i| {
                let h = topo.add_host(HostCfg::named(format!("rc{i}")));
                topo.attach(h, net);
                h
            })
            .collect();
        let eps: Vec<Endpoint> =
            hosts.iter().map(|&h| Endpoint::new(h, ports::RC_SERVER)).collect();
        let mut world = World::new(topo, 42);
        for (ep, server) in
            eps.iter().zip(RcServerActor::group(&eps, SimDuration::from_millis(500)))
        {
            world.spawn(ep.host, ep.port, Box::new(server));
        }
        // 10 ms flaps of host 0, 100 ms apart, each well inside a tick.
        for i in 0..flaps {
            let down = SimTime::ZERO + SimDuration::from_millis(1_050 + 100 * i);
            world.schedule_fault(down, FaultCmd::HostDown(hosts[0]));
            world.schedule_fault(down + SimDuration::from_millis(10), FaultCmd::HostUp(hosts[0]));
        }
        world.run_for(SimDuration::from_secs(3));
        let before = world.actor_ref::<RcServerActor>(eps[0]).unwrap().sync_rounds;
        world.run_for(SimDuration::from_secs(10));
        let rounds = world.actor_ref::<RcServerActor>(eps[0]).unwrap().sync_rounds - before;
        assert!((19..=21).contains(&rounds), "{flaps} flaps: {rounds} sync rounds in 10 s idle");
    }
}

/// `n` updates from each of three origins that are neither replica:
/// the bulk of a long-lived catalog's log.
fn three_origin_log(n: u64) -> Vec<Update> {
    let mut log = Vec::new();
    for origin in [7, 8, 9] {
        let mut writer = RcStore::new(origin);
        for i in 0..n {
            writer.put(&Uri::process(origin * 1_000_000 + i), Assertion::new("k", "v"), i);
        }
        log.extend(writer.updates_since(&VersionVector::new(), usize::MAX).into_iter().cloned());
    }
    log
}

/// Ships updates to replicas as ordinary `SyncPush` datagrams: `level`
/// to both at start, `late` to replica 0 alone at `LATE`.
struct Feeder {
    replicas: Vec<Endpoint>,
    level: Vec<Update>,
    late: Vec<Update>,
}

const TIMER_LATE: u64 = 102;
const LATE: SimDuration = SimDuration::from_secs(40);

fn push(ctx: &mut dyn SimCtx, to: Endpoint, updates: &[Update]) {
    let msg = RcMsg::SyncPush { updates: updates.to_vec(), more: false };
    ctx.send(to, seal(Proto::Raw, msg.encode_to_bytes()));
}

impl Actor for Feeder {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                for chunk in self.level.chunks(10) {
                    for &to in &self.replicas {
                        push(ctx, to, chunk);
                    }
                }
                ctx.set_timer(LATE, TIMER_LATE);
            }
            Event::Timer { token: TIMER_LATE } => push(ctx, self.replicas[0], &self.late),
            _ => {}
        }
    }
}

/// The exact work gate of anti-entropy: a `SyncReq` costs the log
/// entries its sender lacks, never the length of the log. Two replicas
/// level on 50 000 updates answer 100 requests each without visiting
/// one entry; a peer `k` behind costs exactly `min(k, limit)`.
#[test]
fn sync_req_visits_only_what_the_peer_lacks() {
    let mut log = three_origin_log(16_668);
    let late = log.split_off(50_000);
    assert_eq!(late.len(), 4);

    let (mut world, eps, client_host) = build_world(2);
    let feeder = Feeder { replicas: eps.clone(), level: log.clone(), late };
    world.spawn(client_host, 50, Box::new(feeder));
    let probe = |world: &World, i: usize| {
        let server = world.actor_ref::<RcServerActor>(eps[i]).unwrap();
        (server.store().log_len(), server.store().log_visited(), server.sync_rounds)
    };

    // Level: both hold the whole log. Whatever one pushed the other
    // while the feeder was mid-way is before the baseline.
    world.run_for(SimDuration::from_secs(10));
    let level = [probe(&world, 0), probe(&world, 1)];
    assert_eq!((level[0].0, level[1].0), (50_000, 50_000));

    // Up to date: ≥ 100 requests each way, zero entries visited.
    world.run_for(SimDuration::from_secs(21));
    for (i, &(_, visited_before, rounds_before)) in level.iter().enumerate() {
        let (_, visited, rounds) = probe(&world, i);
        assert!(rounds - rounds_before >= 100, "replica {i}: {} rounds", rounds - rounds_before);
        assert_eq!(visited, visited_before, "replica {i} walked its log for an up-to-date peer");
    }

    // Replica 1 falls 4 behind: replica 0 visits those 4, once.
    world.run_for(SimDuration::from_secs(19));
    assert_eq!(probe(&world, 0).0, 50_004);
    assert_eq!(probe(&world, 1).0, 50_004);
    assert_eq!(probe(&world, 0).1 - level[0].1, 4);
    assert_eq!(probe(&world, 1).1, level[1].1);

    // Any lag against any limit, on the same 50 000-entry log. The log
    // is ascending per origin, so a peer holding its first `n` entries
    // has the vector those entries collect to.
    let mut ahead = RcStore::new(1);
    for u in &log {
        ahead.apply(u.clone());
    }
    for k in [0usize, 1, 63, 64, 65, 1_000, 50_000] {
        let behind: VersionVector =
            log[..50_000 - k].iter().map(|u| (u.origin, u.seq + 1)).collect();
        for limit in [1usize, 64, usize::MAX] {
            let before = ahead.log_visited();
            let got = ahead.updates_since(&behind, limit).len();
            assert_eq!(got, k.min(limit));
            assert_eq!(ahead.log_visited() - before, k.min(limit) as u64, "k {k} limit {limit}");
        }
    }
}
