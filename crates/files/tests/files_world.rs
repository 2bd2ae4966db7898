//! Integration: file servers over the simulator — sink/source
//! processes, replication with integrity, and checkpoint-style
//! store/read. File operations ride the reliable SRUDP stack exactly as
//! the clients in `snipe-core` do (§5.9).

use bytes::Bytes;
use snipe_files::proto::FileMsg;
use snipe_files::{FileServerActor, FileServerConfig};
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::server::RcServerActor;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};
use snipe_wire::host::StackHost;
use snipe_wire::ports;
use snipe_wire::stack::{endpoint_key, Incoming, StackConfig, WireStack};
use std::sync::{Arc, Mutex};

/// What the driver does at each script step.
enum Step {
    /// Reliable FileMsg to a server endpoint.
    Reliable(Endpoint, FileMsg),
    /// Raw FileMsg datagram (sink append/close traffic).
    Raw(Endpoint, FileMsg),
}

/// Test driver speaking the reliable stack, logging every FileMsg that
/// arrives either reliably or raw.
struct StackDriver {
    stack: StackHost,
    script: Vec<(SimDuration, Step)>,
    log: Arc<Mutex<Vec<FileMsg>>>,
}

const TIMER_SCRIPT: u64 = 1;

impl StackDriver {
    fn new(script: Vec<(SimDuration, Step)>, log: Arc<Mutex<Vec<FileMsg>>>) -> StackDriver {
        StackDriver { stack: StackHost::new(), script, log }
    }

    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        for d in self.stack.flush(ctx) {
            if let Ok(m) = FileMsg::decode_from_bytes(d.msg) {
                self.log.lock().unwrap().push(m);
            }
        }
    }
}

impl Actor for StackDriver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                self.stack.start(WireStack::new(endpoint_key(me), StackConfig::default()));
                if !self.script.is_empty() {
                    ctx.set_timer(self.script[0].0, TIMER_SCRIPT);
                }
            }
            Event::Timer { token: TIMER_SCRIPT } => {
                let (_, step) = self.script.remove(0);
                let now = ctx.now();
                match step {
                    Step::Reliable(to, msg) => {
                        let stack = self.stack.as_mut().expect("started");
                        stack.set_peer(endpoint_key(to), to, vec![]);
                        stack.send(now, endpoint_key(to), msg.encode_to_bytes()).unwrap();
                    }
                    Step::Raw(to, msg) => {
                        ctx.send(to, seal(Proto::Raw, msg.encode_to_bytes()));
                    }
                }
                if !self.script.is_empty() {
                    ctx.set_timer(self.script[0].0, TIMER_SCRIPT);
                }
                self.pump(ctx);
            }
            Event::Wake => {
                self.stack.on_wake(ctx.now());
                self.pump(ctx);
            }
            Event::Timer { .. } => {}
            Event::Packet { from, payload } => {
                if let Some(Incoming::Raw { msg, .. }) =
                    self.stack.on_packet(ctx.now(), from, payload)
                {
                    if let Ok(m) = FileMsg::decode_from_bytes(msg) {
                        self.log.lock().unwrap().push(m);
                    }
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.stack.next_deadline()
    }
}

fn build(servers: usize) -> (World, Vec<Endpoint>, snipe_util::id::HostId) {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let rc_host = topo.add_host(HostCfg::named("rc0"));
    topo.attach(rc_host, net);
    let rc_ep = Endpoint::new(rc_host, ports::RC_SERVER);
    let mut eps = Vec::new();
    for i in 0..servers {
        let h = topo.add_host(HostCfg::named(format!("fs{i}")));
        topo.attach(h, net);
        eps.push(Endpoint::new(h, ports::FILE_SERVER));
    }
    let client = topo.add_host(HostCfg::named("client"));
    topo.attach(client, net);
    let mut world = World::new(topo, 3);
    world.spawn(
        rc_host,
        ports::RC_SERVER,
        Box::new(RcServerActor::new(1, vec![], SimDuration::from_millis(200))),
    );
    for (i, ep) in eps.iter().enumerate() {
        let peers: Vec<Endpoint> = eps.iter().copied().filter(|e| e != ep).collect();
        let cfg = FileServerConfig::new(format!("fs{i}"), vec![rc_ep], peers);
        world.spawn(ep.host, ep.port, Box::new(FileServerActor::new(cfg)));
    }
    (world, eps, client)
}

#[test]
fn store_and_read_round_trip_with_hash() {
    let (mut world, eps, client) = build(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let content = Bytes::from(vec![7u8; 5000]);
    let driver = StackDriver::new(
        vec![
            (
                SimDuration::from_millis(10),
                Step::Reliable(
                    eps[0],
                    FileMsg::StoreReq {
                        req_id: 1,
                        lifn: "lifn:snipe:file:data".into(),
                        content: content.clone(),
                    },
                ),
            ),
            (
                SimDuration::from_millis(50),
                Step::Reliable(
                    eps[0],
                    FileMsg::ReadReq { req_id: 2, lifn: "lifn:snipe:file:data".into() },
                ),
            ),
            (
                SimDuration::from_millis(10),
                Step::Reliable(
                    eps[0],
                    FileMsg::ReadReq { req_id: 3, lifn: "lifn:snipe:file:missing".into() },
                ),
            ),
        ],
        log.clone(),
    );
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(2));
    let log = log.lock().unwrap();
    assert!(log.iter().any(|m| matches!(m, FileMsg::StoreResp { req_id: 1, ok: true })), "{log:?}");
    let read = log
        .iter()
        .find_map(|m| match m {
            FileMsg::ReadResp { req_id: 2, ok: true, content, hash } => {
                Some((content.clone(), hash.clone()))
            }
            _ => None,
        })
        .expect("read response");
    assert_eq!(read.0, content);
    assert_eq!(&read.1[..], &snipe_crypto::sha256::sha256(&content)[..]);
    assert!(log.iter().any(|m| matches!(m, FileMsg::ReadResp { req_id: 3, ok: false, .. })));
}

#[test]
fn sink_accumulates_and_file_becomes_readable() {
    let (mut world, eps, client) = build(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = StackDriver::new(
        vec![(
            SimDuration::from_millis(10),
            Step::Reliable(
                eps[0],
                FileMsg::OpenSink { req_id: 1, lifn: "lifn:snipe:file:log".into() },
            ),
        )],
        log.clone(),
    );
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_millis(200));
    let sink = log
        .lock()
        .unwrap()
        .iter()
        .find_map(|m| match m {
            FileMsg::SinkOpened { req_id: 1, sink } => Some(*sink),
            _ => None,
        })
        .expect("sink opened");
    let driver2 = StackDriver::new(
        vec![
            (
                SimDuration::from_millis(1),
                Step::Raw(sink, FileMsg::Append { data: Bytes::from_static(b"hello ") }),
            ),
            (
                SimDuration::from_millis(1),
                Step::Raw(sink, FileMsg::Append { data: Bytes::from_static(b"world") }),
            ),
            (SimDuration::from_millis(1), Step::Raw(sink, FileMsg::CloseSink)),
            (
                SimDuration::from_millis(50),
                Step::Reliable(
                    eps[0],
                    FileMsg::ReadReq { req_id: 2, lifn: "lifn:snipe:file:log".into() },
                ),
            ),
        ],
        log.clone(),
    );
    world.spawn(client, 41, Box::new(driver2));
    world.run_for(SimDuration::from_secs(2));
    let log = log.lock().unwrap();
    let read = log
        .iter()
        .find_map(|m| match m {
            FileMsg::ReadResp { req_id: 2, ok: true, content, .. } => Some(content.clone()),
            _ => None,
        })
        .expect("read after sink close");
    assert_eq!(&read[..], b"hello world");
    assert!(!world.is_bound(sink), "sink process must exit after close");
}

#[test]
fn source_streams_file_to_destination() {
    let (mut world, eps, client) = build(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let content = Bytes::from((0..5000u32).map(|i| (i % 256) as u8).collect::<Vec<u8>>());
    let dest = Endpoint::new(client, 42);
    let driver = StackDriver::new(
        vec![
            (
                SimDuration::from_millis(10),
                Step::Reliable(
                    eps[0],
                    FileMsg::StoreReq {
                        req_id: 1,
                        lifn: "lifn:snipe:file:big".into(),
                        content: content.clone(),
                    },
                ),
            ),
            (
                SimDuration::from_millis(100),
                Step::Reliable(
                    eps[0],
                    FileMsg::OpenSource { req_id: 2, lifn: "lifn:snipe:file:big".into(), dest },
                ),
            ),
        ],
        log.clone(),
    );
    world.spawn(client, 40, Box::new(driver));
    let recv_log = Arc::new(Mutex::new(Vec::new()));
    world.spawn(client, 42, Box::new(StackDriver::new(vec![], recv_log.clone())));
    world.run_for(SimDuration::from_secs(3));
    let chunks = recv_log.lock().unwrap();
    let mut data = Vec::new();
    let mut saw_last = false;
    for m in chunks.iter() {
        if let FileMsg::SourceData { data: d, last, .. } = m {
            data.extend_from_slice(d);
            saw_last |= *last;
        }
    }
    assert!(saw_last, "source must mark the last chunk");
    assert_eq!(Bytes::from(data), content);
}

#[test]
fn replication_daemon_copies_to_peer() {
    let (mut world, eps, client) = build(3);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = StackDriver::new(
        vec![(
            SimDuration::from_millis(10),
            Step::Reliable(
                eps[0],
                FileMsg::StoreReq {
                    req_id: 1,
                    lifn: "lifn:snipe:file:repl".into(),
                    content: Bytes::from_static(b"replicate me"),
                },
            ),
        )],
        log.clone(),
    );
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(3));
    let log2 = Arc::new(Mutex::new(Vec::new()));
    let driver2 = StackDriver::new(
        vec![(
            SimDuration::from_millis(1),
            Step::Reliable(
                eps[1],
                FileMsg::ReadReq { req_id: 2, lifn: "lifn:snipe:file:repl".into() },
            ),
        )],
        log2.clone(),
    );
    world.spawn(client, 41, Box::new(driver2));
    world.run_for(SimDuration::from_secs(2));
    let log2 = log2.lock().unwrap();
    let read = log2.iter().find_map(|m| match m {
        FileMsg::ReadResp { req_id: 2, ok, content, .. } => Some((*ok, content.clone())),
        _ => None,
    });
    assert_eq!(read, Some((true, Bytes::from_static(b"replicate me"))));
}

#[test]
fn striped_read_assembles_across_replicas() {
    let (mut world, eps, client) = build(3);
    let log = Arc::new(Mutex::new(Vec::new()));
    let content = Bytes::from((0..20_000u32).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>());
    // Seed the same file on every replica so the fetcher can stripe.
    let script = eps
        .iter()
        .map(|&ep| {
            (
                SimDuration::from_millis(10),
                Step::Reliable(
                    ep,
                    FileMsg::StoreReq {
                        req_id: 1,
                        lifn: "lifn:snipe:file:striped".into(),
                        content: content.clone(),
                    },
                ),
            )
        })
        .collect();
    world.spawn(client, 40, Box::new(StackDriver::new(script, log.clone())));
    world.run_for(SimDuration::from_secs(1));
    let fetcher = snipe_files::FetchActor::new(
        "lifn:snipe:file:striped",
        eps.clone(),
        4096,
        SimDuration::from_millis(5),
    );
    world.spawn(client, 50, Box::new(fetcher));
    world.run_for(SimDuration::from_secs(3));
    let fa = world
        .actor_ref::<snipe_files::FetchActor>(Endpoint::new(client, 50))
        .expect("fetch actor alive");
    assert_eq!(fa.result.as_ref(), Some(&content), "striped fetch must reassemble the file");
    assert!(!fa.failed);
    // 20 000 bytes / 4096 ⇒ 5 stripes, each completed exactly once.
    let mut sorted = fa.completions.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    assert_eq!(fa.stats.stripes_completed, 5);
    assert_eq!(fa.stats.integrity_rejects, 0);
}

#[test]
fn striped_read_survives_replica_death_mid_transfer() {
    let (mut world, eps, client) = build(3);
    let log = Arc::new(Mutex::new(Vec::new()));
    let content = Bytes::from((0..40_000u32).map(|i| (i * 13 % 241) as u8).collect::<Vec<u8>>());
    let script = eps
        .iter()
        .map(|&ep| {
            (
                SimDuration::from_millis(10),
                Step::Reliable(
                    ep,
                    FileMsg::StoreReq {
                        req_id: 1,
                        lifn: "lifn:snipe:file:hardy".into(),
                        content: content.clone(),
                    },
                ),
            )
        })
        .collect();
    world.spawn(client, 40, Box::new(StackDriver::new(script, log.clone())));
    world.run_for(SimDuration::from_secs(1));
    let fetcher = snipe_files::FetchActor::new(
        "lifn:snipe:file:hardy",
        eps.clone(),
        4096,
        SimDuration::from_millis(5),
    );
    world.spawn(client, 50, Box::new(fetcher));
    // Let the fetch start, then kill one replica mid-transfer; its
    // stripes must be re-dispatched to the survivors.
    world.run_for(SimDuration::from_millis(8));
    world.host_down(eps[1].host);
    world.run_for(SimDuration::from_secs(8));
    let fa = world
        .actor_ref::<snipe_files::FetchActor>(Endpoint::new(client, 50))
        .expect("fetch actor alive");
    assert_eq!(fa.result.as_ref(), Some(&content), "fetch must survive a replica crash");
    let mut sorted = fa.completions.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), fa.completions.len(), "no stripe completed twice");
}

#[test]
fn replica_survives_origin_server_death() {
    let (mut world, eps, client) = build(2);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = StackDriver::new(
        vec![(
            SimDuration::from_millis(10),
            Step::Reliable(
                eps[0],
                FileMsg::StoreReq {
                    req_id: 1,
                    lifn: "lifn:snipe:file:ckpt".into(),
                    content: Bytes::from_static(b"checkpoint"),
                },
            ),
        )],
        log.clone(),
    );
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(2));
    world.host_down(eps[0].host);
    let log2 = Arc::new(Mutex::new(Vec::new()));
    let driver2 = StackDriver::new(
        vec![(
            SimDuration::from_millis(1),
            Step::Reliable(
                eps[1],
                FileMsg::ReadReq { req_id: 2, lifn: "lifn:snipe:file:ckpt".into() },
            ),
        )],
        log2.clone(),
    );
    world.spawn(client, 41, Box::new(driver2));
    world.run_for(SimDuration::from_secs(2));
    let ok = log2
        .lock()
        .unwrap()
        .iter()
        .any(|m| matches!(m, FileMsg::ReadResp { req_id: 2, ok: true, .. }));
    assert!(ok, "surviving replica must serve the file");
}

/// The file server re-arms its replicate tick on `HostUp`; a flap
/// shorter than the time to the pending tick leaves that tick queued,
/// so a blind re-arm starts a second chain for good (see the RC
/// replica's twin of this test). An idle server with no peers does
/// nothing but tick: 20 events in 10 s at 500 ms, however often its
/// host flapped before.
#[test]
fn short_host_flaps_do_not_multiply_the_replicate_tick() {
    for flaps in [0u64, 1, 5, 10] {
        let (mut world, eps, _) = build(1);
        for i in 0..flaps {
            let down = snipe_util::time::SimTime::ZERO + SimDuration::from_millis(1_050 + 100 * i);
            world.schedule_fault(down, FaultCmd::HostDown(eps[0].host));
            world
                .schedule_fault(down + SimDuration::from_millis(10), FaultCmd::HostUp(eps[0].host));
        }
        world.run_for(SimDuration::from_secs(3));
        let before = world.stats().events;
        world.run_for(SimDuration::from_secs(10));
        let ticks = world.stats().events - before;
        assert!((19..=21).contains(&ticks), "{flaps} flaps: {ticks} ticks in 10 s idle");
    }
}

/// A stored file's replica registration is an RC put. Here it is
/// pending when the server's host goes down and times out during the
/// outage, so its wake-up is swallowed; the server must retry it when
/// the host returns rather than leave the file unregistered until some
/// later store happens to flush the RC client.
#[test]
fn replica_registration_survives_a_host_outage() {
    let (mut world, eps, client) = build(1);
    let at = |ms| snipe_util::time::SimTime::ZERO + SimDuration::from_millis(ms);
    let rc_host = world.topology().host_by_name("rc0").unwrap();
    // The catalog misses the first attempt (down until 200 ms); the
    // file server is down from 20 ms to 600 ms, across the 260 ms
    // deadline of the put it issued at 10 ms.
    world.schedule_fault(at(1), FaultCmd::HostDown(rc_host));
    world.schedule_fault(at(200), FaultCmd::HostUp(rc_host));
    world.schedule_fault(at(20), FaultCmd::HostDown(eps[0].host));
    world.schedule_fault(at(600), FaultCmd::HostUp(eps[0].host));
    let lifn = "lifn:snipe:file:data";
    let store = FileMsg::StoreReq { req_id: 1, lifn: lifn.into(), content: Bytes::from("x") };
    let driver = StackDriver::new(
        vec![(SimDuration::from_millis(10), Step::Reliable(eps[0], store))],
        Arc::default(),
    );
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(2));
    let rc = world.actor_ref::<RcServerActor>(Endpoint::new(rc_host, ports::RC_SERVER)).unwrap();
    let uri = snipe_rcds::uri::Uri::parse(lifn.to_string()).unwrap();
    let registered = rc.store().get(&uri);
    assert!(registered.iter().any(|a| a.name == "replica:fs0"), "catalog holds {registered:?}");
}
