//! Integration: daemons over the simulator — spawning, monitoring,
//! notify lists, authorization and multicast router election.

use bytes::Bytes;
use snipe_crypto::cert::{CertClaim, Certificate, TrustPurpose, TrustStore};
use snipe_crypto::sign::KeyPair;
use snipe_daemon::proto::{DaemonMsg, SpawnSpec, TaskState};
use snipe_daemon::registry::ProgramRegistry;
use snipe_daemon::{DaemonActor, DaemonConfig};
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::server::RcServerActor;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimDuration;
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::ports;
use std::sync::{Arc, Mutex};

/// A task that reports Exited to its local daemon after a delay.
struct ShortLived {
    lifetime: SimDuration,
}

impl Actor for ShortLived {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => ctx.set_timer(self.lifetime, 1),
            Event::Timer { .. } => {
                let daemon = Endpoint::new(ctx.host(), ports::DAEMON);
                let me = ctx.me().port;
                let msg = DaemonMsg::TaskReport { port: me, state: TaskState::Exited };
                ctx.send(daemon, seal(Proto::Raw, msg.encode_to_bytes()));
            }
            _ => {}
        }
    }
}

/// Test driver: sends daemon messages from a script, records replies.
struct Driver {
    script: Vec<(SimDuration, Endpoint, DaemonMsg)>,
    log: Arc<Mutex<Vec<DaemonMsg>>>,
}

impl Actor for Driver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start if !self.script.is_empty() => {
                ctx.set_timer(self.script[0].0, 1);
            }
            Event::Timer { .. } => {
                let (_, to, msg) = self.script.remove(0);
                ctx.send(to, seal(Proto::Raw, msg.encode_to_bytes()));
                if !self.script.is_empty() {
                    ctx.set_timer(self.script[0].0, 1);
                }
            }
            Event::Packet { payload, .. } => {
                if let Ok((Proto::Raw, body)) = open(payload) {
                    if let Ok(msg) = DaemonMsg::decode_from_bytes(body) {
                        self.log.lock().unwrap().push(msg);
                    }
                }
            }
            _ => {}
        }
    }
}

fn world_with_daemon(
    registry: ProgramRegistry,
    trust: Option<TrustStore>,
) -> (World, HostId, HostId) {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let rc_host = topo.add_host(HostCfg::named("rc0"));
    let worker = topo.add_host(HostCfg::named("worker"));
    let client = topo.add_host(HostCfg::named("client"));
    for h in [rc_host, worker, client] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, 7);
    world.spawn(
        rc_host,
        ports::RC_SERVER,
        Box::new(RcServerActor::new(1, vec![], SimDuration::from_millis(200))),
    );
    let mut cfg = DaemonConfig::new("worker", vec![Endpoint::new(rc_host, ports::RC_SERVER)]);
    cfg.trust = trust;
    world.spawn(worker, ports::DAEMON, Box::new(DaemonActor::new(cfg, registry)));
    (world, worker, client)
}

#[test]
fn spawn_runs_task_and_reports_exit_to_notify_list() {
    let registry = ProgramRegistry::new();
    registry
        .register("short", |_| Box::new(ShortLived { lifetime: SimDuration::from_millis(100) }));
    let (mut world, worker, client) = world_with_daemon(registry, None);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver_ep = Endpoint::new(client, 40);
    let mut spec = SpawnSpec::program("short", Bytes::new());
    spec.notify = vec![driver_ep];
    let driver = Driver {
        script: vec![(
            SimDuration::from_millis(10),
            Endpoint::new(worker, ports::DAEMON),
            DaemonMsg::SpawnReq { req_id: 1, spec },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(1));
    let log = log.lock().unwrap();
    let resp = log
        .iter()
        .find_map(|m| match m {
            DaemonMsg::SpawnResp { ok, proc_key, .. } => Some((*ok, *proc_key)),
            _ => None,
        })
        .expect("spawn response");
    assert!(resp.0, "spawn must succeed");
    assert!(resp.1 > 0);
    let exited = log
        .iter()
        .any(|m| matches!(m, DaemonMsg::TaskEvent { state: TaskState::Exited, proc_key } if *proc_key == resp.1));
    assert!(exited, "notify list must hear about the exit: {log:?}");
}

#[test]
fn unknown_program_rejected() {
    let (mut world, worker, client) = world_with_daemon(ProgramRegistry::new(), None);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = Driver {
        script: vec![(
            SimDuration::from_millis(10),
            Endpoint::new(worker, ports::DAEMON),
            DaemonMsg::SpawnReq { req_id: 9, spec: SpawnSpec::program("nope", Bytes::new()) },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_millis(500));
    let log = log.lock().unwrap();
    assert!(log.iter().any(|m| matches!(m, DaemonMsg::SpawnResp { req_id: 9, ok: false, .. })));
}

#[test]
fn authorization_enforced_when_trust_configured() {
    let mut rng = Xoshiro256::seed_from_u64(5);
    let rm_ca = KeyPair::generate_default(&mut rng);
    let user = KeyPair::generate_default(&mut rng);
    let mut trust = TrustStore::new();
    trust.trust(TrustPurpose::ResourceAuthorization, rm_ca.public.clone());

    let registry = ProgramRegistry::new();
    registry.register("short", |_| Box::new(ShortLived { lifetime: SimDuration::from_millis(50) }));
    let (mut world, worker, client) = world_with_daemon(registry, Some(trust));
    let log = Arc::new(Mutex::new(Vec::new()));

    // Unauthorized spawn (no credential).
    let bad = DaemonMsg::SpawnReq { req_id: 1, spec: SpawnSpec::program("short", Bytes::new()) };
    // Authorized spawn: certificate from the trusted CA covering this host.
    let cert = Certificate::issue(
        &mut rng,
        &rm_ca,
        "urn:snipe:user:alice",
        user.public.clone(),
        vec![CertClaim { name: "allowed-hosts".into(), value: "worker".into() }],
    );
    let mut good_spec = SpawnSpec::program("short", Bytes::new());
    good_spec.credential = Some(cert.encode_to_bytes());
    let good = DaemonMsg::SpawnReq { req_id: 2, spec: good_spec };
    // Wrong-host certificate.
    let cert_other = Certificate::issue(
        &mut rng,
        &rm_ca,
        "urn:snipe:user:bob",
        user.public.clone(),
        vec![CertClaim { name: "allowed-hosts".into(), value: "otherhost".into() }],
    );
    let mut wrong_spec = SpawnSpec::program("short", Bytes::new());
    wrong_spec.credential = Some(cert_other.encode_to_bytes());
    let wrong = DaemonMsg::SpawnReq { req_id: 3, spec: wrong_spec };

    let daemon_ep = Endpoint::new(worker, ports::DAEMON);
    let driver = Driver {
        script: vec![
            (SimDuration::from_millis(10), daemon_ep, bad),
            (SimDuration::from_millis(10), daemon_ep, good),
            (SimDuration::from_millis(10), daemon_ep, wrong),
        ],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(1));
    let log = log.lock().unwrap();
    let outcome = |id: u64| {
        log.iter()
            .find_map(|m| match m {
                DaemonMsg::SpawnResp { req_id, ok, .. } if *req_id == id => Some(*ok),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no response for req {id}: {log:?}"))
    };
    assert!(!outcome(1), "missing credential must be rejected");
    assert!(outcome(2), "trusted credential must be accepted");
    assert!(!outcome(3), "wrong-host credential must be rejected");
}

#[test]
fn kill_terminates_task() {
    let registry = ProgramRegistry::new();
    registry.register("long", |_| Box::new(ShortLived { lifetime: SimDuration::from_secs(3600) }));
    let (mut world, worker, client) = world_with_daemon(registry, None);
    let log = Arc::new(Mutex::new(Vec::new()));
    let daemon_ep = Endpoint::new(worker, ports::DAEMON);
    let mut spec = SpawnSpec::program("long", Bytes::new());
    spec.notify = vec![Endpoint::new(client, 40)];
    let driver = Driver {
        script: vec![
            (SimDuration::from_millis(10), daemon_ep, DaemonMsg::SpawnReq { req_id: 1, spec }),
            // Kill the first spawned task (TASK_BASE port).
            (SimDuration::from_millis(100), daemon_ep, DaemonMsg::Kill { port: ports::TASK_BASE }),
        ],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(1));
    assert!(!world.is_bound(Endpoint::new(worker, ports::TASK_BASE)));
    let log = log.lock().unwrap();
    assert!(log.iter().any(|m| matches!(m, DaemonMsg::TaskEvent { state: TaskState::Exited, .. })));
}

#[test]
fn router_election_spawns_router() {
    let (mut world, worker, client) = world_with_daemon(ProgramRegistry::new(), None);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = Driver {
        script: vec![(
            SimDuration::from_millis(10),
            Endpoint::new(worker, ports::DAEMON),
            DaemonMsg::ElectRouter { group: 42 },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_millis(500));
    let log = log.lock().unwrap();
    let resp = log.iter().find_map(|m| match m {
        DaemonMsg::ElectResp { group: 42, router } => Some(*router),
        _ => None,
    });
    assert_eq!(resp, Some(Endpoint::new(worker, ports::MCAST_ROUTER)));
    assert!(world.is_bound(Endpoint::new(worker, ports::MCAST_ROUTER)));
}

#[test]
fn host_crash_reports_crashed_tasks_on_reboot() {
    let registry = ProgramRegistry::new();
    registry.register("long", |_| Box::new(ShortLived { lifetime: SimDuration::from_secs(3600) }));
    let (mut world, worker, client) = world_with_daemon(registry, None);
    let log = Arc::new(Mutex::new(Vec::new()));
    let daemon_ep = Endpoint::new(worker, ports::DAEMON);
    let mut spec = SpawnSpec::program("long", Bytes::new());
    spec.notify = vec![Endpoint::new(client, 40)];
    let driver = Driver {
        script: vec![(
            SimDuration::from_millis(10),
            daemon_ep,
            DaemonMsg::SpawnReq { req_id: 1, spec },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_millis(200));
    world.host_down(worker);
    world.run_for(SimDuration::from_millis(200));
    world.host_up(worker);
    world.run_for(SimDuration::from_millis(500));
    let log = log.lock().unwrap();
    assert!(
        log.iter().any(|m| matches!(m, DaemonMsg::TaskEvent { state: TaskState::Crashed, .. })),
        "crash must be reported after reboot: {log:?}"
    );
}
