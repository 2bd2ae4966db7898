//! Integration: resource managers over the simulator — active/passive
//! allocation, load balancing, failover to redundant RMs and the §4
//! dual-certificate authorization flow.

use bytes::Bytes;
use snipe_crypto::cert::{CertClaim, Certificate, TrustPurpose, TrustStore};
use snipe_crypto::sign::KeyPair;
use snipe_daemon::proto::SpawnSpec;
use snipe_daemon::registry::ProgramRegistry;
use snipe_daemon::{DaemonActor, DaemonConfig};
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::FaultCmd;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::server::RcServerActor;
use snipe_rm::proto::{AllocMode, RmMsg};
use snipe_rm::{RmActor, RmConfig};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimDuration;
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::ports;
use std::sync::{Arc, Mutex};

struct Idle;
impl Actor for Idle {
    fn on_event(&mut self, _ctx: &mut dyn SimCtx, _event: Event) {}
}

struct Driver {
    script: Vec<(SimDuration, Endpoint, RmMsg)>,
    log: Arc<Mutex<Vec<RmMsg>>>,
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
                    if let Ok(msg) = RmMsg::decode_from_bytes(body) {
                        self.log.lock().unwrap().push(msg);
                    }
                }
            }
            _ => {}
        }
    }
}

/// RC server + `workers` worker hosts with daemons + one RM + a client.
fn build(workers: usize, trust: TrustStore) -> (World, Endpoint, snipe_util::id::HostId) {
    let registry = ProgramRegistry::new();
    registry.register("idle", |_| Box::new(Idle));
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let rc_host = topo.add_host(HostCfg::named("rc0"));
    topo.attach(rc_host, net);
    let rc_ep = Endpoint::new(rc_host, ports::RC_SERVER);
    let mut worker_hosts = Vec::new();
    for i in 0..workers {
        let mut cfg = HostCfg::named(format!("w{i}"));
        cfg.cpu_factor = 1.0 + i as f64 * 0.5; // later hosts are faster
        let h = topo.add_host(cfg);
        topo.attach(h, net);
        worker_hosts.push(h);
    }
    let rm_host = topo.add_host(HostCfg::named("rm0"));
    topo.attach(rm_host, net);
    let client = topo.add_host(HostCfg::named("client"));
    topo.attach(client, net);
    let mut world = World::new(topo, 11);
    world.spawn(
        rc_host,
        ports::RC_SERVER,
        Box::new(RcServerActor::new(1, vec![], SimDuration::from_millis(200))),
    );
    for (i, &h) in worker_hosts.iter().enumerate() {
        let cfg = DaemonConfig::new(format!("w{i}"), vec![rc_ep]);
        world.spawn(h, ports::DAEMON, Box::new(DaemonActor::new(cfg, registry.clone())));
    }
    let mut rm_cfg = RmConfig::new(vec![rc_ep]);
    rm_cfg.trust = trust;
    let rm_ep = Endpoint::new(rm_host, ports::RESOURCE_MANAGER);
    world.spawn(rm_host, ports::RESOURCE_MANAGER, Box::new(RmActor::new(rm_cfg)));
    (world, rm_ep, client)
}

#[test]
fn active_allocation_spawns_tasks() {
    let (mut world, rm_ep, client) = build(4, TrustStore::new());
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = Driver {
        script: vec![(
            SimDuration::from_secs(3), // give the RM time to learn hosts
            rm_ep,
            RmMsg::AllocReq {
                req_id: 1,
                spec: SpawnSpec::program("idle", Bytes::new()),
                count: 3,
                mode: AllocMode::Active,
            },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(6));
    let log = log.lock().unwrap();
    let resp = log
        .iter()
        .find_map(|m| match m {
            RmMsg::AllocResp { req_id: 1, ok, allocations, error } => {
                Some((*ok, allocations.clone(), error.clone()))
            }
            _ => None,
        })
        .expect("alloc response");
    assert!(resp.0, "allocation failed: {}", resp.2);
    assert_eq!(resp.1.len(), 3);
    // Tasks actually run.
    for a in &resp.1 {
        assert!(world.is_bound(a.task), "task {a:?} must be alive");
        assert!(a.proc_key != 0);
    }
    // Spread over distinct hosts.
    let mut hosts: Vec<&str> = resp.1.iter().map(|a| a.hostname.as_str()).collect();
    hosts.sort_unstable();
    hosts.dedup();
    assert_eq!(hosts.len(), 3);
}

#[test]
fn passive_allocation_returns_reservations() {
    let (mut world, rm_ep, client) = build(2, TrustStore::new());
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = Driver {
        script: vec![(
            SimDuration::from_secs(3),
            rm_ep,
            RmMsg::AllocReq {
                req_id: 2,
                spec: SpawnSpec::program("idle", Bytes::new()),
                count: 2,
                mode: AllocMode::Passive,
            },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(5));
    let log = log.lock().unwrap();
    let resp = log
        .iter()
        .find_map(|m| match m {
            RmMsg::AllocResp { req_id: 2, ok, allocations, .. } => Some((*ok, allocations.clone())),
            _ => None,
        })
        .expect("alloc response");
    assert!(resp.0);
    assert_eq!(resp.1.len(), 2);
    for a in &resp.1 {
        assert_eq!(a.proc_key, 0, "passive mode must not spawn");
        assert_eq!(a.daemon.port, ports::DAEMON);
    }
}

#[test]
fn overcommit_rejected() {
    let (mut world, rm_ep, client) = build(2, TrustStore::new());
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = Driver {
        script: vec![(
            SimDuration::from_secs(3),
            rm_ep,
            RmMsg::AllocReq {
                req_id: 3,
                spec: SpawnSpec::program("idle", Bytes::new()),
                count: 10,
                mode: AllocMode::Active,
            },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(5));
    let log = log.lock().unwrap();
    assert!(log.iter().any(|m| matches!(m, RmMsg::AllocResp { req_id: 3, ok: false, .. })));
}

#[test]
fn dead_worker_worked_around() {
    let (mut world, rm_ep, client) = build(3, TrustStore::new());
    let log = Arc::new(Mutex::new(Vec::new()));
    // Kill the least-loaded (first-ranked) worker before the request:
    // the RM will pick it first, time out, and retry on another host.
    let w0 = world.topology().host_by_name("w0").unwrap();
    world.schedule_fault(
        snipe_util::time::SimTime::ZERO + SimDuration::from_millis(2500),
        FaultCmd::HostDown(w0),
    );
    let driver = Driver {
        script: vec![(
            SimDuration::from_secs(3),
            rm_ep,
            RmMsg::AllocReq {
                req_id: 4,
                spec: SpawnSpec::program("idle", Bytes::new()),
                count: 1,
                mode: AllocMode::Active,
            },
        )],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(8));
    let log = log.lock().unwrap();
    let resp = log
        .iter()
        .find_map(|m| match m {
            RmMsg::AllocResp { req_id: 4, ok, allocations, .. } => Some((*ok, allocations.clone())),
            _ => None,
        })
        .expect("alloc response");
    assert!(resp.0, "RM must retry around the dead host: {log:?}");
    assert_ne!(resp.1[0].hostname, "w0");
}

#[test]
fn dual_certificate_authorization_flow() {
    // Build trust: the RM trusts `user_ca` for users and `host_ca` for
    // hosts (§4: the RM is also conveniently a CA, but here they are
    // separate parties to exercise the general shape).
    let mut rng = Xoshiro256::seed_from_u64(99);
    let user_ca = KeyPair::generate_default(&mut rng);
    let host_ca = KeyPair::generate_default(&mut rng);
    let alice = KeyPair::generate_default(&mut rng);
    let hostkey = KeyPair::generate_default(&mut rng);
    let mut trust = TrustStore::new();
    trust.trust(TrustPurpose::UserCertification, user_ca.public.clone());
    trust.trust(TrustPurpose::HostCertification, host_ca.public.clone());

    let user_cert = Certificate::issue(
        &mut rng,
        &user_ca,
        "urn:snipe:user:alice",
        alice.public.clone(),
        vec![CertClaim { name: "resources".into(), value: "w0,w1".into() }],
    );
    let host_cert =
        Certificate::issue(&mut rng, &host_ca, "snipe://client/", hostkey.public.clone(), vec![]);
    // A forged user certificate signed by a random key.
    let mallory_ca = KeyPair::generate_default(&mut rng);
    let forged = Certificate::issue(
        &mut rng,
        &mallory_ca,
        "urn:snipe:user:mallory",
        alice.public.clone(),
        vec![CertClaim { name: "resources".into(), value: "*".into() }],
    );

    let (mut world, rm_ep, client) = build(2, trust);
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = Driver {
        script: vec![
            (
                SimDuration::from_millis(100),
                rm_ep,
                RmMsg::AuthReq {
                    req_id: 1,
                    user_cert: user_cert.encode_to_bytes(),
                    host_cert: host_cert.encode_to_bytes(),
                    resource: "w0".into(),
                },
            ),
            (
                SimDuration::from_millis(100),
                rm_ep,
                RmMsg::AuthReq {
                    req_id: 2,
                    user_cert: forged.encode_to_bytes(),
                    host_cert: host_cert.encode_to_bytes(),
                    resource: "w0".into(),
                },
            ),
            (
                SimDuration::from_millis(100),
                rm_ep,
                RmMsg::AuthReq {
                    req_id: 3,
                    user_cert: user_cert.encode_to_bytes(),
                    host_cert: host_cert.encode_to_bytes(),
                    resource: "w9".into(), // not in alice's grant
                },
            ),
        ],
        log: log.clone(),
    };
    world.spawn(client, 40, Box::new(driver));
    world.run_for(SimDuration::from_secs(2));
    let log = log.lock().unwrap();
    let get = |id: u64| {
        log.iter()
            .find_map(|m| match m {
                RmMsg::AuthResp { req_id, ok, grant, .. } if *req_id == id => {
                    Some((*ok, grant.clone()))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no auth resp {id}: {log:?}"))
    };
    let (ok1, grant) = get(1);
    assert!(ok1, "legitimate request must be granted");
    // The grant verifies against the RM's key and covers the host.
    let rm_key = RmActor::keypair_for_seed(0x524d).public;
    let cert = Certificate::decode_from_bytes(grant).unwrap();
    assert!(cert.verify_with(&rm_key));
    assert_eq!(cert.claim("allowed-hosts"), Some("w0"));
    assert!(!get(2).0, "forged user cert must be denied");
    assert!(!get(3).0, "out-of-grant resource must be denied");
}
