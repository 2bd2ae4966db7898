//! The per-host daemon actor.

use std::collections::{BTreeMap, HashMap};

use snipe_crypto::cert::{Certificate, TrustPurpose, TrustStore};
use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, FaultOp, TraceKind};
use snipe_rcds::assertion::Assertion;
use snipe_rcds::uri::Uri;
use snipe_rcds::{RcClient, RcHost};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::mcast::McastMsg;
use snipe_wire::ports;

use crate::proto::{DaemonMsg, SpawnSpec, TaskState};
use crate::registry::ProgramRegistry;
use crate::router::McastRouterActor;

/// How often a daemon publishes its load metadata.
const LOAD_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Daemon configuration.
#[derive(Clone)]
pub struct DaemonConfig {
    /// This host's name (for its distinguished URL).
    pub hostname: String,
    /// RC replica endpoints.
    pub rc_replicas: Vec<Endpoint>,
    /// Architecture tag advertised in host metadata.
    pub arch: String,
    /// When set, spawn requests must carry a certificate issued by a
    /// key trusted for [`TrustPurpose::ResourceAuthorization`] (§4).
    pub trust: Option<TrustStore>,
}

impl DaemonConfig {
    /// Permissive defaults for a named host.
    pub fn new(hostname: impl Into<String>, rc_replicas: Vec<Endpoint>) -> DaemonConfig {
        DaemonConfig { hostname: hostname.into(), rc_replicas, arch: "sim64".into(), trust: None }
    }
}

struct TaskInfo {
    proc_key: u64,
    state: TaskState,
    notify: Vec<Endpoint>,
}

/// The daemon actor (listens on [`ports::DAEMON`]).
pub struct DaemonActor {
    cfg: DaemonConfig,
    registry: ProgramRegistry,
    rc: RcHost,
    /// When the host's load metadata is next published.
    next_load: Option<SimTime>,
    tasks: BTreeMap<u16, TaskInfo>,
    next_task_port: u16,
    next_local_key: u64,
    /// Groups this daemon routes (group id → router endpoint).
    routing: HashMap<u64, Endpoint>,
    /// Pending RC reads of group router sets: req id → group id.
    router_lookups: HashMap<u64, u64>,
    /// Spawns served (diagnostics).
    pub spawns: u64,
    /// Spawns rejected for authorization failures.
    pub rejected: u64,
}

impl DaemonActor {
    /// New daemon for a host.
    pub fn new(cfg: DaemonConfig, registry: ProgramRegistry) -> DaemonActor {
        let rc = RcClient::new(cfg.rc_replicas.clone(), SimDuration::from_millis(250));
        DaemonActor {
            cfg,
            registry,
            rc: RcHost::new(rc),
            next_load: None,
            tasks: BTreeMap::new(),
            next_task_port: ports::TASK_BASE,
            next_local_key: 1,
            routing: HashMap::new(),
            router_lookups: HashMap::new(),
            spawns: 0,
            rejected: 0,
        }
    }

    fn send_msg(&self, ctx: &mut dyn SimCtx, to: Endpoint, msg: &DaemonMsg) {
        ctx.send(to, seal(Proto::Raw, msg.encode_to_bytes()));
    }

    /// Flush the RC client; a completed router lookup peers us with them.
    fn pump_rc(&mut self, ctx: &mut dyn SimCtx) {
        for (id, result) in self.rc.flush(ctx) {
            let Some(group) = self.router_lookups.remove(&id) else {
                continue;
            };
            // §5.4: a router that adds itself "registers itself with
            // more than half of the other routers for that group" — we
            // peer with every existing router, both directions.
            let Some(&mine) = self.routing.get(&group) else {
                continue;
            };
            let Ok(reply) = result else { continue };
            for a in &reply.assertions {
                if !a.name.starts_with("router:") {
                    continue;
                }
                let Some((h, p)) = a.value.split_once(':') else {
                    continue;
                };
                let (Ok(h), Ok(p)) = (h.parse::<u32>(), p.parse::<u16>()) else {
                    continue;
                };
                let other = Endpoint::new(snipe_util::id::HostId(h), p);
                if other == mine {
                    continue;
                }
                let m1 = McastMsg::Peer { group, router: mine };
                ctx.send(other, seal(Proto::Mcast, m1.encode_to_bytes()));
                let m2 = McastMsg::Peer { group, router: other };
                ctx.send(mine, seal(Proto::Mcast, m2.encode_to_bytes()));
            }
        }
    }

    fn publish_host_metadata(&mut self, ctx: &mut dyn SimCtx) {
        let uri = Uri::host(&self.cfg.hostname);
        let host = ctx.host();
        let topo = ctx.topology();
        let mut asserts = vec![
            Assertion::new("type", "host"),
            Assertion::new("arch", self.cfg.arch.clone()),
            Assertion::new("cpu-factor", format!("{}", topo.host(host).cpu_factor)),
            Assertion::new("daemon-endpoint", format!("{}:{}", host.0, ports::DAEMON)),
            Assertion::new("load", format!("{}", self.tasks.len())),
        ];
        for iface in &topo.host(host).interfaces {
            let net = topo.net(iface.net);
            asserts.push(Assertion::new(
                format!("interface:{}", net.name),
                format!("net={};bw={};up={}", iface.net.0, net.medium.bandwidth_bps, iface.up),
            ));
        }
        let now = ctx.now();
        self.rc.put(now, &uri, asserts);
        self.pump_rc(ctx);
        self.next_load = Some(now + LOAD_INTERVAL);
    }

    fn authorize(&self, spec: &SpawnSpec) -> Result<(), String> {
        let Some(trust) = &self.cfg.trust else {
            return Ok(());
        };
        let Some(cred) = &spec.credential else {
            return Err("spawn requires a credential".into());
        };
        let cert = Certificate::decode_from_bytes(cred.clone())
            .map_err(|e| format!("bad credential: {e}"))?;
        trust
            .verify(TrustPurpose::ResourceAuthorization, &cert)
            .map_err(|e| format!("credential rejected: {e}"))?;
        // The certificate must name this host (or any-host "*").
        match cert.claim("allowed-hosts") {
            Some(hosts) if hosts == "*" || hosts.split(',').any(|h| h == self.cfg.hostname) => {
                Ok(())
            }
            Some(_) => Err("credential does not cover this host".into()),
            None => Err("credential lacks allowed-hosts claim".into()),
        }
    }

    fn handle_spawn(&mut self, ctx: &mut dyn SimCtx, from: Endpoint, req_id: u64, spec: SpawnSpec) {
        if let Err(error) = self.authorize(&spec) {
            self.rejected += 1;
            let resp = DaemonMsg::SpawnResp {
                req_id,
                ok: false,
                endpoint: Endpoint::new(ctx.host(), 0),
                proc_key: 0,
                error,
            };
            self.send_msg(ctx, from, &resp);
            return;
        }
        let proc_key = if spec.fixed_key != 0 {
            // Fixed-key spawns (migration) are idempotent: a duplicated
            // or retransmitted SpawnReq must not start a second
            // incarnation, it re-acks the one already running.
            if let Some((&port, _)) = self
                .tasks
                .iter()
                .find(|(_, t)| t.proc_key == spec.fixed_key && t.state == TaskState::Running)
            {
                let ep = Endpoint::new(ctx.host(), port);
                let resp = DaemonMsg::SpawnResp {
                    req_id,
                    ok: true,
                    endpoint: ep,
                    proc_key: spec.fixed_key,
                    error: String::new(),
                };
                self.send_msg(ctx, from, &resp);
                return;
            }
            spec.fixed_key
        } else {
            let k = ((ctx.host().0 as u64) << 32) | self.next_local_key;
            self.next_local_key += 1;
            k
        };
        let sctx = crate::registry::SpawnCtx { args: spec.args.clone(), proc_key };
        let actor = match self.registry.instantiate(&spec.program, &sctx) {
            Some(Ok(actor)) => actor,
            res => {
                let error = match res {
                    None => format!("unknown program {:?}", spec.program),
                    Some(Err(e)) => format!("program {:?} rejected spawn: {e}", spec.program),
                    Some(Ok(_)) => unreachable!(),
                };
                let resp = DaemonMsg::SpawnResp {
                    req_id,
                    ok: false,
                    endpoint: Endpoint::new(ctx.host(), 0),
                    proc_key: 0,
                    error,
                };
                self.send_msg(ctx, from, &resp);
                return;
            }
        };
        // Find a free task port.
        let mut port = self.next_task_port;
        while ctx.is_bound(Endpoint::new(ctx.host(), port)) {
            port = port.wrapping_add(1).max(ports::TASK_BASE);
        }
        self.next_task_port = port.wrapping_add(1).max(ports::TASK_BASE);
        let ep = ctx.spawn_portable(ctx.host(), port, actor).expect("port checked free");
        self.spawns += 1;
        if trace::enabled() {
            trace::record(
                ctx.now(),
                TraceKind::Fault {
                    op: FaultOp { what: "daemon_spawn", a: proc_key, b: port as u64 },
                },
            );
        }
        self.tasks.insert(
            ep.port,
            TaskInfo { proc_key, state: TaskState::Running, notify: spec.notify.clone() },
        );
        // Publish process metadata: "the new process globally visible"
        // (§5.5).
        let uri = Uri::process(proc_key);
        let now = ctx.now();
        self.rc.put(
            now,
            &uri,
            vec![
                Assertion::new("type", "process"),
                Assertion::new("comm-address", format!("{}:{}", ep.host.0, ep.port)),
                Assertion::new("host", self.cfg.hostname.clone()),
                Assertion::new("program", spec.program.clone()),
                Assertion::new("state", "running"),
            ],
        );
        self.pump_rc(ctx);
        let resp =
            DaemonMsg::SpawnResp { req_id, ok: true, endpoint: ep, proc_key, error: String::new() };
        self.send_msg(ctx, from, &resp);
    }

    fn broadcast_state(&mut self, ctx: &mut dyn SimCtx, port: u16, state: TaskState) {
        let Some(info) = self.tasks.get_mut(&port) else {
            return;
        };
        info.state = state;
        let proc_key = info.proc_key;
        let notify = info.notify.clone();
        // Update RC process state.
        let uri = Uri::process(proc_key);
        let now = ctx.now();
        self.rc.put(now, &uri, vec![Assertion::new("state", state.as_str().to_string())]);
        self.pump_rc(ctx);
        // Fan out to the notify list.
        for ep in notify {
            self.send_msg(ctx, ep, &DaemonMsg::TaskEvent { proc_key, state });
        }
        if matches!(state, TaskState::Exited | TaskState::Crashed) {
            if trace::enabled() {
                let what = match state {
                    TaskState::Crashed => "task_crashed",
                    _ => "task_exited",
                };
                trace::record(
                    ctx.now(),
                    TraceKind::Fault { op: FaultOp { what, a: proc_key, b: port as u64 } },
                );
            }
            self.tasks.remove(&port);
        }
    }

    fn elect_router(&mut self, ctx: &mut dyn SimCtx, from: Endpoint, group: u64) {
        let router_ep = if let Some(&ep) = self.routing.get(&group) {
            ep
        } else {
            // Spawn (or reuse) the router actor on the well-known port.
            let ep = Endpoint::new(ctx.host(), ports::MCAST_ROUTER);
            if !ctx.topology().host(ctx.host()).up {
                return;
            }
            let _ = ctx.spawn_portable(
                ctx.host(),
                ports::MCAST_ROUTER,
                Box::new(McastRouterActor::new()),
            );
            self.routing.insert(group, ep);
            // Register as a router for the group in RC metadata and peer
            // with already-registered routers (§5.2.4/§5.4).
            let uri = Uri::mcast_group_wire(group);
            let now = ctx.now();
            self.rc.put(
                now,
                &uri,
                vec![Assertion::new(
                    format!("router:{}:{}", ep.host.0, ep.port),
                    format!("{}:{}", ep.host.0, ep.port),
                )],
            );
            // Discover and peer with the routers that beat us here.
            let lookup = self.rc.get(now, &uri);
            self.router_lookups.insert(lookup, group);
            self.pump_rc(ctx);
            ep
        };
        self.send_msg(ctx, from, &DaemonMsg::ElectResp { group, router: router_ep });
    }
}

impl Actor for DaemonActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => self.publish_host_metadata(ctx),
            Event::HostUp => {
                // Reboot: tasks died with the host, announced in port order.
                let ports_list: Vec<u16> = self.tasks.keys().copied().collect();
                for p in ports_list {
                    self.broadcast_state(ctx, p, TaskState::Crashed);
                }
                self.publish_host_metadata(ctx);
            }
            Event::Wake => {
                let now = ctx.now();
                if self.rc.on_wake(now) {
                    self.pump_rc(ctx);
                }
                if due(self.next_load, now) {
                    self.publish_host_metadata(ctx);
                }
            }
            Event::Packet { from, payload } => {
                let Ok((proto, body)) = open(payload) else {
                    return;
                };
                match proto {
                    Proto::Raw => {
                        // Either an RC response or a daemon message.
                        if let Ok(msg) = DaemonMsg::decode_from_bytes(body.clone()) {
                            match msg {
                                DaemonMsg::SpawnReq { req_id, spec } => {
                                    self.handle_spawn(ctx, from, req_id, spec)
                                }
                                DaemonMsg::Kill { port } => {
                                    let ep = Endpoint::new(ctx.host(), port);
                                    ctx.kill(ep);
                                    self.broadcast_state(ctx, port, TaskState::Exited);
                                }
                                DaemonMsg::Signal { port, signum } => {
                                    let ep = Endpoint::new(ctx.host(), port);
                                    ctx.signal(ep, signum);
                                }
                                DaemonMsg::TaskReport { port, state } => {
                                    if matches!(state, TaskState::Exited) {
                                        let ep = Endpoint::new(ctx.host(), port);
                                        ctx.kill(ep);
                                    }
                                    self.broadcast_state(ctx, port, state);
                                }
                                DaemonMsg::ElectRouter { group } => {
                                    self.elect_router(ctx, from, group)
                                }
                                DaemonMsg::Watch { port, watcher } => {
                                    if let Some(t) = self.tasks.get_mut(&port) {
                                        if !t.notify.contains(&watcher) {
                                            t.notify.push(watcher);
                                        }
                                    }
                                }
                                DaemonMsg::Detach { port } => {
                                    let notify = self
                                        .tasks
                                        .remove(&port)
                                        .map(|t| t.notify)
                                        .unwrap_or_default();
                                    let resp = DaemonMsg::DetachResp { port, notify };
                                    self.send_msg(ctx, from, &resp);
                                }
                                DaemonMsg::SpawnResp { .. }
                                | DaemonMsg::TaskEvent { .. }
                                | DaemonMsg::ElectResp { .. }
                                | DaemonMsg::DetachResp { .. } => {}
                            }
                        } else {
                            self.rc.on_packet(ctx.now(), from, body);
                            self.pump_rc(ctx);
                        }
                    }
                    Proto::Mcast => {
                        // A join/data arriving at the daemon while no
                        // router exists here: forward to our router if
                        // we have one for the group.
                        if let Ok(McastMsg::Data { group, .. } | McastMsg::Join { group, .. }) =
                            McastMsg::decode_from_bytes(body.clone())
                        {
                            if let Some(&r) = self.routing.get(&group) {
                                ctx.send(r, seal(Proto::Mcast, body));
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        earliest([self.rc.next_deadline(), self.next_load])
    }
}
