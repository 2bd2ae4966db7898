//! The PVM daemons: one master, many slaves.
//!
//! The master serializes *every* operation through a single service
//! queue whose per-request cost grows with the host table — that is
//! the §2.2 bottleneck made measurable. Host-table updates broadcast to
//! all slaves and only commit on unanimous acknowledgement, so a link
//! failure mid-update wedges the add-host operation (also §2.2). If the
//! master host dies, the whole virtual machine is dead: slaves refuse
//! everything.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_util::time::{SimDuration, SimTime};

use snipe_daemon::registry::{ProgramRegistry, SpawnCtx};

use crate::proto::{PvmMsg, Tid};

/// Master pvmd port.
pub const MASTER_PORT: u16 = 10;
/// Slave pvmd port.
pub const SLAVE_PORT: u16 = 11;

/// Base master service time per request.
pub const SERVICE_BASE: SimDuration = SimDuration::from_micros(150);
/// Additional master service time per host in the table.
pub const SERVICE_PER_HOST: SimDuration = SimDuration::from_micros(15);

/// The master's service time for one request with `hosts` in the table.
pub fn service_time(hosts: usize) -> SimDuration {
    SERVICE_BASE + SERVICE_PER_HOST * hosts as u64
}

/// The master pvmd: host table owner, central name service and
/// resource manager.
pub struct PvmMaster {
    slaves: Vec<Endpoint>,
    table_version: u32,
    /// Outstanding host-table acks per version (unanimity required).
    pending_acks: HashMap<u32, Vec<Endpoint>>,
    tasks: HashMap<Tid, Endpoint>,
    next_tid: Tid,
    next_spawn_slave: usize,
    /// When the master's single service queue is next free.
    cpu_free_at: SimTime,
    /// Replies waiting for their service turn, by release time: every
    /// request costs time, so the front is always the next one due.
    deferred: VecDeque<(SimTime, Endpoint, Bytes)>,
    /// Requests served (diagnostics).
    pub served: u64,
    /// Committed host-table versions (diagnostics; stalls visible).
    pub committed_version: u32,
    /// When `committed_version` last advanced.
    pub committed_at: SimTime,
}

impl PvmMaster {
    /// Fresh master with no slaves.
    pub fn new() -> PvmMaster {
        PvmMaster {
            slaves: Vec::new(),
            table_version: 0,
            pending_acks: HashMap::new(),
            tasks: HashMap::new(),
            next_tid: 1,
            next_spawn_slave: 0,
            cpu_free_at: SimTime::ZERO,
            deferred: VecDeque::new(),
            served: 0,
            committed_version: 0,
            committed_at: SimTime::ZERO,
        }
    }

    /// Registered host count.
    pub fn host_count(&self) -> usize {
        self.slaves.len()
    }

    /// Reserve the master's next service slot and queue `msg` for
    /// release when the slot completes.
    fn reply_after_service(&mut self, ctx: &mut dyn SimCtx, to: Endpoint, msg: &PvmMsg) {
        let finish = self.cpu_free_at.max(ctx.now()) + service_time(self.slaves.len());
        self.cpu_free_at = finish;
        self.served += 1;
        self.deferred.push_back((finish, to, msg.sealed()));
    }

    fn flush_deferred(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        while let Some((_, to, bytes)) = self.deferred.pop_front_if(|(at, ..)| *at <= now) {
            ctx.send(to, bytes);
        }
    }
}

impl Default for PvmMaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Actor for PvmMaster {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Wake => self.flush_deferred(ctx),
            Event::Packet { from, payload } => {
                let Some(msg) = PvmMsg::open(payload) else { return };
                match msg {
                    PvmMsg::AddHost { slave } => {
                        if !self.slaves.contains(&slave) {
                            self.slaves.push(slave);
                        }
                        // Host table update protocol: broadcast, commit
                        // only on unanimous acks (§2.2 fragility).
                        self.table_version += 1;
                        let v = self.table_version;
                        self.pending_acks.insert(v, self.slaves.clone());
                        let table = PvmMsg::HostTable { version: v, slaves: self.slaves.clone() };
                        let targets = self.slaves.clone();
                        for s in targets {
                            self.reply_after_service(ctx, s, &table);
                        }
                    }
                    PvmMsg::HostTableAck { version, slave } => {
                        if let Some(waiting) = self.pending_acks.get_mut(&version) {
                            waiting.retain(|s| *s != slave);
                            if waiting.is_empty() {
                                self.pending_acks.remove(&version);
                                if version > self.committed_version {
                                    self.committed_version = version;
                                    self.committed_at = ctx.now();
                                }
                            }
                        }
                    }
                    PvmMsg::SpawnReq { req_id, program, args } => {
                        if self.slaves.is_empty() {
                            let resp =
                                PvmMsg::SpawnResp { req_id, ok: false, tid: 0, endpoint: from };
                            self.reply_after_service(ctx, from, &resp);
                            return;
                        }
                        // Central RM: round-robin placement.
                        let slave = self.slaves[self.next_spawn_slave % self.slaves.len()];
                        self.next_spawn_slave += 1;
                        let tid = self.next_tid;
                        self.next_tid += 1;
                        let fwd = PvmMsg::SlaveSpawn { req_id, tid, program, args, reply_to: from };
                        self.reply_after_service(ctx, slave, &fwd);
                    }
                    PvmMsg::Register { tid, endpoint } => {
                        self.tasks.insert(tid, endpoint);
                    }
                    PvmMsg::LookupReq { req_id, tid } => {
                        let resp = match self.tasks.get(&tid) {
                            Some(&ep) => PvmMsg::LookupResp { req_id, ok: true, endpoint: ep },
                            None => PvmMsg::LookupResp {
                                req_id,
                                ok: false,
                                endpoint: Endpoint::new(ctx.host(), 0),
                            },
                        };
                        self.reply_after_service(ctx, from, &resp);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.deferred.front().map(|&(at, ..)| at)
    }
}

/// A slave pvmd: spawns tasks on the master's order and dies with the
/// master (every operation needs the master; if it is unreachable the
/// VM is unusable).
pub struct PvmSlave {
    master: Endpoint,
    registry: ProgramRegistry,
    table_version: u32,
    next_task_port: u16,
    /// Local tasks by tid.
    local_tasks: HashMap<Tid, Endpoint>,
    /// Remote tid → endpoint cache (learned from master lookups).
    route_cache: HashMap<Tid, Endpoint>,
    /// Routed packets waiting on a master lookup.
    route_waiting: HashMap<Tid, Vec<(Tid, Bytes)>>,
    /// Outstanding route lookups: req id → dest tid.
    route_lookups: HashMap<u64, Tid>,
    next_req: u64,
    /// Tasks started (diagnostics).
    pub started: u64,
    /// Packets relayed for tasks (diagnostics).
    pub relayed: u64,
}

impl PvmSlave {
    /// A slave that joins `master` on start.
    pub fn new(master: Endpoint, registry: ProgramRegistry) -> PvmSlave {
        PvmSlave {
            master,
            registry,
            table_version: 0,
            next_task_port: 200,
            local_tasks: HashMap::new(),
            route_cache: HashMap::new(),
            route_waiting: HashMap::new(),
            route_lookups: HashMap::new(),
            next_req: 1 << 32,
            started: 0,
            relayed: 0,
        }
    }

    /// Forward a routed packet toward its destination: directly to a
    /// local task, or to the destination host's pvmd.
    fn route(&mut self, ctx: &mut dyn SimCtx, dest: Tid, from: Tid, payload: Bytes) {
        self.relayed += 1;
        if let Some(&ep) = self.local_tasks.get(&dest) {
            ctx.send(ep, PvmMsg::Data { from, payload }.sealed());
            return;
        }
        if let Some(&ep) = self.route_cache.get(&dest) {
            if ep.host == ctx.host() {
                // Destination lives on this host (it may have enrolled
                // directly rather than through us): final delivery.
                ctx.send(ep, PvmMsg::Data { from, payload }.sealed());
            } else {
                let fwd = PvmMsg::RouteData { dest, from, payload };
                ctx.send(Endpoint::new(ep.host, SLAVE_PORT), fwd.sealed());
            }
            return;
        }
        // Ask the master where the tid lives.
        let first = !self.route_waiting.contains_key(&dest);
        self.route_waiting.entry(dest).or_default().push((from, payload));
        if first {
            let req = self.next_req;
            self.next_req += 1;
            self.route_lookups.insert(req, dest);
            ctx.send(self.master, PvmMsg::LookupReq { req_id: req, tid: dest }.sealed());
        }
    }

    /// Last host-table version this slave acked.
    pub fn table_version(&self) -> u32 {
        self.table_version
    }
}

impl Actor for PvmSlave {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                ctx.send(self.master, PvmMsg::AddHost { slave: me }.sealed());
            }
            Event::Packet { from: _, payload } => {
                let Some(msg) = PvmMsg::open(payload) else { return };
                match msg {
                    PvmMsg::HostTable { version, .. } => {
                        self.table_version = version;
                        let me = ctx.me();
                        ctx.send(self.master, PvmMsg::HostTableAck { version, slave: me }.sealed());
                    }
                    PvmMsg::RouteData { dest, from, payload } => {
                        self.route(ctx, dest, from, payload);
                    }
                    PvmMsg::LookupResp { req_id, ok, endpoint } => {
                        if let Some(dest) = self.route_lookups.remove(&req_id) {
                            if ok {
                                self.route_cache.insert(dest, endpoint);
                                for (from, payload) in
                                    self.route_waiting.remove(&dest).unwrap_or_default()
                                {
                                    self.route(ctx, dest, from, payload);
                                }
                            } else {
                                // Drop; senders retry at task level.
                                self.route_waiting.remove(&dest);
                            }
                        }
                    }
                    PvmMsg::SlaveSpawn { req_id, tid, program, args, reply_to } => {
                        let sctx = SpawnCtx { args, proc_key: tid as u64 };
                        let Some(Ok(actor)) = self.registry.instantiate(&program, &sctx) else {
                            let resp =
                                PvmMsg::SpawnResp { req_id, ok: false, tid, endpoint: ctx.me() };
                            ctx.send(reply_to, resp.sealed());
                            return;
                        };
                        let mut port = self.next_task_port;
                        while ctx.is_bound(Endpoint::new(ctx.host(), port)) {
                            port = port.wrapping_add(1).max(200);
                        }
                        self.next_task_port = port.wrapping_add(1).max(200);
                        let ep = ctx.spawn_portable(ctx.host(), port, actor).expect("port free");
                        self.started += 1;
                        self.local_tasks.insert(tid, ep);
                        // Register the task centrally, then answer.
                        ctx.send(self.master, PvmMsg::Register { tid, endpoint: ep }.sealed());
                        let msg = PvmMsg::SpawnResp { req_id, ok: true, tid, endpoint: ep };
                        ctx.send(reply_to, msg.sealed());
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}
