//! The process actor: the runtime half of the SNIPE client library.
//!
//! Wraps a user's [`SnipeProcess`] with everything §3.4 promises:
//! reliable multi-path messaging (SRUDP with location re-resolution
//! after migration), RC metadata access, task management through
//! daemons and resource managers, multicast groups with router
//! election, replicated file access, notify lists, and self-initiated
//! migration (§5.6). Each protocol is a sans-IO machine with its own
//! state, deadline and queue of `Out`s: `Resolver`, `Groups` (§5.4),
//! `FileOps` (§5.9) and `Migration` (§5.6). [`ProcessActor`] is their
//! glue: it feeds them datagrams, RC answers and commands, turns their
//! outputs into engine calls right after each input, and answers
//! `next_wake` with the earliest of their deadlines.

use std::collections::HashMap;

use bytes::Bytes;

use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, MigrationPhase, TraceKind};
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::{RcClient, RcReply, RC_TIMEOUT};
use snipe_rcds::host::RcHost;
use snipe_rcds::uri::Uri;
use snipe_util::codec::{Encoder, WireDecode, WireEncode};
use snipe_util::deadlines::Deadlines;
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::id::HostId;
use snipe_util::requests::{RequestStats, Requests};
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;
use snipe_wire::frame::{seal, Proto};
use snipe_wire::host::StackHost;
use snipe_wire::mcast::McastMsg;
use snipe_wire::ports;
use snipe_wire::stack::{Incoming, StackConfig, WireStack};

use snipe_daemon::proto::{DaemonMsg, SpawnSpec, TaskState};
use snipe_files::proto::FileMsg;
use snipe_rm::proto::{AllocMode, RmMsg};

use crate::api::{Command, GroupEvent, ProcRef, SnipeApi, SnipeProcess, SpawnTarget, TicketResult};
use crate::fileops::FileOps;
use crate::groups::Groups;
use crate::migration::{Lifecycle, Migration, MigrationPayload};
use crate::names::*;
use crate::resolver::Resolver;

/// How long a spawn request (to a daemon, or to a resource manager)
/// may go unanswered before its ticket fails. Longer than the RM's own
/// budget of three 500 ms placement rounds, so that when the RM has an
/// answer, the RM's answer is the one the caller hears.
const SPAWN_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Consecutive SRUDP timeouts before we suspect the peer migrated and
/// re-resolve its location from RC.
const RELOOKUP_TIMEOUTS: u32 = 4;

/// Static configuration shared by every process of a world.
#[derive(Clone, Default)]
pub struct ProcessConfig {
    /// RC replica endpoints.
    pub rc_replicas: Vec<Endpoint>,
    /// File server endpoints, nearest first.
    pub file_servers: Vec<Endpoint>,
    /// Resource manager endpoints.
    pub resource_managers: Vec<Endpoint>,
    /// Wire stack tuning.
    pub stack: StackConfig,
    /// Print `api.log` lines to stdout (examples / demos).
    pub echo_logs: bool,
    /// **Fault-injection knob, tests only.** Disables the packet-side
    /// freeze during migration cutover, the guard that parks incoming
    /// DATA until the new incarnation owns the stack. With it off, the
    /// old stack keeps acking deliveries it will never hand to anyone —
    /// the exact message-loss bug the chaos oracles must catch.
    pub chaos_disable_migration_freeze: bool,
}

/// What a process machine asks of [`ProcessActor`], in queue order.
#[derive(Debug)]
pub(crate) enum Out {
    /// A sealed datagram; a reliable message to an infrastructure
    /// endpoint; a line for the process log.
    Send(Endpoint, Bytes),
    Reliable(Endpoint, Bytes),
    Log(String),
    /// Look this URI up in RC, for whom the answer is; a peer lives at
    /// this endpoint now.
    Get(Uri, RcPending),
    Repoint(u64, Endpoint),
    /// Number, self-deliver and fan out a message to joined group
    /// (`name`, `gid`).
    Publish(String, u64, Bytes),
    /// A group's first join completed; a ticket completed.
    Joined(String),
    Ticket(u64, TicketResult),
    /// A daemon answered a spawn request while the process was frozen.
    Daemon(Endpoint, DaemonMsg),
    /// Checkpoint the process and ask this host's daemon to respawn it.
    Checkpoint(HostId),
    /// The new incarnation is up: drop the stack, detach from the daemon.
    Cutover,
    /// The redirect grace is over: leave the host.
    Vanish,
    /// A controller ordered a move to this host.
    MoveTo(String),
}

/// What an RC completion is for.
#[derive(Debug)]
pub(crate) enum RcPending {
    ResolvePeer { peer_key: u64, ticket: Option<u64> },
    PseudoLookup { name: String, payload: Bytes },
    GroupRouters { name: String, refresh: bool },
    ServiceLookup { ticket: u64 },
    WatchLookup,
}

enum SpawnPending {
    App { ticket: u64 },
    Migration,
}

/// Process-to-process payloads, carried reliably over SRUDP.
enum CoreMsg {
    /// A user message for the peer's [`SnipeProcess::on_message`].
    App(Bytes),
}

wire_codec!(enum CoreMsg: magic 0xA7 { 1 => App(payload) });

/// The actor hosting one [`SnipeProcess`].
pub struct ProcessActor {
    cfg: ProcessConfig,
    proc_key: u64,
    /// Program name and constructor args (to recreate the process after
    /// migration), the process, and its restore data when resuming.
    program: String,
    args: Bytes,
    process: Box<dyn SnipeProcess>,
    resume: Option<MigrationPayload>,
    stack: StackHost,
    rc: RcHost,
    rc_pending: HashMap<u64, RcPending>,
    resolver: Resolver,
    groups: Groups,
    files: FileOps,
    migration: Migration,
    /// Spawn requests awaiting a daemon's or RM's answer, by request
    /// id: one attempt each.
    spawns: Requests<Endpoint, SpawnPending>,
    /// App timers by arm order (ties fire as armed) → token.
    app_timers: Deadlines<u64, u64>,
    app_timers_armed: u64,
    /// Request ids, one counter for spawn and file requests.
    next_req: u64,
    hostname: String,
    /// Reused scratch for the peers-in-trouble scan (no steady-state
    /// allocation on the stack timer path).
    trouble_scratch: Vec<u64>,
    commands: Vec<Command>,
    next_ticket: u64,
    /// Process log, readable by tests and benches.
    pub log: Vec<(SimTime, String)>,
}

impl ProcessActor {
    /// Host a fresh process.
    pub fn new(
        cfg: ProcessConfig,
        proc_key: u64,
        program: impl Into<String>,
        args: Bytes,
        process: Box<dyn SnipeProcess>,
    ) -> ProcessActor {
        let rc = RcClient::new(cfg.rc_replicas.clone(), RC_TIMEOUT);
        ProcessActor {
            files: FileOps::new(cfg.file_servers.clone()),
            migration: Migration::new(proc_key, cfg.chaos_disable_migration_freeze),
            cfg,
            proc_key,
            program: program.into(),
            args,
            process,
            resume: None,
            stack: StackHost::new(),
            rc: RcHost::new(rc),
            rc_pending: HashMap::new(),
            resolver: Resolver::default(),
            groups: Groups::default(),
            spawns: Requests::new(SPAWN_TIMEOUT, 1),
            app_timers: Deadlines::new(),
            app_timers_armed: 0,
            next_req: 1,
            hostname: String::new(),
            trouble_scratch: Vec::new(),
            commands: Vec::new(),
            next_ticket: 1,
            log: Vec::new(),
        }
    }

    /// This process resumes from a migration payload.
    pub(crate) fn resuming(self, payload: MigrationPayload) -> ProcessActor {
        ProcessActor { resume: Some(payload), ..self }
    }

    /// Run one callback of the process, unless it is gone, then the
    /// commands it issued.
    fn callback(
        &mut self,
        ctx: &mut dyn SimCtx,
        f: impl FnOnce(&mut dyn SnipeProcess, &mut SnipeApi<'_, '_>),
    ) {
        if self.migration.state == Lifecycle::Gone {
            return;
        }
        let (now, my_endpoint, my_key) = (ctx.now(), ctx.me(), self.proc_key);
        let Self { process, commands, next_ticket, log, hostname: my_hostname, .. } = self;
        let mut api =
            SnipeApi { now, my_key, my_endpoint, my_hostname, commands, next_ticket, log };
        f(process.as_mut(), &mut api);
        self.run_commands(ctx);
    }

    /// Turn queued outputs into engine calls, in queue order. A drain
    /// follows every input to a machine, so only that machine's queue
    /// holds anything; an output that feeds a machine again is drained
    /// by the nested call before the next one.
    fn drain(&mut self, ctx: &mut dyn SimCtx) {
        let queues: [fn(&mut Self) -> &mut Vec<Out>; 4] = [
            |a| &mut a.resolver.out,
            |a| &mut a.groups.out,
            |a| &mut a.files.out,
            |a| &mut a.migration.out,
        ];
        for queue in queues {
            let mut outs = std::mem::take(queue(self));
            for out in outs.drain(..) {
                self.on_out(ctx, out);
            }
            *queue(self) = outs;
        }
    }

    fn on_out(&mut self, ctx: &mut dyn SimCtx, out: Out) {
        let (now, me, key) = (ctx.now(), ctx.me(), self.proc_key);
        let phase = move |phase| TraceKind::Migration { phase, key };
        match out {
            Out::Send(to, datagram) => ctx.send(to, datagram),
            Out::Reliable(to, msg) => {
                let peer = snipe_wire::stack::endpoint_key(to);
                if let Some(stack) = self.stack.as_mut() {
                    stack.set_peer_at(now, peer, to, vec![]);
                    stack.send(now, peer, msg).expect("configured frag size");
                }
                self.pump_stack(ctx);
            }
            Out::Log(line) => self.log.push((now, line)),
            Out::Get(uri, pending) => self.rc_get(ctx, &uri, pending),
            Out::Repoint(peer, to) => {
                if let Some(stack) = self.stack.as_mut() {
                    stack.set_peer_at(now, peer, to, vec![]);
                }
                self.pump_stack(ctx);
            }
            Out::Publish(name, gid, payload) => {
                // Number it in the member driver (which also drops its
                // router echo), deliver it to ourselves, then fan it out.
                let Some(member) = self.stack.as_mut().and_then(|s| s.mcast_member_mut()) else {
                    return;
                };
                let seq = member.next_seq(gid);
                if member.accept(gid, key, seq, payload.clone()).is_some() {
                    let pl = payload.clone();
                    self.callback(ctx, |p, api| p.on_group_message(api, &name, key, pl));
                }
                self.groups.fan_out(&name, key, seq, payload);
                self.drain(ctx);
            }
            Out::Joined(name) => {
                self.callback(ctx, |p, api| p.on_group_event(api, &name, GroupEvent::Joined));
            }
            Out::Ticket(ticket, result) => {
                self.callback(ctx, |p, api| p.on_ticket(api, ticket, result))
            }
            Out::Daemon(from, msg) => self.on_daemon(ctx, from, msg),
            Out::Checkpoint(target) => {
                trace::record(now, phase(MigrationPhase::Checkpoint));
                let payload = MigrationPayload {
                    program: self.program.clone(),
                    args: self.args.clone(),
                    user_state: self.process.checkpoint(),
                    stack_state: self.stack.as_ref().map(|s| s.export_state()).unwrap_or_default(),
                    groups: self.groups.names(),
                };
                let mut spec =
                    SpawnSpec::program(crate::world::MIGRATE_PROGRAM, payload.encode_to_bytes());
                spec.fixed_key = key;
                let daemon = Endpoint::new(target, ports::DAEMON);
                let msg = |req_id| DaemonMsg::SpawnReq { req_id, spec };
                self.request_spawn(ctx, daemon, SpawnPending::Migration, msg);
            }
            Out::Cutover => {
                // The new incarnation owns all protocol state now: drop
                // ours so stale retransmissions from the old address can
                // never confuse peers.
                trace::record(now, phase(MigrationPhase::Cutover));
                self.stack.stop();
                to_daemon(ctx, me.host, DaemonMsg::Detach { port: me.port });
            }
            Out::Vanish => {
                trace::record(now, phase(MigrationPhase::Vanish));
                ctx.kill(me);
            }
            Out::MoveTo(host) => self.migrate(ctx, &host),
        }
    }

    fn migrate(&mut self, ctx: &mut dyn SimCtx, host: &str) {
        let target = ctx.topology().host_by_name(host);
        self.migration.start(host, target, ctx.host());
        self.drain(ctx);
    }

    /// Flush the stack and dispatch what it delivered.
    fn pump_stack(&mut self, ctx: &mut dyn SimCtx) {
        for d in self.stack.flush(ctx) {
            match d.proto {
                Proto::Srudp => self.on_reliable(ctx, d.from_key, d.from_ep, d.msg),
                Proto::Mcast => self.on_group_deliver(ctx, d.msg),
                _ => {}
            }
        }
    }

    fn on_reliable(&mut self, ctx: &mut dyn SimCtx, from_key: u64, from_ep: Endpoint, msg: Bytes) {
        // Infrastructure peers (bit 63 set) speak their own protocols.
        if from_key & (1 << 63) != 0 {
            if let Ok(reply) = FileMsg::decode_from_bytes(msg) {
                self.files.on_reply(ctx.now(), &mut self.next_req, from_ep, reply);
                self.drain(ctx);
            }
            return;
        }
        let Ok(CoreMsg::App(payload)) = CoreMsg::decode_from_bytes(msg) else { return };
        let from = ProcRef { key: from_key, endpoint: from_ep };
        self.callback(ctx, |p, api| p.on_message(api, from, payload));
    }

    fn wrap_app(payload: Bytes) -> Bytes {
        let mut e = Encoder::with_capacity(payload.len() + 8);
        CoreMsg::App(payload).encode(&mut e);
        e.finish()
    }

    /// A group message delivered by the stack's member driver (already
    /// dedup'd across router legs); `body` is the encoded [`McastMsg`].
    fn on_group_deliver(&mut self, ctx: &mut dyn SimCtx, body: Bytes) {
        let msg = McastMsg::decode_from_bytes(body);
        let Ok(McastMsg::Data { group, origin, payload, .. }) = msg else { return };
        if let Some(name) = self.groups.name_of(group).map(str::to_string) {
            self.callback(ctx, |p, api| p.on_group_message(api, &name, origin, payload));
        }
    }

    fn rc_get(&mut self, ctx: &mut dyn SimCtx, uri: &Uri, pending: RcPending) {
        let id = self.rc.get(ctx.now(), uri);
        self.rc_pending.insert(id, pending);
        self.pump_rc(ctx);
    }

    /// Publish metadata; nothing waits for the answer.
    fn rc_put(&mut self, ctx: &mut dyn SimCtx, uri: &Uri, assertions: Vec<Assertion>) {
        self.rc.put(ctx.now(), uri, assertions);
        self.pump_rc(ctx);
    }

    /// Flush the RC client and dispatch what it completed.
    fn pump_rc(&mut self, ctx: &mut dyn SimCtx) {
        for (id, result) in self.rc.flush(ctx) {
            self.on_rc_done(ctx, id, result);
        }
    }

    fn on_rc_done(&mut self, ctx: &mut dyn SimCtx, id: u64, result: SnipeResult<RcReply>) {
        let Some(pending) = self.rc_pending.remove(&id) else { return };
        let (now, assertions) = (ctx.now(), result.map(|r| r.assertions));
        match pending {
            RcPending::ResolvePeer { peer_key, ticket } => {
                let at = assertions.ok().and_then(|a| comm_address(&a));
                self.resolver.on_answer(now, peer_key, ticket, at);
                self.drain(ctx);
            }
            RcPending::PseudoLookup { name, payload } => {
                let group = assertions
                    .ok()
                    .and_then(|a| crate::service::pseudo_process_group(&a).map(str::to_string));
                let Some(g) = group else {
                    let line = format!("pseudo-process {name} has no comm-group metadata");
                    return self.log.push((now, line));
                };
                // Fan out through the group: join implicitly (sender
                // semantics identical to send_group).
                self.commands.push(Command::SendGroup { name: g, payload });
                self.run_commands(ctx);
            }
            RcPending::GroupRouters { name, refresh } => {
                let routers = assertions.map(|a| parse_routers(&a)).unwrap_or_default();
                self.groups.on_routers(now, &name, routers, refresh, ctx.me());
                self.drain(ctx);
            }
            RcPending::ServiceLookup { ticket } => {
                let refs = assertions.map(|a| {
                    let mut v: Vec<ProcRef> = a.iter().filter_map(service_location).collect();
                    v.sort_by_key(|r| r.key);
                    v
                });
                self.callback(ctx, |p, api| p.on_ticket(api, ticket, TicketResult::Service(refs)));
            }
            RcPending::WatchLookup => {
                // Find the peer's location, then ask its host daemon to
                // add us to the notify list.
                if let Some(ep) = assertions.ok().and_then(|a| comm_address(&a)) {
                    let watcher = ctx.me();
                    to_daemon(ctx, ep.host, DaemonMsg::Watch { port: ep.port, watcher });
                }
            }
        }
    }

    fn run_commands(&mut self, ctx: &mut dyn SimCtx) {
        // Commands may trigger callbacks that push more commands; loop
        // with a depth bound for safety.
        for _ in 0..64 {
            if self.commands.is_empty() || self.migration.state == Lifecycle::Gone {
                return;
            }
            for cmd in std::mem::take(&mut self.commands) {
                self.exec(ctx, cmd);
                if self.migration.state == Lifecycle::Gone {
                    return;
                }
            }
        }
    }

    /// Execute one command, then drain the machine it fed.
    fn exec(&mut self, ctx: &mut dyn SimCtx, cmd: Command) {
        let (now, me) = (ctx.now(), ctx.me());
        match cmd {
            Command::Log(line) => {
                if self.cfg.echo_logs {
                    println!("[{now}] {} {me}: {line}", self.hostname);
                }
            }
            Command::SetTimer { delay, token } => {
                self.app_timers.insert(self.app_timers_armed, now + delay, token);
                self.app_timers_armed += 1;
            }
            Command::SendProc { to_key, payload } => {
                let known = self.stack.as_ref().is_some_and(|s| s.peer_endpoint(to_key).is_some());
                if let Some(stack) = self.stack.as_mut() {
                    stack.send(now, to_key, Self::wrap_app(payload)).expect("configured frag size");
                }
                if !known {
                    self.resolver.resolve(to_key, None);
                    self.drain(ctx);
                }
                self.pump_stack(ctx);
            }
            Command::PinRoutes { to_key, routes } => {
                if let Some(stack) = self.stack.as_mut() {
                    if let Some(ep) = stack.peer_endpoint(to_key) {
                        stack.set_peer(to_key, ep, routes);
                    }
                }
            }
            Command::Lookup { ticket, proc_key } => self.resolver.resolve(proc_key, Some(ticket)),
            Command::Spawn { ticket, target, program, args } => {
                let mut spec = SpawnSpec::program(program, args);
                spec.notify = vec![me];
                let refused = match target {
                    SpawnTarget::Host(host) => match ctx.topology().host_by_name(&host) {
                        None => Some(SnipeError::NameNotFound(host)),
                        Some(h) => {
                            let msg = |req_id| DaemonMsg::SpawnReq { req_id, spec };
                            let daemon = Endpoint::new(h, ports::DAEMON);
                            self.request_spawn(ctx, daemon, SpawnPending::App { ticket }, msg);
                            None
                        }
                    },
                    SpawnTarget::ResourceManager => match self.cfg.resource_managers.first() {
                        None => {
                            Some(SnipeError::Unavailable("no resource managers configured".into()))
                        }
                        Some(&rm) => {
                            let mode = AllocMode::Active;
                            let msg = |req_id| RmMsg::AllocReq { req_id, spec, count: 1, mode };
                            self.request_spawn(ctx, rm, SpawnPending::App { ticket }, msg);
                            None
                        }
                    },
                };
                if let Some(e) = refused {
                    let result = TicketResult::Spawned(Err(e));
                    self.callback(ctx, |p, api| p.on_ticket(api, ticket, result));
                }
            }
            Command::JoinGroup { name } => self.groups.join(name, Vec::new(), false),
            Command::LeaveGroup { name } => self.groups.leave(&name, me),
            Command::SendGroup { name, payload } => self.groups.send(name, payload),
            Command::File { ticket, lifn, content } => {
                self.files.start(now, &mut self.next_req, ticket, lifn, content);
            }
            // §5.7: metadata for the pseudo-process, with the group as its
            // communications address. The registrar is usually also a
            // replica coordinator; joining the group is the replicas' job.
            Command::RegisterPseudo { name, group } => {
                if let Ok(uri) = Uri::parse(format!("urn:snipe:pseudo:{name}")) {
                    self.rc_put(ctx, &uri, crate::service::pseudo_process_assertions(&group));
                }
            }
            Command::SendPseudo { name, payload } => {
                if let Ok(uri) = Uri::parse(format!("urn:snipe:pseudo:{name}")) {
                    self.rc_get(ctx, &uri, RcPending::PseudoLookup { name, payload });
                }
            }
            Command::RegisterService { name } => {
                let location = format!("{ATTR_LOCATION_PREFIX}{}", self.proc_key);
                let assertions = vec![Assertion::new(location, format_endpoint(me))];
                self.rc_put(ctx, &Uri::service(&name), assertions);
            }
            Command::LookupService { ticket, name } => {
                self.rc_get(ctx, &Uri::service(&name), RcPending::ServiceLookup { ticket });
            }
            Command::WatchProcess { proc_key } => {
                self.rc_get(ctx, &Uri::process(proc_key), RcPending::WatchLookup);
            }
            Command::MigrateTo { hostname } => self.migrate(ctx, &hostname),
            Command::Exit => {
                self.migration.state = Lifecycle::Gone;
                let exited = DaemonMsg::TaskReport { port: me.port, state: TaskState::Exited };
                to_daemon(ctx, me.host, exited);
            }
        }
        self.drain(ctx);
    }

    /// Send `to` the spawn request `msg` builds for a fresh id, as one
    /// unreliable datagram: if no answer comes within [`SPAWN_TIMEOUT`]
    /// it fails like a refusal.
    fn request_spawn<M: WireEncode>(
        &mut self,
        ctx: &mut dyn SimCtx,
        to: Endpoint,
        pending: SpawnPending,
        msg: impl FnOnce(u64) -> M,
    ) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.spawns.send(ctx.now(), req_id, to, pending);
        ctx.send(to, seal(Proto::Raw, msg(req_id).encode_to_bytes()));
    }

    /// The counters of this process's request tables: RC lookups, file
    /// operations, spawns.
    pub fn request_stats(&self) -> [RequestStats; 3] {
        [self.rc.request_stats(), self.files.pending.stats(), self.spawns.stats()]
    }

    /// A spawn request was answered, refused, or timed out.
    fn finish_spawn(
        &mut self,
        ctx: &mut dyn SimCtx,
        pending: Option<SpawnPending>,
        outcome: Result<ProcRef, String>,
    ) {
        match pending {
            Some(SpawnPending::App { ticket }) => {
                let res =
                    outcome.map_err(|e| SnipeError::Unavailable(format!("spawn failed: {e}")));
                self.callback(ctx, |p, api| p.on_ticket(api, ticket, TicketResult::Spawned(res)));
            }
            Some(SpawnPending::Migration) => {
                self.migration.on_respawn(ctx.now(), outcome.map(|new| new.endpoint));
                self.drain(ctx);
            }
            None => {}
        }
    }

    /// Service, in a fixed order, the machines that are due: the spawn
    /// table, the migration grace, the file table, the stack, the RC
    /// client, the resolve retries, the group refresh, the app's
    /// timers. A migrating process is frozen: it services only the
    /// first two (its answer to [`Actor::next_wake`] holds nothing else).
    fn on_wake(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        for (_, req) in self.spawns.take_due(now) {
            let pending = self.spawns.give_up(req);
            self.finish_spawn(ctx, Some(pending), Err("no answer".into()));
        }
        self.migration.on_wake(now);
        self.drain(ctx);
        if self.migration.state != Lifecycle::Running {
            return;
        }
        while self.files.on_wake(now, &mut self.next_req) {
            self.drain(ctx);
        }
        if self.stack.on_wake(now) {
            self.pump_stack(ctx);
            // Peers timing out repeatedly may have migrated: re-resolve
            // their location from RC metadata.
            self.trouble_scratch.clear();
            if let Some(s) = self.stack.as_ref() {
                s.peers_in_trouble_into(RELOOKUP_TIMEOUTS, &mut self.trouble_scratch);
            }
            self.resolver.relookup(&self.trouble_scratch);
            self.drain(ctx);
        }
        if self.rc.on_wake(now) {
            self.pump_rc(ctx);
        }
        self.resolver.on_wake(now);
        self.drain(ctx);
        self.groups.on_wake(now);
        self.drain(ctx);
        // A callback may arm a timer due at once, or start a migration.
        while self.migration.state == Lifecycle::Running
            && due(self.app_timers.next_deadline(), now)
        {
            for (_, token) in self.app_timers.take_due(now) {
                self.callback(ctx, |p, api| p.on_timer(api, token));
            }
        }
    }

    fn on_start(&mut self, ctx: &mut dyn SimCtx) {
        self.hostname = ctx.topology().host(ctx.host()).name.clone();
        let (now, me) = (ctx.now(), ctx.me());
        // Every SNIPE process runs the member-side multicast driver
        // (group dedup state then rides the stack's migration snapshot).
        let scfg = StackConfig { mcast_member: true, ..self.cfg.stack.clone() };
        let resume = self.resume.take();
        if resume.is_some() {
            let phase = MigrationPhase::Resume;
            trace::record(now, TraceKind::Migration { phase, key: self.proc_key });
        }
        let stack = match &resume {
            Some(p) if !p.stack_state.is_empty() => {
                WireStack::import_state(p.stack_state.clone(), scfg.clone(), now)
                    .unwrap_or_else(|_| WireStack::new(self.proc_key, scfg))
            }
            _ => WireStack::new(self.proc_key, scfg),
        };
        // No explicit "moved" broadcast is needed after a migration: the
        // imported stack retransmits everything unacknowledged, and SRUDP
        // receivers learn sender locations from live traffic; peers that
        // *send to us* re-resolve via RC after repeated timeouts (see
        // `on_wake`) or get a redirect from the shell we left.
        self.stack.start(stack);
        let Some(payload) = resume else {
            self.publish_location(ctx, me);
            return self.callback(ctx, |p, api| p.on_start(api));
        };
        self.process.restore(payload.user_state);
        self.publish_location(ctx, me);
        for name in payload.groups {
            self.groups.join(name, Vec::new(), true);
        }
        self.drain(ctx);
        self.pump_stack(ctx);
        self.callback(ctx, |p, api| p.on_migrated(api));
    }

    fn publish_location(&mut self, ctx: &mut dyn SimCtx, me: Endpoint) {
        let assertions = vec![
            Assertion::new(ATTR_COMM_ADDRESS, format_endpoint(me)),
            Assertion::new(ATTR_STATE, "running"),
            Assertion::new("host", self.hostname.clone()),
        ];
        self.rc_put(ctx, &Uri::process(self.proc_key), assertions);
    }

    fn on_packet(&mut self, ctx: &mut dyn SimCtx, from: Endpoint, payload: Bytes) {
        let Some(payload) = self.migration.admit(from, payload) else {
            return self.drain(ctx);
        };
        // MCAST traffic reaches the app as the member driver's deliveries.
        if let Some(Incoming::Raw { from, msg }) = self.stack.on_packet(ctx.now(), from, payload) {
            if self.migration.on_raw(&msg) {
                self.drain(ctx);
            } else if let Ok(msg) = DaemonMsg::decode_from_bytes(msg.clone()) {
                self.on_daemon(ctx, from, msg);
            } else if let Ok(rmsg) = RmMsg::decode_from_bytes(msg.clone()) {
                if let RmMsg::AllocResp { req_id, ok, allocations, error } = rmsg {
                    let outcome = match allocations.first() {
                        Some(a) if ok => Ok(ProcRef { key: a.proc_key, endpoint: a.task }),
                        _ => Err(error),
                    };
                    let pending = self.spawns.on_reply(req_id, &from).map(|r| r.value);
                    self.finish_spawn(ctx, pending, outcome);
                }
            } else {
                self.rc.on_packet(ctx.now(), from, msg);
                self.pump_rc(ctx);
            }
        }
        self.pump_stack(ctx);
    }

    fn on_daemon(&mut self, ctx: &mut dyn SimCtx, from: Endpoint, msg: DaemonMsg) {
        match msg {
            DaemonMsg::SpawnResp { req_id, ok, endpoint, proc_key, error } => {
                let outcome = if ok { Ok(ProcRef { key: proc_key, endpoint }) } else { Err(error) };
                let pending = self.spawns.on_reply(req_id, &from).map(|r| r.value);
                self.finish_spawn(ctx, pending, outcome);
            }
            DaemonMsg::TaskEvent { proc_key, state } => {
                self.callback(ctx, |p, api| p.on_task_event(api, proc_key, state));
            }
            DaemonMsg::ElectResp { group, router } => {
                let Some(name) = self.groups.name_of(group).map(str::to_string) else { return };
                self.groups.on_routers(ctx.now(), &name, vec![router], false, ctx.me());
                self.drain(ctx);
            }
            _ => {}
        }
    }
}

/// One raw datagram to the daemon on `host`.
fn to_daemon(ctx: &mut dyn SimCtx, host: HostId, msg: DaemonMsg) {
    ctx.send(Endpoint::new(host, ports::DAEMON), seal(Proto::Raw, msg.encode_to_bytes()));
}

impl Actor for ProcessActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            _ if self.migration.state == Lifecycle::Gone => {}
            Event::Start => self.on_start(ctx),
            Event::HostUp => {
                // Reboot: RAM state is gone; the daemon reports us
                // crashed. Just disappear.
                self.migration.state = Lifecycle::Gone;
                let me = ctx.me();
                ctx.kill(me);
            }
            Event::Wake => self.on_wake(ctx),
            Event::Signal { signum, .. } => self.callback(ctx, |p, api| p.on_signal(api, signum)),
            Event::Packet { from, payload } => self.on_packet(ctx, from, payload),
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        let spawn = self.spawns.next_deadline();
        match self.migration.state {
            Lifecycle::Gone => None,
            Lifecycle::Running => earliest([
                spawn,
                self.files.next_deadline(),
                self.stack.next_deadline(),
                self.rc.next_deadline(),
                self.resolver.next_deadline(),
                self.groups.next_deadline(),
                self.app_timers.next_deadline(),
            ]),
            _ => earliest([spawn, self.migration.next_deadline()]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::RedirectNotice;
    use crate::resolver::RESOLVE_ATTEMPTS;

    /// Pin one crate-private format as `tests/wire_format.rs` pins the
    /// public ones: its hex and round trip, then the hostile corpus
    /// (strict prefixes are errors, bit flips never panic, a sequence
    /// count forged at byte `count` is an error).
    fn pinned<T: WireDecode + WireEncode>(bytes: Bytes, hex: &str, count: Option<usize>) {
        let decodes =
            |b: Bytes| T::decode_from_bytes(b.clone()).is_ok_and(|v| v.encode_to_bytes() == b);
        let now: String = bytes.iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(now, hex);
        assert!(decodes(bytes.clone()), "{hex} does not round-trip");
        for len in 0..bytes.len() {
            assert!(!decodes(bytes.slice(..len)), "{hex}: {len}-byte prefix decoded");
        }
        for bit in 0..bytes.len() * 8 {
            let mut hostile = bytes.to_vec();
            hostile[bit / 8] ^= 1 << (bit % 8);
            let _ = decodes(Bytes::from(hostile));
        }
        if let Some(at) = count {
            let mut hostile = bytes.to_vec();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            assert!(!decodes(Bytes::from(hostile)), "{hex}: forged count decoded");
        }
    }

    #[test]
    fn core_formats_are_pinned_and_survive_hostile_input() {
        let app = ProcessActor::wrap_app(Bytes::from_static(b"hi"));
        pinned::<CoreMsg>(app, "a701000000026869", None);
        let notice = RedirectNotice { proc_key: 7, to: Endpoint::new(HostId(3), 100) };
        pinned::<RedirectNotice>(notice.encode_to_bytes(), "a80000000000000007000000030064", None);
        let payload = MigrationPayload {
            program: "p".into(),
            args: Bytes::from_static(b"a"),
            user_state: Bytes::from_static(b"u"),
            stack_state: Bytes::new(),
            groups: vec!["g".into()],
        };
        let hex = "00000001700000000161000000017500000000000000010000000167";
        pinned::<MigrationPayload>(payload.encode_to_bytes(), hex, Some(19));
    }

    type Log = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

    /// Echoes every message, and logs where it resumed.
    struct Resumed(Log);
    impl SnipeProcess for Resumed {
        fn on_start(&mut self, _api: &mut SnipeApi<'_, '_>) {}
        fn on_migrated(&mut self, api: &mut SnipeApi<'_, '_>) {
            self.0.lock().unwrap().push(format!("resumed on {}", api.my_hostname()));
        }
        fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
            api.send(from.key, msg);
        }
    }

    /// Sends one message to `peer` and logs the reply.
    struct Caller(u64, Log);
    impl SnipeProcess for Caller {
        fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
            api.send(self.0, b"ping".to_vec());
        }
        fn on_message(&mut self, _api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
            self.1.lock().unwrap().push(format!("reply {}", String::from_utf8_lossy(&msg)));
        }
    }

    /// Sends one datagram at start, then leaves.
    struct OneShot(Endpoint, Bytes);
    impl Actor for OneShot {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            if matches!(event, Event::Start) {
                ctx.send(self.0, self.1.clone());
                let me = ctx.me();
                ctx.kill(me);
            }
        }
    }

    /// Anyone can send a daemon a `SpawnReq` for the migrate program,
    /// so its transport snapshot is network input. Four bytes forging
    /// a section count of `0xFFFF_FFFF` must leave the process running
    /// on a fresh stack, and the world running around it.
    /// Sends one message to each key at start.
    struct SendTo(Vec<u64>);
    impl SnipeProcess for SendTo {
        fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
            for &key in &self.0 {
                api.send(key, b"hello".to_vec());
            }
        }
    }

    /// Run a process that sends to `keys`, none of them registered, for
    /// 5 s, watching it every 100 µs (an RC round trip takes 400 µs):
    /// per key, when it last had a lookup in flight or pending, and how
    /// many RC lookups it made.
    fn resolve_unregistered(keys: &[u64]) -> Vec<(SimTime, usize)> {
        let mut w = crate::world::SnipeWorldBuilder::lan(3, 5).build();
        let targets = keys.to_vec();
        w.register_process("sender", move |_| Box::new(SendTo(targets.clone())));
        let (_, ep) = w.spawn_on("host1", "sender", Bytes::new()).unwrap();
        let mut seen = vec![(SimTime::ZERO, std::collections::BTreeSet::new()); keys.len()];
        while w.now() < SimTime::ZERO + SimDuration::from_secs(5) {
            w.run_for(SimDuration::from_micros(100));
            let a = w.sim_ref().actor_ref::<ProcessActor>(ep).unwrap();
            for (&key, (last, lookups)) in keys.iter().zip(&mut seen) {
                if a.resolver.busy(key) {
                    *last = w.now();
                }
                #[allow(clippy::disallowed_methods)] // into a set: hash order cannot reach it
                let ids = a.rc_pending.iter().filter_map(|(&id, pending)| {
                    matches!(pending, RcPending::ResolvePeer { peer_key, .. } if *peer_key == key)
                        .then_some(id)
                });
                lookups.extend(ids);
            }
        }
        seen.into_iter().map(|(last, lookups)| (last, lookups.len())).collect()
    }

    /// Each unresolvable key backs off on its own schedule: with four
    /// of them, every key is looked up exactly as often, and given up
    /// no sooner, than a lone key.
    #[test]
    fn each_unresolved_peer_backs_off_on_its_own() {
        let [(alone_until, alone_lookups)] = resolve_unregistered(&[901])[..] else {
            unreachable!()
        };
        assert_eq!(alone_lookups, 1 + RESOLVE_ATTEMPTS as usize);
        assert!(alone_until > SimTime::ZERO + SimDuration::from_millis(2750), "{alone_until}");
        assert!(alone_until < SimTime::ZERO + SimDuration::from_secs(4), "{alone_until}");
        for (key, (until, lookups)) in (901..).zip(resolve_unregistered(&[901, 902, 903, 904])) {
            assert_eq!(lookups, alone_lookups, "key {key}");
            assert!(until >= alone_until, "key {key} given up at {until}, alone at {alone_until}");
        }
    }

    /// Moves to host2 100 ms after it starts, logging when; echoes.
    struct Mover(Log);
    impl SnipeProcess for Mover {
        fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
            api.set_timer(SimDuration::from_millis(100), 1);
        }
        fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
            self.0.lock().unwrap().push(format!("moving at {}", api.now().as_nanos()));
            api.migrate_to("host2");
        }
        fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
            api.send(from.key, msg);
        }
    }

    /// The checkpoint's respawn request is a spawn request like any
    /// other: when it is lost (host2 is down), the spawn table gives it
    /// up exactly `SPAWN_TIMEOUT` after the checkpoint, the move is
    /// dropped and the process runs again where it was, serving its
    /// app. An answer that comes after that is stale and moves nothing.
    #[test]
    fn a_lost_respawn_request_runs_the_process_again_at_the_spawn_deadline() {
        let mut w = crate::world::SnipeWorldBuilder::lan(3, 5).build();
        let log = Log::default();
        let l = log.clone();
        w.register_process("mover", move |_| Box::new(Mover(l.clone())));
        let (key, ep) = w.spawn_on("host1", "mover", Bytes::new()).unwrap();
        let host2 = w.sim_ref().topology().host_by_name("host2").unwrap();
        w.sim().host_down(host2);
        w.run_for(SimDuration::from_millis(500));
        let moved_at = log.lock().unwrap().first().cloned().expect("the move started");
        let nanos = moved_at.strip_prefix("moving at ").unwrap().parse().unwrap();
        let deadline = SimTime::from_nanos(nanos) + SPAWN_TIMEOUT;
        fn actor(w: &crate::world::SnipeWorld, ep: Endpoint) -> &ProcessActor {
            w.sim_ref().actor_ref::<ProcessActor>(ep).expect("the process stays")
        }
        assert_eq!(actor(&w, ep).migration.state, Lifecycle::Frozen);
        w.sim().run_until(deadline - SimDuration::from_nanos(1));
        assert_eq!(actor(&w, ep).migration.state, Lifecycle::Frozen, "thawed before the deadline");
        w.sim().run_until(deadline);
        assert_eq!(
            actor(&w, ep).migration.state,
            Lifecycle::Running,
            "still frozen at the deadline"
        );
        let [_, files, spawns] = actor(&w, ep).request_stats();
        assert_eq!((spawns.gave_up, spawns.stale, files), (1, 0, RequestStats::default()));

        // The answer the lost request would have had, late: stale, and
        // the process does not cut over.
        let req_id = actor(&w, ep).next_req - 1;
        let endpoint = Endpoint::new(host2, ports::TASK_BASE);
        let error = String::new();
        let late = DaemonMsg::SpawnResp { req_id, ok: true, endpoint, proc_key: key, error };
        let late = seal(Proto::Raw, late.encode_to_bytes());
        w.sim().host_up(host2);
        w.sim().spawn(host2, 999, Box::new(OneShot(ep, late)));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(actor(&w, ep).request_stats()[2].stale, 1);
        assert_eq!(actor(&w, ep).migration.state, Lifecycle::Running, "a stale answer moved it");
        let l = log.clone();
        w.register_process("caller", move |_| Box::new(Caller(key, l.clone())));
        w.spawn_on("host0", "caller", Bytes::new()).unwrap();
        w.run_for_secs(2);
        assert_eq!(log.lock().unwrap()[1..], ["reply ping"]);
        assert!(w.sim_ref().is_bound(ep));
    }

    #[test]
    fn a_forged_stack_snapshot_resumes_on_a_fresh_stack() {
        let mut w = crate::world::SnipeWorldBuilder::lan(3, 5).build();
        let log = Log::default();
        let l = log.clone();
        w.register_process("resumed", move |_| Box::new(Resumed(l.clone())));
        let payload = MigrationPayload {
            program: "resumed".into(),
            args: Bytes::new(),
            user_state: Bytes::new(),
            stack_state: Bytes::from_static(&[0xFF; 4]),
            groups: Vec::new(),
        };
        let mut spec = SpawnSpec::program(crate::world::MIGRATE_PROGRAM, payload.encode_to_bytes());
        spec.fixed_key = 77;
        let req = DaemonMsg::SpawnReq { req_id: 1, spec }.encode_to_bytes();
        let host1 = w.sim_ref().topology().host_by_name("host1").unwrap();
        let host2 = w.sim_ref().topology().host_by_name("host2").unwrap();
        let daemon = Endpoint::new(host1, ports::DAEMON);
        w.sim().spawn(host2, 999, Box::new(OneShot(daemon, seal(Proto::Raw, req))));
        w.run_for_secs(2);
        let l = log.clone();
        w.register_process("caller", move |_| Box::new(Caller(77, l.clone())));
        w.spawn_on("host2", "caller", Bytes::new()).unwrap();
        w.run_for_secs(5);
        assert_eq!(*log.lock().unwrap(), ["resumed on host1", "reply ping"]);
    }
}
