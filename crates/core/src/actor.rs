//! The process actor: the runtime half of the SNIPE client library.
//!
//! Wraps a user's [`SnipeProcess`] with everything §3.4 promises:
//! reliable multi-path messaging (SRUDP with location re-resolution
//! after migration), RC metadata access, task management through
//! daemons and resource managers, multicast groups with router
//! election, replicated file access, notify lists, and self-initiated
//! migration (§5.6).

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self, MigrationPhase, TraceKind};
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::uri::Uri;
use snipe_util::codec::{Encoder, WireDecode, WireEncode};
use snipe_util::deadlines::Deadlines;
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;
use snipe_wire::frame::{seal, Proto};
use snipe_wire::host::StackHost;
use snipe_wire::mcast::{majority, McastMsg};
use snipe_wire::ports;
use snipe_wire::stack::{Incoming, StackConfig, WireStack};

use snipe_daemon::proto::{DaemonMsg, SpawnSpec, TaskState};
use snipe_files::proto::FileMsg;
use snipe_rm::proto::{AllocMode, MigrateOrder, RmMsg};

use crate::api::{Command, GroupEvent, ProcRef, SnipeApi, SnipeProcess, SpawnTarget, TicketResult};
use crate::names::{
    comm_address, format_endpoint, group_id, parse_endpoint, parse_routers, ATTR_COMM_ADDRESS,
    ATTR_LOCATION_PREFIX, ATTR_STATE,
};

/// Per-attempt deadline for file server operations.
const FILE_OP_TIMEOUT: SimDuration = SimDuration::from_millis(800);
/// How long a spawn request (to a daemon, or to a resource manager)
/// may go unanswered before its ticket fails. Longer than the RM's own
/// budget of three 500 ms placement rounds, so that when the RM has an
/// answer, the RM's answer is the one the caller hears.
const SPAWN_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Failed implicit resolutions of one peer before its queued sends are
/// left unresolved; the k-th retry waits k times [`RESOLVE_BACKOFF`].
const RESOLVE_ATTEMPTS: u32 = 10;
const RESOLVE_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// Group refresh period (router liveness / re-registration).
const GROUP_REFRESH: SimDuration = SimDuration::from_secs(2);
/// First refresh comes quickly to heal join-time races (simultaneous
/// router elections that could not see each other yet).
const GROUP_REFRESH_FIRST: SimDuration = SimDuration::from_millis(300);
/// How long a migrated-away process keeps redirecting (§5.6 "act as a
/// relay or redirect for a short period").
const REDIRECT_GRACE: SimDuration = SimDuration::from_secs(1);
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

/// What an RC completion was for.
enum RcPending {
    ResolvePeer { peer_key: u64, ticket: Option<u64> },
    PseudoLookup { name: String, payload: Bytes },
    GroupRouters { name: String, refresh: bool },
    ServiceLookup { ticket: u64 },
    WatchLookup,
    Publish,
}

struct GroupState {
    gid: u64,
    routers: Vec<Endpoint>,
    joined: bool,
    pending_out: Vec<Bytes>,
}

enum SpawnPending {
    App { ticket: u64 },
    Migration,
}

struct FilePending {
    ticket: u64,
    lifn: String,
    write: bool,
    content: Bytes,
    /// Remaining servers to try (failover for reads *and* writes).
    remaining: Vec<Endpoint>,
}

/// Serialized state shipped to the new host during migration.
pub(crate) struct MigrationPayload {
    pub program: String,
    pub args: Bytes,
    pub user_state: Bytes,
    pub stack_state: Bytes,
    pub groups: Vec<String>,
}

wire_codec!(struct MigrationPayload { program, args, user_state, stack_state, groups });

/// Process-to-process payloads, carried reliably over SRUDP.
enum CoreMsg {
    /// A user message for the peer's [`SnipeProcess::on_message`].
    App(Bytes),
}

wire_codec!(enum CoreMsg: magic 0xA7 { 1 => App(payload) });

/// Raw notice a migrated-away process sends a straggler: `proc_key`
/// now lives at `to` (§5.6, "act as a relay or redirect").
struct RedirectNotice {
    proc_key: u64,
    to: Endpoint,
}

wire_codec!(struct RedirectNotice: magic 0xA8 { proc_key, to });

/// The actor hosting one [`SnipeProcess`].
pub struct ProcessActor {
    cfg: ProcessConfig,
    proc_key: u64,
    /// Program name (needed to recreate the process after migration).
    program: String,
    /// Original constructor args.
    args: Bytes,
    process: Box<dyn SnipeProcess>,
    /// Restore data when resuming from migration.
    resume: Option<MigrationPayload>,

    stack: StackHost,
    rc: RcHost,
    rc_pending: HashMap<u64, RcPending>,
    /// Peers with a location lookup in flight → failed lookups so far.
    resolving: BTreeMap<u64, u32>,
    /// Peers waiting out their own back-off → failed lookups so far.
    resolve_retry: Deadlines<u64, u32>,
    groups: BTreeMap<String, GroupState>,
    /// Spawn requests awaiting a daemon's or RM's answer, by request id.
    spawn_pending: Deadlines<u64, SpawnPending>,
    /// File operations awaiting their server's answer, by request id.
    file_pending: Deadlines<u64, FilePending>,
    /// App timers by arm order (ties fire as armed) → token.
    app_timers: Deadlines<u64, u64>,
    app_timers_armed: u64,
    next_req: u64,
    hostname: String,

    /// Reused scratch for the peers-in-trouble scan (no steady-state
    /// allocation on the stack timer path).
    trouble_scratch: Vec<u64>,
    commands: Vec<Command>,
    next_ticket: u64,
    /// Process log, readable by tests and benches.
    pub log: Vec<(SimTime, String)>,
    migrating: bool,
    redirect_to: Option<Endpoint>,
    /// When a migrated-away process stops redirecting and vanishes.
    grace_until: Option<SimTime>,
    exited: bool,
    /// When the joined groups are next refreshed.
    next_group_refresh: Option<SimTime>,
    group_refreshes: u32,
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
        let rc = RcClient::new(cfg.rc_replicas.clone(), SimDuration::from_millis(250));
        ProcessActor {
            cfg,
            proc_key,
            program: program.into(),
            args,
            process,
            resume: None,
            stack: StackHost::new(),
            rc: RcHost::new(rc),
            rc_pending: HashMap::new(),
            resolving: BTreeMap::new(),
            resolve_retry: Deadlines::new(),
            groups: BTreeMap::new(),
            spawn_pending: Deadlines::new(),
            file_pending: Deadlines::new(),
            app_timers: Deadlines::new(),
            app_timers_armed: 0,
            next_req: 1,
            hostname: String::new(),
            trouble_scratch: Vec::new(),
            commands: Vec::new(),
            next_ticket: 1,
            log: Vec::new(),
            migrating: false,
            redirect_to: None,
            grace_until: None,
            exited: false,
            next_group_refresh: None,
            group_refreshes: 0,
        }
    }

    /// Host a process resuming from a migration payload.
    pub(crate) fn resume_from(
        cfg: ProcessConfig,
        proc_key: u64,
        payload: MigrationPayload,
        process: Box<dyn SnipeProcess>,
    ) -> ProcessActor {
        let mut a = ProcessActor::new(
            cfg,
            proc_key,
            payload.program.clone(),
            payload.args.clone(),
            process,
        );
        a.resume = Some(payload);
        a
    }

    fn req_id(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    // ---- callback plumbing -------------------------------------------------

    fn with_process(
        &mut self,
        ctx: &mut dyn SimCtx,
        f: impl FnOnce(&mut dyn SnipeProcess, &mut SnipeApi<'_, '_>),
    ) {
        if self.exited {
            return;
        }
        let now = ctx.now();
        let me = ctx.me();
        let Self { process, commands, next_ticket, log, hostname, proc_key, .. } = self;
        let mut api = SnipeApi {
            now,
            my_key: *proc_key,
            my_endpoint: me,
            my_hostname: hostname,
            commands,
            next_ticket,
            log,
        };
        f(process.as_mut(), &mut api);
    }

    fn complete_ticket(&mut self, ctx: &mut dyn SimCtx, ticket: u64, result: TicketResult) {
        self.with_process(ctx, |p, api| p.on_ticket(api, ticket, result));
    }

    // ---- wire stack --------------------------------------------------------

    /// The stack configuration for this process: the user's tuning plus
    /// the member-side multicast driver every SNIPE process runs (group
    /// dedup state then rides the stack's migration snapshot).
    fn stack_config(&self) -> StackConfig {
        let mut c = self.cfg.stack.clone();
        c.mcast_member = true;
        c
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
            if let Ok(fmsg) = FileMsg::decode_from_bytes(msg) {
                self.on_file_msg(ctx, fmsg);
            }
            return;
        }
        let Ok(CoreMsg::App(payload)) = CoreMsg::decode_from_bytes(msg) else { return };
        let from = ProcRef { key: from_key, endpoint: from_ep };
        self.with_process(ctx, |p, api| p.on_message(api, from, payload));
        self.run_commands(ctx);
    }

    fn wrap_app(payload: Bytes) -> Bytes {
        let mut e = Encoder::with_capacity(payload.len() + 8);
        CoreMsg::App(payload).encode(&mut e);
        e.finish()
    }

    // ---- RC ----------------------------------------------------------------

    /// Flush the RC client and dispatch what it completed.
    fn pump_rc(&mut self, ctx: &mut dyn SimCtx) {
        for (id, result) in self.rc.flush(ctx) {
            self.on_rc_done(ctx, id, result);
        }
    }

    fn on_rc_done(
        &mut self,
        ctx: &mut dyn SimCtx,
        id: u64,
        result: SnipeResult<snipe_rcds::client::RcReply>,
    ) {
        let Some(pending) = self.rc_pending.remove(&id) else {
            return;
        };
        match pending {
            RcPending::Publish => {}
            RcPending::ResolvePeer { peer_key, ticket } => {
                let resolved = result.ok().and_then(|r| comm_address(&r.assertions));
                let attempts = self.resolving.remove(&peer_key).unwrap_or(0) + 1;
                if let Some(ep) = resolved {
                    let now = ctx.now();
                    if let Some(stack) = self.stack.as_mut() {
                        stack.set_peer_at(now, peer_key, ep, vec![]);
                    }
                    self.pump_stack(ctx);
                } else if ticket.is_none() {
                    // Implicit resolution for a queued send: retry with
                    // backoff — the target may still be starting up or
                    // mid-migration.
                    if attempts <= RESOLVE_ATTEMPTS {
                        let at = ctx.now() + RESOLVE_BACKOFF * attempts as u64;
                        self.resolve_retry.insert(peer_key, at, attempts);
                    }
                    return;
                }
                self.resolve_retry.remove(&peer_key);
                if let Some(t) = ticket {
                    let found = resolved.map(|endpoint| ProcRef { key: peer_key, endpoint });
                    let err = || SnipeError::NameNotFound(format!("urn:snipe:proc:{peer_key}"));
                    self.complete_ticket(ctx, t, TicketResult::Lookup(found.ok_or_else(err)));
                    self.run_commands(ctx);
                }
            }
            RcPending::PseudoLookup { name, payload } => {
                let group = result.ok().and_then(|r| {
                    crate::service::pseudo_process_group(&r.assertions).map(str::to_string)
                });
                match group {
                    Some(g) => {
                        // Fan out through the group: join implicitly
                        // (sender semantics identical to send_group).
                        self.commands.push(Command::SendGroup { name: g, payload });
                        self.run_commands(ctx);
                    }
                    None => {
                        self.log.push((
                            ctx.now(),
                            format!("pseudo-process {name} has no comm-group metadata"),
                        ));
                    }
                }
            }
            RcPending::GroupRouters { name, refresh } => {
                let routers = result.map(|r| parse_routers(&r.assertions)).unwrap_or_default();
                self.on_group_routers(ctx, &name, routers, refresh);
            }
            RcPending::ServiceLookup { ticket } => {
                let refs = result.map(|r| {
                    let mut v: Vec<ProcRef> = r
                        .assertions
                        .iter()
                        .filter(|a| a.name.starts_with(ATTR_LOCATION_PREFIX))
                        .filter_map(|a| {
                            let key: u64 = a.name[ATTR_LOCATION_PREFIX.len()..].parse().ok()?;
                            let ep = parse_endpoint(&a.value)?;
                            Some(ProcRef { key, endpoint: ep })
                        })
                        .collect();
                    v.sort_by_key(|r| r.key);
                    v
                });
                self.complete_ticket(ctx, ticket, TicketResult::Service(refs));
                self.run_commands(ctx);
            }
            RcPending::WatchLookup => {
                // Find the peer's location, then ask its host daemon to
                // add us to the notify list.
                if let Some(ep) = result.ok().and_then(|r| comm_address(&r.assertions)) {
                    let msg = DaemonMsg::Watch { port: ep.port, watcher: ctx.me() };
                    let daemon = Endpoint::new(ep.host, ports::DAEMON);
                    ctx.send(daemon, seal(Proto::Raw, msg.encode_to_bytes()));
                }
            }
        }
    }

    fn publish_location(&mut self, ctx: &mut dyn SimCtx) {
        let me = ctx.me();
        let uri = Uri::process(self.proc_key);
        let now = ctx.now();
        let id = self.rc.put(
            now,
            &uri,
            vec![
                Assertion::new(ATTR_COMM_ADDRESS, format_endpoint(me)),
                Assertion::new(ATTR_STATE, "running"),
                Assertion::new("host", self.hostname.clone()),
            ],
        );
        self.rc_pending.insert(id, RcPending::Publish);
        self.pump_rc(ctx);
    }

    // ---- groups ------------------------------------------------------------

    /// Track group `name`, holding `pending_out` until it is joined, and
    /// look up its routers.
    fn add_group(
        &mut self,
        ctx: &mut dyn SimCtx,
        name: String,
        pending_out: Vec<Bytes>,
        refresh: bool,
    ) {
        let state =
            GroupState { gid: group_id(&name), routers: Vec::new(), joined: false, pending_out };
        self.groups.insert(name.clone(), state);
        self.start_join(ctx, &name, refresh);
    }

    fn start_join(&mut self, ctx: &mut dyn SimCtx, name: &str, refresh: bool) {
        let uri = Uri::mcast_group_wire(group_id(name));
        let now = ctx.now();
        let id = self.rc.get(now, &uri);
        self.rc_pending.insert(id, RcPending::GroupRouters { name: name.to_string(), refresh });
        self.pump_rc(ctx);
    }

    fn on_group_routers(
        &mut self,
        ctx: &mut dyn SimCtx,
        name: &str,
        routers: Vec<Endpoint>,
        refresh: bool,
    ) {
        let Some(g) = self.groups.get_mut(name) else {
            return;
        };
        if !routers.is_empty() {
            g.routers = routers.clone();
            let was_joined = g.joined;
            g.joined = true;
            let gid = g.gid;
            let me = ctx.me();
            // Register membership with a majority of routers (§5.4) and
            // keep the router mesh fully peered.
            let m = majority(routers.len());
            let join_targets: Vec<Endpoint> = routers.iter().copied().take(m).collect();
            for r in &join_targets {
                let msg = McastMsg::Join { group: gid, member: me };
                ctx.send(*r, seal(Proto::Mcast, msg.encode_to_bytes()));
            }
            for a in &routers {
                for b in &routers {
                    if a != b {
                        let msg = McastMsg::Peer { group: gid, router: *b };
                        ctx.send(*a, seal(Proto::Mcast, msg.encode_to_bytes()));
                    }
                }
            }
            let pend = std::mem::take(&mut self.groups.get_mut(name).expect("present").pending_out);
            for payload in pend {
                self.do_send_group(ctx, name, payload);
            }
            if !was_joined && !refresh {
                let n = name.to_string();
                self.with_process(ctx, |p, api| p.on_group_event(api, &n, GroupEvent::Joined));
                self.run_commands(ctx);
            }
            self.schedule_group_refresh(ctx);
        } else {
            // No routers yet: ask the local daemon to elect itself.
            let daemon = Endpoint::new(ctx.host(), ports::DAEMON);
            let msg = DaemonMsg::ElectRouter { group: g.gid };
            ctx.send(daemon, seal(Proto::Raw, msg.encode_to_bytes()));
        }
    }

    fn on_elect_resp(&mut self, ctx: &mut dyn SimCtx, gid: u64, router: Endpoint) {
        let Some(name) = self.groups.iter().find(|(_, g)| g.gid == gid).map(|(n, _)| n.clone())
        else {
            return;
        };
        self.on_group_routers(ctx, &name, vec![router], false);
    }

    fn do_send_group(&mut self, ctx: &mut dyn SimCtx, name: &str, payload: Bytes) {
        let Some(g) = self.groups.get_mut(name) else {
            return;
        };
        if !g.joined {
            g.pending_out.push(payload);
            return;
        }
        let gid = g.gid;
        let key = self.proc_key;
        // Sequence allocation and self-dedup live in the stack's member
        // driver, the same state that suppresses the router echo of
        // this very message.
        let Some(member) = self.stack.as_mut().and_then(|s| s.mcast_member_mut()) else {
            return;
        };
        let seq = member.next_seq(gid);
        // Deliver to ourselves exactly once, too (we are a member).
        if member.accept(gid, key, seq, payload.clone()).is_some() {
            let n = name.to_string();
            let pl = payload.clone();
            self.with_process(ctx, |p, api| p.on_group_message(api, &n, key, pl));
            self.run_commands(ctx);
        }
        let Some(g) = self.groups.get(name) else {
            return;
        };
        let m = majority(g.routers.len());
        for r in g.routers.iter().take(m) {
            let msg = McastMsg::Data {
                group: gid,
                origin: self.proc_key,
                seq,
                ttl: 8,
                payload: payload.clone(),
            };
            ctx.send(*r, seal(Proto::Mcast, msg.encode_to_bytes()));
        }
    }

    fn schedule_group_refresh(&mut self, ctx: &mut dyn SimCtx) {
        if self.next_group_refresh.is_none() && !self.groups.is_empty() {
            let delay = if self.group_refreshes == 0 { GROUP_REFRESH_FIRST } else { GROUP_REFRESH };
            self.next_group_refresh = Some(ctx.now() + delay);
        }
    }

    /// A group message delivered by the stack's member driver (already
    /// dedup'd across router legs); `body` is the encoded [`McastMsg`].
    fn on_group_deliver(&mut self, ctx: &mut dyn SimCtx, body: Bytes) {
        let Ok(McastMsg::Data { group, origin, payload, .. }) = McastMsg::decode_from_bytes(body)
        else {
            return;
        };
        let Some(name) = self.groups.iter().find(|(_, g)| g.gid == group).map(|(n, _)| n.clone())
        else {
            return;
        };
        self.with_process(ctx, |proc, api| proc.on_group_message(api, &name, origin, payload));
        self.run_commands(ctx);
    }

    // ---- files -------------------------------------------------------------

    fn on_file_msg(&mut self, ctx: &mut dyn SimCtx, msg: FileMsg) {
        match msg {
            FileMsg::StoreResp { req_id, ok } => {
                if let Some(fp) = self.file_pending.remove(&req_id) {
                    let res = if ok {
                        Ok(())
                    } else {
                        Err(SnipeError::Unavailable("file store rejected".into()))
                    };
                    self.complete_ticket(ctx, fp.ticket, TicketResult::FileWritten(res));
                    self.run_commands(ctx);
                }
            }
            FileMsg::ReadResp { req_id, ok, content, .. } => {
                if let Some(mut fp) = self.file_pending.remove(&req_id) {
                    if ok {
                        self.complete_ticket(ctx, fp.ticket, TicketResult::FileRead(Ok(content)));
                        self.run_commands(ctx);
                    } else if !fp.remaining.is_empty() {
                        // Closest-replica failover: try the next server.
                        let next = fp.remaining.remove(0);
                        self.send_file_req(ctx, next, fp);
                    } else {
                        self.complete_ticket(
                            ctx,
                            fp.ticket,
                            TicketResult::FileRead(Err(SnipeError::NameNotFound(fp.lifn.clone()))),
                        );
                        self.run_commands(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    /// Put `fp`'s request to `server` under a fresh id and keep it
    /// pending until the server answers or [`FILE_OP_TIMEOUT`] passes.
    fn send_file_req(&mut self, ctx: &mut dyn SimCtx, server: Endpoint, fp: FilePending) {
        let req_id = self.req_id();
        let lifn = fp.lifn.clone();
        let m = if fp.write {
            FileMsg::StoreReq { req_id, lifn, content: fp.content.clone() }
        } else {
            FileMsg::ReadReq { req_id, lifn }
        };
        self.file_pending.insert(req_id, ctx.now() + FILE_OP_TIMEOUT, fp);
        self.send_to_infra(ctx, server, m.encode_to_bytes());
    }

    /// Reliable message to an infrastructure endpoint (file server...).
    fn send_to_infra(&mut self, ctx: &mut dyn SimCtx, to: Endpoint, payload: Bytes) {
        let now = ctx.now();
        if let Some(stack) = self.stack.as_mut() {
            let key = snipe_wire::stack::endpoint_key(to);
            stack.set_peer_at(now, key, to, vec![]);
            stack.send(now, key, payload).expect("configured frag size");
        }
        self.pump_stack(ctx);
    }

    // ---- command execution ---------------------------------------------------

    fn run_commands(&mut self, ctx: &mut dyn SimCtx) {
        // Commands may trigger callbacks that push more commands; loop
        // with a depth bound for safety.
        for _ in 0..64 {
            if self.commands.is_empty() || self.exited {
                return;
            }
            let batch: Vec<Command> = std::mem::take(&mut self.commands);
            for cmd in batch {
                self.exec(ctx, cmd);
                if self.exited {
                    return;
                }
            }
        }
    }

    fn exec(&mut self, ctx: &mut dyn SimCtx, cmd: Command) {
        match cmd {
            Command::Log(line) => {
                if self.cfg.echo_logs {
                    println!("[{}] {} {}: {line}", ctx.now(), self.hostname, ctx.me());
                }
            }
            Command::SetTimer { delay, token } => {
                self.app_timers.insert(self.app_timers_armed, ctx.now() + delay, token);
                self.app_timers_armed += 1;
            }
            Command::SendProc { to_key, payload } => {
                let now = ctx.now();
                let wrapped = Self::wrap_app(payload);
                let known = self.stack.as_ref().is_some_and(|s| s.peer_endpoint(to_key).is_some());
                if let Some(stack) = self.stack.as_mut() {
                    stack.send(now, to_key, wrapped).expect("configured frag size");
                }
                if !known {
                    self.resolve_peer(ctx, to_key, None);
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
            Command::Lookup { ticket, proc_key } => {
                self.resolve_peer(ctx, proc_key, Some(ticket));
            }
            Command::Spawn { ticket, target, program, args } => {
                self.do_spawn(ctx, ticket, target, program, args);
            }
            Command::JoinGroup { name } => {
                if !self.groups.contains_key(&name) {
                    self.add_group(ctx, name, Vec::new(), false);
                }
            }
            Command::LeaveGroup { name } => {
                if let Some(g) = self.groups.remove(&name) {
                    let me = ctx.me();
                    for r in &g.routers {
                        let msg = McastMsg::Leave { group: g.gid, member: me };
                        ctx.send(*r, seal(Proto::Mcast, msg.encode_to_bytes()));
                    }
                }
            }
            Command::SendGroup { name, payload } => {
                if !self.groups.contains_key(&name) {
                    self.add_group(ctx, name, vec![payload], false);
                } else {
                    self.do_send_group(ctx, &name, payload);
                }
            }
            Command::WriteFile { ticket, lifn, content } => {
                let mut servers = self.cfg.file_servers.clone();
                if servers.is_empty() {
                    self.complete_ticket(
                        ctx,
                        ticket,
                        TicketResult::FileWritten(Err(SnipeError::Unavailable(
                            "no file servers configured".into(),
                        ))),
                    );
                    return;
                }
                let first = servers.remove(0);
                let fp = FilePending { ticket, lifn, write: true, content, remaining: servers };
                self.send_file_req(ctx, first, fp);
            }
            Command::ReadFile { ticket, lifn } => {
                let mut servers = self.cfg.file_servers.clone();
                if servers.is_empty() {
                    self.complete_ticket(
                        ctx,
                        ticket,
                        TicketResult::FileRead(Err(SnipeError::Unavailable(
                            "no file servers configured".into(),
                        ))),
                    );
                    return;
                }
                let first = servers.remove(0);
                let content = Bytes::new();
                let fp = FilePending { ticket, lifn, write: false, content, remaining: servers };
                self.send_file_req(ctx, first, fp);
            }
            Command::RegisterPseudo { name, group } => {
                // §5.7: metadata for the pseudo-process, with the group
                // as its communications address.
                let Ok(uri) = Uri::parse(format!("urn:snipe:pseudo:{name}")) else {
                    return;
                };
                let now = ctx.now();
                let id = self.rc.put(now, &uri, crate::service::pseudo_process_assertions(&group));
                self.rc_pending.insert(id, RcPending::Publish);
                // The registrar is usually also a replica coordinator;
                // joining the group is the replicas' job.
                self.pump_rc(ctx);
            }
            Command::SendPseudo { name, payload } => {
                let Ok(uri) = Uri::parse(format!("urn:snipe:pseudo:{name}")) else {
                    return;
                };
                let now = ctx.now();
                let id = self.rc.get(now, &uri);
                self.rc_pending.insert(id, RcPending::PseudoLookup { name, payload });
                self.pump_rc(ctx);
            }
            Command::RegisterService { name } => {
                let uri = Uri::service(&name);
                let me = ctx.me();
                let now = ctx.now();
                let id = self.rc.put(
                    now,
                    &uri,
                    vec![Assertion::new(
                        format!("{ATTR_LOCATION_PREFIX}{}", self.proc_key),
                        format_endpoint(me),
                    )],
                );
                self.rc_pending.insert(id, RcPending::Publish);
                self.pump_rc(ctx);
            }
            Command::LookupService { ticket, name } => {
                let uri = Uri::service(&name);
                let now = ctx.now();
                let id = self.rc.get(now, &uri);
                self.rc_pending.insert(id, RcPending::ServiceLookup { ticket });
                self.pump_rc(ctx);
            }
            Command::WatchProcess { proc_key } => {
                let uri = Uri::process(proc_key);
                let now = ctx.now();
                let id = self.rc.get(now, &uri);
                self.rc_pending.insert(id, RcPending::WatchLookup);
                self.pump_rc(ctx);
            }
            Command::MigrateTo { hostname } => {
                self.start_migration(ctx, hostname);
            }
            Command::Exit => {
                self.exited = true;
                let me = ctx.me();
                let daemon = Endpoint::new(ctx.host(), ports::DAEMON);
                let msg = DaemonMsg::TaskReport { port: me.port, state: TaskState::Exited };
                ctx.send(daemon, seal(Proto::Raw, msg.encode_to_bytes()));
            }
        }
    }

    fn resolve_peer(&mut self, ctx: &mut dyn SimCtx, peer_key: u64, ticket: Option<u64>) {
        let busy =
            self.resolving.contains_key(&peer_key) || self.resolve_retry.get(&peer_key).is_some();
        if ticket.is_none() && busy {
            return; // already in flight, or backing off
        }
        self.resolving.entry(peer_key).or_insert(0);
        self.lookup_peer(ctx, peer_key, ticket);
    }

    /// Ask RC where `peer_key` lives.
    fn lookup_peer(&mut self, ctx: &mut dyn SimCtx, peer_key: u64, ticket: Option<u64>) {
        let uri = Uri::process(peer_key);
        let now = ctx.now();
        let id = self.rc.get(now, &uri);
        self.rc_pending.insert(id, RcPending::ResolvePeer { peer_key, ticket });
        self.pump_rc(ctx);
    }

    fn do_spawn(
        &mut self,
        ctx: &mut dyn SimCtx,
        ticket: u64,
        target: SpawnTarget,
        program: String,
        args: Bytes,
    ) {
        let me = ctx.me();
        let mut spec = SpawnSpec::program(program, args);
        spec.notify = vec![me];
        match target {
            SpawnTarget::Host(hostname) => {
                let Some(h) = ctx.topology().host_by_name(&hostname) else {
                    self.complete_ticket(
                        ctx,
                        ticket,
                        TicketResult::Spawned(Err(SnipeError::NameNotFound(hostname))),
                    );
                    return;
                };
                let req = self.await_spawn(ctx, SpawnPending::App { ticket });
                let msg = DaemonMsg::SpawnReq { req_id: req, spec };
                ctx.send(Endpoint::new(h, ports::DAEMON), seal(Proto::Raw, msg.encode_to_bytes()));
            }
            SpawnTarget::ResourceManager => {
                let Some(&rm) = self.cfg.resource_managers.first() else {
                    self.complete_ticket(
                        ctx,
                        ticket,
                        TicketResult::Spawned(Err(SnipeError::Unavailable(
                            "no resource managers configured".into(),
                        ))),
                    );
                    return;
                };
                let req = self.await_spawn(ctx, SpawnPending::App { ticket });
                let msg = RmMsg::AllocReq { req_id: req, spec, count: 1, mode: AllocMode::Active };
                ctx.send(rm, seal(Proto::Raw, msg.encode_to_bytes()));
            }
        }
    }

    /// File a spawn request about to go out as one unreliable datagram:
    /// if no answer comes within [`SPAWN_TIMEOUT`] it fails like a
    /// refusal. Returns the request id to send it under.
    fn await_spawn(&mut self, ctx: &mut dyn SimCtx, pending: SpawnPending) -> u64 {
        let req = self.req_id();
        self.spawn_pending.insert(req, ctx.now() + SPAWN_TIMEOUT, pending);
        req
    }

    // ---- migration -----------------------------------------------------------

    fn start_migration(&mut self, ctx: &mut dyn SimCtx, hostname: String) {
        if self.migrating {
            return;
        }
        let Some(target) = ctx.topology().host_by_name(&hostname) else {
            self.with_process(ctx, |_, api| {
                api.log(format!("migration failed: unknown host {hostname}"))
            });
            return;
        };
        if target == ctx.host() {
            return; // already there
        }
        self.migrating = true;
        if trace::enabled() {
            trace::record(
                ctx.now(),
                TraceKind::Migration { phase: MigrationPhase::Checkpoint, key: self.proc_key },
            );
        }
        let user_state = self.process.checkpoint();
        let stack_state = self.stack.as_ref().map(|s| s.export_state()).unwrap_or_default();
        let payload = MigrationPayload {
            program: self.program.clone(),
            args: self.args.clone(),
            user_state,
            stack_state,
            groups: self.groups.keys().cloned().collect(),
        };
        let mut spec = SpawnSpec::program(crate::world::MIGRATE_PROGRAM, payload.encode_to_bytes());
        spec.fixed_key = self.proc_key;
        let req = self.await_spawn(ctx, SpawnPending::Migration);
        let msg = DaemonMsg::SpawnReq { req_id: req, spec };
        ctx.send(Endpoint::new(target, ports::DAEMON), seal(Proto::Raw, msg.encode_to_bytes()));
    }

    fn on_spawn_resp(
        &mut self,
        ctx: &mut dyn SimCtx,
        req_id: u64,
        ok: bool,
        endpoint: Endpoint,
        proc_key: u64,
        error: String,
    ) {
        if let Some(pending) = self.spawn_pending.remove(&req_id) {
            let outcome = if ok { Ok(ProcRef { key: proc_key, endpoint }) } else { Err(error) };
            self.finish_spawn(ctx, pending, outcome);
        }
    }

    /// A spawn request was answered, refused, or timed out.
    fn finish_spawn(
        &mut self,
        ctx: &mut dyn SimCtx,
        pending: SpawnPending,
        outcome: Result<ProcRef, String>,
    ) {
        match pending {
            SpawnPending::App { ticket } => {
                let res =
                    outcome.map_err(|e| SnipeError::Unavailable(format!("spawn failed: {e}")));
                self.complete_ticket(ctx, ticket, TicketResult::Spawned(res));
                self.run_commands(ctx);
            }
            SpawnPending::Migration => {
                let endpoint = match outcome {
                    Ok(new) => new.endpoint,
                    Err(error) => {
                        self.migrating = false;
                        self.log.push((ctx.now(), format!("migration rejected: {error}")));
                        return;
                    }
                };
                // Handoff: the new incarnation owns all protocol state
                // now — drop ours so stale retransmissions from the old
                // address can never confuse peers — then detach from
                // the daemon, redirect stragglers briefly, and
                // disappear (§5.6).
                if trace::enabled() {
                    trace::record(
                        ctx.now(),
                        TraceKind::Migration { phase: MigrationPhase::Cutover, key: self.proc_key },
                    );
                }
                self.stack.stop();
                self.redirect_to = Some(endpoint);
                let me = ctx.me();
                let daemon = Endpoint::new(ctx.host(), ports::DAEMON);
                let msg = DaemonMsg::Detach { port: me.port };
                ctx.send(daemon, seal(Proto::Raw, msg.encode_to_bytes()));
                self.grace_until = Some(ctx.now() + REDIRECT_GRACE);
            }
        }
    }

    fn send_redirect(&mut self, ctx: &mut dyn SimCtx, to: Endpoint) {
        let Some(new_ep) = self.redirect_to else {
            return;
        };
        let notice = RedirectNotice { proc_key: self.proc_key, to: new_ep };
        ctx.send(to, seal(Proto::Raw, notice.encode_to_bytes()));
    }

    /// An authorized controller (resource manager) asks us to move.
    fn try_migrate_order(&mut self, ctx: &mut dyn SimCtx, body: &Bytes) -> bool {
        let Ok(MigrateOrder { target_host }) = MigrateOrder::decode_from_bytes(body.clone()) else {
            return false;
        };
        self.log.push((ctx.now(), format!("resource manager requests migration to {target_host}")));
        self.start_migration(ctx, target_host);
        true
    }

    fn try_redirect_notice(&mut self, ctx: &mut dyn SimCtx, body: &Bytes) -> bool {
        let Ok(RedirectNotice { proc_key, to }) = RedirectNotice::decode_from_bytes(body.clone())
        else {
            return false;
        };
        let now = ctx.now();
        if let Some(stack) = self.stack.as_mut() {
            stack.set_peer_at(now, proc_key, to, vec![]);
        }
        self.pump_stack(ctx);
        true
    }

    /// Service, in a fixed order, the machines that are due: the spawn
    /// table, the file table, the stack, the RC client, the resolve
    /// retries, the group refresh, the app's timers. A migrating
    /// process is frozen: it services only its spawn table and, once
    /// cut over, the end of its redirect grace (its answer to
    /// [`Actor::next_wake`] holds nothing else).
    fn on_wake(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        if due(self.spawn_pending.next_deadline(), now) {
            for (_, pending) in self.spawn_pending.take_due(now) {
                self.finish_spawn(ctx, pending, Err("no answer".into()));
            }
        }
        if self.migrating && due(self.grace_until, now) {
            // Done redirecting; vanish.
            if trace::enabled() {
                trace::record(
                    now,
                    TraceKind::Migration { phase: MigrationPhase::Vanish, key: self.proc_key },
                );
            }
            self.exited = true;
            let me = ctx.me();
            ctx.kill(me);
        }
        if self.migrating || self.exited {
            return;
        }
        if due(self.file_pending.next_deadline(), now) {
            // Failovers draw fresh request ids in turn: the table's
            // request-id order.
            for (_, mut fp) in self.file_pending.take_due(now) {
                if !fp.remaining.is_empty() {
                    // Server unresponsive: fail over.
                    let next = fp.remaining.remove(0);
                    self.send_file_req(ctx, next, fp);
                } else {
                    let err = SnipeError::Timeout(format!(
                        "file operation on {} timed out on every server",
                        fp.lifn
                    ));
                    let result = if fp.write {
                        TicketResult::FileWritten(Err(err))
                    } else {
                        TicketResult::FileRead(Err(err))
                    };
                    self.complete_ticket(ctx, fp.ticket, result);
                    self.run_commands(ctx);
                }
            }
        }
        if self.stack.on_wake(now) {
            self.pump_stack(ctx);
            // Peers timing out repeatedly may have migrated: re-resolve
            // their location from RC metadata (§5.6: "processes that do
            // not notice its migration ... will find its new location
            // via the RC servers").
            let mut scratch = std::mem::take(&mut self.trouble_scratch);
            scratch.clear();
            if let Some(s) = self.stack.as_ref() {
                s.peers_in_trouble_into(RELOOKUP_TIMEOUTS, &mut scratch);
            }
            scratch.retain(|k| k & (1 << 63) == 0);
            for &k in &scratch {
                self.resolve_peer(ctx, k, None);
            }
            self.trouble_scratch = scratch;
        }
        if self.rc.on_wake(now) {
            self.pump_rc(ctx);
        }
        for (peer_key, attempts) in self.resolve_retry.take_due(now) {
            self.resolving.insert(peer_key, attempts);
            self.lookup_peer(ctx, peer_key, None);
        }
        if due(self.next_group_refresh, now) {
            self.next_group_refresh = None;
            self.group_refreshes += 1;
            let names: Vec<String> = self.groups.keys().cloned().collect();
            for n in names {
                self.start_join(ctx, &n, true);
            }
            self.schedule_group_refresh(ctx);
        }
        // A callback may arm a timer due at once, or start a migration.
        while !self.migrating && !self.exited && due(self.app_timers.next_deadline(), now) {
            for (_, token) in self.app_timers.take_due(now) {
                self.with_process(ctx, |p, api| p.on_timer(api, token));
                self.run_commands(ctx);
            }
        }
    }

    // ---- event entry ----------------------------------------------------------

    fn on_start(&mut self, ctx: &mut dyn SimCtx) {
        self.hostname = ctx.topology().host(ctx.host()).name.clone();
        let now = ctx.now();
        if let Some(payload) = self.resume.take() {
            if trace::enabled() {
                trace::record(
                    now,
                    TraceKind::Migration { phase: MigrationPhase::Resume, key: self.proc_key },
                );
            }
            let scfg = self.stack_config();
            let stack = if payload.stack_state.is_empty() {
                WireStack::new(self.proc_key, scfg)
            } else {
                WireStack::import_state(payload.stack_state, scfg.clone(), now)
                    .unwrap_or_else(|_| WireStack::new(self.proc_key, scfg))
            };
            // No explicit "moved" broadcast is needed: the imported
            // stack immediately retransmits everything unacknowledged,
            // and SRUDP receivers learn sender locations from live
            // traffic; peers that *send to us* re-resolve via RC after
            // repeated timeouts (see `on_wake`) or get a redirect
            // from the shell we left behind.
            self.stack.start(stack);
            self.process.restore(payload.user_state);
            self.publish_location(ctx);
            // Re-join groups on the new host.
            for name in payload.groups {
                self.add_group(ctx, name, Vec::new(), true);
            }
            self.pump_stack(ctx);
            self.with_process(ctx, |p, api| p.on_migrated(api));
            self.run_commands(ctx);
        } else {
            self.stack.start(WireStack::new(self.proc_key, self.stack_config()));
            self.publish_location(ctx);
            self.with_process(ctx, |p, api| p.on_start(api));
            self.run_commands(ctx);
        }
    }
}

impl Actor for ProcessActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if self.exited {
            return;
        }
        match event {
            Event::Start => self.on_start(ctx),
            Event::HostUp => {
                // Reboot: RAM state is gone; the daemon reports us
                // crashed. Just disappear.
                self.exited = true;
                let me = ctx.me();
                ctx.kill(me);
            }
            Event::Wake => self.on_wake(ctx),
            Event::Signal { signum, .. } => {
                self.with_process(ctx, |p, api| p.on_signal(api, signum));
                self.run_commands(ctx);
            }
            Event::Packet { from, payload } => {
                // From the instant the checkpoint is taken, this
                // incarnation must not consume any more traffic (the
                // new incarnation owns the protocol state). We only
                // still listen for the daemon's spawn/detach replies,
                // and redirect stragglers once the cutover completed.
                // Dropped datagrams are retransmitted by SRUDP, so
                // nothing is lost (§5.6).
                if self.migrating && !self.cfg.chaos_disable_migration_freeze {
                    if let Ok((Proto::Raw, body)) = snipe_wire::frame::open(payload) {
                        if let Ok(dmsg) = DaemonMsg::decode_from_bytes(body) {
                            match dmsg {
                                DaemonMsg::SpawnResp { req_id, ok, endpoint, proc_key, error } => {
                                    self.on_spawn_resp(ctx, req_id, ok, endpoint, proc_key, error);
                                    return;
                                }
                                DaemonMsg::DetachResp { .. } => return,
                                _ => {}
                            }
                        }
                    }
                    if self.redirect_to.is_some() {
                        self.send_redirect(ctx, from);
                    }
                    return;
                }
                let now = ctx.now();
                match self.stack.on_packet(now, from, payload) {
                    None => {}
                    // MCAST traffic is consumed by the stack's member
                    // driver and arrives as tagged deliveries.
                    Some(Incoming::Mcast { .. }) => {}
                    Some(Incoming::Stream { .. }) => {}
                    Some(Incoming::Raw { from, msg }) => {
                        if self.try_redirect_notice(ctx, &msg) || self.try_migrate_order(ctx, &msg)
                        {
                            // handled
                        } else if let Ok(dmsg) = DaemonMsg::decode_from_bytes(msg.clone()) {
                            match dmsg {
                                DaemonMsg::SpawnResp { req_id, ok, endpoint, proc_key, error } => {
                                    self.on_spawn_resp(ctx, req_id, ok, endpoint, proc_key, error);
                                }
                                DaemonMsg::TaskEvent { proc_key, state } => {
                                    self.with_process(ctx, |p, api| {
                                        p.on_task_event(api, proc_key, state)
                                    });
                                    self.run_commands(ctx);
                                }
                                DaemonMsg::ElectResp { group, router } => {
                                    self.on_elect_resp(ctx, group, router);
                                }
                                _ => {}
                            }
                        } else if let Ok(rmsg) = RmMsg::decode_from_bytes(msg.clone()) {
                            if let RmMsg::AllocResp { req_id, ok, allocations, error } = rmsg {
                                let (ok2, ep, key) = match allocations.first() {
                                    Some(a) if ok => (true, a.task, a.proc_key),
                                    _ => (false, Endpoint::new(ctx.host(), 0), 0),
                                };
                                self.on_spawn_resp(ctx, req_id, ok2, ep, key, error);
                            }
                        } else {
                            self.rc.on_packet(now, from, msg);
                            self.pump_rc(ctx);
                        }
                    }
                }
                self.pump_stack(ctx);
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        let spawn = self.spawn_pending.next_deadline();
        if self.exited {
            None
        } else if self.migrating {
            earliest([spawn, self.grace_until])
        } else {
            earliest([
                spawn,
                self.file_pending.next_deadline(),
                self.stack.next_deadline(),
                self.rc.next_deadline(),
                self.resolve_retry.next_deadline(),
                self.next_group_refresh,
                self.app_timers.next_deadline(),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

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
                if a.resolving.contains_key(&key) || a.resolve_retry.get(&key).is_some() {
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
