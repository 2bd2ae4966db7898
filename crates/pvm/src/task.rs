//! PVM tasks: the application model of the baseline.
//!
//! A [`PvmTask`] is the PVM analogue of `snipe_core::SnipeProcess`:
//! it can spawn via the central master, look up tids (every lookup is
//! a master round-trip) and exchange direct messages once resolved.

use std::collections::HashMap;

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};

use crate::proto::{PvmMsg, Tid};

/// Commands a task can issue during a callback.
enum Cmd {
    Spawn { ticket: u64, program: String, args: Bytes },
    Send { to: Tid, payload: Bytes },
    SetTimer { delay: SimDuration, token: u64 },
}

/// The PVM task API handed to callbacks.
pub struct PvmTaskApi<'a> {
    now: SimTime,
    my_tid: Tid,
    cmds: &'a mut Vec<Cmd>,
    next_ticket: &'a mut u64,
}

impl PvmTaskApi<'_> {
    /// Current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This task's tid.
    pub fn my_tid(&self) -> Tid {
        self.my_tid
    }

    /// Spawn a program via the central master; ticketed.
    pub fn spawn(&mut self, program: impl Into<String>, args: impl Into<Bytes>) -> u64 {
        let t = *self.next_ticket;
        *self.next_ticket += 1;
        self.cmds.push(Cmd::Spawn { ticket: t, program: program.into(), args: args.into() });
        t
    }

    /// Send to another task by tid (resolved through the master on
    /// first use).
    pub fn send(&mut self, to: Tid, payload: impl Into<Bytes>) {
        self.cmds.push(Cmd::Send { to, payload: payload.into() });
    }

    /// Arm a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.cmds.push(Cmd::SetTimer { delay, token });
    }
}

/// The trait a PVM application implements.
pub trait PvmTask: Send {
    /// Task started (tid assigned).
    fn on_start(&mut self, api: &mut PvmTaskApi<'_>);
    /// Data from another task.
    fn on_message(&mut self, api: &mut PvmTaskApi<'_>, from: Tid, msg: Bytes) {
        let _ = (api, from, msg);
    }
    /// Spawn completed.
    fn on_spawned(&mut self, api: &mut PvmTaskApi<'_>, ticket: u64, ok: bool, tid: Tid) {
        let _ = (api, ticket, ok, tid);
    }
    /// Timer fired.
    fn on_timer(&mut self, api: &mut PvmTaskApi<'_>, token: u64) {
        let _ = (api, token);
    }
}

const APP_TIMER_BIT: u64 = 0x8;

/// The actor wrapping a [`PvmTask`].
pub struct PvmTaskActor {
    tid: Tid,
    master: Endpoint,
    /// Route data through the pvmds (the PVM default that PVMPI used)
    /// instead of direct endpoints.
    route_via_daemon: bool,
    task: Box<dyn PvmTask>,
    cmds: Vec<Cmd>,
    next_ticket: u64,
    next_req: u64,
    /// tid → endpoint cache (filled by master lookups).
    peers: HashMap<Tid, Endpoint>,
    /// Messages waiting on a lookup.
    waiting: HashMap<Tid, Vec<Bytes>>,
    /// lookup req id → tid.
    lookups: HashMap<u64, Tid>,
    /// spawn req id → ticket.
    spawns: HashMap<u64, u64>,
}

impl PvmTaskActor {
    /// Wrap a task.
    pub fn new(tid: Tid, master: Endpoint, task: Box<dyn PvmTask>) -> PvmTaskActor {
        PvmTaskActor {
            tid,
            master,
            route_via_daemon: false,
            task,
            cmds: Vec::new(),
            next_ticket: 1,
            next_req: 1,
            peers: HashMap::new(),
            waiting: HashMap::new(),
            lookups: HashMap::new(),
            spawns: HashMap::new(),
        }
    }

    /// Switch to daemon routing (PvmRoute default, used by PVMPI §6.1).
    pub fn with_daemon_routing(mut self) -> PvmTaskActor {
        self.route_via_daemon = true;
        self
    }

    fn with_task(
        &mut self,
        ctx: &mut dyn SimCtx,
        f: impl FnOnce(&mut dyn PvmTask, &mut PvmTaskApi<'_>),
    ) {
        let now = ctx.now();
        let Self { task, cmds, next_ticket, tid, .. } = self;
        let mut api = PvmTaskApi { now, my_tid: *tid, cmds, next_ticket };
        f(task.as_mut(), &mut api);
    }

    fn run_cmds(&mut self, ctx: &mut dyn SimCtx) {
        for _ in 0..16 {
            if self.cmds.is_empty() {
                return;
            }
            for cmd in std::mem::take(&mut self.cmds) {
                match cmd {
                    Cmd::SetTimer { delay, token } => {
                        ctx.set_timer(delay, (token << 4) | APP_TIMER_BIT)
                    }
                    Cmd::Spawn { ticket, program, args } => {
                        let req = self.next_req;
                        self.next_req += 1;
                        self.spawns.insert(req, ticket);
                        let msg = PvmMsg::SpawnReq { req_id: req, program, args };
                        ctx.send(self.master, seal(Proto::Raw, msg.encode_to_bytes()));
                    }
                    Cmd::Send { to, payload } if self.route_via_daemon => {
                        // Task → local pvmd → (remote pvmd) → task.
                        let slave = Endpoint::new(ctx.host(), crate::pvmd::SLAVE_PORT);
                        let msg = PvmMsg::RouteData { dest: to, from: self.tid, payload };
                        ctx.send(slave, seal(Proto::Raw, msg.encode_to_bytes()));
                    }
                    Cmd::Send { to, payload } => match self.peers.get(&to) {
                        Some(&ep) => {
                            let msg = PvmMsg::Data { from: self.tid, payload };
                            ctx.send(ep, seal(Proto::Raw, msg.encode_to_bytes()));
                        }
                        None => {
                            let first = !self.waiting.contains_key(&to);
                            self.waiting.entry(to).or_default().push(payload);
                            if first {
                                let req = self.next_req;
                                self.next_req += 1;
                                self.lookups.insert(req, to);
                                let msg = PvmMsg::LookupReq { req_id: req, tid: to };
                                ctx.send(self.master, seal(Proto::Raw, msg.encode_to_bytes()));
                            }
                        }
                    },
                }
            }
        }
    }
}

impl Actor for PvmTaskActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                // Register our own tid with the master so peers can
                // resolve us (pvmds did this for their children; a
                // directly-launched console task does it itself).
                let me = ctx.me();
                let reg = PvmMsg::Register { tid: self.tid, endpoint: me };
                ctx.send(self.master, seal(Proto::Raw, reg.encode_to_bytes()));
                self.with_task(ctx, |t, api| t.on_start(api));
                self.run_cmds(ctx);
            }
            Event::Timer { token } if token & APP_TIMER_BIT != 0 => {
                let app = token >> 4;
                self.with_task(ctx, |t, api| t.on_timer(api, app));
                self.run_cmds(ctx);
            }
            Event::Timer { .. } => {}
            Event::Packet { from: _, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    return;
                };
                let Ok(msg) = PvmMsg::decode_from_bytes(body) else {
                    return;
                };
                match msg {
                    PvmMsg::Data { from, payload } => {
                        self.with_task(ctx, |t, api| t.on_message(api, from, payload));
                        self.run_cmds(ctx);
                    }
                    PvmMsg::LookupResp { req_id, ok, endpoint } => {
                        if let Some(tid) = self.lookups.remove(&req_id) {
                            if ok {
                                self.peers.insert(tid, endpoint);
                                for payload in self.waiting.remove(&tid).unwrap_or_default() {
                                    let msg = PvmMsg::Data { from: self.tid, payload };
                                    ctx.send(endpoint, seal(Proto::Raw, msg.encode_to_bytes()));
                                }
                            } else {
                                // Retry shortly: the peer may still be
                                // registering with the master.
                                let req = self.next_req;
                                self.next_req += 1;
                                self.lookups.insert(req, tid);
                                let m = self.master;
                                let msg = PvmMsg::LookupReq { req_id: req, tid };
                                ctx.set_timer(SimDuration::from_millis(20), 0);
                                ctx.send(m, seal(Proto::Raw, msg.encode_to_bytes()));
                            }
                        }
                    }
                    PvmMsg::SpawnResp { req_id, ok, tid, endpoint } => {
                        if let Some(ticket) = self.spawns.remove(&req_id) {
                            if ok {
                                self.peers.insert(tid, endpoint);
                            }
                            self.with_task(ctx, |t, api| t.on_spawned(api, ticket, ok, tid));
                            self.run_cmds(ctx);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}
