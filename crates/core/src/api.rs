//! The SNIPE process programming interface.
//!
//! [`SnipeProcess`] is what an application implements; [`SnipeApi`] is
//! the client library handed to every callback (§3.4: "resource
//! location, communications, authentication, task management, and
//! access to external data stores").

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::error::SnipeResult;
use snipe_util::id::NetId;
use snipe_util::time::{SimDuration, SimTime};

use snipe_daemon::proto::TaskState;

/// A resolved reference to another SNIPE process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProcRef {
    /// The process's globally unique key (its URN is
    /// `urn:snipe:proc:<key>`).
    pub key: u64,
    /// Its location at resolution time (may change on migration; the
    /// key stays valid).
    pub endpoint: Endpoint,
}

/// Where a spawn request should be directed.
#[derive(Clone, Debug)]
pub enum SpawnTarget {
    /// A specific host by name ("the request is sent to the host
    /// daemon", §5.5).
    Host(String),
    /// Let a resource manager choose (§3.5 active mode).
    ResourceManager,
}

/// A group-related notification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupEvent {
    /// Join completed; the group is usable.
    Joined,
    /// Join failed (no routers could be arranged).
    JoinFailed,
}

/// Completion payloads delivered to [`SnipeProcess::on_ticket`].
#[derive(Debug)]
pub enum TicketResult {
    /// `lookup` finished.
    Lookup(SnipeResult<ProcRef>),
    /// `spawn` finished.
    Spawned(SnipeResult<ProcRef>),
    /// `read_file` finished.
    FileRead(SnipeResult<Bytes>),
    /// `write_file` finished.
    FileWritten(SnipeResult<()>),
    /// `lookup_service` finished: the service's registered locations.
    Service(SnipeResult<Vec<ProcRef>>),
}

/// The trait a SNIPE application implements. Every callback receives
/// the client-library handle; all methods except [`Self::on_start`]
/// have do-nothing defaults so simple processes stay small.
pub trait SnipeProcess: Send {
    /// The process was started on its host.
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>);

    /// A point-to-point message arrived (reliable, FIFO per sender).
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
        let _ = (api, from, msg);
    }

    /// A multicast group message arrived (exactly once per origin/seq).
    fn on_group_message(
        &mut self,
        api: &mut SnipeApi<'_, '_>,
        group: &str,
        origin: u64,
        msg: Bytes,
    ) {
        let _ = (api, group, origin, msg);
    }

    /// Group membership changed state.
    fn on_group_event(&mut self, api: &mut SnipeApi<'_, '_>, group: &str, event: GroupEvent) {
        let _ = (api, group, event);
    }

    /// An async operation completed.
    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        let _ = (api, ticket, result);
    }

    /// A watched process changed state (notify list, §5.2.3).
    fn on_task_event(&mut self, api: &mut SnipeApi<'_, '_>, proc_key: u64, state: TaskState) {
        let _ = (api, proc_key, state);
    }

    /// An application timer fired.
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, token: u64) {
        let _ = (api, token);
    }

    /// A signal was delivered (§3.3).
    fn on_signal(&mut self, api: &mut SnipeApi<'_, '_>, signum: u32) {
        let _ = (api, signum);
    }

    /// Serialize application state for migration / checkpointing
    /// (§5.6). The default carries no state.
    fn checkpoint(&mut self) -> Bytes {
        Bytes::new()
    }

    /// Restore application state after migration / restart.
    fn restore(&mut self, state: Bytes) {
        let _ = state;
    }

    /// Called instead of [`Self::on_start`] when the process resumes on
    /// a new host after migration.
    fn on_migrated(&mut self, api: &mut SnipeApi<'_, '_>) {
        let _ = api;
    }
}

/// Commands collected from the process during a callback; executed by
/// the owning `ProcessActor` afterwards. A `File` command with no
/// `content` is a read.
#[derive(Debug)]
pub(crate) enum Command {
    SendProc { to_key: u64, payload: Bytes },
    PinRoutes { to_key: u64, routes: Vec<NetId> },
    Lookup { ticket: u64, proc_key: u64 },
    Spawn { ticket: u64, target: SpawnTarget, program: String, args: Bytes },
    JoinGroup { name: String },
    LeaveGroup { name: String },
    SendGroup { name: String, payload: Bytes },
    File { ticket: u64, lifn: String, content: Option<Bytes> },
    RegisterService { name: String },
    RegisterPseudo { name: String, group: String },
    SendPseudo { name: String, payload: Bytes },
    LookupService { ticket: u64, name: String },
    WatchProcess { proc_key: u64 },
    SetTimer { delay: SimDuration, token: u64 },
    MigrateTo { hostname: String },
    Exit,
    Log(String),
}

/// The client library handle: every capability of §3.4 as a method.
///
/// Operations that need the network return a **ticket**; the result
/// arrives later through [`SnipeProcess::on_ticket`].
pub struct SnipeApi<'a, 'b> {
    pub(crate) now: SimTime,
    pub(crate) my_key: u64,
    pub(crate) my_endpoint: Endpoint,
    pub(crate) my_hostname: &'a str,
    pub(crate) commands: &'a mut Vec<Command>,
    pub(crate) next_ticket: &'a mut u64,
    pub(crate) log: &'b mut Vec<(SimTime, String)>,
}

impl SnipeApi<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's globally unique key.
    pub fn my_key(&self) -> u64 {
        self.my_key
    }

    /// This process's URN.
    pub fn my_urn(&self) -> String {
        format!("urn:snipe:proc:{}", self.my_key)
    }

    /// This process's current endpoint.
    pub fn my_endpoint(&self) -> Endpoint {
        self.my_endpoint
    }

    /// The name of the host we are running on.
    pub fn my_hostname(&self) -> &str {
        self.my_hostname
    }

    /// Issue the command `cmd` builds around a fresh ticket.
    fn ticketed(&mut self, cmd: impl FnOnce(u64) -> Command) -> u64 {
        let t = *self.next_ticket;
        *self.next_ticket += 1;
        self.commands.push(cmd(t));
        t
    }

    /// Send a reliable FIFO message to another process by key. The
    /// location is resolved (and re-resolved after migrations) from RC
    /// metadata automatically; messages queue meanwhile.
    pub fn send(&mut self, to: u64, payload: impl Into<Bytes>) {
        self.commands.push(Command::SendProc { to_key: to, payload: payload.into() });
    }

    /// Pin the ranked candidate networks used to reach `to` (multi-path
    /// routing, §5.3/§6). Unpinned peers use default routing.
    pub fn pin_routes(&mut self, to: u64, routes: Vec<NetId>) {
        self.commands.push(Command::PinRoutes { to_key: to, routes });
    }

    /// Resolve a process's current location. Returns a ticket.
    pub fn lookup(&mut self, proc_key: u64) -> u64 {
        self.ticketed(|ticket| Command::Lookup { ticket, proc_key })
    }

    /// Start a program (§5.5). Returns a ticket resolving to the new
    /// process's [`ProcRef`].
    pub fn spawn(
        &mut self,
        target: SpawnTarget,
        program: impl Into<String>,
        args: impl Into<Bytes>,
    ) -> u64 {
        let (program, args) = (program.into(), args.into());
        self.ticketed(|ticket| Command::Spawn { ticket, target, program, args })
    }

    /// Join a multicast group (§5.4), electing routers as needed.
    pub fn join_group(&mut self, name: impl Into<String>) {
        self.commands.push(Command::JoinGroup { name: name.into() });
    }

    /// Leave a multicast group.
    pub fn leave_group(&mut self, name: impl Into<String>) {
        self.commands.push(Command::LeaveGroup { name: name.into() });
    }

    /// Send to every member of a group (joins implicitly if needed).
    pub fn send_group(&mut self, name: impl Into<String>, payload: impl Into<Bytes>) {
        self.commands.push(Command::SendGroup { name: name.into(), payload: payload.into() });
    }

    /// Store a file on the SNIPE file servers (§5.9). Ticketed.
    pub fn write_file(&mut self, lifn: impl Into<String>, content: impl Into<Bytes>) -> u64 {
        let (lifn, content) = (lifn.into(), Some(content.into()));
        self.ticketed(|ticket| Command::File { ticket, lifn, content })
    }

    /// Read a file back (closest replica first). Ticketed.
    pub fn read_file(&mut self, lifn: impl Into<String>) -> u64 {
        self.ticketed(|ticket| Command::File { ticket, lifn: lifn.into(), content: None })
    }

    /// Register this process as one location of a multi-location
    /// service LIFN (§5.7).
    pub fn register_service(&mut self, name: impl Into<String>) {
        self.commands.push(Command::RegisterService { name: name.into() });
    }

    /// Create a multicast **pseudo-process** (§5.7): a globally named
    /// entity whose communications address is a multicast group, so
    /// every replica joined to `group` receives everything sent to it.
    pub fn register_pseudo_process(&mut self, name: impl Into<String>, group: impl Into<String>) {
        self.commands.push(Command::RegisterPseudo { name: name.into(), group: group.into() });
    }

    /// Send to a pseudo-process by name: the metadata lookup discovers
    /// the group and the message fans out to all replicas.
    pub fn send_pseudo(&mut self, name: impl Into<String>, payload: impl Into<Bytes>) {
        self.commands.push(Command::SendPseudo { name: name.into(), payload: payload.into() });
    }

    /// Resolve all registered locations of a service LIFN. Ticketed.
    pub fn lookup_service(&mut self, name: impl Into<String>) -> u64 {
        self.ticketed(|ticket| Command::LookupService { ticket, name: name.into() })
    }

    /// Subscribe to state changes of another process (notify list).
    pub fn watch(&mut self, proc_key: u64) {
        self.commands.push(Command::WatchProcess { proc_key });
    }

    /// Arm an application timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.commands.push(Command::SetTimer { delay, token });
    }

    /// Initiate migration of this process to another host (§5.6). The
    /// process is checkpointed, restarted there under the same key, and
    /// [`SnipeProcess::on_migrated`] runs on arrival. In-flight
    /// messages are preserved.
    pub fn migrate_to(&mut self, hostname: impl Into<String>) {
        self.commands.push(Command::MigrateTo { hostname: hostname.into() });
    }

    /// Terminate this process (reported to the daemon and notify list).
    pub fn exit(&mut self) {
        self.commands.push(Command::Exit);
    }

    /// Append a line to this process's log (visible to tests/benches).
    pub fn log(&mut self, line: impl Into<String>) {
        let line = line.into();
        self.log.push((self.now, line.clone()));
        self.commands.push(Command::Log(line));
    }
}
