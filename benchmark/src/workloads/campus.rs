//! `campus`: the whole SNIPE stack on the sharded engine.
//!
//! `SnipeWorldBuilder::campus(8, 12, seed)` (plus a third file server)
//! built on the 2-thread sharded engine: 96 daemons, 3 RC replicas, a
//! resource manager, 3 file servers. Thirty-two benchmark-owned client
//! processes, four per cluster, each keep one operation outstanding
//! (closed loop) and drive nothing but [`SnipeApi`]:
//!
//! | share | operation | verified by |
//! |---|---|---|
//! | 40 % | 1 KiB message to an echo process in another cluster, echoed back | bytes equal |
//! | 25 % | `lookup_service` | the 8 echo locations, by key |
//! | 10 % | `lookup` of an echo process | key equal |
//! | 10 % | `read_file`, 64 KiB | bytes equal |
//! |  5 % | `write_file`, 16 KiB | `Ok` ticket |
//! |  5 % | `spawn` through the resource manager | `Ok` ticket |
//! |  5 % | `send_group` | an ack from each of the 8 member processes |
//!
//! Helper processes (8 echo servers, 8 group members, the file seeder,
//! the spawned workers) are benchmark-owned too. Clients report through
//! a per-client ledger the main thread reads between passes; nothing is
//! shared between actors, so runs replay bit for bit at any thread
//! count. Each timed pass builds its own world (see [`Campus`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use bytes::Bytes;
use snipe_core::api::TicketResult;
use snipe_core::{
    ProcRef, ShardedSnipeWorld, SnipeApi, SnipeProcess, SnipeWorldBuilder, SpawnTarget,
};
use snipe_files::fetch::FetchActor;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::trace::{self as flight, DropReason};
use snipe_util::codec::{Decoder, Encoder};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimDuration;

use super::{Pass, PassClock, PassStats, Workload};
use crate::stats::derive;
use crate::trace::{span, Sp};

pub const CLUSTERS: usize = 8;
pub const PER_CLUSTER: usize = 12;
pub const CLIENTS_PER_CLUSTER: usize = 4;
pub const CLIENTS: usize = CLUSTERS * CLIENTS_PER_CLUSTER;
/// Operations each client keeps outstanding. One: the campus funnels
/// every file read, RC request and RM allocation through cluster 0's
/// shared 100 Mb/s LAN, a closed loop drives that LAN to saturation
/// whatever the client count, and latency is then in-flight ops ÷
/// throughput. At 4 per client p99 passes the RC client's 250 ms and
/// the RM's 500 ms timeouts, whose retry order follows `HashMap`
/// iteration — and the run stops replaying bit for bit. At 1 (p99
/// ≈125 ms) no timeout fires and every seed tried replays exactly at
/// any thread count.
pub const OUTSTANDING: usize = 1;
/// Engine worker threads. One, not the two `storm` uses: with ~5
/// events per 100 µs lookahead round, a 2-thread campus spends its time
/// in ~20 000 barrier crossings per virtual second, and on a shared
/// 2-vCPU box identical passes then took 0.8-12 s (run-to-run spread
/// over 50 %), which no bound can resolve. `campus.t2_over_t1_wall`
/// in the traced run reports that coordination tax instead.
pub const THREADS: usize = 1;
/// Virtual spans: every world runs `warm` then (timed passes only)
/// `pass` after its clients start. A timed pass — build, settle, both
/// spans — is ≈1.2 s on the reference box.
pub const CLOCK: PassClock =
    PassClock { warm: SimDuration::from_millis(500), pass: SimDuration::from_millis(4500) };
/// Virtual time the infrastructure gets to settle (daemon and service
/// registration, group join and router mesh, file seeding) before the
/// clients start.
const SETTLE: SimDuration = SimDuration::from_secs(6);

/// Virtual seconds one timed pass simulates (settle + warm + pass).
pub fn virtual_seconds_per_pass() -> f64 {
    (SETTLE + CLOCK.warm + CLOCK.pass).as_secs_f64()
}

const GROUP: &str = "bench.group";
const SERVICE: &str = "bench.echo";
const FILES: usize = 8;
pub const FILE_LEN: usize = 64 * 1024;
const WRITE_LEN: usize = 16 * 1024;
const MSG_LEN: usize = 1024;
const WRITE_SLOTS: u64 = 4;

/// The operation kinds, in mix order. The discriminant indexes every
/// per-kind table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MsgEcho = 0,
    LookupService = 1,
    Lookup = 2,
    ReadFile = 3,
    WriteFile = 4,
    SpawnRm = 5,
    GroupSend = 6,
}

pub const KINDS: [(Kind, &str, u64); 7] = [
    (Kind::MsgEcho, "msg_echo", 40),
    (Kind::LookupService, "lookup_service", 25),
    (Kind::Lookup, "lookup", 10),
    (Kind::ReadFile, "read_file", 10),
    (Kind::WriteFile, "write_file", 5),
    (Kind::SpawnRm, "spawn_rm", 5),
    (Kind::GroupSend, "group_send", 5),
];

/// When set, process callbacks host-time themselves and mirror their
/// thread's flight-recorder retransmit count into the ledger.
static SAMPLE_PROCS: AtomicBool = AtomicBool::new(false);

/// What one client (or helper) reports to the main thread.
#[derive(Default)]
pub struct Ledger {
    pub ok: [u64; 7],
    pub bad: [u64; 7],
    pub payload_bytes: u64,
    /// `(kind, virtual latency ns)` of OK ops since the last collect.
    pub lat: Vec<(u8, u64)>,
    /// Host ns inside this process's callbacks while sampling was on.
    pub callback_ns: u64,
    /// SRUDP retransmits the flight recorder counted, per worker thread
    /// that ever ran this process (threads are respawned every pass).
    pub retransmits: HashMap<ThreadId, u64>,
    /// Set by the seeder once every file is written.
    pub seeded: bool,
}

type Shared = Arc<Mutex<Ledger>>;

/// Times a callback and publishes thread-local counters while sampling.
struct CallbackProbe(Option<(Instant, Shared)>);

impl CallbackProbe {
    fn new(ledger: &Shared) -> CallbackProbe {
        CallbackProbe(SAMPLE_PROCS.load(Relaxed).then(|| {
            if !flight::enabled() {
                flight::enable(64);
            }
            (Instant::now(), ledger.clone())
        }))
    }
}

impl Drop for CallbackProbe {
    fn drop(&mut self) {
        if let Some((t0, ledger)) = self.0.take() {
            let retx =
                flight::kind_counts()[flight::TraceKind::Retransmit { peer: 0, len: 0 }.tag()];
            let mut l = ledger.lock().expect("ledger poisoned by a panicking process");
            l.callback_ns += t0.elapsed().as_nanos() as u64;
            l.retransmits.insert(std::thread::current().id(), retx);
        }
    }
}

/// Read-only facts every client needs.
struct Shape {
    seed: u64,
    echo_keys: Vec<u64>,
    files: Vec<Bytes>,
    pool: Vec<u8>,
}

fn file_lifn(k: usize) -> String {
    format!("lifn:bench/file{k}")
}

fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    Xoshiro256::seed_from_u64(seed).fill_bytes(&mut v);
    v
}

// --- helper processes -------------------------------------------------------

struct Echo {
    ledger: Shared,
}

impl SnipeProcess for Echo {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.register_service(SERVICE);
    }
    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, from: ProcRef, msg: Bytes) {
        let _p = CallbackProbe::new(&self.ledger);
        api.send(from.key, msg);
    }
}

struct Member {
    ledger: Shared,
}

impl SnipeProcess for Member {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.join_group(GROUP);
    }
    fn on_group_message(&mut self, api: &mut SnipeApi<'_, '_>, _g: &str, origin: u64, msg: Bytes) {
        let _p = CallbackProbe::new(&self.ledger);
        // Ack `G <id> <filler>` with `A <id> <filler checksum>`.
        if msg.len() == MSG_LEN && msg[0] == b'G' {
            let sum: u32 =
                msg[9..].iter().fold(0u32, |a, &b| a.wrapping_mul(31).wrapping_add(b as u32));
            let mut ack = Vec::with_capacity(13);
            ack.push(b'A');
            ack.extend_from_slice(&msg[1..9]);
            ack.extend_from_slice(&sum.to_be_bytes());
            api.send(origin, ack);
        }
    }
}

struct Seeder {
    ledger: Shared,
    files: Vec<Bytes>,
    left: usize,
}

impl SnipeProcess for Seeder {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        for (k, f) in self.files.iter().enumerate() {
            api.write_file(file_lifn(k), f.clone());
        }
    }
    fn on_ticket(&mut self, _api: &mut SnipeApi<'_, '_>, _t: u64, result: TicketResult) {
        if matches!(result, TicketResult::FileWritten(Ok(()))) {
            self.left -= 1;
            if self.left == 0 {
                self.ledger.lock().expect("ledger poisoned").seeded = true;
            }
        }
    }
}

/// The program clients spawn through the resource manager. It lingers
/// long enough for the replies to its own start-up traffic (location
/// publish) to find it, then exits.
struct Worker;

impl SnipeProcess for Worker {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        api.set_timer(SimDuration::from_millis(300), 1);
    }
    fn on_timer(&mut self, api: &mut SnipeApi<'_, '_>, _token: u64) {
        api.exit();
    }
}

// --- the client ---------------------------------------------------------------

struct OpRec {
    kind: Kind,
    issued_ns: u64,
    /// Kind-specific expectation: a process key, a file index, the
    /// filler checksum of a group message, or the pool offset of an
    /// echo payload.
    expect: u64,
    /// Member acks still missing (group sends only).
    acks_left: u32,
}

struct Client {
    idx: usize,
    shape: Arc<Shape>,
    ledger: Shared,
    rng: Xoshiro256,
    next_msg: u64,
    tickets: HashMap<u64, OpRec>,
    /// Echo and group ops, by message id.
    messages: HashMap<u64, OpRec>,
}

impl Client {
    fn outstanding(&self) -> usize {
        self.tickets.len() + self.messages.len()
    }

    fn msg_id(&mut self) -> u64 {
        self.next_msg += 1;
        (self.idx as u64) << 40 | self.next_msg
    }

    /// `tag, id, 1015 bytes from the pool at `off``.
    fn message(&self, tag: u8, id: u64, off: usize) -> Vec<u8> {
        let mut m = Vec::with_capacity(MSG_LEN);
        m.push(tag);
        m.extend_from_slice(&id.to_be_bytes());
        m.extend_from_slice(&self.shape.pool[off..off + MSG_LEN - 9]);
        m
    }

    fn issue(&mut self, api: &mut SnipeApi<'_, '_>) {
        let now = api.now().as_nanos();
        let mut roll = self.rng.gen_range(100);
        let kind = KINDS
            .iter()
            .find(|(_, _, share)| {
                if roll < *share {
                    true
                } else {
                    roll -= share;
                    false
                }
            })
            .expect("shares sum to 100")
            .0;
        let rec = |expect: u64, acks_left: u32| OpRec { kind, issued_ns: now, expect, acks_left };
        match kind {
            Kind::MsgEcho => {
                // An echo server in another cluster.
                let mine = self.idx / CLIENTS_PER_CLUSTER;
                let other =
                    (mine + 1 + self.rng.gen_range(CLUSTERS as u64 - 1) as usize) % CLUSTERS;
                let off = self.rng.gen_range((self.shape.pool.len() - MSG_LEN) as u64) as usize;
                let id = self.msg_id();
                api.send(self.shape.echo_keys[other], self.message(b'E', id, off));
                self.messages.insert(id, rec(off as u64, 0));
            }
            Kind::LookupService => {
                let t = api.lookup_service(SERVICE);
                self.tickets.insert(t, rec(0, 0));
            }
            Kind::Lookup => {
                let key = self.shape.echo_keys[self.rng.gen_range(CLUSTERS as u64) as usize];
                let t = api.lookup(key);
                self.tickets.insert(t, rec(key, 0));
            }
            Kind::ReadFile => {
                let k = self.rng.gen_range(FILES as u64);
                let t = api.read_file(file_lifn(k as usize));
                self.tickets.insert(t, rec(k, 0));
            }
            Kind::WriteFile => {
                let slot = self.rng.gen_range(WRITE_SLOTS);
                let off = self.rng.gen_range((self.shape.pool.len() - WRITE_LEN) as u64) as usize;
                let content = self.shape.pool[off..off + WRITE_LEN].to_vec();
                let t = api.write_file(format!("lifn:bench/w{}-{slot}", self.idx), content);
                self.tickets.insert(t, rec(0, 0));
            }
            Kind::SpawnRm => {
                let t = api.spawn(SpawnTarget::ResourceManager, "bench-worker", Bytes::new());
                self.tickets.insert(t, rec(0, 0));
            }
            Kind::GroupSend => {
                let off = self.rng.gen_range((self.shape.pool.len() - MSG_LEN) as u64) as usize;
                let id = self.msg_id();
                let msg = self.message(b'G', id, off);
                let sum =
                    msg[9..].iter().fold(0u32, |a, &b| a.wrapping_mul(31).wrapping_add(b as u32));
                api.send_group(GROUP, msg);
                self.messages.insert(id, rec(sum as u64, CLUSTERS as u32));
            }
        }
    }

    fn finish(&mut self, api: &mut SnipeApi<'_, '_>, op: OpRec, good: bool, payload: usize) {
        let lat = api.now().as_nanos() - op.issued_ns;
        {
            let mut l = self.ledger.lock().expect("ledger poisoned by a panicking process");
            if good {
                l.ok[op.kind as usize] += 1;
                l.payload_bytes += payload as u64;
                l.lat.push((op.kind as u8, lat));
            } else {
                l.bad[op.kind as usize] += 1;
            }
        }
        self.fill(api);
    }

    fn fill(&mut self, api: &mut SnipeApi<'_, '_>) {
        while self.outstanding() < OUTSTANDING {
            self.issue(api);
        }
    }
}

impl SnipeProcess for Client {
    fn on_start(&mut self, api: &mut SnipeApi<'_, '_>) {
        let _p = CallbackProbe::new(&self.ledger);
        self.fill(api);
    }

    fn on_message(&mut self, api: &mut SnipeApi<'_, '_>, _from: ProcRef, msg: Bytes) {
        let _p = CallbackProbe::new(&self.ledger);
        if msg.len() < 9 {
            return;
        }
        let id = u64::from_be_bytes(msg[1..9].try_into().expect("8 bytes"));
        match msg[0] {
            b'E' => {
                let Some(op) = self.messages.remove(&id) else {
                    return; // duplicate echo: exactly-once is SRUDP's job
                };
                let off = op.expect as usize;
                let good =
                    msg.len() == MSG_LEN && msg[9..] == self.shape.pool[off..off + MSG_LEN - 9];
                self.finish(api, op, good, 2 * MSG_LEN);
            }
            b'A' => {
                let Some(op) = self.messages.get_mut(&id) else {
                    return;
                };
                let good = msg.len() == 13 && msg[9..13] == (op.expect as u32).to_be_bytes();
                if good && op.acks_left > 1 {
                    op.acks_left -= 1;
                } else {
                    let op = self.messages.remove(&id).expect("present");
                    self.finish(api, op, good, CLUSTERS * MSG_LEN);
                }
            }
            _ => {}
        }
    }

    fn on_ticket(&mut self, api: &mut SnipeApi<'_, '_>, ticket: u64, result: TicketResult) {
        let _p = CallbackProbe::new(&self.ledger);
        let Some(op) = self.tickets.remove(&ticket) else {
            return;
        };
        let (good, payload) = match (op.kind, result) {
            (Kind::LookupService, TicketResult::Service(Ok(refs))) => {
                let mut keys: Vec<u64> = refs.iter().map(|r| r.key).collect();
                keys.sort_unstable();
                let mut want = self.shape.echo_keys.clone();
                want.sort_unstable();
                (keys == want, 16 * refs.len())
            }
            (Kind::Lookup, TicketResult::Lookup(Ok(r))) => (r.key == op.expect, 16),
            (Kind::ReadFile, TicketResult::FileRead(Ok(content))) => {
                (content == self.shape.files[op.expect as usize], FILE_LEN)
            }
            (Kind::WriteFile, TicketResult::FileWritten(Ok(()))) => (true, WRITE_LEN),
            (Kind::SpawnRm, TicketResult::Spawned(Ok(_))) => (true, 16),
            _ => (false, 0),
        };
        self.finish(api, op, good, payload);
    }
}

// --- the world ----------------------------------------------------------------

/// Counters that outlive one world (every timed pass builds its own).
#[derive(Clone, Copy, Default)]
struct Carry {
    grants: u64,
    spawns: u64,
    datagrams: u64,
    retransmits: u64,
    callback_ns: u64,
}

impl std::ops::Add for Carry {
    type Output = Carry;
    fn add(self, o: Carry) -> Carry {
        Carry {
            grants: self.grants + o.grants,
            spawns: self.spawns + o.spawns,
            datagrams: self.datagrams + o.datagrams,
            retransmits: self.retransmits + o.retransmits,
            callback_ns: self.callback_ns + o.callback_ns,
        }
    }
}

/// One campus world and the ledgers its processes report through.
struct Site {
    world: ShardedSnipeWorld,
    ledgers: Vec<Shared>,
    helper_ledger: Shared,
    daemons: Vec<Endpoint>,
    files: Vec<Bytes>,
}

/// The campus workload. Every timed pass builds a fresh world from a
/// seed derived from `(seed, k)`, lets it settle, and runs the clients
/// for the pass's virtual span — all inside the timed region. A world
/// kept across passes is not stationary: unanswered protocol timers
/// accumulate (see the README), so the twelfth pass of one world costs
/// seven times the first and the pass median lands on the slope.
pub struct Campus {
    seed: u64,
    threads: usize,
    site: Site,
    carry: Carry,
    /// `(kind, virtual latency ns)` of every OK op collected so far.
    pub lat_log: Vec<(u8, u64)>,
    reported_callback_ns: u64,
}

impl Site {
    /// Build the world, let the infrastructure settle, seed the files
    /// and start the clients (they begin issuing at once).
    fn build(seed: u64, threads: usize) -> Site {
        let mut b = SnipeWorldBuilder::campus(CLUSTERS, PER_CLUSTER, seed);
        let third = b.topology_mut().host_by_name("c2h0").expect("campus has a cluster 2");
        b.files_on(third);
        let mut world = b.build_sharded(threads);

        let files: Vec<Bytes> = (0..FILES)
            .map(|k| Bytes::from(fill(derive(seed, 0xf11e + k as u64), FILE_LEN)))
            .collect();
        let helper_ledger: Shared = Arc::default();
        let ledgers: Vec<Shared> = (0..CLIENTS).map(|_| Arc::default()).collect();

        let l = helper_ledger.clone();
        world.register_process("bench-echo", move |_| Box::new(Echo { ledger: l.clone() }));
        let l = helper_ledger.clone();
        world.register_process("bench-member", move |_| Box::new(Member { ledger: l.clone() }));
        world.register_process("bench-worker", |_| Box::new(Worker));
        let (l, f) = (helper_ledger.clone(), files.clone());
        world.register_process("bench-seeder", move |_| {
            Box::new(Seeder { ledger: l.clone(), files: f.clone(), left: FILES })
        });

        let mut echo_keys = Vec::new();
        for c in 0..CLUSTERS {
            let (key, _) =
                world.spawn_on(&format!("c{c}h1"), "bench-echo", Bytes::new()).expect("spawn echo");
            echo_keys.push(key);
            world.spawn_on(&format!("c{c}h2"), "bench-member", Bytes::new()).expect("spawn member");
        }
        world.run_for(SimDuration::from_secs(1));
        world.spawn_on("c1h3", "bench-seeder", Bytes::new()).expect("spawn seeder");
        world.run_for(SETTLE - SimDuration::from_secs(1));
        assert!(
            helper_ledger.lock().expect("ledger poisoned").seeded,
            "campus: the file seeder did not finish within the settle time"
        );

        let shape = Arc::new(Shape {
            seed,
            echo_keys,
            files: files.clone(),
            pool: fill(derive(seed, 0x9001), 256 * 1024),
        });
        let (s, ls) = (shape.clone(), ledgers.clone());
        world.register_process("bench-client", move |args| {
            let idx = Decoder::new(args).get_u32().expect("client index") as usize;
            Box::new(Client {
                idx,
                shape: s.clone(),
                ledger: ls[idx].clone(),
                rng: Xoshiro256::seed_from_u64(derive(s.seed, 0xca_0000 + idx as u64)),
                next_msg: 0,
                tickets: HashMap::new(),
                messages: HashMap::new(),
            })
        });
        for idx in 0..CLIENTS {
            let host = format!("c{}h{}", idx / CLIENTS_PER_CLUSTER, 3 + idx % CLIENTS_PER_CLUSTER);
            let mut e = Encoder::new();
            e.put_u32(idx as u32);
            world.spawn_on(&host, "bench-client", e.finish()).expect("spawn client");
        }
        let daemons = (0..CLUSTERS * PER_CLUSTER)
            .map(|h| Endpoint::new(snipe_util::id::HostId(h as u32), snipe_wire::ports::DAEMON))
            .collect();
        Site { world, ledgers, helper_ledger, daemons, files }
    }

    fn all_ledgers(&self) -> impl Iterator<Item = &Shared> {
        self.ledgers.iter().chain(std::iter::once(&self.helper_ledger))
    }

    /// This world's share of the counters that outlive it.
    fn carry(&self) -> Carry {
        let sim = self.world.sim_ref();
        let mut threads: HashMap<ThreadId, u64> = HashMap::new();
        let mut callback_ns = 0;
        for l in self.all_ledgers() {
            let l = l.lock().expect("ledger poisoned");
            callback_ns += l.callback_ns;
            for (t, c) in &l.retransmits {
                let e = threads.entry(*t).or_insert(0);
                *e = (*e).max(*c);
            }
        }
        Carry {
            grants: self
                .world
                .rm_endpoints()
                .iter()
                .filter_map(|&ep| sim.portable_ref::<snipe_rm::RmActor>(ep))
                .map(|rm| rm.allocations_served)
                .sum(),
            spawns: self
                .daemons
                .iter()
                .filter_map(|&ep| sim.portable_ref::<snipe_daemon::DaemonActor>(ep))
                .map(|d| d.spawns)
                .sum(),
            datagrams: sim.stats().sent,
            retransmits: threads.values().sum(),
            callback_ns,
        }
    }
}

impl Campus {
    /// Set-up: build a world from `seed` and run the warm-up pass.
    pub fn build(seed: u64) -> (Campus, PassStats) {
        Self::build_on(seed, THREADS)
    }

    pub fn build_on(seed: u64, threads: usize) -> (Campus, PassStats) {
        let mut c = Campus {
            seed,
            threads,
            site: Site::build(seed, threads),
            carry: Carry::default(),
            lat_log: Vec::new(),
            reported_callback_ns: 0,
        };
        c.site.world.run_for(CLOCK.warm);
        let warm = c.collect();
        (c, warm)
    }

    /// Turn callback timing and flight-recorder mirroring on or off.
    pub fn sample_processes(on: bool) {
        SAMPLE_PROCS.store(on, Relaxed);
    }

    fn totals(&self) -> Carry {
        self.carry + self.site.carry()
    }

    /// Per-kind `(ok, bad)` totals of the current world.
    pub fn kind_counts(&self) -> [(u64, u64); 7] {
        let mut out = [(0, 0); 7];
        for l in &self.site.ledgers {
            let l = l.lock().expect("ledger poisoned");
            for (k, (ok, bad)) in out.iter_mut().enumerate() {
                *ok += l.ok[k];
                *bad += l.bad[k];
            }
        }
        out
    }

    /// `(RM allocations served, daemon spawns)` over every world so far.
    pub fn service_counts(&self) -> (u64, u64) {
        let t = self.totals();
        (t.grants, t.spawns)
    }

    /// SRUDP retransmits the flight recorder saw while sampling was on.
    pub fn retransmits(&self) -> u64 {
        self.totals().retransmits
    }

    /// Datagrams handed to the engine over every world so far.
    pub fn datagrams(&self) -> u64 {
        self.totals().datagrams
    }

    /// Striped-read probe for the file plane, which `read_file` (a
    /// whole-file read from the nearest server) does not exercise: one
    /// [`FetchActor`] per cluster fetches a seeded file in 8 KiB stripes
    /// over all three replicas. Returns stripe requests beyond one per
    /// stripe ÷ stripes (`NaN` if a fetch failed or returned other bytes).
    pub fn striped_fetch_probe(&mut self) -> f64 {
        let site = &mut self.site;
        let servers = site.world.file_endpoints().to_vec();
        let probes: Vec<Endpoint> = (0..CLUSTERS)
            .map(|c| {
                let host = site.daemons[c * PER_CLUSTER + PER_CLUSTER - 1].host;
                let actor =
                    FetchActor::new(file_lifn(0), servers.clone(), 8 * 1024, SimDuration::ZERO);
                let port = site.world.sim().alloc_port(host);
                site.world.sim().spawn_portable(host, port, Box::new(actor)).expect("free port")
            })
            .collect();
        site.world.run_for(SimDuration::from_secs(2));
        let (mut sent, mut done) = (0u64, 0u64);
        for ep in probes {
            let f = site.world.sim_ref().portable_ref::<FetchActor>(ep).expect("probe bound");
            if f.failed || f.result.as_ref() != Some(&site.files[0]) {
                return f64::NAN;
            }
            sent += f.stats.requests_sent;
            done += f.stats.stripes_completed;
        }
        sent.saturating_sub(done) as f64 / done.max(1) as f64
    }
}

impl Workload for Campus {
    fn run(&mut self, p: Pass) {
        let _g = span(Sp::BenchPass);
        let Pass::Timed(k) = p else {
            unreachable!("the warm-up pass runs inside `build`");
        };
        // Fold the finished world's counters away, then build this
        // pass's own world and run it: warm-up span plus pass span.
        self.carry = self.totals();
        self.site = Site::build(derive(self.seed, 0xca_5eed + k), self.threads);
        let _w = span(Sp::ShardRunFor);
        self.site.world.run_for(CLOCK.warm + CLOCK.pass);
    }

    /// Everything the current world has done since it was built.
    fn collect(&mut self) -> PassStats {
        let st = self.site.world.sim_ref().stats();
        let mut s = PassStats {
            events: st.events,
            wire_bytes: st.bytes_by_net().map(|(_, b)| b).sum(),
            ..PassStats::default()
        };
        let mut lat = Vec::new();
        for l in &self.site.ledgers {
            let mut l = l.lock().expect("ledger poisoned");
            s.ok += l.ok.iter().sum::<u64>();
            s.attempted += l.ok.iter().sum::<u64>() + l.bad.iter().sum::<u64>();
            s.payload_bytes += l.payload_bytes;
            lat.append(&mut l.lat);
        }
        s.lat_ns = lat.iter().map(|&(_, ns)| ns).collect();
        self.lat_log.extend(lat);
        s
    }

    fn final_check(&mut self) -> Vec<String> {
        let mut v = Vec::new();
        // Replies that race a spawned worker's exit find no listener;
        // any other drop reason is a fault in a fault-free world.
        let st = self.site.world.sim_ref().stats();
        let by_reason: Vec<String> = DropReason::ALL
            .iter()
            .filter(|r| **r != DropReason::NoListener && st.drops(**r) > 0)
            .map(|r| format!("{} {}", st.drops(*r), r.name()))
            .collect();
        if !by_reason.is_empty() {
            v.push(format!(
                "campus: datagrams dropped in a fault-free world: {}",
                by_reason.join(", ")
            ));
        }
        for (k, (ok, bad)) in self.kind_counts().iter().enumerate() {
            if *ok == 0 || *bad != 0 {
                v.push(format!("campus: op kind {} finished {ok} ok / {bad} bad", KINDS[k].1));
            }
        }
        v
    }

    fn layer_metrics(&mut self, _out: &mut Vec<(String, f64)>) {}

    fn worker_generator_ns(&mut self) -> f64 {
        let total = self.totals().callback_ns;
        let d = total - self.reported_callback_ns;
        self.reported_callback_ns = total;
        d as f64
    }
}
