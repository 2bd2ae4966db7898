//! `storm`: a datagram storm on the sharded engine.
//!
//! 10 048 hosts in 157 routable 64-host LANs (the `bench_shard` campus
//! medium: switched 1 Gb/s, 200 µs), one trivial benchmark-owned actor
//! per host bursting 6 × 64 B datagrams every millisecond, every tenth
//! to another LAN. The engine does essentially all the work. One
//! operation is one datagram delivered with the right bytes at a
//! plausible simulated latency.
//!
//! The seed picks every host's burst phase and its six peers (four in
//! its own LAN, two elsewhere). A sender's bursts fall at
//! `phase + k·1 ms`, and every simulated latency here is under 1 ms, so
//! a receiver recovers a datagram's issue time from the sender's phase
//! alone — payloads stay static and the actors allocation-free.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

use bytes::Bytes;
use snipe_netsim::actor::{Event, PortableActor, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::shard::ShardedWorld;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::trace::NetStats;
use snipe_netsim::world::World;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimDuration;

use super::{Pass, PassClock, PassStats, Workload};
use crate::layers::{clock_pair_ns, inject, Layer, TimedCtx};
use crate::stats::derive;
use crate::trace::{span, Sp};

/// Hosts per LAN (one partition region each).
pub const CLUSTER: usize = 64;
/// LANs.
pub const CLUSTERS: usize = 157;
/// Hosts in the storm world.
pub const HOSTS: usize = CLUSTER * CLUSTERS;
/// Datagrams per host per millisecond.
pub const BURST: u64 = 6;
/// Engine worker threads (fixed, not `nproc`).
pub const THREADS: usize = 2;
/// Virtual pass lengths: sized so a timed pass is ≈1.2 s on the
/// 2-core reference box.
pub const CLOCK: PassClock =
    PassClock { warm: SimDuration::from_millis(20), pass: SimDuration::from_millis(80) };

const PORT: u16 = 9100;
const PAYLOAD: &[u8] = &[0xA5; 64];
const TICK_NS: u64 = 1_000_000;
/// Latency samples kept per actor per pass (1 in [`LAT_EVERY`] packets).
const LAT_CAP: usize = 12;
const LAT_EVERY: u64 = 64;
/// Actor callbacks host-timed while sampling is on: 1 in this many.
const TIME_EVERY: u64 = 16;

/// When set, actors host-time a sample of their own callbacks.
static SAMPLE_ACTORS: AtomicBool = AtomicBool::new(false);

/// The campus LAN medium of `bench_shard`.
fn campus_medium() -> Medium {
    Medium {
        name: "campus-gbe",
        bandwidth_bps: 1_000_000_000,
        latency: SimDuration::from_micros(200),
        loss: 0.0,
        mtu: 9000,
        per_packet_overhead: 38,
        shared_bus: false,
    }
}

fn topology() -> Topology {
    let mut t = Topology::new();
    for c in 0..CLUSTERS {
        let net = t.add_network(format!("cluster{c}"), campus_medium(), true);
        for i in 0..CLUSTER {
            let h = t.add_host(HostCfg::named(format!("c{c}h{i}")));
            t.attach(h, net);
        }
    }
    t
}

fn phase_ns(seed: u64, host: HostId) -> u64 {
    derive(seed, host.0 as u64) % TICK_NS
}

/// The storm actor: bursts on a 1 ms tick, verifies and counts what
/// arrives. Counters are cumulative; the main thread diffs them
/// between passes.
pub struct StormActor {
    seed: u64,
    near: [Endpoint; 4],
    far: [Endpoint; 2],
    next: u64,
    pub sent: u64,
    pub sent_far: u64,
    pub got: u64,
    pub bad: u64,
    cur_pass: u64,
    n_lat: usize,
    lat: [u32; LAT_CAP],
    events: u64,
    timed_own_ns: u64,
    timed_stamps: u64,
}

impl StormActor {
    fn new(seed: u64, host: usize) -> StormActor {
        let mut rng = Xoshiro256::seed_from_u64(derive(seed, 0x5700_0000 + host as u64));
        let cluster = host / CLUSTER;
        let ep = |h: usize| Endpoint::new(HostId(h as u32), PORT);
        let mut near = [ep(0); 4];
        for n in &mut near {
            let mut h = cluster * CLUSTER + rng.gen_range(CLUSTER as u64) as usize;
            if h == host {
                h = cluster * CLUSTER + (h + 1 - cluster * CLUSTER) % CLUSTER;
            }
            *n = ep(h);
        }
        let mut far = [ep(0); 2];
        for f in &mut far {
            let other = (cluster + 1 + rng.gen_range(CLUSTERS as u64 - 1) as usize) % CLUSTERS;
            *f = ep(other * CLUSTER + rng.gen_range(CLUSTER as u64) as usize);
        }
        StormActor {
            seed,
            near,
            far,
            next: 0,
            sent: 0,
            sent_far: 0,
            got: 0,
            bad: 0,
            cur_pass: 0,
            n_lat: 0,
            lat: [0; LAT_CAP],
            events: 0,
            timed_own_ns: 0,
            timed_stamps: 0,
        }
    }

    fn handle(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let phase = phase_ns(self.seed, ctx.host());
                ctx.set_timer(SimDuration::from_nanos(phase), 1);
            }
            Event::Timer { .. } => {
                for _ in 0..BURST {
                    let j = self.next;
                    self.next += 1;
                    let to = if j % 10 == 9 {
                        self.sent_far += 1;
                        self.far[(j / 10 % 2) as usize]
                    } else {
                        self.near[(j % 4) as usize]
                    };
                    ctx.send(to, Bytes::from_static(PAYLOAD));
                }
                self.sent += BURST;
                ctx.set_timer(SimDuration::from_nanos(TICK_NS), 1);
            }
            Event::Packet { from, payload } => {
                let now = ctx.now();
                let pass = CLOCK.index(now);
                if pass != self.cur_pass {
                    self.cur_pass = pass;
                    self.n_lat = 0;
                }
                // Issue time = the sender's latest burst instant.
                let lat = (now.as_nanos() + TICK_NS - phase_ns(self.seed, from.host)) % TICK_NS;
                if payload.as_ref() == PAYLOAD && lat >= 200_000 {
                    self.got += 1;
                    if self.got.is_multiple_of(LAT_EVERY) && self.n_lat < LAT_CAP {
                        self.lat[self.n_lat] = lat as u32;
                        self.n_lat += 1;
                    }
                } else {
                    self.bad += 1;
                }
            }
            _ => {}
        }
    }
}

impl PortableActor for StormActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        inject(Layer::Netsim);
        self.events += 1;
        if SAMPLE_ACTORS.load(Relaxed) && self.events.is_multiple_of(TIME_EVERY) {
            let mut timed = TimedCtx::new(ctx);
            let t0 = Instant::now();
            self.handle(&mut timed, event);
            let total = t0.elapsed().as_nanos() as u64;
            self.timed_own_ns += total.saturating_sub(timed.ctx_ns);
            self.timed_stamps += 1 + timed.calls;
        } else {
            self.handle(ctx, event);
        }
    }
}

snipe_netsim::portable_actor!(StormActor);

enum Engine {
    Sharded(Box<ShardedWorld>),
    Serial(Box<World>),
}

impl Engine {
    fn run_for(&mut self, d: SimDuration) {
        match self {
            Engine::Sharded(w) => {
                let _g = span(Sp::ShardRunFor);
                w.run_for(d)
            }
            Engine::Serial(w) => {
                let _g = span(Sp::WorldRunFor);
                w.run_for(d)
            }
        }
    }
    fn stats(&self) -> NetStats {
        match self {
            Engine::Sharded(w) => w.stats(),
            Engine::Serial(w) => w.stats().clone(),
        }
    }
    fn actor(&self, ep: Endpoint) -> &StormActor {
        match self {
            Engine::Sharded(w) => w.actor_ref::<StormActor>(ep),
            Engine::Serial(w) => w.actor_ref::<StormActor>(ep),
        }
        .expect("storm actor bound on every host")
    }
    fn queue_depth(&self) -> usize {
        match self {
            Engine::Sharded(w) => w.queue_depth(),
            Engine::Serial(w) => w.queue_depth(),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Totals {
    sent: u64,
    sent_far: u64,
    got: u64,
    bad: u64,
    events: u64,
    wire_bytes: u64,
    drops: u64,
    timed_own_ns: u64,
    timed_stamps: u64,
}

/// The built storm world.
pub struct Storm {
    engine: Engine,
    prev: Totals,
    reported: Totals,
    /// Host seconds spent building the world (topology, engine, spawns).
    pub build_s: f64,
}

/// Which engine configuration to build the storm on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// `ShardedWorld` with this many worker threads.
    Sharded(usize),
    /// The serial `World`.
    Serial,
}

impl Storm {
    /// Build the world and run the warm-up pass. Returns the workload
    /// and the warm-up's stats (the replay oracle compares them).
    pub fn build(seed: u64, kind: EngineKind) -> (Storm, PassStats) {
        let t0 = Instant::now();
        let topo = topology();
        let mut engine = match kind {
            EngineKind::Sharded(threads) => {
                Engine::Sharded(Box::new(ShardedWorld::new(topo, seed, threads)))
            }
            EngineKind::Serial => Engine::Serial(Box::new(World::new(topo, seed))),
        };
        for h in 0..HOSTS {
            let actor = Box::new(StormActor::new(seed, h));
            let ep = match &mut engine {
                Engine::Sharded(w) => w.spawn(HostId(h as u32), PORT, actor),
                Engine::Serial(w) => w.spawn(HostId(h as u32), PORT, actor),
            };
            assert!(ep.is_some(), "storm port free on fresh host");
        }
        let build_s = t0.elapsed().as_secs_f64();
        let mut s = Storm { engine, prev: Totals::default(), reported: Totals::default(), build_s };
        let warm = s.pass(Pass::Warm);
        (s, warm)
    }

    /// Engine digest (thread-count invariant); only on the sharded engine.
    pub fn digest(&self) -> u64 {
        match &self.engine {
            Engine::Sharded(w) => w.digest(),
            Engine::Serial(_) => 0,
        }
    }

    /// Turn host-timing of sampled actor callbacks on or off.
    pub fn sample_actors(on: bool) {
        SAMPLE_ACTORS.store(on, Relaxed);
    }

    fn totals(&self, lat: Option<&mut Vec<u64>>) -> Totals {
        let st = self.engine.stats();
        let mut t = Totals {
            events: st.events,
            wire_bytes: st.bytes_by_net().map(|(_, b)| b).sum(),
            drops: st.total_drops(),
            ..Totals::default()
        };
        let mut lat = lat;
        for h in 0..HOSTS {
            let a = self.engine.actor(Endpoint::new(HostId(h as u32), PORT));
            t.sent += a.sent;
            t.sent_far += a.sent_far;
            t.got += a.got;
            t.bad += a.bad;
            t.timed_own_ns += a.timed_own_ns;
            t.timed_stamps += a.timed_stamps;
            if let Some(l) = lat.as_deref_mut() {
                l.extend(a.lat[..a.n_lat].iter().map(|&x| x as u64));
            }
        }
        t
    }
}

impl Workload for Storm {
    fn run(&mut self, p: Pass) {
        self.engine.run_for(CLOCK.len(p));
    }

    fn collect(&mut self) -> PassStats {
        let mut lat = Vec::with_capacity(HOSTS * LAT_CAP);
        let now = self.totals(Some(&mut lat));
        let d = |a: u64, b: u64| a - b;
        let drops = d(now.drops, self.prev.drops);
        let ok = d(now.got, self.prev.got);
        let s = PassStats {
            attempted: ok + d(now.bad, self.prev.bad) + drops,
            ok,
            payload_bytes: ok * PAYLOAD.len() as u64,
            wire_bytes: d(now.wire_bytes, self.prev.wire_bytes),
            events: d(now.events, self.prev.events),
            lat_ns: lat,
        };
        self.prev = now;
        s
    }

    fn final_check(&mut self) -> Vec<String> {
        let t = self.totals(None);
        let mut v = Vec::new();
        if t.drops != 0 {
            v.push(format!("storm: {} datagrams dropped on a lossless campus", t.drops));
        }
        // Conservation: sent = delivered + still queued (nothing vanishes).
        let in_flight = t.sent - t.got - t.bad;
        if in_flight as usize > self.engine.queue_depth() {
            v.push(format!(
                "storm: {} sent - {} received exceeds the {} events still queued",
                t.sent,
                t.got + t.bad,
                self.engine.queue_depth()
            ));
        }
        v
    }

    fn thread_oracle(&self, seed: u64) -> Vec<String> {
        let (one, _) = Storm::build(seed, EngineKind::Sharded(1));
        if one.digest() == self.digest() {
            Vec::new()
        } else {
            vec![format!(
                "storm: {THREADS}-thread digest {:#x} != 1-thread digest {:#x}",
                self.digest(),
                one.digest()
            )]
        }
    }

    fn layer_metrics(&mut self, out: &mut Vec<(String, f64)>) {
        let st = self.engine.stats();
        let t = self.totals(None);
        let e = &st.engine;
        let lookups = (e.route_cache_hits + e.route_cache_misses).max(1);
        out.push((
            "netsim.route_cache.hit_ratio".into(),
            e.route_cache_hits as f64 / lookups as f64,
        ));
        out.push((
            "netsim.events_per_delivery".into(),
            st.events as f64 / st.delivered.max(1) as f64,
        ));
        out.push(("netsim.drops".into(), st.total_drops() as f64));
        out.push((
            "netsim.shard.cross_region_share".into(),
            t.sent_far as f64 / t.sent.max(1) as f64,
        ));
        if let Engine::Sharded(w) = &self.engine {
            let loads = w.shard_loads();
            let mailbox = loads.iter().map(|l| l.mailbox_hwm).max().unwrap_or(0);
            let slab = loads.iter().map(|l| l.slab_hwm).max().unwrap_or(0);
            out.push(("netsim.shard.mailbox_hwm".into(), mailbox as f64));
            out.push(("netsim.shard.slab_hwm".into(), slab as f64));
        }
        out.push(("netsim.build_s".into(), self.build_s));
    }

    fn worker_generator_ns(&mut self) -> f64 {
        let t = self.totals(None);
        let own = t.timed_own_ns - self.reported.timed_own_ns;
        let stamps = t.timed_stamps - self.reported.timed_stamps;
        self.reported = t;
        // Each timed callback's own time includes about half of every
        // clock-read pair taken inside it.
        let own = own as f64 - stamps as f64 * clock_pair_ns() / 2.0;
        own.max(0.0) * TIME_EVERY as f64
    }
}
