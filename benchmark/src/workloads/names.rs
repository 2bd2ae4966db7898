//! `names`: the sharded RCDS metadata plane on the serial engine.
//!
//! Four shard groups of three real [`RcServerActor`] replicas
//! (anti-entropy on) hold 200 000 names; eight benchmark-owned client
//! actors each embed an [`RcClient`] with the [`ShardMap`] and a TTL
//! cache and keep 16 operations outstanding (closed loop: the next is
//! issued at the virtual instant one completes). Mix: 90 % `get`, 10 %
//! `put`; half of each go to the client's hot set (cache hits and
//! invalidations), half anywhere in its names (misses).
//!
//! The name space is partitioned by client, and a client never has two
//! operations on one name in flight, so the oracle is exact: a `get`
//! must return the last value that client `put` (or the preload), a
//! `put` must echo the value written.

use std::collections::HashMap;

use bytes::Bytes;

use snipe_netsim::actor::{Event, PortableActor, SimCtx, TimerGate};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::{Completion, RcClient};
use snipe_rcds::proto::RcMsg;
use snipe_rcds::server::RcServerActor;
use snipe_rcds::shard::ShardMap;
use snipe_rcds::store::Update;
use snipe_rcds::uri::Uri;
use snipe_util::codec::WireEncode;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{open, seal, Proto};
use snipe_wire::ports;

use super::{Pass, PassClock, PassStats, Workload};
use crate::layers::{
    clock_pair_ns, inject, rc_drain, rc_get, rc_on_packet, rc_on_timer, rc_put, Layer, TimedCtx,
};
use crate::stats::derive;
use crate::trace::{self, span, Sp};

pub const GROUPS: usize = 4;
pub const REPLICAS: usize = 3;
pub const CLIENTS: usize = 8;
/// Names in the catalog (all preloaded).
pub const NAMES: usize = 200_000;
/// Names per client, and how many of them form its hot set.
pub const PER_CLIENT: usize = NAMES / CLIENTS;
pub const HOT: usize = 125;
/// Share of operations that are `put`s; the rest are `get`s.
pub const PUT_PERCENT: u64 = 2;
/// Operations each client keeps outstanding.
pub const OUTSTANDING: usize = 16;
/// Client cache TTL and replica anti-entropy interval.
const CACHE_TTL: SimDuration = SimDuration::from_millis(2);
const SYNC_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Virtual pass lengths (a timed pass is ≈1.2 s on the reference box).
/// Both are whole multiples of the anti-entropy interval, so every
/// pass holds the same number of sync rounds.
pub const CLOCK: PassClock =
    PassClock { warm: SimDuration::from_millis(20), pass: SimDuration::from_millis(40) };

const CLIENT_PORT: u16 = 7100;
const LOADER_PORT: u16 = 7200;
/// Updates per preload datagram (≈1 kB, inside the 1500 B MTU).
const PUSH_UPDATES: usize = 10;
const TIMER_RC: u64 = 1;
/// Trace tags.
pub const TAG_GET: usize = 0;
pub const TAG_PUT: usize = 1;

fn server_ep(group: usize, replica: usize) -> Endpoint {
    Endpoint::new(HostId((group * REPLICAS + replica) as u32), ports::RC_SERVER)
}

fn server_id(group: usize, replica: usize) -> u64 {
    (group * REPLICAS + replica) as u64 + 1
}

fn client_ep(c: usize) -> Endpoint {
    Endpoint::new(HostId((GROUPS * REPLICAS + c) as u32), CLIENT_PORT)
}

fn shard_map() -> ShardMap {
    ShardMap::new((0..GROUPS).map(|g| (0..REPLICAS).map(|r| server_ep(g, r)).collect()).collect())
}

/// A switched 10 Gb/s LAN: the medium must not be the bottleneck of a
/// workload about the metadata plane, and the set-up preload has to
/// land before the replicas' first anti-entropy tick.
fn lan_medium() -> Medium {
    Medium {
        name: "names-10gbe",
        bandwidth_bps: 10_000_000_000,
        latency: SimDuration::from_micros(50),
        loss: 0.0,
        mtu: 1500,
        per_packet_overhead: 38,
        shared_bus: false,
    }
}

/// The URI of global name `i`.
pub fn name_uri(i: usize) -> Uri {
    Uri::parse(format!("urn:snipe:bench:obj-{i:07}")).expect("bench names are valid URIs")
}

/// Benchmark wrapper around a real [`RcServerActor`]: the boundary
/// where `rcds.server.on_event` spans and counts are taken.
pub struct ServerProbe {
    pub inner: RcServerActor,
    pub events: u64,
}

impl PortableActor for ServerProbe {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        self.events += 1;
        inject(Layer::Rcds);
        if trace::on() {
            let _g = span(Sp::RcServerOnEvent);
            let mut timed = TimedCtx::new(ctx);
            self.inner.on_event(&mut timed, event);
            trace::note_children(Sp::Ctx, timed.calls, timed.ctx_ns, clock_pair_ns());
        } else {
            self.inner.on_event(ctx, event);
        }
    }
}

snipe_netsim::portable_actor!(ServerProbe);

/// Set-up only: ships a group's preload to its two secondary replicas
/// as ordinary `SyncPush` datagrams, so all three replicas start level
/// through the real decode-and-apply path (letting anti-entropy carry
/// 50 000 names per replica costs minutes: `RcStore::updates_since`
/// scans the whole log per request).
#[derive(Default)]
struct Preloader {
    datagrams: Vec<(Endpoint, Bytes)>,
}

impl Preloader {
    fn queue(&mut self, group: usize, updates: Vec<Update>) {
        let body = seal(Proto::Raw, RcMsg::SyncPush { updates, more: false }.encode_to_bytes());
        for r in 1..REPLICAS {
            self.datagrams.push((server_ep(group, r), body.clone()));
        }
    }
}

impl PortableActor for Preloader {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if matches!(event, Event::Start) {
            for (to, body) in self.datagrams.drain(..) {
                ctx.send(to, body);
            }
        }
    }
}

snipe_netsim::portable_actor!(Preloader);

struct PendingOp {
    name: u32,
    put: bool,
    issued_ns: u64,
    payload: u32,
}

/// A closed-loop RC client. Counters are cumulative; the latency
/// buffer holds the current pass only.
pub struct NamesClient {
    idx: usize,
    seed: u64,
    rc: RcClient,
    names: Vec<Uri>,
    /// Last value written per name (the preload wrote 0).
    version: Vec<u32>,
    busy: Vec<bool>,
    pending: HashMap<u64, PendingOp>,
    rng: Xoshiro256,
    gate: TimerGate,
    /// Virtual time of this client's `Start` (the pass clock's zero).
    t0_ns: u64,
    cur_pass: u64,
    seq: u64,
    pub ok: u64,
    pub bad: u64,
    pub payload_bytes: u64,
    /// Datagram bytes this client sent or received (to split client
    /// traffic from anti-entropy on the wire).
    pub client_bytes: u64,
    pub puts_ok: u64,
    pub lat: Vec<u64>,
}

impl NamesClient {
    fn new(idx: usize, seed: u64) -> NamesClient {
        let map = shard_map();
        let flat: Vec<Endpoint> = (0..GROUPS).map(|g| server_ep(g, 0)).collect();
        let rc = RcClient::new(flat, SimDuration::from_millis(250))
            .with_shard_map(map)
            .with_cache_ttl(CACHE_TTL);
        NamesClient {
            idx,
            seed,
            rc,
            names: (0..PER_CLIENT).map(|i| name_uri(i * CLIENTS + idx)).collect(),
            version: vec![0; PER_CLIENT],
            busy: vec![false; PER_CLIENT],
            pending: HashMap::with_capacity(2 * OUTSTANDING),
            rng: Xoshiro256::seed_from_u64(derive(seed, idx as u64)),
            gate: TimerGate::new(),
            t0_ns: 0,
            cur_pass: 0,
            seq: 0,
            ok: 0,
            bad: 0,
            payload_bytes: 0,
            client_bytes: 0,
            puts_ok: 0,
            lat: Vec::new(),
        }
    }

    /// The RC client's drop/cache counters.
    pub fn rc_stats(&self) -> snipe_rcds::client::RcClientStats {
        self.rc.stats()
    }

    fn roll_pass(&mut self, ctx: &dyn SimCtx) {
        let pass = CLOCK.index(SimTime::from_nanos(ctx.now().as_nanos() - self.t0_ns));
        if pass != self.cur_pass {
            self.cur_pass = pass;
            self.lat.clear();
            self.rng = Xoshiro256::seed_from_u64(derive(self.seed, (pass << 8) | self.idx as u64));
        }
    }

    fn issue(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        let put = self.rng.gen_range(100) < PUT_PERCENT;
        let span_len = if self.rng.gen_bool(0.5) { HOT } else { PER_CLIENT } as u64;
        let mut name = self.rng.gen_range(span_len) as usize;
        while self.busy[name] {
            name = (name + 1) % PER_CLIENT;
        }
        self.busy[name] = true;
        self.seq += 1;
        let uri = &self.names[name];
        trace::set_op((self.idx as u64) << 32 | self.seq, if put { TAG_PUT } else { TAG_GET });
        let (id, payload) = if put {
            self.version[name] += 1;
            let value = self.version[name].to_string();
            let payload = uri.as_str().len() + value.len();
            (rc_put(&mut self.rc, now, uri, vec![Assertion::new("v", value)]), payload)
        } else {
            let payload = uri.as_str().len() + self.version[name].to_string().len();
            (rc_get(&mut self.rc, now, uri), payload)
        };
        self.pending.insert(
            id,
            PendingOp {
                name: name as u32,
                put,
                issued_ns: now.as_nanos(),
                payload: payload as u32,
            },
        );
    }

    fn complete(&mut self, now_ns: u64, (id, result): Completion) {
        let Some(op) = self.pending.remove(&id) else {
            self.bad += 1;
            return;
        };
        let name = op.name as usize;
        self.busy[name] = false;
        let want = self.version[name].to_string();
        let good = result.is_ok_and(|r| {
            r.assertions.len() == 1 && r.assertions[0].name == "v" && r.assertions[0].value == want
        });
        if good {
            self.ok += 1;
            self.puts_ok += op.put as u64;
            self.payload_bytes += op.payload as u64;
            self.lat.push(now_ns - op.issued_ns);
        } else {
            self.bad += 1;
        }
    }

    /// Keep the window full, transmit what the client queued, and keep
    /// its retry timer armed. Cache hits complete inside `get`, so
    /// issuing and completing alternate until both go quiet.
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let now_ns = ctx.now().as_nanos();
        loop {
            while self.pending.len() < OUTSTANDING {
                self.issue(ctx);
            }
            let (sends, done) = rc_drain(&mut self.rc);
            for (to, bytes) in sends {
                let datagram = seal(Proto::Raw, bytes);
                self.client_bytes += datagram.len() as u64;
                ctx.send(to, datagram);
            }
            if done.is_empty() {
                break;
            }
            for c in done {
                self.complete(now_ns, c);
            }
        }
        if let Some(dl) = self.rc.next_deadline() {
            self.gate.arm_at(ctx, dl + SimDuration::from_micros(1), TIMER_RC);
        }
    }

    fn handle(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if matches!(event, Event::Start) {
            self.t0_ns = ctx.now().as_nanos();
        }
        self.roll_pass(ctx);
        match event {
            Event::Start => self.pump(ctx),
            Event::Packet { from, payload } => {
                self.client_bytes += payload.len() as u64;
                if let Ok((Proto::Raw, body)) = open(payload) {
                    rc_on_packet(&mut self.rc, ctx.now(), from, body);
                } else {
                    self.bad += 1;
                }
                self.pump(ctx);
            }
            Event::Timer { token: TIMER_RC } => {
                self.gate.fired();
                rc_on_timer(&mut self.rc, ctx.now());
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

impl PortableActor for NamesClient {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if trace::on() {
            let _g = span(Sp::BenchActor);
            let mut timed = TimedCtx::new(ctx);
            self.handle(&mut timed, event);
            trace::note_children(Sp::Ctx, timed.calls, timed.ctx_ns, clock_pair_ns());
        } else {
            self.handle(ctx, event);
        }
    }
}

snipe_netsim::portable_actor!(NamesClient);

#[derive(Clone, Copy, Default)]
struct Totals {
    ok: u64,
    bad: u64,
    payload_bytes: u64,
    events: u64,
    wire_bytes: u64,
}

/// The built names world.
pub struct Names {
    world: World,
    prev: Totals,
    /// Group populations after the preload.
    shard_sizes: Vec<usize>,
    /// Host seconds the replicas took to converge in set-up.
    pub converge_s: f64,
}

impl Names {
    /// Build the world, preload replica 0 of every group, let
    /// anti-entropy bring the other replicas level, then run the
    /// warm-up pass.
    pub fn build(seed: u64) -> (Names, PassStats) {
        let mut topo = Topology::new();
        let net = topo.add_network("names-lan", lan_medium(), true);
        for i in 0..GROUPS * REPLICAS + CLIENTS {
            let h = topo.add_host(HostCfg::named(format!("n{i}")));
            topo.attach(h, net);
        }
        let mut world = World::new(topo, seed);

        let map = shard_map();
        let mut primaries: Vec<RcServerActor> = Vec::new();
        for g in 0..GROUPS {
            let peers = (1..REPLICAS).map(|r| server_ep(g, r)).collect();
            primaries.push(
                RcServerActor::new(server_id(g, 0), peers, SYNC_INTERVAL)
                    .with_shard(map.clone(), g),
            );
        }
        // Preload replica 0 of each group directly, and build for its
        // two peers the anti-entropy pushes that bring them level: the
        // same updates, with the stamps the preload assigns.
        let mut shard_sizes = vec![0usize; GROUPS];
        let mut pushes: Vec<Vec<Update>> = vec![Vec::new(); GROUPS];
        let mut loaders: Vec<Preloader> = (0..GROUPS).map(|_| Preloader::default()).collect();
        let zero = Assertion::new("v", "0");
        for i in 0..NAMES {
            let uri = name_uri(i);
            let g = map.shard_of(uri.as_str());
            let seq = shard_sizes[g] as u64;
            shard_sizes[g] += 1;
            primaries[g].preload(&uri, zero.clone());
            let stored = primaries[g].store().get_one(&uri, "v").expect("just preloaded").clone();
            pushes[g].push(Update {
                origin: server_id(g, 0),
                seq,
                uri: uri.as_str().to_string(),
                assertion: stored,
            });
            if pushes[g].len() == PUSH_UPDATES {
                loaders[g].queue(g, std::mem::take(&mut pushes[g]));
            }
        }
        for (g, rest) in pushes.into_iter().enumerate() {
            if !rest.is_empty() {
                loaders[g].queue(g, rest);
            }
        }
        for (g, primary) in primaries.into_iter().enumerate() {
            let ep = server_ep(g, 0);
            world.spawn_portable(
                ep.host,
                ep.port,
                Box::new(ServerProbe { inner: primary, events: 0 }),
            );
            for r in 1..REPLICAS {
                let peers = (0..REPLICAS).filter(|&o| o != r).map(|o| server_ep(g, o)).collect();
                let inner = RcServerActor::new(server_id(g, r), peers, SYNC_INTERVAL)
                    .with_shard(map.clone(), g);
                let ep = server_ep(g, r);
                world.spawn_portable(ep.host, ep.port, Box::new(ServerProbe { inner, events: 0 }));
            }
        }
        for (g, loader) in loaders.into_iter().enumerate() {
            world.spawn_portable(server_ep(g, 0).host, LOADER_PORT, Box::new(loader));
        }

        let t0 = std::time::Instant::now();
        let mut n = Names { world, prev: Totals::default(), shard_sizes, converge_s: 0.0 };
        for _ in 0..40 {
            if n.converged() {
                break;
            }
            n.world.run_for(SimDuration::from_millis(25));
        }
        assert!(n.converged(), "names: replicas did not converge on the preload in 1 s virtual");
        n.converge_s = t0.elapsed().as_secs_f64();

        // Clients start after convergence; their pass clocks start now.
        for c in 0..CLIENTS {
            let ep = client_ep(c);
            n.world.spawn_portable(ep.host, ep.port, Box::new(NamesClient::new(c, seed)));
        }
        n.prev = n.totals();
        let warm = n.pass(Pass::Warm);
        (n, warm)
    }

    fn server(&self, g: usize, r: usize) -> &ServerProbe {
        self.world.portable_ref::<ServerProbe>(server_ep(g, r)).expect("server bound")
    }

    fn client(&self, c: usize) -> &NamesClient {
        self.world.portable_ref::<NamesClient>(client_ep(c)).expect("client bound")
    }

    /// Every replica holds its group's names and the same update log.
    fn converged(&self) -> bool {
        (0..GROUPS).all(|g| {
            let primary = self.server(g, 0).inner.store();
            primary.uri_count() == self.shard_sizes[g]
                && (1..REPLICAS).all(|r| {
                    let s = self.server(g, r).inner.store();
                    s.uri_count() == self.shard_sizes[g]
                        && s.version_vector() == primary.version_vector()
                })
        })
    }

    fn totals(&self) -> Totals {
        let st = self.world.stats();
        let mut t = Totals {
            events: st.events,
            wire_bytes: st.bytes_by_net().map(|(_, b)| b).sum(),
            ..Totals::default()
        };
        for c in 0..CLIENTS {
            if let Some(cl) = self.world.portable_ref::<NamesClient>(client_ep(c)) {
                t.ok += cl.ok;
                t.bad += cl.bad;
                t.payload_bytes += cl.payload_bytes;
            }
        }
        t
    }
}

impl Workload for Names {
    fn run(&mut self, p: Pass) {
        let _g = span(Sp::BenchPass);
        let _w = span(Sp::WorldRunFor);
        self.world.run_for(CLOCK.len(p));
    }

    fn collect(&mut self) -> PassStats {
        let now = self.totals();
        let mut lat = Vec::new();
        for c in 0..CLIENTS {
            lat.extend_from_slice(&self.client(c).lat);
        }
        let ok = now.ok - self.prev.ok;
        let s = PassStats {
            attempted: ok + (now.bad - self.prev.bad),
            ok,
            payload_bytes: now.payload_bytes - self.prev.payload_bytes,
            wire_bytes: now.wire_bytes - self.prev.wire_bytes,
            events: now.events - self.prev.events,
            lat_ns: lat,
        };
        self.prev = now;
        s
    }

    fn final_check(&mut self) -> Vec<String> {
        let mut v = Vec::new();
        let drops = self.world.stats().total_drops();
        if drops != 0 {
            v.push(format!("names: {drops} datagrams dropped on a lossless LAN"));
        }
        for c in 0..CLIENTS {
            let s = self.client(c).rc_stats();
            if s.decode_drops + s.stale_replies + s.mismatched_replies != 0 {
                v.push(format!("names: client {c} discarded replies: {s:?}"));
            }
        }
        for g in 0..GROUPS {
            for r in 0..REPLICAS {
                let s = &self.server(g, r).inner;
                if s.misrouted + s.decode_drops != 0 {
                    v.push(format!(
                        "names: server {g}.{r} misrouted {} / failed to decode {}",
                        s.misrouted, s.decode_drops
                    ));
                }
            }
        }
        v
    }

    fn layer_metrics(&mut self, out: &mut Vec<(String, f64)>) {
        let (mut hits, mut misses, mut drops, mut client_bytes, mut puts) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut ops, mut in_flight) = (0u64, 0u64);
        for c in 0..CLIENTS {
            let cl = self.client(c);
            let s = cl.rc_stats();
            hits += s.cache_hits;
            misses += s.cache_misses;
            drops += s.decode_drops;
            client_bytes += cl.client_bytes;
            puts += cl.puts_ok;
            ops += cl.ok + cl.bad;
            in_flight += cl.pending.len() as u64;
        }
        let served: u64 = (0..GROUPS)
            .flat_map(|g| (0..REPLICAS).map(move |r| (g, r)))
            .map(|(g, r)| self.server(g, r).inner.requests_served)
            .sum();
        let wire: u64 = self.world.stats().bytes_by_net().map(|(_, b)| b).sum();
        let max = *self.shard_sizes.iter().max().expect("groups") as f64;
        let mean = NAMES as f64 / GROUPS as f64;
        out.push((
            "rcds.client.cache_hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        ));
        out.push(("rcds.client.decode_drops".into(), drops as f64));
        // Requests the replicas served beyond one per uncached op.
        let first_tries = ops - hits + in_flight;
        out.push((
            "rcds.client.retries_per_op".into(),
            served.saturating_sub(first_tries) as f64 / ops.max(1) as f64,
        ));
        out.push(("rcds.shard.imbalance_ratio".into(), max / mean));
        out.push((
            "rcds.sync.bytes_per_put".into(),
            wire.saturating_sub(client_bytes) as f64 / puts.max(1) as f64,
        ));
    }
}
