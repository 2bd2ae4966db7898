//! Scaling benchmark: a datagram storm on a partitioned [`World`] at
//! 1k–100k hosts.
//!
//! This module measures how far partitioning the world onto worker
//! threads pushes engine throughput. The world is a campus of
//! routable switched LANs ("clusters") of [`CLUSTER`] hosts each — one
//! partition region per LAN — with ~10% of each burst crossing
//! clusters through the deterministic mailbox. `harness shard` runs
//! the scaling matrix (hosts × threads) into `results/shard.txt`, one
//! digest per run; `harness shard-digest <threads>` prints
//! the behavioural digest of a fixed run for the `shard-determinism`
//! gate in `scripts/check.sh`.

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};

/// Hosts per cluster LAN (one partition region each).
pub const CLUSTER: usize = 64;
/// Port every storm actor binds.
const STORM_PORT: u16 = 9100;
const STORM_PAYLOAD: &[u8] = &[0xA5; 64];

/// The campus LAN medium: switched gigabit with 200µs propagation, so
/// the partition lookahead is a healthy 400µs — wide rounds, little
/// barrier overhead.
pub fn campus_medium() -> Medium {
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

/// `hosts` hosts in ⌈hosts/[`CLUSTER`]⌉ routable switched LANs.
pub fn cluster_topology(hosts: usize) -> Topology {
    let mut t = Topology::new();
    let clusters = hosts.div_ceil(CLUSTER);
    let mut placed = 0;
    for c in 0..clusters {
        let net = t.add_network(format!("cluster{c}"), campus_medium(), true);
        for i in 0..CLUSTER.min(hosts - placed) {
            let h = t.add_host(HostCfg::named(format!("c{c}h{i}")));
            t.attach(h, net);
        }
        placed += CLUSTER.min(hosts - placed);
    }
    t
}

/// Burst generator. Every millisecond it emits `burst` datagrams: most
/// to a neighbor in its own cluster, every tenth to a fixed far host in
/// another cluster (cross-region traffic through the mailbox). Counts
/// arrivals so runs can assert conservation.
pub struct ShardStormActor {
    peer_near: Endpoint,
    peer_far: Endpoint,
    burst: usize,
    /// When the next burst goes out.
    next: SimTime,
    /// Datagrams received so far.
    pub got: u64,
}

impl Actor for ShardStormActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Wake => {
                for i in 0..self.burst {
                    let to = if i % 10 == 9 { self.peer_far } else { self.peer_near };
                    ctx.send(to, Bytes::from_static(STORM_PAYLOAD));
                }
                self.next = ctx.now() + SimDuration::from_millis(1);
            }
            Event::Packet { .. } => self.got += 1,
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        Some(self.next)
    }
}

/// Build the storm world: every host runs a [`ShardStormActor`] whose
/// near peer is the next host in its cluster and whose far peer sits
/// half the campus away.
pub fn build_storm(hosts: usize, seed: u64, threads: usize) -> World {
    let topo = cluster_topology(hosts);
    let mut w = World::sharded(topo, seed, threads);
    for i in 0..hosts {
        let cluster = i / CLUSTER;
        let base = cluster * CLUSTER;
        let span = CLUSTER.min(hosts - base);
        let near = base + (i - base + 1) % span;
        let far = (i + hosts / 2 + CLUSTER / 2) % hosts;
        let actor = ShardStormActor {
            peer_near: Endpoint::new(HostId(near as u32), STORM_PORT),
            peer_far: Endpoint::new(HostId(far as u32), STORM_PORT),
            burst: 6,
            next: SimTime::ZERO,
            got: 0,
        };
        w.spawn(HostId(i as u32), STORM_PORT, Box::new(actor));
    }
    w
}

/// Outcome of one sharded storm run.
#[derive(Debug)]
pub struct ShardRun {
    /// Host count.
    pub hosts: usize,
    /// Worker threads requested.
    pub threads: usize,
    /// Partition regions in the world.
    pub regions: usize,
    /// Events dispatched across all shards.
    pub events: u64,
    /// Datagrams delivered.
    pub delivered: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// `events / wall_seconds`.
    pub events_per_sec: f64,
    /// Behavioural digest — must be identical at every thread count.
    pub digest: u64,
}

/// Run the storm for `sim` and measure wall-clock throughput.
pub fn storm(hosts: usize, sim: SimDuration, seed: u64, threads: usize) -> ShardRun {
    let mut w = build_storm(hosts, seed, threads);
    let t0 = std::time::Instant::now();
    w.run_for(sim);
    let wall = t0.elapsed().as_secs_f64();
    let stats = w.stats();
    ShardRun {
        hosts,
        threads,
        regions: w.regions(),
        events: stats.events,
        delivered: stats.delivered,
        wall_seconds: wall,
        events_per_sec: stats.events as f64 / wall,
        digest: w.digest(),
    }
}

/// The fixed configuration behind `harness shard-digest`: small enough
/// for a CI gate, multi-region with cross-shard traffic and a fault
/// script so the digest covers the interesting machinery.
pub fn digest_run(threads: usize, seed: u64) -> u64 {
    use snipe_netsim::shard::FaultCmd;
    use snipe_util::time::SimTime;
    let hosts = 512;
    let mut w = build_storm(hosts, seed, threads);
    // A little churn so fault routing is part of the gate.
    w.schedule_fault(SimTime::from_nanos(20_000_000), FaultCmd::HostDown(HostId(7)));
    w.schedule_fault(SimTime::from_nanos(60_000_000), FaultCmd::HostUp(HostId(7)));
    w.run_for(SimDuration::from_millis(100));
    w.digest()
}

/// The scaling matrix: host counts × thread counts, sim spans chosen
/// so the largest world stays tractable.
pub fn scaling_matrix() -> Vec<(usize, SimDuration)> {
    vec![
        (1_000, SimDuration::from_millis(1000)),
        (10_000, SimDuration::from_millis(250)),
        (100_000, SimDuration::from_millis(60)),
    ]
}

/// Thread counts swept at each world size.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_scales_regions_with_hosts() {
        let w = build_storm(256, 1, 1);
        assert_eq!(w.regions(), 4);
        let w = build_storm(100, 1, 1); // ragged tail cluster
        assert_eq!(w.regions(), 2);
    }

    #[test]
    fn storm_digest_is_thread_count_invariant() {
        let d1 = digest_run(1, 42);
        let d4 = digest_run(4, 42);
        assert_eq!(d1, d4);
        // The workload itself is seed-independent (no loss draws), so
        // sensitivity comes from the world shape, not the seed.
        assert_ne!(
            {
                let mut w = build_storm(256, 42, 1);
                w.run_for(SimDuration::from_millis(20));
                w.digest()
            },
            d1,
            "digest must react to the workload"
        );
    }

    #[test]
    fn storm_conserves_datagrams_on_lossless_lans() {
        let mut w = build_storm(256, 7, 4);
        w.run_for(SimDuration::from_millis(50));
        let s = w.stats();
        assert!(s.sent > 50_000, "storm too quiet: {}", s.sent);
        // Conservation: every datagram is delivered, dropped, or still
        // in flight at the horizon — nothing vanishes.
        assert_eq!(s.total_drops(), 0, "lossless campus must not drop");
        let in_flight = (s.sent - s.delivered) as usize;
        assert!(
            in_flight <= w.queue_depth(),
            "{} sent - {} delivered exceeds {} queued",
            s.sent,
            s.delivered,
            w.queue_depth()
        );
    }
}
