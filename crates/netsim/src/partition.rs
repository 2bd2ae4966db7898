//! Regions, the lookahead and the seed rule (see [`crate::shard`]).
//!
//! Two hosts in different regions share no segment, so a cross-region
//! packet takes a routed path of two segments, whose latency is at
//! least twice the least base latency of any routable medium. That is
//! the **lookahead** `L`: where the earliest pending work is at `t_min`,
//! every core may run its events before `min(t_min + L, next fault,
//! horizon)`, since nothing sent inside that window arrives in another
//! region before its end. Gray links only raise latency (the fault
//! scheduler clamps `latency_factor` to ≥ 1.0), so the bound holds
//! under chaos.
//!
//! **Seed rule.** A one-region world seeds its workload and packet-chaos
//! RNGs from the seed itself; a world of ≥ 2 regions derives one
//! decorrelated stream per region. Either way the mapping is pure, so
//! it is identical at every thread count.

use snipe_util::id::{HostId, NetId};
use snipe_util::rng::SplitMix64;
use snipe_util::time::SimDuration;

use crate::topology::Topology;

/// The seed rule (module docs): the seed itself for a one-region world,
/// a decorrelated stream per region otherwise.
pub(crate) fn region_seed(seed: u64, region: u32, regions: u32) -> u64 {
    if regions == 1 {
        return seed;
    }
    SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(region as u64 + 1)).next_u64()
}

/// Static partition of a topology into schedulable regions, plus the
/// conservative lookahead and dense per-region transmitter-slot maps.
///
/// Computed once from the pristine topology; faults never move a host
/// between regions (they only flip up/down state), so the partition is
/// valid for the lifetime of the world.
pub struct Partition {
    region_of_host: Vec<u32>,
    region_of_net: Vec<u32>,
    pub(crate) regions: u32,
    /// Conservative lookahead in nanoseconds (`u64::MAX` when no
    /// cross-region traffic is possible).
    pub(crate) la_ns: u64,
    /// Global net index → dense per-region bus-slot index.
    pub(crate) net_slot: Vec<u32>,
    /// Global link index → dense per-region link-slot index.
    pub(crate) link_slot: Vec<u32>,
    /// Bus slots per region.
    pub(crate) bus_counts: Vec<u32>,
    /// Link slots per region.
    pub(crate) link_counts: Vec<u32>,
}

impl Partition {
    /// Partition `topo` into regions (connected components of the
    /// host–segment incidence graph) and derive the lookahead.
    ///
    /// # Panics
    /// Panics if the topology has ≥ 2 regions connected by routable
    /// media with zero base latency — conservative lookahead would be
    /// zero and parallel execution could not make safe progress. All
    /// built-in media have latency ≥ 1µs.
    pub fn of(topo: &Topology) -> Partition {
        let h = topo.host_count();
        let n = topo.net_count();
        // Union-find over host nodes [0, h) and net nodes [h, h + n).
        let mut uf: Vec<u32> = (0..(h + n) as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize]; // path halving
                x = uf[x as usize];
            }
            x
        }
        for net in topo.nets() {
            let nn = (h + net.id.index()) as u32;
            for &(host, _) in &net.attached {
                let a = find(&mut uf, nn);
                let b = find(&mut uf, host.index() as u32);
                if a != b {
                    uf[b as usize] = a;
                }
            }
        }
        // Dense region ids in first-seen order (hosts first, then
        // nets) — deterministic, independent of union order.
        let mut dense = vec![u32::MAX; h + n];
        let mut regions = 0u32;
        let mut region_of = |uf: &mut [u32], node: usize| {
            let root = find(uf, node as u32) as usize;
            if dense[root] == u32::MAX {
                dense[root] = regions;
                regions += 1;
            }
            dense[root]
        };
        let region_of_host: Vec<u32> = (0..h).map(|i| region_of(&mut uf, i)).collect();
        let region_of_net: Vec<u32> = (0..n).map(|j| region_of(&mut uf, h + j)).collect();
        // Lookahead: a cross-region path is routed over two routable
        // edges, so its latency is ≥ 2 × the minimum base latency.
        let min_lat =
            topo.nets().filter(|net| net.routable).map(|net| net.medium.latency.as_nanos()).min();
        let la_ns = match min_lat {
            // One region, or no routable media: regions cannot talk at all.
            _ if regions <= 1 => u64::MAX,
            None => u64::MAX,
            Some(0) => panic!(
                "a partitioned world requires routable media with nonzero latency \
                 (conservative lookahead would be zero)"
            ),
            Some(ns) => ns.saturating_mul(2),
        };
        Partition::with_regions(topo, region_of_host, region_of_net, regions, la_ns)
    }

    /// The whole topology as one region — the [`World::new`](crate::World::new) case.
    /// With a single core nothing is ever cross-region, so there is no
    /// lookahead bound and zero-latency routable media are fine.
    pub fn single(topo: &Topology) -> Partition {
        let hosts = vec![0; topo.host_count()];
        let nets = vec![0; topo.net_count()];
        Partition::with_regions(topo, hosts, nets, 1, u64::MAX)
    }

    /// Dense per-region transmitter slots, so a core's busy vectors
    /// are sized by its own region, not the whole world.
    fn with_regions(
        topo: &Topology,
        region_of_host: Vec<u32>,
        region_of_net: Vec<u32>,
        regions: u32,
        la_ns: u64,
    ) -> Partition {
        let mut bus_counts = vec![0u32; regions as usize];
        let mut net_slot = vec![0u32; region_of_net.len()];
        for (j, slot) in net_slot.iter_mut().enumerate() {
            let r = region_of_net[j] as usize;
            *slot = bus_counts[r];
            bus_counts[r] += 1;
        }
        let total_links: usize = topo.hosts().map(|host| host.interfaces.len()).sum();
        let mut link_counts = vec![0u32; regions as usize];
        let mut link_slot = vec![0u32; total_links];
        for host in topo.hosts() {
            for iface in &host.interfaces {
                let r = region_of_net[iface.net.index()] as usize;
                link_slot[iface.link.index()] = link_counts[r];
                link_counts[r] += 1;
            }
        }
        Partition {
            region_of_host,
            region_of_net,
            regions,
            la_ns,
            net_slot,
            link_slot,
            bus_counts,
            link_counts,
        }
    }

    /// Number of regions (independent of thread count).
    pub fn regions(&self) -> usize {
        self.regions as usize
    }

    /// The region owning a host.
    pub fn region_of_host(&self, h: HostId) -> usize {
        self.region_of_host[h.index()] as usize
    }

    /// The region owning a network segment.
    pub fn region_of_net(&self, n: NetId) -> usize {
        self.region_of_net[n.index()] as usize
    }

    /// Conservative lookahead (`SimDuration::MAX` when regions cannot
    /// exchange traffic, e.g. a single-region world).
    pub fn lookahead(&self) -> SimDuration {
        SimDuration::from_nanos(self.la_ns)
    }
}
