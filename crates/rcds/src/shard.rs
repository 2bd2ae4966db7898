//! Consistent-hash sharding of the RC name space.
//!
//! The paper's RCDS is a handful of replicated catalog servers; the
//! ROADMAP's north star is millions of registered names. A [`ShardMap`]
//! splits the URI namespace across *replica groups*: each shard is
//! owned by one group of RCDS server replicas, anti-entropy runs only
//! inside a group, and clients route each operation to the owning
//! group.
//!
//! The map is a classic consistent-hash ring with virtual nodes. Ring
//! points are derived from `(group index, vnode index)` — *not* from
//! the group count — so growing the map by one group only claims ring
//! segments from existing groups and never reshuffles keys between two
//! old groups. That bounds resharding traffic to the data actually
//! moving onto the new replicas.

use snipe_netsim::topology::Endpoint;

/// Virtual nodes per replica group. 64 points per group keeps the
/// worst-observed imbalance across 16 groups under ~20% while the ring
/// stays small enough to binary-search in a handful of cache lines.
const VNODES_PER_GROUP: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, seeded by `seed` (the standard offset basis is
/// mixed with the seed so vnode points and key hashes share a family
/// but never collide structurally).
fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Maps every URI to the replica group that owns its shard.
///
/// Cheap to clone (clients and servers each hold a copy) and pure —
/// routing decisions depend only on the group list, so any two parties
/// constructed with the same groups agree on ownership without any
/// coordination protocol.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// One entry per shard: the RCDS server replicas owning it.
    groups: Vec<Vec<Endpoint>>,
    /// Sorted `(ring point, group index)` pairs.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Build a map over `groups` replica groups. Empty groups are
    /// allowed while bootstrapping but route like any other — callers
    /// that need an endpoint must check [`ShardMap::group`] is
    /// non-empty.
    ///
    /// # Panics
    /// If `groups` is empty: a ring with no points cannot route.
    pub fn new(groups: Vec<Vec<Endpoint>>) -> ShardMap {
        assert!(!groups.is_empty(), "ShardMap needs at least one replica group");
        let mut ring = Vec::with_capacity(groups.len() * VNODES_PER_GROUP);
        for (gi, _) in groups.iter().enumerate() {
            for vn in 0..VNODES_PER_GROUP {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(gi as u64).to_le_bytes());
                key[8..].copy_from_slice(&(vn as u64).to_le_bytes());
                ring.push((fnv64(0x5ead_ed11, &key), gi as u32));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|&mut (p, _)| p);
        ShardMap { groups, ring }
    }

    /// Number of shards (= replica groups).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The replicas owning shard `idx`.
    ///
    /// # Panics
    /// If `idx >= group_count()`.
    pub fn group(&self, idx: usize) -> &[Endpoint] {
        &self.groups[idx]
    }

    /// The shard owning `uri` — first ring point at or after the key's
    /// hash, wrapping at the top of the ring.
    pub fn shard_of(&self, uri: &str) -> usize {
        let h = fnv64(0, uri.as_bytes());
        let i = self.ring.partition_point(|&(p, _)| p < h);
        let (_, gi) = self.ring[if i == self.ring.len() { 0 } else { i }];
        gi as usize
    }

    /// The replica group owning `uri` (shorthand for
    /// `group(shard_of(uri))`).
    pub fn group_for(&self, uri: &str) -> &[Endpoint] {
        self.group(self.shard_of(uri))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

    fn groups(n: usize) -> Vec<Vec<Endpoint>> {
        (0..n)
            .map(|g| (0..3).map(|r| Endpoint::new(HostId((g * 8 + r) as u32), 7100)).collect())
            .collect()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("uri:proc/host{}/task{}", i % 97, i)).collect()
    }

    #[test]
    fn routing_is_deterministic_across_instances() {
        let a = ShardMap::new(groups(8));
        let b = ShardMap::new(groups(8));
        for k in keys(1000) {
            assert_eq!(a.shard_of(&k), b.shard_of(&k));
        }
    }

    #[test]
    fn load_spreads_over_all_groups() {
        let m = ShardMap::new(groups(8));
        let mut counts = [0usize; 8];
        let total = 10_000;
        for k in keys(total) {
            counts[m.shard_of(&k)] += 1;
        }
        let ideal = total / 8;
        for (g, &c) in counts.iter().enumerate() {
            assert!(
                c > ideal / 3 && c < ideal * 3,
                "group {g} holds {c} of {total} keys (ideal {ideal})"
            );
        }
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_group() {
        let old = ShardMap::new(groups(4));
        let new = ShardMap::new(groups(5));
        let total = 10_000;
        let mut moved = 0usize;
        for k in keys(total) {
            let (a, b) = (old.shard_of(&k), new.shard_of(&k));
            if a != b {
                moved += 1;
                assert_eq!(b, 4, "key {k} moved between two pre-existing groups ({a} -> {b})");
            }
        }
        // The new group should claim roughly 1/5 of the space; well
        // under the ~100% a modulo-hash reshard would move.
        assert!(moved < total * 35 / 100, "adding one group moved {moved} of {total} keys");
        assert!(moved > 0, "the new group claimed no keys at all");
    }

    #[test]
    fn group_for_matches_shard_of() {
        let m = ShardMap::new(groups(4));
        for k in keys(200) {
            assert_eq!(m.group_for(&k), m.group(m.shard_of(&k)));
        }
    }
}
