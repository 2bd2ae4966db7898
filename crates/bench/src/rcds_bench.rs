//! `harness rcds` (RCDS): metadata-plane scale benchmark.
//!
//! Registers ≥1M names into a consistent-hash-sharded catalog
//! (16 shard groups as PR 10 wires into the RC plane), then measures
//! name-resolution latency through the ring: raw store resolution at
//! scale, and the client path with the TTL lookup cache both cold and
//! hot. Latencies land in a [`Log2Histogram`], so the reported p50 and
//! p99 are power-of-two upper bounds.

use std::time::Instant;

use snipe_netsim::topology::Endpoint;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::proto::RcMsg;
use snipe_rcds::shard::ShardMap;
use snipe_rcds::store::RcStore;
use snipe_rcds::uri::Uri;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::stats::Log2Histogram;
use snipe_util::time::{SimDuration, SimTime};

/// Names registered (the acceptance floor is one million).
pub const NAMES: usize = 1_000_000;
/// Shard groups in the ring.
pub const SHARDS: usize = 16;
/// Replicas per shard group.
pub const REPLICAS_PER_SHARD: usize = 3;
/// Timed resolutions against the sharded stores.
pub const LOOKUPS: usize = 200_000;
/// Hot-set size for the client-cache phase (each name resolved twice).
pub const HOT: usize = 20_000;

/// Everything `harness rcds` reports.
pub struct RcdsBenchReport {
    /// Names actually registered.
    pub names: usize,
    /// Shard groups.
    pub shards: usize,
    /// Registrations per second.
    pub register_per_sec: f64,
    /// Smallest / largest shard population (ring balance).
    pub shard_min: usize,
    /// Largest shard population.
    pub shard_max: usize,
    /// Timed store resolutions.
    pub lookups: usize,
    /// Resolutions per second (store path).
    pub resolve_per_sec: f64,
    /// p50 resolution latency upper bound, nanoseconds.
    pub p50_ns: u64,
    /// p99 resolution latency upper bound, nanoseconds.
    pub p99_ns: u64,
    /// Client-path lookups issued in the cache phase.
    pub client_lookups: usize,
    /// Client-path lookups per second (includes cache hits).
    pub client_per_sec: f64,
    /// Client-path p50, nanoseconds.
    pub client_p50_ns: u64,
    /// Client-path p99, nanoseconds.
    pub client_p99_ns: u64,
    /// Gets served from the client TTL cache.
    pub cache_hits: u64,
}

fn bench_name(i: usize) -> String {
    format!("urn:snipe:bench:obj-{i:07}")
}

fn bench_groups() -> Vec<Vec<Endpoint>> {
    (0..SHARDS)
        .map(|g| {
            (0..REPLICAS_PER_SHARD)
                .map(|r| Endpoint::new(HostId((g * REPLICAS_PER_SHARD + r + 1) as u32), 7000))
                .collect()
        })
        .collect()
}

/// Run the benchmark at the given scale (use [`NAMES`] for the gate).
pub fn run(names: usize) -> RcdsBenchReport {
    let map = ShardMap::new(bench_groups());
    let mut stores: Vec<RcStore> = (0..SHARDS).map(|g| RcStore::new(g as u64 + 1)).collect();

    // Phase 1: register every name through the ring.
    let t0 = Instant::now();
    for i in 0..names {
        let uri = Uri::parse(bench_name(i)).expect("bench names are valid URIs");
        let shard = map.shard_of(uri.as_str());
        stores[shard].put(&uri, Assertion::new("loc", format!("host{}", i % 64)), i as u64);
    }
    let register_secs = t0.elapsed().as_secs_f64();

    let counts: Vec<usize> = stores.iter().map(|s| s.uri_count()).collect();
    let shard_min = counts.iter().copied().min().unwrap_or(0);
    let shard_max = counts.iter().copied().max().unwrap_or(0);

    // Phase 2: resolve a pseudo-random sample through the ring.
    let mut resolve_h = Log2Histogram::default();
    let mut client_h = Log2Histogram::default();

    let mut idx = 0x9e37_79b9_7f4a_7c15u64;
    let sample: Vec<Uri> = (0..LOOKUPS)
        .map(|_| {
            idx = idx.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Uri::parse(bench_name((idx >> 11) as usize % names)).expect("valid")
        })
        .collect();
    let t1 = Instant::now();
    for uri in &sample {
        let t = Instant::now();
        let shard = map.shard_of(uri.as_str());
        let got = stores[shard].get(uri);
        resolve_h.observe(t.elapsed().as_nanos() as u64);
        assert!(!got.is_empty(), "registered name must resolve: {uri}");
    }
    let resolve_secs = t1.elapsed().as_secs_f64();

    // Phase 3: the client path — first round misses and fills the TTL
    // cache (replica replies are synthesized inline from the owning
    // store), second round is served from cache without touching the
    // "wire".
    let mut client = RcClient::new(bench_groups().concat(), SimDuration::from_millis(250))
        .with_shard_map(map.clone())
        .with_cache_ttl(SimDuration::from_secs(120));
    // Distinct names only (7 is coprime with the modulus range in
    // practice; clamp to `names` so small runs stay duplicate-free).
    let hot: Vec<Uri> = (0..HOT.min(names))
        .map(|i| Uri::parse(bench_name(i * 7 % names)).expect("valid"))
        .collect();
    let mut vnow = SimTime::from_nanos(0);
    let t2 = Instant::now();
    let mut client_lookups = 0usize;
    for _round in 0..2 {
        for uri in &hot {
            let t = Instant::now();
            client.get(vnow, uri);
            for (to, bytes) in client.drain_sends() {
                let Ok(RcMsg::Request { id, op: snipe_rcds::proto::RcOp::Get(u) }) =
                    RcMsg::decode_from_bytes(bytes)
                else {
                    panic!("client sent a non-Get request in the cache phase");
                };
                let target = Uri::parse(u).expect("valid");
                let shard = map.shard_of(target.as_str());
                let resp = RcMsg::Response {
                    id,
                    ok: true,
                    assertions: stores[shard].get(&target),
                    uris: vec![],
                };
                client.on_packet(vnow, to, resp.encode_to_bytes());
            }
            client.drain_done();
            client_h.observe(t.elapsed().as_nanos() as u64);
            client_lookups += 1;
            vnow += SimDuration::from_micros(1);
        }
    }
    let client_secs = t2.elapsed().as_secs_f64();

    RcdsBenchReport {
        names,
        shards: SHARDS,
        register_per_sec: names as f64 / register_secs.max(1e-9),
        shard_min,
        shard_max,
        lookups: LOOKUPS,
        resolve_per_sec: LOOKUPS as f64 / resolve_secs.max(1e-9),
        p50_ns: resolve_h.quantile_bound(0.50),
        p99_ns: resolve_h.quantile_bound(0.99),
        client_lookups,
        client_per_sec: client_lookups as f64 / client_secs.max(1e-9),
        client_p50_ns: client_h.quantile_bound(0.50),
        client_p99_ns: client_h.quantile_bound(0.99),
        cache_hits: client.stats().cache_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down run keeps the full pipeline honest in CI; the
    /// 1M-name gate runs via `harness rcds` in scripts/check.sh.
    #[test]
    fn small_run_resolves_and_caches() {
        let r = run(5_000);
        assert_eq!(r.names, 5_000);
        assert!(r.shard_min > 0, "every shard group should own names");
        assert!(r.p99_ns > 0);
        // Second hot round must be pure cache hits.
        assert_eq!(r.cache_hits as usize, HOT.min(5_000));
        assert!(r.client_per_sec > 0.0);
    }
}
