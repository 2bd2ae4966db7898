//! The sans-IO RC client with replica failover.
//!
//! Every SNIPE component embeds one of these to read and publish
//! metadata. Requests go to the preferred replica; on timeout a request
//! retries at the replica after the one it last tried, walking the
//! list on its own, and the replica that answers becomes the preferred
//! one. That failover is what made
//! the paper's testbed observe "an almost perfect level of
//! availability" (§6) — reproduced as experiment E3.
//!
//! At scale the client grows two more layers:
//! a [`ShardMap`] routes each operation to the replica group owning
//! the URI's shard, and an optional TTL lookup cache absorbs repeated
//! Gets, invalidated locally on every write the client itself issues
//! and forgotten once its TTL has passed.
//! Requests live in a [`Requests`] table, so replies are matched to the
//! replica actually queried — a late reply from a replica we have
//! already failed away from is dropped and counted, never surfaced as a
//! completion — and a retry keeps its request id.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::requests::{RequestStats, Requests};
use snipe_util::time::{SimDuration, SimTime};

use crate::assertion::Assertion;
use crate::proto::{RcMsg, RcOp};
use crate::shard::ShardMap;
use crate::uri::Uri;

/// The request timeout of every SNIPE component's RC client: a replica
/// silent this long is retried, then failed over.
pub const RC_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// Sends of one RC request before it fails as unavailable.
const MAX_ATTEMPTS: u32 = 6;

/// The payload of a completed RC operation.
#[derive(Clone, Debug, PartialEq)]
pub struct RcReply {
    /// Assertions returned (Get/Put).
    pub assertions: Vec<Assertion>,
    /// URIs returned (Find).
    pub uris: Vec<String>,
}

/// A completed request: (request id, outcome).
pub type Completion = (u64, SnipeResult<RcReply>);

/// Drop/cache counters, mirroring the `wire` stack's style of counted
/// (never silent) discards. The reply counters are the request table's
/// ([`RcClient::request_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RcClientStats {
    /// Datagrams that failed to decode as RC messages.
    pub decode_drops: u64,
    /// Responses whose id matched no outstanding request (duplicates,
    /// or replies landing after the request gave up).
    pub stale_replies: u64,
    /// Responses for a live request but from a replica other than the
    /// one currently queried — dropped, the request stays pending.
    pub mismatched_replies: u64,
    /// Gets served from the local TTL cache without touching the wire.
    pub cache_hits: u64,
    /// Gets that missed the cache (only counted when caching is on).
    pub cache_misses: u64,
    /// Live cache entries discarded because this client wrote the URI.
    pub cache_invalidations: u64,
}

struct Pending {
    op: RcOp,
    /// The replica index this request is at: the preferred one when it
    /// was issued, plus one per retry.
    cursor: usize,
}

struct CacheEntry {
    assertions: Vec<Assertion>,
    expires: SimTime,
}

/// The client state machine.
pub struct RcClient {
    replicas: Vec<Endpoint>,
    shard_map: Option<ShardMap>,
    preferred: usize,
    next_id: u64,
    /// Outstanding requests by id, each targeting the replica it was
    /// last sent to (`None` if no replica was known).
    pending: Requests<Option<Endpoint>, Pending>,
    sends: Vec<(Endpoint, Bytes)>,
    done: Vec<Completion>,
    cache_ttl: Option<SimDuration>,
    cache: HashMap<String, CacheEntry>,
    /// Every cache fill as `(expires, uri)`, oldest first. The TTL is
    /// one constant, so this is also expiry order: the front is the
    /// next entry to forget.
    cache_fills: VecDeque<(SimTime, String)>,
    stats: RcClientStats,
}

impl RcClient {
    /// A client talking to the given replicas.
    pub fn new(replicas: Vec<Endpoint>, timeout: SimDuration) -> RcClient {
        RcClient {
            replicas,
            shard_map: None,
            preferred: 0,
            next_id: 1,
            pending: Requests::new(timeout, MAX_ATTEMPTS),
            sends: Vec::new(),
            done: Vec::new(),
            cache_ttl: None,
            cache: HashMap::new(),
            cache_fills: VecDeque::new(),
            stats: RcClientStats::default(),
        }
    }

    /// Route per-URI operations through a shard map instead of the flat
    /// replica list. `Find` (a namespace-wide scan) and operations on
    /// an empty group still fall back to the flat list.
    pub fn with_shard_map(mut self, map: ShardMap) -> RcClient {
        self.shard_map = Some(map);
        self
    }

    /// Serve repeated `get`s of a URI from a local cache for `ttl`
    /// after each fetched reply; the client's own writes invalidate.
    pub fn with_cache_ttl(mut self, ttl: SimDuration) -> RcClient {
        self.cache_ttl = Some(ttl);
        self
    }

    /// Known replica endpoints (the flat fallback list).
    pub fn replicas(&self) -> &[Endpoint] {
        &self.replicas
    }

    /// Drop/cache counters.
    pub fn stats(&self) -> RcClientStats {
        let r = self.pending.stats();
        RcClientStats { stale_replies: r.stale, mismatched_replies: r.mismatched, ..self.stats }
    }

    /// The request table's retry, reply and give-up counters.
    pub fn request_stats(&self) -> RequestStats {
        self.pending.stats()
    }

    /// The replica an op routes to at `cursor`: the owning shard group
    /// under a shard map (URI-addressed ops only), else the flat list,
    /// indexed by the cursor modulo its length.
    fn route(&self, op: &RcOp, cursor: usize) -> Option<Endpoint> {
        if let Some(map) = &self.shard_map {
            let uri = match op {
                RcOp::Get(u) | RcOp::Put(u, _) | RcOp::Delete(u, _) => Some(u.as_str()),
                RcOp::Find(..) => None,
            };
            if let Some(u) = uri {
                let group = map.group_for(u);
                if !group.is_empty() {
                    return Some(group[cursor % group.len()]);
                }
            }
        }
        if self.replicas.is_empty() {
            return None;
        }
        Some(self.replicas[cursor % self.replicas.len()])
    }

    fn issue(&mut self, now: SimTime, op: RcOp) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let cursor = self.preferred;
        let target = self.route(&op, cursor);
        transmit(&mut self.sends, id, &op, target);
        self.pending.send(now, id, target, Pending { op, cursor });
        id
    }

    /// Fetch assertions for a URI. Returns the request id. With caching
    /// enabled a fresh cache entry completes immediately (the id shows
    /// up in [`RcClient::drain_done`] without any wire traffic).
    pub fn get(&mut self, now: SimTime, uri: &Uri) -> u64 {
        if self.cache_ttl.is_some() {
            if let Some(e) = self.cache.get(uri.as_str()) {
                if e.expires > now {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.stats.cache_hits += 1;
                    self.done
                        .push((id, Ok(RcReply { assertions: e.assertions.clone(), uris: vec![] })));
                    return id;
                }
            }
            self.stats.cache_misses += 1;
        }
        self.issue(now, RcOp::Get(uri.as_str().to_string()))
    }

    /// Publish assertions about a URI.
    pub fn put(&mut self, now: SimTime, uri: &Uri, assertions: Vec<Assertion>) -> u64 {
        self.invalidate(now, uri.as_str());
        self.issue(now, RcOp::Put(uri.as_str().to_string(), assertions))
    }

    /// Tombstone one attribute.
    pub fn delete(&mut self, now: SimTime, uri: &Uri, name: &str) -> u64 {
        self.invalidate(now, uri.as_str());
        self.issue(now, RcOp::Delete(uri.as_str().to_string(), name.to_string()))
    }

    /// Find URIs by exact attribute match.
    pub fn find(&mut self, now: SimTime, name: &str, value: &str) -> u64 {
        self.issue(now, RcOp::Find(name.to_string(), value.to_string()))
    }

    fn invalidate(&mut self, now: SimTime, uri: &str) {
        if self.cache.remove(uri).is_some_and(|e| e.expires > now) {
            self.stats.cache_invalidations += 1;
        }
    }

    /// Forget every cache entry whose TTL has passed. A URI refilled
    /// since its fill was queued keeps its later entry.
    fn expire(&mut self, now: SimTime) {
        while self.cache_fills.front().is_some_and(|(expires, _)| *expires <= now) {
            let (_, uri) = self.cache_fills.pop_front().expect("front checked");
            if self.cache.get(&uri).is_some_and(|e| e.expires <= now) {
                self.cache.remove(&uri);
            }
        }
    }

    /// Feed a raw datagram payload that arrived on our port. Garbage,
    /// unknown-id and wrong-replica messages are dropped and counted.
    pub fn on_packet(&mut self, now: SimTime, from: Endpoint, body: Bytes) {
        let Ok(msg) = RcMsg::decode_from_bytes(body) else {
            self.stats.decode_drops += 1;
            return;
        };
        let RcMsg::Response { id, ok, assertions, uris } = msg else {
            // Valid RC traffic that isn't a response (sync chatter
            // misdelivered to a client port).
            self.stats.decode_drops += 1;
            return;
        };
        // A replica we already failed away from may finally answer: the
        // live retry owns this ticket now, and surfacing that copy could
        // complete a Get with data older than the failover target's, so
        // the table drops it (the regression test below pins this).
        let Some(p) = self.pending.on_reply(id, &Some(from)).map(|r| r.value) else {
            return;
        };
        self.preferred = p.cursor;
        let result = if ok {
            if let (Some(ttl), RcOp::Get(uri)) = (self.cache_ttl, p.op) {
                self.expire(now);
                let expires = now + ttl;
                self.cache_fills.push_back((expires, uri.clone()));
                self.cache.insert(uri, CacheEntry { assertions: assertions.clone(), expires });
            }
            Ok(RcReply { assertions, uris })
        } else {
            Err(SnipeError::Invalid("server rejected request".into()))
        };
        self.done.push((id, result));
    }

    /// Retry / fail over requests whose deadline passed, each at the
    /// replica after the one it last tried, in request-id order.
    pub fn on_timer(&mut self, now: SimTime) {
        for (id, mut req) in self.pending.take_due(now) {
            req.value.cursor += 1;
            let target = self.route(&req.value.op, req.value.cursor);
            match self.pending.retry(now, id, target, req) {
                Ok(p) => transmit(&mut self.sends, id, &p.op, target),
                Err(req) => {
                    let n = req.attempts;
                    let err =
                        SnipeError::Unavailable(format!("RC request gave up after {n} attempts"));
                    self.done.push((id, Err(err)));
                }
            }
        }
    }

    /// Earliest wanted wake-up.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.next_deadline()
    }

    /// Datagrams to transmit (payloads for `WireStack::send_raw` /
    /// direct `ctx.send` after Raw-sealing).
    pub fn drain_sends(&mut self) -> Vec<(Endpoint, Bytes)> {
        std::mem::take(&mut self.sends)
    }

    /// Completed operations.
    pub fn drain_done(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.done)
    }
}

/// Queue request `id` for `target`, if there is one.
fn transmit(sends: &mut Vec<(Endpoint, Bytes)>, id: u64, op: &RcOp, target: Option<Endpoint>) {
    if let Some(to) = target {
        sends.push((to, RcMsg::Request { id, op: op.clone() }.encode_to_bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

    fn ep(h: u32) -> Endpoint {
        Endpoint::new(HostId(h), 2)
    }

    fn reply(id: u64) -> Bytes {
        RcMsg::Response { id, ok: true, assertions: vec![], uris: vec![] }.encode_to_bytes()
    }

    fn reply_with(id: u64, assertions: Vec<Assertion>) -> Bytes {
        RcMsg::Response { id, ok: true, assertions, uris: vec![] }.encode_to_bytes()
    }

    #[test]
    fn request_reply_cycle() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100));
        let id = c.get(SimTime::ZERO, &Uri::process(1));
        let sends = c.drain_sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, ep(1));
        c.on_packet(SimTime::ZERO, ep(1), reply(id));
        let done = c.drain_done();
        assert_eq!(done.len(), 1);
        assert!(done[0].1.is_ok());
        assert!(c.next_deadline().is_none(), "nothing left pending");
    }

    /// The no-spin contract: with no replica answering, each retry
    /// fired at exactly `next_deadline()` leaves a later deadline, until
    /// the requests give up and none is left.
    #[test]
    fn woken_at_its_deadline_it_leaves_a_later_one() {
        let mut c = RcClient::new(vec![ep(1), ep(2)], SimDuration::from_millis(100));
        for i in 0..3 {
            c.get(SimTime::ZERO + SimDuration::from_millis(i * 30), &Uri::process(i));
        }
        let mut fired = 0;
        while let Some(now) = c.next_deadline() {
            c.on_timer(now);
            fired += 1;
            let left = c.next_deadline();
            assert!(left.is_none_or(|d| d > now), "woken at {now}, left {left:?}");
        }
        assert_eq!(c.drain_done().len(), 3, "every request gave up");
        assert!(fired >= 6, "only {fired} firings");
    }

    /// Two requests to `[a, b, c]` both time out on `a`: both retry at
    /// `b`, whatever their order. Once `b` answers, a new request starts
    /// there. (A shared cursor rotated per retry sent the second retry
    /// to `c`, and the next request after it.)
    #[test]
    fn each_request_fails_over_from_its_own_replica() {
        let mut c = RcClient::new(vec![ep(1), ep(2), ep(3)], SimDuration::from_millis(100));
        let first = c.get(SimTime::ZERO, &Uri::process(1));
        c.get(SimTime::ZERO, &Uri::process(2));
        assert!(c.drain_sends().iter().all(|(to, _)| *to == ep(1)));
        c.on_timer(SimTime::ZERO + SimDuration::from_millis(100));
        let to: Vec<Endpoint> = c.drain_sends().into_iter().map(|(to, _)| to).collect();
        assert_eq!(to, [ep(2), ep(2)], "both retries go to the replica after a");
        c.on_packet(SimTime::ZERO + SimDuration::from_millis(110), ep(2), reply(first));
        c.get(SimTime::ZERO + SimDuration::from_millis(120), &Uri::process(3));
        assert_eq!(c.drain_sends()[0].0, ep(2), "the replica that answered is preferred");
    }

    #[test]
    fn timeout_fails_over_to_next_replica() {
        let mut c = RcClient::new(vec![ep(1), ep(2)], SimDuration::from_millis(100));
        let _id = c.get(SimTime::ZERO, &Uri::process(1));
        assert_eq!(c.drain_sends()[0].0, ep(1));
        c.on_timer(SimTime::ZERO + SimDuration::from_millis(150));
        let sends = c.drain_sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, ep(2), "retry must target the next replica");
    }

    /// When several requests expire in one tick they retry in
    /// request-id order (a replayable function of the seed), never
    /// `HashMap` iteration order, and each at the replica after the one
    /// it timed out on.
    #[test]
    fn simultaneous_expiries_retry_in_id_order() {
        let mut c = RcClient::new(vec![ep(1), ep(2), ep(3)], SimDuration::from_millis(100));
        let ids: Vec<u64> = (0..5).map(|i| c.get(SimTime::ZERO, &Uri::process(i))).collect();
        assert!(c.drain_sends().iter().all(|(to, _)| *to == ep(1)));
        c.on_timer(SimTime::ZERO + SimDuration::from_millis(150));
        let retries: Vec<(u64, Endpoint)> = c
            .drain_sends()
            .into_iter()
            .map(|(to, bytes)| match RcMsg::decode_from_bytes(bytes) {
                Ok(RcMsg::Request { id, .. }) => (id, to),
                other => panic!("retry is not a request: {other:?}"),
            })
            .collect();
        let want: Vec<(u64, Endpoint)> = ids.iter().map(|&id| (id, ep(2))).collect();
        assert_eq!(retries, want);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(10));
        let id = c.get(SimTime::ZERO, &Uri::process(1));
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(20);
            c.on_timer(now);
            c.drain_sends();
        }
        let done = c.drain_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        assert_eq!(done[0].1.as_ref().unwrap_err().kind(), "unavailable");
        let s = c.request_stats();
        assert_eq!((s.retries, s.gave_up), (u64::from(MAX_ATTEMPTS) - 1, 1));
    }

    #[test]
    fn late_duplicate_response_ignored() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100));
        let id = c.get(SimTime::ZERO, &Uri::process(1));
        c.on_packet(SimTime::ZERO, ep(1), reply(id));
        c.on_packet(SimTime::ZERO, ep(1), reply(id));
        assert_eq!(c.drain_done().len(), 1);
        assert_eq!(c.stats().stale_replies, 1);
    }

    #[test]
    fn unknown_or_garbage_packets_ignored() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100));
        c.on_packet(SimTime::ZERO, ep(1), Bytes::from_static(b"garbage"));
        c.on_packet(SimTime::ZERO, ep(1), reply(999));
        assert!(c.drain_done().is_empty());
        assert_eq!(c.stats().decode_drops, 1);
        assert_eq!(c.stats().stale_replies, 1);
    }

    #[test]
    fn deadline_reporting() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100));
        assert!(c.next_deadline().is_none());
        c.get(SimTime::ZERO, &Uri::process(1));
        assert_eq!(c.next_deadline(), Some(SimTime::ZERO + SimDuration::from_millis(100)));
    }

    /// The satellite-1 regression: a reply from the *original* replica
    /// arriving after the client failed over to another must be
    /// dropped (counted), and the completion must come from the replica
    /// actually queried.
    #[test]
    fn late_reply_after_failover_is_dropped() {
        let mut c = RcClient::new(vec![ep(1), ep(2)], SimDuration::from_millis(100));
        let id = c.get(SimTime::ZERO, &Uri::process(1));
        assert_eq!(c.drain_sends()[0].0, ep(1));
        // Deadline passes; the retry goes to replica 2.
        c.on_timer(SimTime::ZERO + SimDuration::from_millis(150));
        assert_eq!(c.drain_sends()[0].0, ep(2));
        // Replica 1's answer limps in late: dropped, request stays live.
        let a1 = vec![Assertion::new("v", "old")];
        c.on_packet(SimTime::ZERO + SimDuration::from_millis(160), ep(1), reply_with(id, a1));
        assert!(c.drain_done().is_empty(), "stale replica must not complete the request");
        assert!(c.next_deadline().is_some(), "the request stays pending");
        assert_eq!(c.stats().mismatched_replies, 1);
        // The queried replica answers: that is the completion.
        let a2 = vec![Assertion::new("v", "new")];
        c.on_packet(SimTime::ZERO + SimDuration::from_millis(170), ep(2), reply_with(id, a2));
        let done = c.drain_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.as_ref().unwrap().assertions[0].value, "new");
        assert!(c.next_deadline().is_none(), "nothing left pending");
    }

    #[test]
    fn cache_serves_repeated_gets_within_ttl() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100))
            .with_cache_ttl(SimDuration::from_secs(5));
        let uri = Uri::process(9);
        let id = c.get(SimTime::ZERO, &uri);
        assert_eq!(c.drain_sends().len(), 1);
        c.on_packet(SimTime::ZERO, ep(1), reply_with(id, vec![Assertion::new("k", "v")]));
        c.drain_done();
        // Second get: no wire traffic, immediate completion.
        let id2 = c.get(SimTime::ZERO + SimDuration::from_millis(10), &uri);
        assert!(c.drain_sends().is_empty(), "cache hit must not transmit");
        let done = c.drain_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id2);
        assert_eq!(done[0].1.as_ref().unwrap().assertions[0].value, "v");
        assert_eq!(c.stats().cache_hits, 1);
        // Past the TTL the next get goes back to the wire.
        let _id3 = c.get(SimTime::ZERO + SimDuration::from_secs(6), &uri);
        assert_eq!(c.drain_sends().len(), 1);
        assert_eq!(c.stats().cache_misses, 2);
    }

    #[test]
    fn writes_invalidate_the_cache() {
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100))
            .with_cache_ttl(SimDuration::from_secs(5));
        let uri = Uri::process(9);
        let id = c.get(SimTime::ZERO, &uri);
        c.on_packet(SimTime::ZERO, ep(1), reply_with(id, vec![Assertion::new("k", "v")]));
        c.drain_done();
        c.put(SimTime::ZERO, &uri, vec![Assertion::new("k", "v2")]);
        assert_eq!(c.stats().cache_invalidations, 1);
        // The next get must go to the wire, not the stale cache.
        c.drain_sends();
        let _ = c.get(SimTime::ZERO + SimDuration::from_millis(1), &uri);
        assert_eq!(c.drain_sends().len(), 1);
    }

    /// The cache forgets what its TTL has passed: a client that cycles
    /// through many names holds only the entries filled within the last
    /// TTL, not one per name it ever read.
    #[test]
    fn cache_holds_only_entries_younger_than_the_ttl() {
        let ttl = SimDuration::from_millis(2);
        let mut c = RcClient::new(vec![ep(1)], SimDuration::from_millis(100)).with_cache_ttl(ttl);
        let fill = |c: &mut RcClient, now: SimTime, uri: &Uri| {
            let id = c.get(now, uri);
            c.drain_sends();
            c.on_packet(now, ep(1), reply_with(id, vec![Assertion::new("k", "v")]));
            c.drain_done();
        };
        let step = SimDuration::from_micros(100);
        let mut now = SimTime::ZERO;
        for i in 0..1_000u64 {
            fill(&mut c, now, &Uri::process(i));
            assert!(c.cache.len() <= 21, "{} entries cached at fill {i}", c.cache.len());
            assert!(c.cache_fills.len() <= 21, "{} fills queued at fill {i}", c.cache_fills.len());
            now += step;
        }
        assert_eq!(c.stats().cache_misses, 1_000);
        // A URI refilled after its own write outlives its first fill.
        let uri = Uri::process(7);
        fill(&mut c, now, &uri);
        c.put(now + step, &uri, vec![Assertion::new("k", "v2")]);
        fill(&mut c, now + step, &uri);
        // Past the first fill's expiry, another fill runs the expiry.
        let later = now + ttl + SimDuration::from_micros(50);
        fill(&mut c, later, &Uri::process(5_000));
        let hit = c.get(later, &uri);
        assert!(c.drain_sends().is_empty(), "the refilled entry must survive the first expiry");
        assert_eq!(c.drain_done().last().map(|d| d.0), Some(hit));
    }

    #[test]
    fn shard_map_routes_to_owning_group() {
        use crate::shard::ShardMap;
        let g0 = vec![ep(10), ep(11)];
        let g1 = vec![ep(20), ep(21)];
        let map = ShardMap::new(vec![g0.clone(), g1.clone()]);
        let mut c = RcClient::new(vec![ep(10), ep(20)], SimDuration::from_millis(100))
            .with_shard_map(map.clone());
        for i in 0..20u64 {
            let uri = Uri::process(i);
            c.get(SimTime::ZERO, &uri);
            let sends = c.drain_sends();
            let owner = map.shard_of(uri.as_str());
            let group: &[Endpoint] = if owner == 0 { &g0 } else { &g1 };
            assert!(
                group.contains(&sends[0].0),
                "uri {uri:?} (shard {owner}) routed to {:?}",
                sends[0].0
            );
        }
    }
}
