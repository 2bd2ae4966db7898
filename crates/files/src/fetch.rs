//! Striped, performance-aware file reads.
//!
//! A large file read does not have to come from one replica: the RC
//! catalog names several holders, and SRUDP already keeps a smoothed
//! RTT per peer for its retransmission timer. This module reuses those
//! measurements to *rank* replicas and then stripes the
//! transfer across the best few — each stripe is fetched with its own
//! integrity hash, verified independently, and re-dispatched to the
//! next-best replica if it times out, fails, or arrives corrupt. Stripe
//! requests live in a [`Requests`] table, each attempt under a fresh id.
//!
//! [`StripedFetch`] is the sans-IO state machine (fully unit-testable);
//! [`FetchActor`] wraps it with a [`WireStack`] as a simulator actor.

use bytes::Bytes;

use snipe_crypto::sha256::sha256;
use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::requests::{Request, RequestStats, Requests};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::host::StackHost;
use snipe_wire::stack::{endpoint_key, StackConfig, WireStack};

use crate::proto::FileMsg;

/// The score a replica with no measured round trip ranks at, in
/// seconds: SRUDP's default initial RTO, so an untried replica ranks
/// behind a fast measured one and ahead of a slow one.
const UNMEASURED_RTT_SCORE: f64 = 0.100;

/// Order replica candidates by measured path quality: lowest
/// [`WireStack::peer_score`] (smoothed RTT) first, unmeasured peers at
/// `UNMEASURED_RTT_SCORE`, ties broken by endpoint so the ranking is
/// deterministic.
pub fn rank_replicas(stack: &WireStack, candidates: &[Endpoint]) -> Vec<Endpoint> {
    let mut ranked: Vec<(f64, Endpoint)> = candidates
        .iter()
        .map(|&ep| (stack.peer_score(endpoint_key(ep)).unwrap_or(UNMEASURED_RTT_SCORE), ep))
        .collect();
    ranked.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1.host.0, a.1.port).cmp(&(b.1.host.0, b.1.port)))
    });
    ranked.into_iter().map(|(_, ep)| ep).collect()
}

/// Counters a striped fetch accumulates (diagnostics and oracles). The
/// reply counters are the request table's ([`StripedFetch::request_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Stripe requests sent (including re-dispatches).
    pub requests_sent: u64,
    /// Stripes completed and verified.
    pub stripes_completed: u64,
    /// Stripe requests that timed out and were re-dispatched.
    pub timeouts: u64,
    /// Stripes rejected for hash/offset/length mismatch.
    pub integrity_rejects: u64,
    /// Replies from a replica other than the one queried.
    pub mismatched_replies: u64,
    /// Replies for requests no longer pending.
    pub stale_replies: u64,
    /// Explicit `ok = false` replies (replica lacks the file).
    pub failed_replies: u64,
}

struct Slot {
    offset: u32,
    len: u32,
    data: Option<Bytes>,
    next_replica: usize,
}

/// Cap on per-stripe dispatch attempts. Generous because chaos runs
/// re-dispatch through long partitions; the cap only exists to bound a
/// fetch whose replicas are all permanently gone.
const MAX_ATTEMPTS: u32 = 200;

/// Sans-IO striped fetch: drives stripe requests against a ranked
/// replica list, verifies every stripe, re-dispatches stragglers.
pub struct StripedFetch {
    lifn: String,
    replicas: Vec<Endpoint>,
    stripe_len: u32,
    next_id: u64,
    total_len: Option<u32>,
    slots: Vec<Slot>,
    /// Stripe requests on the wire by request id, each valued with its
    /// slot and due for re-dispatch at its deadline.
    pending: Requests<Endpoint, usize>,
    outbox: Vec<(Endpoint, FileMsg)>,
    /// Stripe indices in completion order — the exactly-once oracle
    /// checks this log (sorted) for loss and duplication.
    pub completions: Vec<u32>,
    result: Option<Bytes>,
    failed: bool,
    stats: FetchStats,
}

impl StripedFetch {
    /// A fetch of `lifn` striped over `replicas` (best first).
    pub fn new(
        lifn: impl Into<String>,
        replicas: Vec<Endpoint>,
        stripe_len: u32,
        timeout: SimDuration,
    ) -> StripedFetch {
        assert!(!replicas.is_empty(), "striped fetch needs at least one replica");
        assert!(stripe_len > 0, "stripe length must be positive");
        StripedFetch {
            lifn: lifn.into(),
            replicas,
            stripe_len,
            next_id: 1,
            total_len: None,
            slots: Vec::new(),
            pending: Requests::new(timeout, MAX_ATTEMPTS),
            outbox: Vec::new(),
            completions: Vec::new(),
            result: None,
            failed: false,
            stats: FetchStats::default(),
        }
    }

    /// Re-order the replica preference list (e.g. after fresh RTT
    /// measurements). Indices held by in-flight slots keep rotating
    /// over the new order.
    pub fn rank_hint(&mut self, ranked: Vec<Endpoint>) {
        if !ranked.is_empty() {
            self.replicas = ranked;
        }
    }

    /// The assembled, verified content once every stripe landed.
    pub fn result(&self) -> Option<&Bytes> {
        self.result.as_ref()
    }

    /// Counters.
    pub fn stats(&self) -> FetchStats {
        let r = self.pending.stats();
        FetchStats { stale_replies: r.stale, mismatched_replies: r.mismatched, ..self.stats }
    }

    /// The request table's retry, reply and give-up counters.
    pub fn request_stats(&self) -> RequestStats {
        self.pending.stats()
    }

    /// Did the fetch give up (a stripe exhausted its attempts)?
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Finished, one way or the other?
    pub fn done(&self) -> bool {
        self.result.is_some() || self.failed
    }

    /// Requests to put on the wire (reliable path).
    pub fn drain_outbox(&mut self) -> Vec<(Endpoint, FileMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Earliest pending-stripe deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.next_deadline()
    }

    /// Kick off the fetch: stripe 0 goes to the best replica; its
    /// reply carries the total length that shapes the fan-out.
    pub fn start(&mut self, now: SimTime) {
        if !self.slots.is_empty() {
            return;
        }
        self.slots.push(Slot { offset: 0, len: self.stripe_len, data: None, next_replica: 0 });
        self.dispatch(now, 0, None);
    }

    /// Send stripe `slot_idx` to its next replica under a fresh id: its
    /// first attempt, or another of `prev`. A stripe out of attempts
    /// fails the fetch.
    fn dispatch(&mut self, now: SimTime, slot_idx: usize, prev: Option<Request<Endpoint, usize>>) {
        let n = self.replicas.len();
        let slot = &mut self.slots[slot_idx];
        let target = self.replicas[slot.next_replica % n];
        let req_id = self.next_id;
        match prev {
            None => self.pending.send(now, req_id, target, slot_idx),
            Some(req) => {
                if self.pending.retry(now, req_id, target, req).is_err() {
                    self.failed = true;
                    return;
                }
            }
        }
        slot.next_replica = (slot.next_replica + 1) % n;
        self.next_id += 1;
        let (offset, len) = (slot.offset, slot.len);
        self.outbox
            .push((target, FileMsg::ReadStripe { req_id, lifn: self.lifn.clone(), offset, len }));
        self.stats.requests_sent += 1;
    }

    /// Re-dispatch every stripe whose request passed its deadline, in
    /// request-id order (each re-dispatch draws the next id). The stale
    /// request stays forgotten: a late reply counts as stale.
    pub fn on_timer(&mut self, now: SimTime) {
        for (_, req) in self.pending.take_due(now) {
            self.stats.timeouts += 1;
            if !self.failed {
                self.dispatch(now, req.value, Some(req));
            }
        }
    }

    /// Feed a reply from the wire. Non-stripe messages are ignored.
    pub fn on_msg(&mut self, now: SimTime, from: Endpoint, msg: FileMsg) {
        let FileMsg::StripeData { req_id, ok, offset, total_len, data, hash } = msg else {
            return;
        };
        // Only the replica queried may answer a ticket: the table drops
        // a forged or misrouted reply and keeps waiting for the real one.
        let Some(req) = self.pending.on_reply(req_id, &from) else {
            return;
        };
        let slot_idx = req.value;
        if !ok {
            self.stats.failed_replies += 1;
            return self.dispatch(now, slot_idx, Some(req));
        }
        // Verify before trusting: echoed offset, per-stripe hash, and
        // a length consistent with the (agreed) total.
        let slot_offset = self.slots[slot_idx].offset;
        let computed = sha256(&data);
        let total = self.total_len.unwrap_or(total_len);
        let expected_len = total.saturating_sub(slot_offset).min(self.stripe_len) as usize;
        if offset != slot_offset
            || computed[..] != hash[..]
            || total_len != total
            || data.len() != expected_len
        {
            self.stats.integrity_rejects += 1;
            return self.dispatch(now, slot_idx, Some(req));
        }
        let first = self.total_len.is_none();
        self.total_len = Some(total);
        self.slots[slot_idx].data = Some(data);
        self.completions.push(slot_idx as u32);
        self.stats.stripes_completed += 1;
        if first {
            self.fan_out(now, total);
        }
        if self.slots.iter().all(|s| s.data.is_some()) {
            let mut out = Vec::with_capacity(total as usize);
            for s in &self.slots {
                out.extend_from_slice(s.data.as_ref().expect("all complete"));
            }
            self.result = Some(Bytes::from(out));
        }
    }

    /// First stripe told us the file size: create the remaining slots
    /// and spray them round-robin over the ranked replicas.
    fn fan_out(&mut self, now: SimTime, total: u32) {
        let n_slots = if total == 0 { 1 } else { total.div_ceil(self.stripe_len) as usize };
        let n_replicas = self.replicas.len();
        for i in 1..n_slots {
            self.slots.push(Slot {
                offset: i as u32 * self.stripe_len,
                len: self.stripe_len,
                data: None,
                next_replica: i % n_replicas,
            });
        }
        for i in 1..n_slots {
            self.dispatch(now, i, None);
        }
    }
}

/// How long a [`FetchActor`] waits on one stripe request before it
/// re-dispatches the stripe.
const STRIPE_TIMEOUT: SimDuration = SimDuration::from_millis(400);

/// Actor that runs one [`StripedFetch`] over a [`WireStack`]. It stays
/// alive after completion so harnesses can read the result back via
/// `actor_ref`.
pub struct FetchActor {
    lifn: String,
    candidates: Vec<Endpoint>,
    start_after: SimDuration,
    /// When the fetch begins, until it has.
    begin_at: Option<SimTime>,
    stripe_len: u32,
    fetch: Option<StripedFetch>,
    stack: StackHost,
    // benchmark/ compat: the frozen `campus` probe reads these three
    // copies of the fetch's state; everything else reads `fetch()`.
    /// Assembled content once every stripe verified.
    pub result: Option<Bytes>,
    /// Counters snapshot.
    pub stats: FetchStats,
    /// Fetch gave up.
    pub failed: bool,
}

impl FetchActor {
    /// Fetch `lifn` from `candidates`, starting `start_after` into the
    /// run (gives the catalog time to settle in chaos scenarios).
    pub fn new(
        lifn: impl Into<String>,
        candidates: Vec<Endpoint>,
        stripe_len: u32,
        start_after: SimDuration,
    ) -> FetchActor {
        FetchActor {
            lifn: lifn.into(),
            candidates,
            start_after,
            begin_at: None,
            stripe_len,
            fetch: None,
            stack: StackHost::new(),
            result: None,
            stats: FetchStats::default(),
            failed: false,
        }
    }

    /// The fetch, once it has begun.
    pub fn fetch(&self) -> Option<&StripedFetch> {
        self.fetch.as_ref()
    }

    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        let now = ctx.now();
        // Requests go down, replies come up and may release more
        // requests: go round until a pass moves nothing.
        loop {
            let (Some(stack), Some(fetch)) = (self.stack.as_mut(), self.fetch.as_mut()) else {
                return;
            };
            fetch.rank_hint(rank_replicas(stack, &self.candidates));
            let sends = fetch.drain_outbox();
            let had_sends = !sends.is_empty();
            for (to, msg) in sends {
                stack
                    .send(now, endpoint_key(to), msg.encode_to_bytes())
                    .expect("stripe request fits default frag");
            }
            let delivered = self.stack.flush(ctx);
            if !had_sends && delivered.is_empty() {
                break;
            }
            for d in delivered {
                if let Ok(m) = FileMsg::decode_from_bytes(d.msg) {
                    fetch.on_msg(now, d.from_ep, m);
                }
            }
        }
        if let Some(fetch) = self.fetch.as_ref() {
            // Refresh the copies the frozen benchmark reads.
            self.stats = fetch.stats();
            self.failed = fetch.is_failed();
            if self.result.is_none() {
                self.result = fetch.result().cloned();
            }
        }
    }
}

impl Actor for FetchActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.me();
                let mut stack = WireStack::new(endpoint_key(me), StackConfig::default());
                for &peer in &self.candidates {
                    stack.set_peer(endpoint_key(peer), peer, vec![]);
                }
                self.stack.start(stack);
                self.begin_at = Some(ctx.now() + self.start_after);
            }
            Event::Wake => {
                let now = ctx.now();
                if due(self.begin_at, now) {
                    self.begin_at = None;
                    let ranked = match self.stack.as_ref() {
                        Some(stack) => rank_replicas(stack, &self.candidates),
                        None => self.candidates.clone(),
                    };
                    let mut fetch = StripedFetch::new(
                        self.lifn.clone(),
                        ranked,
                        self.stripe_len,
                        STRIPE_TIMEOUT,
                    );
                    fetch.start(now);
                    self.fetch = Some(fetch);
                    self.pump(ctx);
                }
                self.stack.on_wake(now);
                if let Some(fetch) = self.fetch.as_mut().filter(|f| due(f.next_deadline(), now)) {
                    fetch.on_timer(now);
                }
                self.pump(ctx);
            }
            Event::Packet { from, payload } => {
                // Raw datagrams are not part of the stripe protocol.
                let _ = self.stack.on_packet(ctx.now(), from, payload);
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        let fetch = self.fetch.as_ref().and_then(StripedFetch::next_deadline);
        earliest([self.begin_at, self.stack.next_deadline(), fetch])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

    fn ep(i: u32) -> Endpoint {
        Endpoint { host: HostId(i), port: 7100 }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(0) + SimDuration::from_millis(ms)
    }

    fn reply_for(req: &FileMsg, content: &Bytes, stripe_len: u32) -> FileMsg {
        let FileMsg::ReadStripe { req_id, offset, .. } = req else {
            panic!("expected ReadStripe, got {req:?}");
        };
        let start = *offset as usize;
        let end = (start + stripe_len as usize).min(content.len());
        let data = content.slice(start..end);
        let hash = Bytes::copy_from_slice(&sha256(&data));
        FileMsg::StripeData {
            req_id: *req_id,
            ok: true,
            offset: *offset,
            total_len: content.len() as u32,
            data,
            hash,
        }
    }

    fn content(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i * 7 + 13) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn single_stripe_fetch_completes() {
        let body = content(40);
        let mut f = StripedFetch::new("lifn:a", vec![ep(1)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        let sends = f.drain_outbox();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, ep(1));
        f.on_msg(t(1), ep(1), reply_for(&sends[0].1, &body, 64));
        assert_eq!(f.result(), Some(&body));
        assert_eq!(f.completions, vec![0]);
        assert!(f.done() && !f.is_failed());
    }

    #[test]
    fn multi_stripe_fans_out_and_assembles_out_of_order() {
        let body = content(300);
        let replicas = vec![ep(1), ep(2), ep(3)];
        let mut f = StripedFetch::new("lifn:b", replicas, 128, SimDuration::from_millis(100));
        f.start(t(0));
        let first = f.drain_outbox();
        assert_eq!(first.len(), 1);
        f.on_msg(t(1), first[0].0, reply_for(&first[0].1, &body, 128));
        // 300 bytes / 128 ⇒ 3 stripes; two more go out, spread over
        // distinct replicas.
        let rest = f.drain_outbox();
        assert_eq!(rest.len(), 2);
        assert_ne!(rest[0].0, rest[1].0);
        // Answer out of order.
        f.on_msg(t(2), rest[1].0, reply_for(&rest[1].1, &body, 128));
        f.on_msg(t(3), rest[0].0, reply_for(&rest[0].1, &body, 128));
        assert_eq!(f.result(), Some(&body));
        assert_eq!(f.stats().stripes_completed, 3);
        let mut sorted = f.completions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    /// The no-spin contract: with no replica answering, each
    /// re-dispatch fired at exactly `next_deadline()` leaves a later
    /// deadline, until the fetch gives up and none is left.
    #[test]
    fn woken_at_its_deadline_it_leaves_a_later_one() {
        let mut f =
            StripedFetch::new("lifn:c", vec![ep(1), ep(2)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        let mut fired = 0;
        while let Some(now) = f.next_deadline() {
            f.on_timer(now);
            f.drain_outbox();
            fired += 1;
            let left = f.next_deadline();
            assert!(left.is_none_or(|d| d > now), "woken at {now}, left {left:?}");
            assert!(fired < 1000, "a silent fetch must give up");
        }
        assert!(f.is_failed() && fired > 1, "gave up after {fired} firings");
    }

    #[test]
    fn straggler_redispatches_to_next_replica_and_late_reply_is_stale() {
        let body = content(50);
        let mut f =
            StripedFetch::new("lifn:c", vec![ep(1), ep(2)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        let first = f.drain_outbox();
        assert_eq!(first[0].0, ep(1));
        // Past the deadline: re-dispatch goes to the other replica.
        f.on_timer(t(200));
        assert_eq!(f.stats().timeouts, 1);
        let second = f.drain_outbox();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].0, ep(2));
        // The original reply limps in late: dropped as stale.
        f.on_msg(t(210), ep(1), reply_for(&first[0].1, &body, 64));
        assert_eq!(f.stats().stale_replies, 1);
        assert!(f.result().is_none());
        f.on_msg(t(220), ep(2), reply_for(&second[0].1, &body, 64));
        assert_eq!(f.result(), Some(&body));
    }

    #[test]
    fn corrupt_stripe_is_rejected_and_refetched() {
        let body = content(40);
        let mut f =
            StripedFetch::new("lifn:d", vec![ep(1), ep(2)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        let first = f.drain_outbox();
        let FileMsg::ReadStripe { req_id, .. } = first[0].1 else { panic!() };
        // Right hash, wrong bytes? No — wrong hash for the bytes.
        let bad = FileMsg::StripeData {
            req_id,
            ok: true,
            offset: 0,
            total_len: 40,
            data: body.clone(),
            hash: Bytes::from_static(&[0u8; 32]),
        };
        f.on_msg(t(1), ep(1), bad);
        assert_eq!(f.stats().integrity_rejects, 1);
        let retry = f.drain_outbox();
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].0, ep(2));
        f.on_msg(t(2), ep(2), reply_for(&retry[0].1, &body, 64));
        assert_eq!(f.result(), Some(&body));
    }

    #[test]
    fn reply_from_wrong_replica_is_dropped() {
        let body = content(40);
        let mut f =
            StripedFetch::new("lifn:e", vec![ep(1), ep(2)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        let first = f.drain_outbox();
        assert_eq!(first[0].0, ep(1));
        // A forged reply from a replica we never asked.
        f.on_msg(t(1), ep(2), reply_for(&first[0].1, &body, 64));
        assert_eq!(f.stats().mismatched_replies, 1);
        assert!(f.result().is_none());
        // The real one still completes the ticket.
        f.on_msg(t(2), ep(1), reply_for(&first[0].1, &body, 64));
        assert_eq!(f.result(), Some(&body));
    }

    #[test]
    fn not_found_reply_fails_over() {
        let body = content(40);
        let mut f =
            StripedFetch::new("lifn:f", vec![ep(1), ep(2)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        let first = f.drain_outbox();
        let FileMsg::ReadStripe { req_id, .. } = first[0].1 else { panic!() };
        let miss = FileMsg::StripeData {
            req_id,
            ok: false,
            offset: 0,
            total_len: 0,
            data: Bytes::new(),
            hash: Bytes::new(),
        };
        f.on_msg(t(1), ep(1), miss);
        assert_eq!(f.stats().failed_replies, 1);
        let retry = f.drain_outbox();
        assert_eq!(retry[0].0, ep(2));
        f.on_msg(t(2), ep(2), reply_for(&retry[0].1, &body, 64));
        assert_eq!(f.result(), Some(&body));
    }

    #[test]
    fn fetch_gives_up_after_max_attempts() {
        let mut f = StripedFetch::new("lifn:g", vec![ep(1)], 64, SimDuration::from_millis(100));
        f.start(t(0));
        for round in 1..=u64::from(MAX_ATTEMPTS) {
            assert!(!f.is_failed(), "gave up after {round} attempts");
            let _ = f.drain_outbox();
            f.on_timer(t(200 * round));
        }
        assert!(f.is_failed() && f.done());
        assert_eq!(f.stats().timeouts, u64::from(MAX_ATTEMPTS));
        let s = f.request_stats();
        assert_eq!((s.retries, s.gave_up), (u64::from(MAX_ATTEMPTS) - 1, 1));
    }

    /// Fifteen stripes fanned out in one instant share a deadline. Each
    /// re-dispatch draws the next request id, so the order they expire
    /// in is on the wire: it must be stripe order on every instance,
    /// not whatever a hash map iterates in.
    #[test]
    fn stripes_due_together_redispatch_in_request_order() {
        let body = content(16 * 64);
        let redispatched = || -> Vec<(u64, u32)> {
            let mut f =
                StripedFetch::new("lifn:h", vec![ep(1), ep(2)], 64, SimDuration::from_millis(100));
            f.start(t(0));
            let first = f.drain_outbox();
            f.on_msg(t(1), ep(1), reply_for(&first[0].1, &body, 64));
            assert_eq!(f.drain_outbox().len(), 15);
            f.on_timer(t(101));
            assert_eq!(f.stats().timeouts, 15);
            f.drain_outbox()
                .into_iter()
                .map(|(_, m)| match m {
                    FileMsg::ReadStripe { req_id, offset, .. } => (req_id, offset),
                    other => panic!("expected ReadStripe, got {other:?}"),
                })
                .collect()
        };
        let want: Vec<(u64, u32)> = (1..16).map(|i| (16 + i, i as u32 * 64)).collect();
        for _ in 0..20 {
            assert_eq!(redispatched(), want);
        }
    }

    #[test]
    fn unmeasured_ranking_is_deterministic_by_endpoint() {
        let me = Endpoint { host: HostId(99), port: 7100 };
        let stack = WireStack::new(endpoint_key(me), StackConfig::default());
        let ranked = rank_replicas(&stack, &[ep(3), ep(1), ep(2)]);
        assert_eq!(ranked, vec![ep(1), ep(2), ep(3)]);
    }

    /// Measured replicas rank by smoothed RTT, an unmeasured one at the
    /// 100 ms prior (behind a 5 ms replica, ahead of a 150 ms one), and
    /// equal scores by endpoint.
    #[test]
    fn measured_replicas_rank_around_the_unmeasured_prior() {
        let me = Endpoint { host: HostId(99), port: 7100 };
        let mut stack = WireStack::new(endpoint_key(me), StackConfig::default());
        // One round trip of `rtt` to `peer`: its SACK sets the srtt.
        let mut measure = |peer: Endpoint, rtt: u64| {
            let key = endpoint_key(peer);
            let mut remote = WireStack::new(key, StackConfig::default());
            stack.set_peer(key, peer, vec![]);
            stack.send(t(0), key, Bytes::from_static(b"ping")).unwrap();
            let sends = |outs: Vec<snipe_wire::Out>| {
                outs.into_iter().filter_map(|o| match o {
                    snipe_wire::Out::Send { bytes, .. } => Some(bytes),
                    _ => None,
                })
            };
            for d in sends(stack.drain()) {
                remote.on_datagram(t(0), me, d).unwrap();
            }
            for d in sends(remote.drain()) {
                stack.on_datagram(t(rtt), peer, d).unwrap();
            }
            let srtt = stack.peer_score(key).expect("measured");
            assert!((srtt - rtt as f64 / 1e3).abs() < 1e-9, "srtt {srtt}");
        };
        measure(ep(4), 5);
        measure(ep(2), 5);
        measure(ep(1), 150);
        measure(ep(6), 20);
        let ranked = rank_replicas(&stack, &[ep(1), ep(3), ep(6), ep(4), ep(5), ep(2)]);
        assert_eq!(ranked, vec![ep(2), ep(4), ep(6), ep(3), ep(5), ep(1)]);
    }
}
