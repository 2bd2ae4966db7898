//! Multi-path route scoring and per-message medium selection.
//!
//! The paper (§3, §6): SNIPE's communications layer is "multi-path,
//! multi-media" — a peer may be reachable over several networks
//! (Ethernet, ATM, ...) and the library "provided the ability to
//! switch routes/interfaces as links failed without user applications
//! intervening". The old `RouteManager` only kept a ranked list and a
//! cursor; [`PathSelector`] keeps, per `(peer, route/medium)`
//! candidate, an RTT EWMA and a loss/failover penalty, and chooses a
//! medium *per message*:
//!
//! * healthy traffic keeps flowing on the current route (a candidate
//!   is only abandoned on a *strictly* better score, so equal-scoring
//!   routes never flap);
//! * consecutive transport timeouts past [`FAILOVER_THRESHOLD`]
//!   penalise the current route and rotate to the best-scoring
//!   alternative (ties break in rank order, preserving the old
//!   deterministic next-candidate behaviour);
//! * forward progress decays the carrying route's penalty, so a gray
//!   link that heals earns its way back — once rotation retries it —
//!   instead of being blacklisted forever.
//!
//! Scores are unitless: one failover costs [`PENALTY_PER_FAILOVER`],
//! measured RTT contributes its value in seconds, and a route we have
//! never measured is assumed to cost [`UNMEASURED_RTT_SCORE`] (the
//! default initial RTO) so an untried alternative never beats a
//! working route on RTT alone, but always beats one that is failing.

use std::collections::HashMap;

use snipe_util::id::NetId;
use snipe_util::time::{SimDuration, SimTime};

use crate::srudp::NodeKey;

/// Consecutive transport timeouts against a peer before its route is
/// rotated.
pub const FAILOVER_THRESHOLD: u32 = 2;

/// Score cost added to a route each time we fail over away from it.
pub const PENALTY_PER_FAILOVER: f64 = 1.0;

/// Multiplicative penalty decay applied on each forward-progress
/// report. ~60 acked datagrams take a full failover penalty below
/// 0.05, at which point a healed route competes on RTT again.
pub const PENALTY_DECAY: f64 = 0.95;

/// Assumed RTT score (seconds) for a route with no EWMA yet: the
/// default initial RTO. Untried routes look mediocre, not perfect.
pub const UNMEASURED_RTT_SCORE: f64 = 0.100;

/// Candidate counts up to this are ranked in a stack array by
/// [`PeerPaths::spray_route`]; a peer reachable over more media than
/// this (none in any topology here) ranks in a heap one.
const RANK_ON_STACK: usize = 8;

/// Penalties below this are snapped to zero so scores converge exactly.
const PENALTY_FLOOR: f64 = 1e-6;

/// Score slack below which two routes are considered equal; prevents
/// float-dust flapping between near-identical candidates.
const SCORE_EPSILON: f64 = 1e-9;

/// EWMA gain: `srtt = srtt * 7/8 + sample * 1/8` (RFC 6298 alpha).
const RTT_EWMA_SHIFT: u32 = 3;

/// Minimum spacing between duplicate-evidence rotations. One
/// retransmit burst fans out into many packet events within well
/// under a millisecond; dup reports inside this window are the same
/// burst still arriving, not fresh proof that the *new* return route
/// is also failing, so at most one rotation may act on them.
pub const DUP_ROTATE_GUARD: SimDuration = SimDuration::from_millis(10);

/// Smallest RTT sample folded into the EWMA. A zero (or near-zero)
/// sample — a corrupted timestamp echo, a clock artifact — would seed
/// `srtt` at 0 and make the route score *perfect* forever (and small
/// integer samples vanish in the `>> 3` EWMA shift). One microsecond
/// is faster than any simulated medium round trip.
pub const RTT_SAMPLE_MIN: SimDuration = SimDuration::from_micros(1);

/// Largest RTT sample folded into the EWMA. A corrupted echo can
/// claim an absurd RTT; unclamped, one such sample poisons the EWMA
/// so badly that ~`8 * log2(huge/real)` genuine samples are needed to
/// recover. Ten seconds is beyond any real path and any RTO clamp.
pub const RTT_SAMPLE_MAX: SimDuration = SimDuration::from_millis(10_000);

/// One candidate route/medium to a peer.
#[derive(Clone, Debug)]
struct Candidate {
    net: NetId,
    /// Smoothed RTT in nanoseconds, once measured on this route.
    srtt_ns: Option<u64>,
    /// Accumulated failover/loss pressure; decays on progress.
    penalty: f64,
}

impl Candidate {
    fn new(net: NetId) -> Candidate {
        Candidate { net, srtt_ns: None, penalty: 0.0 }
    }

    fn score(&self) -> f64 {
        let rtt = match self.srtt_ns {
            Some(ns) => ns as f64 / 1e9,
            None => UNMEASURED_RTT_SCORE,
        };
        let s = self.penalty + rtt;
        // A non-finite score (poisoned penalty arithmetic) must never
        // win a comparison: NaN compares false against everything, so
        // an unguarded NaN would *stick* as the selected route.
        if s.is_finite() {
            s
        } else {
            f64::MAX
        }
    }
}

/// Ranked, scored candidate routes to one peer.
///
/// Keeps the old `RouteManager` contract — `current`/`rotate`/
/// `update`/`report_timeouts` with rank-order determinism — and adds
/// the per-candidate scoring used by [`select`](PeerPaths::select).
#[derive(Clone, Debug, Default)]
pub struct PeerPaths {
    /// Candidates, best-ranked first. Empty = let the simulator route.
    candidates: Vec<Candidate>,
    current: usize,
    /// Count of rotations performed (for tests/benches).
    pub failovers: u32,
    /// Timeout count at the last timeout-driven rotation. Rotation is
    /// edge-triggered: the counter must grow by a full
    /// [`FAILOVER_THRESHOLD`] beyond this before we rotate again, so
    /// polling `report_timeouts` with an unchanged count (which the
    /// stack does on every datagram and timer) cannot flap the route.
    last_timeout_rotation: u32,
    /// When the last duplicate-evidence rotation happened; gates
    /// [`rotate_for_dups`](PeerPaths::rotate_for_dups).
    last_dup_rotation: Option<SimTime>,
}

impl PeerPaths {
    /// With an explicit candidate ranking.
    pub fn new(candidates: Vec<NetId>) -> PeerPaths {
        PeerPaths {
            candidates: candidates.into_iter().map(Candidate::new).collect(),
            ..PeerPaths::default()
        }
    }

    /// No pinning: default routing.
    pub fn unpinned() -> PeerPaths {
        PeerPaths::default()
    }

    /// The currently preferred network, if any are pinned.
    pub fn current(&self) -> Option<NetId> {
        self.candidates.get(self.current).map(|c| c.net)
    }

    /// All candidate networks, in rank order.
    pub fn candidates(&self) -> impl Iterator<Item = NetId> + '_ {
        self.candidates.iter().map(|c| c.net)
    }

    /// The score of `net`, if it is a candidate. Lower is better.
    pub fn score(&self, net: NetId) -> Option<f64> {
        self.candidates.iter().find(|c| c.net == net).map(|c| c.score())
    }

    /// The score [`select`](PeerPaths::select) would act on: the best
    /// candidate's score (RTT EWMA in seconds plus failover pressure;
    /// lower is better). `None` when no routes are pinned — the caller
    /// knows nothing about the peer and should treat it as unmeasured.
    pub fn best_score(&self) -> Option<f64> {
        self.candidates
            .iter()
            .map(Candidate::score)
            .min_by(|a, b| a.partial_cmp(b).expect("score() is always finite"))
    }

    /// Replace the candidate set (fresh RC metadata), keeping the
    /// current choice — and any accumulated RTT/penalty state for
    /// retained networks — when still present.
    pub fn update(&mut self, candidates: Vec<NetId>) {
        let keep = self.current();
        let old = std::mem::take(&mut self.candidates);
        self.candidates = candidates
            .into_iter()
            .map(|net| {
                old.iter().find(|c| c.net == net).cloned().unwrap_or_else(|| Candidate::new(net))
            })
            .collect();
        self.current =
            keep.and_then(|n| self.candidates.iter().position(|c| c.net == n)).unwrap_or(0);
    }

    /// Penalise the current route and move to the best-scoring
    /// alternative (ties in rank order, wrapping). Returns the new
    /// choice.
    pub fn rotate(&mut self) -> Option<NetId> {
        let n = self.candidates.len();
        if n < 2 {
            // With one candidate (or none) there is nothing to rotate
            // *to*: a "self-swap" here would penalise the only usable
            // route and count a phantom failover — poisoning its score
            // against routes a later RC refresh adds — so this is a
            // strict no-op.
            return self.current();
        }
        self.candidates[self.current].penalty += PENALTY_PER_FAILOVER;
        self.failovers += 1;
        let mut best = (self.current + 1) % n;
        let mut best_score = self.candidates[best].score();
        for off in 2..n {
            let i = (self.current + off) % n;
            let s = self.candidates[i].score();
            if s + SCORE_EPSILON < best_score {
                best = i;
                best_score = s;
            }
        }
        self.current = best;
        self.current()
    }

    /// Feed the transport's consecutive-timeout count; rotates when
    /// the count has grown by a full [`FAILOVER_THRESHOLD`] since the
    /// last timeout-driven rotation. Returns `true` if a rotation
    /// happened.
    ///
    /// This is deliberately *edge*-triggered: the stack polls this
    /// with the same count on every datagram and timer, and the count
    /// only resets when an ACK finally lands. A level-triggered
    /// rotation would therefore fire on every poll during an outage,
    /// ping-ponging the route and never letting the freshly chosen
    /// alternative carry a full round trip. Instead, each new route
    /// gets the same [`FAILOVER_THRESHOLD`] timeouts of grace the
    /// original had before it is abandoned in turn.
    pub fn report_timeouts(&mut self, consecutive: u32) -> bool {
        if consecutive == 0 {
            self.last_timeout_rotation = 0;
            return false;
        }
        if consecutive >= self.last_timeout_rotation + FAILOVER_THRESHOLD
            && self.candidates.len() > 1
        {
            self.last_timeout_rotation = consecutive;
            self.rotate();
            true
        } else {
            false
        }
    }

    /// Rotate on duplicate-DATA evidence (our ACKs are dying on the
    /// return route), rate-limited to one rotation per
    /// [`DUP_ROTATE_GUARD`]: the retransmit burst that produced the
    /// evidence keeps arriving for a while after we have already
    /// switched, and those stragglers say nothing about the new route.
    /// Returns `true` if a rotation happened.
    pub fn rotate_for_dups(&mut self, now: SimTime) -> bool {
        let guarded =
            self.last_dup_rotation.map(|t| now.since(t) < DUP_ROTATE_GUARD).unwrap_or(false);
        if guarded || self.candidates.len() < 2 {
            return false;
        }
        self.last_dup_rotation = Some(now);
        self.rotate();
        true
    }

    /// Fold an RTT sample into the current route's EWMA. Samples are
    /// clamped to `[`[`RTT_SAMPLE_MIN`]`, `[`RTT_SAMPLE_MAX`]`]` so a
    /// corrupted echo (zero or absurdly huge) cannot seed the EWMA
    /// with a score the route could never have earned.
    pub fn record_rtt(&mut self, sample: SimDuration) {
        if let Some(c) = self.candidates.get_mut(self.current) {
            let ns = sample.as_nanos().clamp(RTT_SAMPLE_MIN.as_nanos(), RTT_SAMPLE_MAX.as_nanos());
            c.srtt_ns = Some(match c.srtt_ns {
                None => ns,
                Some(s) => s - (s >> RTT_EWMA_SHIFT) + (ns >> RTT_EWMA_SHIFT),
            });
        }
    }

    /// The transport made forward progress on the *current* route:
    /// decay its penalty so past failures there are forgiven by fresh
    /// evidence. Other routes keep their penalties — absence of
    /// traffic is not evidence of health (a blackholed route must not
    /// "heal" while another route carries the transfer); they earn
    /// their way back when rotation tries them again.
    pub fn record_progress(&mut self) {
        if let Some(c) = self.candidates.get_mut(self.current) {
            c.penalty *= PENALTY_DECAY;
            // The floor snaps decay dust, negative values (a penalty
            // must never *reward* a route) and poisoned arithmetic
            // alike back to exactly zero.
            if c.penalty <= PENALTY_FLOOR || c.penalty.is_nan() {
                c.penalty = 0.0;
            }
        }
    }

    /// Per-message medium selection: the best-scoring candidate,
    /// preferring the current route on ties (so equal routes never
    /// flap) and breaking remaining ties in cyclic rank order.
    pub fn select(&self) -> Option<NetId> {
        let n = self.candidates.len();
        if n == 0 {
            return None;
        }
        let mut best = self.current;
        let mut best_score = self.candidates[best].score();
        for off in 1..n {
            let i = (self.current + off) % n;
            let s = self.candidates[i].score();
            if s + SCORE_EPSILON < best_score {
                best = i;
                best_score = s;
            }
        }
        Some(self.candidates[best].net)
    }

    /// Up to `k` *distinct* routes in selection-preference order (best
    /// score first, current route preferred on ties, remaining ties in
    /// cyclic rank order) — the share-spraying counterpart of
    /// [`Self::select`]. With fewer than `k` candidates every route is
    /// returned: the caller wraps its share index around whatever
    /// exists, so degraded peers degrade gracefully to single-path
    /// behaviour instead of failing.
    pub fn select_k_distinct(&self, k: usize) -> Vec<NetId> {
        let n = self.candidates.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let mut order = vec![0; n];
        self.rank_into(&mut order);
        order.into_iter().take(k).map(|i| self.candidates[i].net).collect()
    }

    /// The route share `idx` of a spray over up to `k` distinct routes
    /// takes: `select_k_distinct(k)[idx % len]`, or `None` when that
    /// list would be empty. Called per sprayed share, so the ranking is
    /// built on the stack (for up to eight candidates) by
    /// the very sort [`Self::select_k_distinct`] runs, and every share
    /// takes the route it would have taken from the list.
    pub fn spray_route(&self, k: usize, idx: usize) -> Option<NetId> {
        let n = self.candidates.len();
        let m = k.min(n);
        if m == 0 {
            return None;
        }
        let mut on_stack = [0; RANK_ON_STACK];
        let mut on_heap = Vec::new();
        let order = if n <= RANK_ON_STACK {
            &mut on_stack[..n]
        } else {
            on_heap.resize(n, 0);
            &mut on_heap[..]
        };
        self.rank_into(order);
        Some(self.candidates[order[idx % m]].net)
    }

    /// Fill `order` (one slot per candidate) with the candidate indices
    /// in selection-preference order.
    fn rank_into(&self, order: &mut [usize]) {
        let n = order.len();
        // Rank candidates the way select() compares them: by score
        // with SCORE_EPSILON-blurred ties broken by cyclic distance
        // from the current route.
        for (off, slot) in order.iter_mut().enumerate() {
            *slot = (self.current + off) % n;
        }
        order.sort_by(|&a, &b| {
            let (sa, sb) = (self.candidates[a].score(), self.candidates[b].score());
            if sa + SCORE_EPSILON < sb {
                std::cmp::Ordering::Less
            } else if sb + SCORE_EPSILON < sa {
                std::cmp::Ordering::Greater
            } else {
                // Tie: cyclic distance from current (stable under the
                // initial cyclic layout, so current always wins a tie).
                let da = (a + n - self.current) % n;
                let db = (b + n - self.current) % n;
                da.cmp(&db)
            }
        });
    }
}

/// Per-peer path state for a whole stack: `(peer, route, medium)`
/// scoring and selection behind one keyed façade.
#[derive(Debug, Default)]
pub struct PathSelector {
    peers: HashMap<NodeKey, PeerPaths>,
}

impl PathSelector {
    pub fn new() -> PathSelector {
        PathSelector::default()
    }

    /// Install or refresh the candidate ranking for `key`.
    pub fn update(&mut self, key: NodeKey, candidates: Vec<NetId>) {
        match self.peers.get_mut(&key) {
            Some(p) => p.update(candidates),
            None => {
                let paths = if candidates.is_empty() {
                    PeerPaths::unpinned()
                } else {
                    PeerPaths::new(candidates)
                };
                self.peers.insert(key, paths);
            }
        }
    }

    /// Per-peer state, if `key` is known.
    pub fn peer(&self, key: NodeKey) -> Option<&PeerPaths> {
        self.peers.get(&key)
    }

    /// Mutable per-peer state, if `key` is known.
    pub fn peer_mut(&mut self, key: NodeKey) -> Option<&mut PeerPaths> {
        self.peers.get_mut(&key)
    }

    /// The medium to use for the next message to `key` (None = let the
    /// simulator route).
    pub fn select(&self, key: NodeKey) -> Option<NetId> {
        self.peers.get(&key).and_then(|p| p.select())
    }

    /// Up to `k` distinct routes toward `key` in preference order, for
    /// spreading erasure-coded shares across media ([`crate::fec`]).
    /// Empty when the peer is unknown or unpinned — the caller falls
    /// back to default routing, same as [`Self::select`].
    pub fn select_k_distinct(&self, key: NodeKey, k: usize) -> Vec<NetId> {
        self.peers.get(&key).map(|p| p.select_k_distinct(k)).unwrap_or_default()
    }

    /// Rotations performed for `key`.
    pub fn failovers(&self, key: NodeKey) -> u32 {
        self.peers.get(&key).map(|p| p.failovers).unwrap_or(0)
    }

    /// Read-only path score toward `key` — the best candidate's score,
    /// or `None` for unknown/unpinned peers. This is the hook replica
    /// selection uses to rank file servers by observed performance
    /// without reaching into transport internals.
    pub fn peer_score(&self, key: NodeKey) -> Option<f64> {
        self.peers.get(&key).and_then(|p| p.best_score())
    }

    /// Append every tracked peer key to `into` (reused scratch, no
    /// per-call allocation in steady state).
    #[allow(clippy::disallowed_methods, reason = "the keys are sorted")]
    pub fn keys_into(&self, into: &mut Vec<NodeKey>) {
        // Sorted: callers act on peers in this order (failover checks,
        // endpoint routing), and any behaviour keyed to hash iteration
        // order would differ run to run under seeded replay.
        let start = into.len();
        into.extend(self.peers.keys().copied());
        into[start..].sort_unstable();
    }

    /// The smallest tracked key satisfying `pred`: the first match of a
    /// scan in sorted key order, found without collecting or sorting.
    #[allow(clippy::disallowed_methods, reason = "a min over unique keys")]
    pub fn min_key_where(&self, mut pred: impl FnMut(NodeKey) -> bool) -> Option<NodeKey> {
        self.peers.keys().copied().filter(|&k| pred(k)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NetId {
        NetId(i)
    }

    #[test]
    fn rotation_cycles() {
        let mut r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        assert_eq!(r.current(), Some(n(1)));
        assert_eq!(r.rotate(), Some(n(2)));
        assert_eq!(r.rotate(), Some(n(3)));
        assert_eq!(r.rotate(), Some(n(1)));
        assert_eq!(r.failovers, 3);
    }

    #[test]
    fn unpinned_never_rotates() {
        let mut r = PeerPaths::unpinned();
        assert_eq!(r.current(), None);
        assert_eq!(r.rotate(), None);
        assert!(!r.report_timeouts(10));
    }

    #[test]
    fn threshold_behaviour() {
        let mut r = PeerPaths::new(vec![n(1), n(2)]);
        assert!(!r.report_timeouts(FAILOVER_THRESHOLD - 1));
        assert_eq!(r.current(), Some(n(1)));
        assert!(r.report_timeouts(FAILOVER_THRESHOLD));
        assert_eq!(r.current(), Some(n(2)));
    }

    #[test]
    fn single_candidate_does_not_flap() {
        let mut r = PeerPaths::new(vec![n(1)]);
        assert!(!r.report_timeouts(10));
        assert_eq!(r.current(), Some(n(1)));
    }

    #[test]
    fn update_preserves_current_when_possible() {
        let mut r = PeerPaths::new(vec![n(1), n(2)]);
        r.rotate(); // now n(2)
        r.update(vec![n(3), n(2)]);
        assert_eq!(r.current(), Some(n(2)));
        r.update(vec![n(4), n(5)]);
        assert_eq!(r.current(), Some(n(4)));
    }

    #[test]
    fn select_prefers_current_on_equal_scores() {
        let r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        assert_eq!(r.select(), Some(n(1)));
        let mut r2 = r.clone();
        r2.rotate();
        assert_eq!(r2.select(), Some(n(2)));
    }

    #[test]
    fn rotation_avoids_the_worst_scored_candidate() {
        let mut r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        // Fail over away from n(1) and then n(2): the second rotation
        // must skip the already-penalised n(1) and land on n(3).
        r.rotate();
        assert_eq!(r.current(), Some(n(2)));
        r.rotate();
        assert_eq!(r.current(), Some(n(3)));
        // Third rotation: n(1) and n(2) are equally penalised, cyclic
        // order picks n(1).
        r.rotate();
        assert_eq!(r.current(), Some(n(1)));
    }

    #[test]
    fn measured_rtt_beats_unmeasured_prior_only_when_healthy() {
        let mut r = PeerPaths::new(vec![n(1), n(2)]);
        // A fast measured route keeps selection even though the
        // alternative has no penalty.
        r.record_rtt(SimDuration::from_millis(5));
        assert_eq!(r.select(), Some(n(1)));
        assert!(r.score(n(1)).unwrap() < r.score(n(2)).unwrap());
        // But once it accumulates a failover penalty, the untried
        // route wins.
        r.rotate();
        assert_eq!(r.select(), Some(n(2)));
    }

    #[test]
    fn progress_decays_only_the_current_routes_penalty() {
        let mut r = PeerPaths::new(vec![n(1), n(2)]);
        r.rotate(); // n(1) penalised, current = n(2)
        r.rotate(); // n(2) penalised, current back on n(1)
        assert_eq!(r.current(), Some(n(1)));
        let hot_other = r.score(n(2)).unwrap();
        assert!(hot_other >= PENALTY_PER_FAILOVER);
        for _ in 0..400 {
            r.record_progress();
        }
        // The route carrying traffic fully heals: only the RTT prior
        // remains.
        assert!((r.score(n(1)).unwrap() - UNMEASURED_RTT_SCORE).abs() < 1e-12);
        // The idle route is not forgiven by someone else's progress.
        assert_eq!(r.score(n(2)).unwrap(), hot_other);
    }

    #[test]
    fn selector_tracks_peers_independently() {
        let mut s = PathSelector::new();
        s.update(7, vec![n(1), n(2)]);
        s.update(8, vec![]);
        assert_eq!(s.select(7), Some(n(1)));
        assert_eq!(s.select(8), None);
        assert!(s.peer_mut(7).unwrap().report_timeouts(2));
        assert_eq!(s.select(7), Some(n(2)));
        assert_eq!(s.failovers(7), 1);
        assert_eq!(s.failovers(8), 0);
        let mut keys = Vec::new();
        s.keys_into(&mut keys);
        keys.sort_unstable();
        assert_eq!(keys, vec![7, 8]);
    }

    #[test]
    fn select_k_distinct_is_cyclic_from_current_on_ties() {
        let mut r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        assert_eq!(r.select_k_distinct(3), vec![n(1), n(2), n(3)]);
        assert_eq!(r.select_k_distinct(2), vec![n(1), n(2)]);
        r.rotate();
        // Equal scores: current leads, rank order continues cyclically.
        assert_eq!(r.select_k_distinct(3), vec![n(2), n(3), n(1)]);
    }

    #[test]
    fn spray_route_is_the_share_index_into_select_k_distinct() {
        let mut paths = vec![PeerPaths::unpinned(), PeerPaths::new(vec![n(1)])];
        let mut r = PeerPaths::new((1..=6).map(n).collect());
        paths.push(r.clone());
        r.rotate();
        r.record_rtt(SimDuration::from_millis(3));
        r.rotate();
        paths.push(r.clone());
        // More media than the stack array holds: ranked on the heap.
        paths.push(PeerPaths::new((1..=12).map(n).collect()));
        for p in &paths {
            for k in 0..6 {
                let list = p.select_k_distinct(k);
                for idx in 0..10 {
                    let want = (!list.is_empty()).then(|| list[idx % list.len()]);
                    assert_eq!(p.spray_route(k, idx), want, "k {k} idx {idx}");
                }
            }
        }
    }

    #[test]
    fn min_key_where_is_the_first_match_in_key_order() {
        let mut s = PathSelector::new();
        for key in [40, 7, 19, 3, 88] {
            s.update(key, vec![]);
        }
        assert_eq!(s.min_key_where(|k| k % 2 == 1), Some(3));
        assert_eq!(s.min_key_where(|k| k > 10), Some(19));
        assert_eq!(s.min_key_where(|k| k > 100), None);
    }

    #[test]
    fn select_k_distinct_degrades_to_available_routes() {
        let r = PeerPaths::new(vec![n(1), n(2)]);
        assert_eq!(r.select_k_distinct(5), vec![n(1), n(2)]);
        assert_eq!(r.select_k_distinct(0), Vec::<NetId>::new());
        assert_eq!(PeerPaths::unpinned().select_k_distinct(4), Vec::<NetId>::new());
    }

    #[test]
    fn select_k_distinct_ranks_penalised_routes_last() {
        let mut r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        // Fail over away from n(1): it accrues a penalty, and the
        // spray order must park it behind the healthy routes.
        assert!(r.report_timeouts(FAILOVER_THRESHOLD));
        assert_eq!(r.current(), Some(n(2)));
        assert_eq!(r.select_k_distinct(3), vec![n(2), n(3), n(1)]);
    }

    #[test]
    fn best_score_tracks_measurements_and_penalties() {
        let mut r = PeerPaths::new(vec![n(1), n(2)]);
        // Unmeasured: both routes sit at the prior.
        assert!((r.best_score().unwrap() - UNMEASURED_RTT_SCORE).abs() < 1e-12);
        // A fast measurement pulls the best score down.
        r.record_rtt(SimDuration::from_millis(5));
        assert!(r.best_score().unwrap() < UNMEASURED_RTT_SCORE);
        assert!(PeerPaths::unpinned().best_score().is_none());
    }

    #[test]
    fn selector_peer_score_facade() {
        let mut s = PathSelector::new();
        s.update(7, vec![n(1), n(2)]);
        s.update(8, vec![]);
        s.peer_mut(7).unwrap().record_rtt(SimDuration::from_millis(2));
        let sc = s.peer_score(7).unwrap();
        assert!(sc < UNMEASURED_RTT_SCORE);
        assert_eq!(s.peer_score(8), None, "unpinned peer has no score");
        assert_eq!(s.peer_score(9), None, "unknown peer has no score");
    }

    #[test]
    fn selector_k_distinct_facade_matches_peer_state() {
        let mut s = PathSelector::new();
        s.update(7, vec![n(1), n(2)]);
        s.update(8, vec![]);
        assert_eq!(s.select_k_distinct(7, 4), vec![n(1), n(2)]);
        assert_eq!(s.select_k_distinct(8, 4), Vec::<NetId>::new());
        assert_eq!(s.select_k_distinct(9, 4), Vec::<NetId>::new());
    }
}
