//! Multi-path route choice and failover.
//!
//! The paper (§3, §6): SNIPE's communications layer is "multi-path,
//! multi-media" — a peer may be reachable over several networks
//! (Ethernet, ATM, ...) and the library "provided the ability to
//! switch routes/interfaces as links failed without user applications
//! intervening". [`PathSelector`] keeps, for each peer whose candidate
//! networks are pinned, the ranked candidates and a cursor on the
//! *current* one. What decides a route:
//!
//! * SRUDP traffic to the peer takes the current route
//!   ([`PeerPaths::current`]); a sprayed erasure-coded share takes the
//!   routes in rank order starting from it ([`PeerPaths::spray_route`]);
//! * only evidence moves the cursor, one step along the rank order
//!   ([`PeerPaths::rotate`]): consecutive transport timeouts past
//!   [`FAILOVER_THRESHOLD`] (sender side), or a duplicate-DATA streak
//!   that says our acknowledgements die on the way back (receiver
//!   side, at most once per [`DUP_ROTATE_GUARD`]).
//!
//! Nothing else overrides a rotation: the route rotated to carries the
//! next datagram. A route that heals is tried again when rotation comes
//! back round to it. A peer with no pinned networks has no entry: the
//! simulator routes its traffic, and there is nothing to rotate.

use std::collections::BTreeMap;

use snipe_util::id::NetId;
use snipe_util::time::{SimDuration, SimTime};

use crate::srudp::NodeKey;

/// Consecutive transport timeouts against a peer before its route is
/// rotated.
pub const FAILOVER_THRESHOLD: u32 = 2;

/// Minimum spacing between duplicate-evidence rotations. One
/// retransmit burst fans out into many packet events within well
/// under a millisecond; dup reports inside this window are the same
/// burst still arriving, not fresh proof that the *new* return route
/// is also failing, so at most one rotation may act on them.
pub const DUP_ROTATE_GUARD: SimDuration = SimDuration::from_millis(10);

/// Ranked candidate routes to one peer and the one in use.
#[derive(Clone, Debug, Default)]
pub struct PeerPaths {
    /// Candidate networks, best-ranked first.
    candidates: Vec<NetId>,
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
        PeerPaths { candidates, ..PeerPaths::default() }
    }

    /// The route the peer's traffic takes, if any are pinned.
    pub fn current(&self) -> Option<NetId> {
        self.candidates.get(self.current).copied()
    }

    /// All candidate networks, in rank order.
    pub fn candidates(&self) -> &[NetId] {
        &self.candidates
    }

    /// Replace the candidate set (fresh RC metadata), keeping the
    /// current choice when still present.
    pub fn update(&mut self, candidates: Vec<NetId>) {
        let keep = self.current();
        self.candidates = candidates;
        self.current = keep.and_then(|n| self.candidates.iter().position(|&c| c == n)).unwrap_or(0);
    }

    /// Move to the next candidate in rank order (wrapping). Returns the
    /// new choice.
    pub fn rotate(&mut self) -> Option<NetId> {
        let n = self.candidates.len();
        if n < 2 {
            // With one candidate (or none) there is nothing to rotate
            // *to*: counting a failover here would report a switch
            // that never happened, so this is a strict no-op.
            return self.current();
        }
        self.failovers += 1;
        self.current = (self.current + 1) % n;
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

    /// The route share `idx` of a spray over up to `k` distinct routes
    /// takes: the candidates in rank order starting from the current
    /// route, the share index wrapped around the first `min(k, n)` of
    /// them. With fewer candidates than `k` every route is used, so a
    /// peer left with one route degrades to single-path sends. `None`
    /// when no routes are pinned or `k` is zero.
    pub fn spray_route(&self, k: usize, idx: usize) -> Option<NetId> {
        let n = self.candidates.len();
        let m = k.min(n);
        (m > 0).then(|| self.candidates[(self.current + idx % m) % n])
    }
}

/// Per-peer path state for a whole stack, kept only for peers whose
/// routes are pinned, in key order.
#[derive(Debug, Default)]
pub struct PathSelector {
    peers: BTreeMap<NodeKey, PeerPaths>,
}

impl PathSelector {
    pub fn new() -> PathSelector {
        PathSelector::default()
    }

    /// Install or refresh the candidate ranking for `key`; an empty
    /// ranking unpins the peer and drops its state.
    pub fn update(&mut self, key: NodeKey, candidates: Vec<NetId>) {
        if candidates.is_empty() {
            self.peers.remove(&key);
        } else if let Some(p) = self.peers.get_mut(&key) {
            p.update(candidates);
        } else {
            self.peers.insert(key, PeerPaths::new(candidates));
        }
    }

    /// Per-peer state, if `key` has pinned routes.
    pub fn peer(&self, key: NodeKey) -> Option<&PeerPaths> {
        self.peers.get(&key)
    }

    /// Every pinned peer with its state, in key order.
    pub(crate) fn peers_mut(&mut self) -> impl Iterator<Item = (NodeKey, &mut PeerPaths)> {
        self.peers.iter_mut().map(|(&k, p)| (k, p))
    }

    /// Rotations performed for `key` while it has been pinned.
    pub fn failovers(&self, key: NodeKey) -> u32 {
        self.peers.get(&key).map(|p| p.failovers).unwrap_or(0)
    }

    /// The smallest pinned key satisfying `pred`.
    pub fn min_key_where(&self, mut pred: impl FnMut(NodeKey) -> bool) -> Option<NodeKey> {
        self.peers.keys().copied().find(|&k| pred(k))
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
        let mut r = PeerPaths::new(vec![]);
        assert_eq!(r.current(), None);
        assert_eq!(r.rotate(), None);
        assert!(!r.report_timeouts(10));
        assert_eq!(r.spray_route(4, 0), None);
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
    fn selector_tracks_peers_independently() {
        let mut s = PathSelector::new();
        s.update(7, vec![n(1), n(2)]);
        s.update(8, vec![]);
        assert_eq!(s.peer(7).and_then(PeerPaths::current), Some(n(1)));
        assert!(s.peer(8).is_none());
        assert!(s.peers_mut().next().unwrap().1.report_timeouts(2));
        assert_eq!(s.peer(7).and_then(PeerPaths::current), Some(n(2)));
        assert_eq!(s.failovers(7), 1);
        assert_eq!(s.failovers(8), 0);
        let keys: Vec<NodeKey> = s.peers_mut().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![7], "an unpinned peer keeps no state");
        // Unpinning drops the entry; pinning again starts afresh.
        s.update(7, vec![]);
        assert!(s.peer(7).is_none());
        s.update(7, vec![n(1), n(2)]);
        assert_eq!(s.peer(7).and_then(PeerPaths::current), Some(n(1)));
    }

    /// Share 0 of any spray, like SRUDP traffic, takes the current
    /// route, before and after a rotation.
    #[test]
    fn select_prefers_current_on_equal_scores() {
        let mut r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        assert_eq!(r.current(), Some(n(1)));
        for k in 1..6 {
            assert_eq!(r.spray_route(k, 0), Some(n(1)));
        }
        r.rotate();
        assert_eq!(r.current(), Some(n(2)));
        for k in 1..6 {
            assert_eq!(r.spray_route(k, 0), Some(n(2)));
        }
    }

    /// Spray order is the rank order, cyclic from the current route.
    #[test]
    fn select_k_distinct_is_cyclic_from_current_on_ties() {
        let mut r = PeerPaths::new(vec![n(1), n(2), n(3)]);
        let spray = |r: &PeerPaths, k| (0..6).map(|i| r.spray_route(k, i).unwrap()).collect();
        let order: Vec<NetId> = spray(&r, 3);
        assert_eq!(order, [1, 2, 3, 1, 2, 3].map(n));
        let two: Vec<NetId> = spray(&r, 2);
        assert_eq!(two, [1, 2, 1, 2, 1, 2].map(n));
        r.rotate();
        let rotated: Vec<NetId> = spray(&r, 3);
        assert_eq!(rotated, [2, 3, 1, 2, 3, 1].map(n));
        let two: Vec<NetId> = spray(&r, 2);
        assert_eq!(two, [2, 3, 2, 3, 2, 3].map(n));
    }

    /// A share's route is the share index into the first `min(k, n)`
    /// candidates in rank order from the current route, checked against
    /// a list built from the public candidates and current route.
    #[test]
    fn spray_route_is_the_share_index_into_select_k_distinct() {
        let ranked = |p: &PeerPaths, k: usize| -> Vec<NetId> {
            let c = p.candidates();
            let at = p.current().and_then(|cur| c.iter().position(|&x| x == cur)).unwrap_or(0);
            (0..k.min(c.len())).map(|i| c[(at + i) % c.len()]).collect()
        };
        let mut paths = vec![PeerPaths::new(vec![]), PeerPaths::new(vec![n(1)])];
        let mut r = PeerPaths::new((1..=6).map(n).collect());
        paths.push(r.clone());
        r.rotate();
        r.rotate();
        paths.push(r.clone());
        r.update((3..=14).map(n).collect());
        paths.push(r);
        for p in &paths {
            for k in 0..6 {
                let list = ranked(p, k);
                for idx in 0..10 {
                    let want = (!list.is_empty()).then(|| list[idx % list.len()]);
                    assert_eq!(p.spray_route(k, idx), want, "k {k} idx {idx}");
                }
            }
        }
    }

    /// With fewer routes than `k` every route is used; with none, or
    /// `k` zero, there is no route; one route takes every share.
    #[test]
    fn select_k_distinct_degrades_to_available_routes() {
        let r = PeerPaths::new(vec![n(1), n(2)]);
        let wide: Vec<NetId> = (0..4).map(|i| r.spray_route(5, i).unwrap()).collect();
        assert_eq!(wide, [1, 2, 1, 2].map(n));
        assert_eq!(r.spray_route(0, 1), None);
        assert_eq!(PeerPaths::new(vec![]).spray_route(4, 0), None);
        let one = PeerPaths::new(vec![n(7)]);
        assert!((0..4).all(|i| one.spray_route(3, i) == Some(n(7))));
    }

    #[test]
    fn min_key_where_is_the_first_match_in_key_order() {
        let mut s = PathSelector::new();
        for key in [40, 7, 19, 3, 88] {
            s.update(key, vec![n(1)]);
        }
        assert_eq!(s.min_key_where(|k| k % 2 == 1), Some(3));
        assert_eq!(s.min_key_where(|k| k > 10), Some(19));
        assert_eq!(s.min_key_where(|k| k > 100), None);
    }
}
