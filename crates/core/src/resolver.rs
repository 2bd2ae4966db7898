//! Where peers live: process-location lookups as a sans-IO machine.
//!
//! A send to a process the stack cannot place, a `lookup` ticket, and a
//! peer whose traffic keeps timing out (it may have migrated, §5.6:
//! "processes that do not notice its migration ... will find its new
//! location via the RC servers") each ask RC where a process key lives.
//! One lookup per peer is in flight; the k-th failed lookup for sends
//! backs that peer off k × [`RESOLVE_BACKOFF`], up to
//! [`RESOLVE_ATTEMPTS`]; a ticketed lookup is answered once, found or not.

use std::collections::BTreeMap;

use snipe_netsim::topology::Endpoint;
use snipe_rcds::uri::Uri;
use snipe_util::deadlines::Deadlines;
use snipe_util::error::SnipeError;
use snipe_util::time::{SimDuration, SimTime};

use crate::actor::{Out, RcPending};
use crate::api::{ProcRef, TicketResult};

/// Failed implicit resolutions of one peer before its queued sends are
/// left unresolved; the k-th retry waits k times [`RESOLVE_BACKOFF`].
pub const RESOLVE_ATTEMPTS: u32 = 10;
pub const RESOLVE_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// The lookup machine of one process; see the module doc.
#[derive(Default)]
pub struct Resolver {
    /// Peers with a lookup in flight → failed lookups so far.
    resolving: BTreeMap<u64, u32>,
    /// Peers waiting out their own back-off → failed lookups so far.
    retry: Deadlines<u64, u32>,
    pub out: Vec<Out>,
}

impl Resolver {
    /// Has `peer` a lookup in flight or a back-off pending?
    pub fn busy(&self, peer: u64) -> bool {
        self.resolving.contains_key(&peer) || self.retry.get(&peer).is_some()
    }

    /// Look `peer` up for `ticket`, or for queued sends: those join a
    /// lookup in flight or wait out the back-off.
    pub fn resolve(&mut self, peer: u64, ticket: Option<u64>) {
        if ticket.is_none() && self.busy(peer) {
            return;
        }
        self.resolving.entry(peer).or_insert(0);
        let answer = RcPending::ResolvePeer { peer_key: peer, ticket };
        self.out.push(Out::Get(Uri::process(peer), answer));
    }

    /// Re-resolve the processes among peers in trouble (infrastructure
    /// keys, bit 63, are fixed service endpoints).
    pub fn relookup(&mut self, troubled: &[u64]) {
        for &peer in troubled.iter().filter(|&&k| k & (1 << 63) == 0) {
            self.resolve(peer, None);
        }
    }

    /// RC answered the lookup of `peer` for ticket `t`: it lives `at`,
    /// or it was not found.
    pub fn on_answer(&mut self, now: SimTime, peer: u64, t: Option<u64>, at: Option<Endpoint>) {
        let attempts = self.resolving.remove(&peer).unwrap_or(0) + 1;
        if at.is_some() || t.is_some() {
            self.retry.remove(&peer);
        } else if attempts <= RESOLVE_ATTEMPTS {
            // The target may still be starting up or mid-migration.
            self.retry.insert(peer, now + RESOLVE_BACKOFF * attempts as u64, attempts);
        }
        if let Some(endpoint) = at {
            self.out.push(Out::Repoint(peer, endpoint));
        }
        if let Some(t) = t {
            let found = at.map(|endpoint| ProcRef { key: peer, endpoint });
            let err = || SnipeError::NameNotFound(format!("urn:snipe:proc:{peer}"));
            self.out.push(Out::Ticket(t, TicketResult::Lookup(found.ok_or_else(err))));
        }
    }

    pub fn next_deadline(&self) -> Option<SimTime> {
        self.retry.next_deadline()
    }

    /// Woken at `now`: retry every peer whose back-off is over.
    pub fn on_wake(&mut self, now: SimTime) {
        for (peer, attempts) in self.retry.take_due(now) {
            self.resolving.insert(peer, attempts);
            let answer = RcPending::ResolvePeer { peer_key: peer, ticket: None };
            self.out.push(Out::Get(Uri::process(peer), answer));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookups(r: &mut Resolver) -> Vec<(u64, Option<u64>)> {
        let lookup = |out: Out| match out {
            Out::Get(_, RcPending::ResolvePeer { peer_key, ticket }) => (peer_key, ticket),
            other => panic!("{other:?}"),
        };
        r.out.drain(..).map(lookup).collect()
    }

    #[test]
    fn the_kth_retry_is_due_after_k_backoffs_and_the_tenth_is_the_last() {
        let mut r = Resolver::default();
        let mut now = SimTime::ZERO;
        r.resolve(7, None);
        r.resolve(7, None);
        assert_eq!(lookups(&mut r), [(7, None)], "one lookup in flight per peer");
        for k in 1..=RESOLVE_ATTEMPTS as u64 {
            r.on_answer(now, 7, None, None);
            assert_eq!(r.next_deadline(), Some(now + RESOLVE_BACKOFF * k), "retry {k}");
            r.resolve(7, None);
            assert!(r.out.is_empty(), "a send waits out the back-off");
            now += RESOLVE_BACKOFF * k;
            r.on_wake(now);
            assert_eq!(lookups(&mut r), [(7, None)], "retry {k}");
        }
        r.on_answer(now, 7, None, None);
        assert_eq!(r.next_deadline(), None, "given up after {RESOLVE_ATTEMPTS} retries");
        assert!(!r.busy(7) && r.out.is_empty());
    }

    #[test]
    fn a_ticketed_lookup_is_answered_once_and_never_retried() {
        let mut r = Resolver::default();
        r.resolve(9, Some(3));
        assert_eq!(lookups(&mut r), [(9, Some(3))]);
        r.on_answer(SimTime::ZERO, 9, Some(3), None);
        assert_eq!(r.next_deadline(), None);
        assert!(matches!(r.out.as_slice(), [Out::Ticket(3, TicketResult::Lookup(Err(_)))]));
        r.out.clear();
        let at = Endpoint::new(snipe_util::id::HostId(4), 100);
        r.resolve(9, Some(4));
        lookups(&mut r);
        r.on_answer(SimTime::ZERO, 9, Some(4), Some(at));
        assert!(matches!(
            r.out.as_slice(),
            [Out::Repoint(9, a), Out::Ticket(4, TicketResult::Lookup(Ok(p)))] if *a == at && p.endpoint == at
        ));
    }
}
