//! The request table of every service client: send to a target, wait
//! one timeout, then retry or give up, and drop a late or misdirected
//! reply.
//!
//! [`Requests`] is [`Deadlines`] keyed by request id, each entry a
//! [`Request`]: the caller's value, the target of the last attempt and
//! the attempts so far. Expiry order is id order. The caller supplies
//! ids (a retry may keep its id or draw a fresh one: ids travel in
//! packets) and routes each attempt; the table holds the rule: a reply
//! is live only from its request's target, a request has at most
//! `max_attempts`, and every client counts the same [`RequestStats`].

use crate::deadlines::Deadlines;
use crate::time::{SimDuration, SimTime};

/// What a request table has counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Attempts re-filed after the first.
    pub retries: u64,
    /// Replies from an endpoint other than the live request's target.
    pub mismatched: u64,
    /// Replies for no pending request (duplicates, late, given up).
    pub stale: u64,
    /// Requests that ended unanswered.
    pub gave_up: u64,
}

/// A pending request, as the table hands it back.
pub struct Request<T, V> {
    pub value: V,
    pub target: T,
    pub attempts: u32,
}

/// Pending requests by id; see the module doc.
pub struct Requests<T, V> {
    pending: Deadlines<u64, Request<T, V>>,
    timeout: SimDuration,
    max_attempts: u32,
    stats: RequestStats,
}

impl<T: PartialEq, V> Requests<T, V> {
    /// Each attempt is due `timeout` after it is filed; a request has
    /// at most `max_attempts` (at least one).
    pub fn new(timeout: SimDuration, max_attempts: u32) -> Self {
        let (pending, stats) = (Deadlines::new(), RequestStats::default());
        Requests { pending, timeout, max_attempts: max_attempts.max(1), stats }
    }

    /// File the first attempt of a request sent to `target` under `id`.
    pub fn send(&mut self, now: SimTime, id: u64, target: T, value: V) {
        self.pending.insert(id, now + self.timeout, Request { value, target, attempts: 1 });
    }

    /// File another attempt of `req` to `target` under `id`, counted as
    /// a retry; or, once `req` has had its attempts, count it given up
    /// and hand it back.
    pub fn retry(
        &mut self,
        now: SimTime,
        id: u64,
        target: T,
        req: Request<T, V>,
    ) -> Result<&V, Request<T, V>> {
        if req.attempts >= self.max_attempts {
            self.stats.gave_up += 1;
            return Err(req);
        }
        self.stats.retries += 1;
        let req = Request { target, attempts: req.attempts + 1, ..req };
        self.pending.insert(id, now + self.timeout, req);
        Ok(&self.pending.get(&id).expect("just filed").value)
    }

    /// The caller ends `req` unanswered.
    pub fn give_up(&mut self, req: Request<T, V>) -> V {
        self.stats.gave_up += 1;
        req.value
    }

    /// A reply to `id` from `from`: the request, taken out, if `from`
    /// is its target; else counted stale or mismatched.
    pub fn on_reply(&mut self, id: u64, from: &T) -> Option<Request<T, V>> {
        match self.pending.get(&id) {
            None => self.stats.stale += 1,
            Some(req) if req.target != *from => self.stats.mismatched += 1,
            Some(_) => return self.pending.remove(&id),
        }
        None
    }

    /// Every request whose attempt timed out by `now`, in id order.
    pub fn take_due(&mut self, now: SimTime) -> Vec<(u64, Request<T, V>)> {
        self.pending.take_due(now)
    }

    /// [`Requests::take_due`] one at a time.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(u64, Request<T, V>)> {
        self.pending.pop_due(now)
    }

    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.next_deadline()
    }

    pub fn stats(&self) -> RequestStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn table(max_attempts: u32) -> Requests<char, &'static str> {
        Requests::new(SimDuration::from_millis(100), max_attempts)
    }

    #[test]
    fn a_reply_counts_only_from_the_target() {
        let mut r = table(3);
        r.send(t(0), 7, 'a', "op");
        assert!(r.on_reply(8, &'a').is_none(), "no such id");
        assert!(r.on_reply(7, &'b').is_none(), "wrong sender");
        assert_eq!(r.next_deadline(), Some(t(100)), "a mismatched reply leaves it pending");
        let req = r.on_reply(7, &'a').expect("the target answered");
        assert_eq!((req.value, req.target, req.attempts), ("op", 'a', 1));
        assert!(r.on_reply(7, &'a').is_none(), "a duplicate is stale");
        let s = r.stats();
        assert_eq!((s.stale, s.mismatched, s.retries, s.gave_up), (2, 1, 0, 0));
        assert_eq!(r.next_deadline(), None);
    }

    #[test]
    fn retries_count_up_to_max_attempts_then_give_up() {
        let mut r = table(3);
        r.send(t(0), 1, 'a', "op");
        let mut now = t(0);
        let mut sent = vec![(1, 'a')];
        while let Some(deadline) = r.next_deadline() {
            now = deadline;
            for (id, req) in r.take_due(now) {
                // A fresh id and the next target per attempt.
                let (next, to) = (id + 10, if req.target == 'a' { 'b' } else { 'a' });
                if r.retry(now, next, to, req).is_ok() {
                    sent.push((next, to));
                }
            }
        }
        assert_eq!(sent, [(1, 'a'), (11, 'b'), (21, 'a')]);
        assert_eq!(now, t(300), "each attempt waits one timeout");
        assert_eq!((r.stats().retries, r.stats().gave_up), (2, 1));
        assert!(r.on_reply(11, &'b').is_none(), "an old attempt's reply is stale");
        assert_eq!(r.stats().stale, 1);
    }

    #[test]
    fn a_retry_keeping_its_id_moves_its_target() {
        let mut r = table(6);
        r.send(t(0), 4, 'a', "op");
        let (id, req) = r.pop_due(t(100)).expect("due");
        assert_eq!(r.retry(t(100), id, 'b', req).ok(), Some(&"op"));
        assert!(r.on_reply(4, &'a').is_none(), "the first target is failed away from");
        assert_eq!(r.stats().mismatched, 1);
        assert_eq!(r.on_reply(4, &'b').map(|q| q.attempts), Some(2));
    }

    #[test]
    fn due_requests_come_out_in_id_order_and_give_up_counts() {
        let mut r = table(1);
        for id in [5, 2, 9] {
            r.send(t(0), id, 'a', "op");
        }
        assert!(r.pop_due(t(99)).is_none());
        let (first, req) = r.pop_due(t(100)).expect("due");
        assert_eq!((first, r.give_up(req)), (2, "op"));
        let rest: Vec<u64> = r.take_due(t(100)).into_iter().map(|(id, _)| id).collect();
        assert_eq!(rest, [5, 9]);
        assert_eq!(r.stats().gave_up, 1);
        assert!(r.next_deadline().is_none());
    }
}
