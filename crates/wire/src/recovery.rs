//! Loss recovery, written once for every reliable transport.
//!
//! A sender that retransmits keeps asking the same four questions:
//! what went out when, how often, may an acknowledgement of it be
//! timed, and how long to wait before sending it again. [`Rtt`] answers
//! the last (the RFC 6298 estimator with its clamp and its backoff);
//! [`Flight`] answers the rest, as a
//! [`Deadlines`](snipe_util::deadlines::Deadlines) table keyed by
//! sequence and filed at the instant of the last transmission, so that
//! expiry and the re-arm instant are that table's own `take_due` and
//! `next_deadline`. SRUDP keys it by `(message, fragment)`, RSTREAM by
//! stream offset. *Which* sequences go out again, and when a sender
//! gives up, stays with each transport's one `retransmit` routine.
//!
//! [`crate::path`] also smooths round-trip samples, but to score
//! routes against each other: it yields no timeout and rounds
//! differently, and is deliberately separate.

use std::ops::RangeBounds;

use snipe_util::deadlines::Deadlines;
use snipe_util::time::{SimDuration, SimTime};

/// Smoothed round-trip estimate and the retransmission timeout derived
/// from it (RFC 6298), clamped to the transport's configured range.
pub(crate) struct Rtt {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// The RTO before any backoff: `initial` until the first sample.
    base: SimDuration,
    rto: SimDuration,
    initial: SimDuration,
    min: SimDuration,
    max: SimDuration,
}

impl Rtt {
    /// No estimate yet: the RTO is `initial` until the first sample.
    pub fn new(initial: SimDuration, min: SimDuration, max: SimDuration) -> Rtt {
        Rtt {
            srtt: None,
            rttvar: SimDuration::ZERO,
            base: initial,
            rto: initial,
            initial,
            min,
            max,
        }
    }

    /// Fold in one measured round trip and recompute the RTO from it.
    pub fn sample(&mut self, sample: SimDuration) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                let diff = if srtt > sample { srtt - sample } else { sample - srtt };
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                (srtt * 7 + sample) / 8
            }
        };
        self.srtt = Some(srtt);
        self.base = (srtt + self.rttvar * 4).clamp(self.min, self.max);
        self.rto = self.base;
    }

    /// The smoothed round trip, once anything was measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// How long a transmission may go unacknowledged.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// How long a sequence the receiver reports missing must have been
    /// out before it may be sent again: one smoothed round trip, about
    /// what a copy's own report takes to come back, so a hole goes out
    /// at most once per hold-off however many reports name it. A sequence
    /// `sprayed` over routes of different delay also waits out four
    /// deviations, which the spread between the routes widens (their
    /// samples all feed this one estimator): that is the RTO before
    /// any backoff. Clamped like the RTO and never backed off; the
    /// initial RTO until the first sample.
    pub fn holdoff(&self, sprayed: bool) -> SimDuration {
        match self.srtt {
            Some(srtt) if !sprayed => srtt.clamp(self.min, self.max),
            _ => self.base,
        }
    }

    /// The RTO ran out: back off, doubling up to the ceiling.
    pub fn on_timeout(&mut self) {
        self.rto = (self.rto * 2).clamp(self.min, self.max);
    }

    /// Back to the initial RTO. Timeouts while nothing could be
    /// measured (a handshake) say nothing about the path the data will
    /// take.
    pub fn reset(&mut self) {
        self.rto = self.initial;
    }
}

/// What a sender knows about one sequence in flight, besides when it
/// last went out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Sent {
    /// Retry budget spent so far. What is charged is the transport's
    /// call: SRUDP charges a timeout, RSTREAM every re-send.
    pub retries: u32,
    /// Karn's rule: an acknowledgement of a retransmitted sequence is
    /// ambiguous and yields no RTT sample.
    pub retransmitted: bool,
}

/// The in-flight scoreboard: every unacknowledged sequence, filed at
/// the instant it last went out.
pub(crate) struct Flight<S> {
    sent: Deadlines<S, Sent>,
    len: usize,
}

impl<S: Ord + Copy> Flight<S> {
    /// Nothing in flight.
    pub const fn new() -> Flight<S> {
        Flight { sent: Deadlines::new(), len: 0 }
    }

    /// Sequences in flight.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Nothing in flight?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What is on file for `seq`.
    pub fn get(&self, seq: &S) -> Option<Sent> {
        self.sent.get(seq).copied()
    }

    /// When `seq` last went out, while it is in flight.
    pub fn sent_at(&self, seq: &S) -> Option<SimTime> {
        self.sent.deadline(seq)
    }

    /// `seq` went out at `now`; `state` replaces whatever was on file.
    pub fn file(&mut self, seq: S, now: SimTime, state: Sent) {
        if self.sent.get(&seq).is_none() {
            self.len += 1;
        }
        self.sent.insert(seq, now, state);
    }

    /// Take every sequence in `seqs` off the board, unmeasured (the
    /// message they belong to is finished or abandoned).
    pub fn forget(&mut self, seqs: impl RangeBounds<S>) {
        self.len -= self.sent.remove_range(seqs).count();
    }

    /// Every sequence in `seqs` is acknowledged: take it off the board.
    /// Returns the round trip of the lowest one that was never
    /// retransmitted.
    pub fn ack_range(&mut self, seqs: impl RangeBounds<S>, now: SimTime) -> Option<SimDuration> {
        let mut sample = None;
        for (_, sent_at, state) in self.sent.remove_range(seqs) {
            self.len -= 1;
            if !state.retransmitted && sample.is_none() {
                sample = Some(now.saturating_since(sent_at));
            }
        }
        sample
    }

    /// [`Self::ack_range`] of one sequence.
    pub fn ack(&mut self, seq: S, now: SimTime) -> Option<SimDuration> {
        self.ack_range(seq..=seq, now)
    }

    /// Take out every sequence that has gone unacknowledged for `rto`
    /// or longer, ascending. The caller files again what it re-sends.
    pub fn take_expired(&mut self, now: SimTime, rto: SimDuration) -> Vec<(S, Sent)> {
        // "Sent at `t`, and `t + rto` has passed" is asked of the table
        // as "filed at or before `now - rto`"; before one whole RTO has
        // passed since time zero nothing can have run out.
        let Some(cutoff) = now.as_nanos().checked_sub(rto.as_nanos()) else {
            return Vec::new();
        };
        let expired = self.sent.take_due(SimTime::from_nanos(cutoff));
        self.len -= expired.len();
        expired
    }

    /// When the oldest transmission's `rto` runs out: the instant to
    /// arm the retransmission timer for.
    pub fn rto_deadline(&self, rto: SimDuration) -> Option<SimTime> {
        self.sent.next_deadline().map(|sent_at| sent_at + rto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + MS(ms)
    }

    fn rtt() -> Rtt {
        Rtt::new(MS(100), MS(2), MS(4000))
    }

    #[test]
    fn first_sample_seeds_the_variance_at_half_the_sample() {
        let mut r = rtt();
        assert_eq!((r.srtt(), r.rto()), (None, MS(100)));
        r.sample(MS(40));
        assert_eq!(r.srtt(), Some(MS(40)));
        assert_eq!(r.rttvar, MS(20));
        assert_eq!(r.rto(), MS(40 + 4 * 20));
    }

    #[test]
    fn the_clamp_holds_at_both_ends() {
        let mut r = rtt();
        r.sample(SimDuration::from_micros(10));
        assert_eq!(r.rto(), MS(2), "floor");
        let mut r = rtt();
        r.sample(SimDuration::from_secs(30));
        assert_eq!(r.rto(), MS(4000), "ceiling");
    }

    #[test]
    fn backoff_saturates_at_the_ceiling_and_reset_undoes_it() {
        let mut r = rtt();
        r.on_timeout();
        assert_eq!(r.rto(), MS(200));
        for _ in 0..40 {
            r.on_timeout();
            assert!(r.rto() <= MS(4000));
        }
        assert_eq!(r.rto(), MS(4000));
        r.reset();
        assert_eq!((r.srtt(), r.rto()), (None, MS(100)));
    }

    #[test]
    fn a_retransmitted_sequence_yields_no_sample() {
        let mut f: Flight<u32> = Flight::new();
        f.file(1, at(0), Sent::default());
        f.file(2, at(0), Sent::default());
        f.file(2, at(50), Sent { retries: 1, retransmitted: true });
        assert_eq!(f.len(), 2);
        assert_eq!(f.ack(2, at(60)), None, "Karn: ambiguous acknowledgement");
        assert_eq!(f.ack(1, at(60)), Some(MS(60)));
        assert_eq!(f.ack(1, at(70)), None, "already settled");
        assert!(f.is_empty());
    }

    #[test]
    fn a_range_is_settled_at_once_and_sampled_from_its_lowest_clean_sequence() {
        let mut f: Flight<u64> = Flight::new();
        f.file(0, at(0), Sent { retries: 1, retransmitted: true });
        f.file(1400, at(10), Sent::default());
        f.file(2800, at(20), Sent::default());
        f.file(4200, at(30), Sent::default());
        assert_eq!(f.ack_range(..4200, at(100)), Some(MS(90)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(&4200), Some(Sent::default()));
    }

    #[test]
    fn expiry_is_by_age_and_nothing_expires_before_one_rto_has_passed() {
        let mut f: Flight<u32> = Flight::new();
        f.file(7, at(0), Sent::default());
        f.file(8, at(30), Sent::default());
        assert_eq!(f.rto_deadline(MS(100)), Some(at(100)));
        assert!(f.take_expired(at(50), MS(100)).is_empty(), "now < rto");
        assert!(f.take_expired(at(99), MS(100)).is_empty());
        assert_eq!(f.take_expired(at(100), MS(100)), vec![(7, Sent::default())]);
        assert_eq!((f.len(), f.rto_deadline(MS(100))), (1, Some(at(130))));
        assert_eq!(f.take_expired(at(500), MS(100)).len(), 1);
        assert_eq!((f.is_empty(), f.rto_deadline(MS(100))), (true, None));
    }

    /// SRUDP's estimator as it stood before [`Rtt`] existed, kept as
    /// the reference the extraction is checked against.
    #[derive(Default)]
    struct OldPeer {
        srtt: Option<SimDuration>,
        rttvar: SimDuration,
        rto: SimDuration,
    }

    fn update_rtt(peer: &mut OldPeer, sample: SimDuration, min: SimDuration, max: SimDuration) {
        let srtt = match peer.srtt {
            None => {
                peer.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                let diff = if srtt > sample { srtt - sample } else { sample - srtt };
                peer.rttvar = (peer.rttvar * 3 + diff) / 4;
                (srtt * 7 + sample) / 8
            }
        };
        peer.srtt = Some(srtt);
        let rto = srtt + peer.rttvar * 4;
        peer.rto = rto.clamp(min, max);
    }

    proptest! {
        /// Samples interleaved with timeouts, as a lossy exchange
        /// produces them: the estimate and the RTO match the old code
        /// bit for bit after every step.
        #[test]
        fn rtt_reproduces_the_old_estimator(
            steps in proptest::collection::vec((0u8..5, 0u64..20_000_000_000), 1..200),
        ) {
            let (initial, min, max) = (MS(100), MS(2), MS(4000));
            let mut new = Rtt::new(initial, min, max);
            let mut old = OldPeer { rto: initial, ..OldPeer::default() };
            for (kind, ns) in steps {
                // One step in five is a timeout, the rest are samples.
                if kind == 0 {
                    new.on_timeout();
                    old.rto = (old.rto * 2).clamp(min, max);
                } else {
                    new.sample(SimDuration::from_nanos(ns));
                    update_rtt(&mut old, SimDuration::from_nanos(ns), min, max);
                }
                prop_assert_eq!((new.srtt(), new.rttvar, new.rto()), (old.srtt, old.rttvar, old.rto));
            }
        }
    }
}
