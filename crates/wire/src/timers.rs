//! Shared hierarchical timer wheel for every wire driver.
//!
//! PR 2 taught us that per-driver deadline bookkeeping is where wedges
//! breed: SRUDP kept its own `sack_deadline` option and an RTO scan,
//! Rstream kept a per-connection `rto_deadline`, and each one had to
//! re-derive "what fires next" correctly under host outages. This
//! module centralises all of that: drivers schedule opaque tokens
//! against a [`TimerWheel`] and get back, on every [`TimerWheel::expire_into`],
//! the set of tokens whose deadline has passed. The wheel is the *only*
//! timer source in `crates/wire`.
//!
//! Two properties matter more than raw speed here:
//!
//! 1. **`next_deadline` is exact.** The hosting adapter
//!    ([`StackHost`](crate::host::StackHost)) arms its [`TimerGate`] one
//!    tick past `next_deadline`; a slot-granular answer (rounded down
//!    ~131µs) would cause spurious-wake loops where the gate fires,
//!    nothing is due, and the host re-arms at the same rounded instant
//!    forever. The wheel therefore keeps an authoritative
//!    `token → deadline` map and answers `next_deadline` from it, using
//!    the slot hierarchy only to make expiry cheap.
//!
//! 2. **Arbitrary forward jumps are cheap.** Experiment E3 jumps the
//!    sim clock by days, and a host coming back from a long outage
//!    (the HostUp wedge class) re-enters the wheel far ahead of where
//!    it last expired. Each level sweeps at most one full rotation per
//!    expiry call, so a year-long jump costs `LEVELS × SLOTS` slot
//!    visits, not one visit per elapsed slot.
//!
//! Firing is allowed to be *early-tolerant*: a driver's fire handler
//! must re-check its own protocol state (is this retransmit actually
//! due?) and reschedule if not, exactly as SRUDP's RTO scan always
//! did. That keeps the wheel simple — a cancelled or rescheduled token
//! leaves a stale slot entry behind which is discarded lazily when the
//! slot is swept.
//!
//! [`TimerGate`]: snipe_netsim::actor::TimerGate

use std::collections::HashMap;
use std::hash::Hash;

use snipe_util::time::SimTime;

/// Number of hierarchy levels.
const LEVELS: usize = 4;
/// Slots per level. Power of two so slot indexing is a shift+mask.
const SLOTS: usize = 64;
/// Level-0 slot width exponent: 2^17 ns ≈ 131 µs, comfortably below
/// the minimum RTO (2 ms) so level 0 has real resolution, while the
/// top level spans ~36 minutes before overflow.
const BASE_SHIFT: u32 = 17;
/// Each level is SLOTS (2^6) times coarser than the one below.
const LEVEL_BITS: u32 = 6;

#[inline]
fn shift(level: usize) -> u32 {
    BASE_SHIFT + LEVEL_BITS * level as u32
}

/// Nanoseconds covered by one full rotation of `level`.
#[inline]
fn range(level: usize) -> u64 {
    (SLOTS as u64) << shift(level)
}

/// A hierarchical timer wheel over copyable tokens.
///
/// Tokens are whatever a driver uses to name a deadline: SRUDP uses
/// `(peer_key, TimerKind)`, Rstream uses a connection id. Scheduling
/// the same token again *replaces* its deadline ([`schedule`]) or
/// keeps the earlier of the two ([`schedule_min`]); the authoritative
/// deadline lives in a side map, so stale slot entries are inert.
///
/// [`schedule`]: TimerWheel::schedule
/// [`schedule_min`]: TimerWheel::schedule_min
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Authoritative deadlines. A slot entry whose `(token, deadline)`
    /// pair is absent here is stale and is dropped on sweep.
    live: HashMap<T, SimTime>,
    /// `LEVELS × SLOTS` buckets of `(token, deadline)`.
    slots: Vec<Vec<(T, SimTime)>>,
    /// Deadlines beyond the top level's range, re-filed as time passes.
    overflow: Vec<(T, SimTime)>,
    /// The instant of the last `expire_into` call; slot placement and
    /// sweep ranges are computed relative to this.
    last: SimTime,
}

impl<T: Copy + Eq + Hash> TimerWheel<T> {
    /// An empty wheel positioned at the start of the simulation.
    pub fn new() -> Self {
        TimerWheel {
            live: HashMap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            last: SimTime::ZERO,
        }
    }

    /// Number of live (scheduled, not yet fired or cancelled) tokens.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The exact earliest live deadline, if any.
    ///
    /// O(live tokens): drivers keep one or two tokens per peer or
    /// connection, so this is a scan over a handful of entries — far
    /// cheaper than the per-fragment inflight scans it replaced.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.live.values().min().copied()
    }

    /// The live deadline for `token`, if scheduled.
    pub fn deadline_of(&self, token: T) -> Option<SimTime> {
        self.live.get(&token).copied()
    }

    /// Schedule `token` at `at`, replacing any existing deadline.
    pub fn schedule(&mut self, token: T, at: SimTime) {
        self.live.insert(token, at);
        self.file(token, at);
    }

    /// Schedule `token` at `at` unless it is already scheduled earlier.
    pub fn schedule_min(&mut self, token: T, at: SimTime) {
        match self.live.get(&token) {
            Some(&cur) if cur <= at => {}
            _ => self.schedule(token, at),
        }
    }

    /// Cancel `token`'s deadline. The slot entry is left behind and
    /// discarded lazily; cancelling an unscheduled token is a no-op.
    pub fn cancel(&mut self, token: T) {
        self.live.remove(&token);
    }

    /// Drop every deadline.
    pub fn clear(&mut self) {
        self.live.clear();
        for slot in &mut self.slots {
            slot.clear();
        }
        self.overflow.clear();
    }

    /// File a `(token, deadline)` pair into the bucket hierarchy,
    /// relative to the wheel's current position `self.last`.
    fn file(&mut self, token: T, at: SimTime) {
        let delta = at.as_nanos().saturating_sub(self.last.as_nanos());
        // A deadline at or before the wheel's position goes into the
        // *current* level-0 slot (always re-swept), never a past slot.
        let eff = at.as_nanos().max(self.last.as_nanos());
        for level in 0..LEVELS {
            if delta < range(level) {
                let slot = (eff >> shift(level)) as usize & (SLOTS - 1);
                self.slots[level * SLOTS + slot].push((token, at));
                return;
            }
        }
        self.overflow.push((token, at));
    }

    /// Advance the wheel to `now`, appending every token whose
    /// deadline has passed to `due` (in no particular order) and
    /// removing it from the wheel. Tokens still in the future cascade
    /// down to finer levels as their slots are entered.
    ///
    /// `due` is an out-parameter so steady-state expiry with nothing
    /// due performs no allocation.
    pub fn expire_into(&mut self, now: SimTime, due: &mut Vec<T>) {
        let prev = self.last;
        let now = now.max(prev);
        self.last = now; // re-files during the sweep are relative to `now`

        for level in 0..LEVELS {
            let a = prev.as_nanos() >> shift(level);
            let b = now.as_nanos() >> shift(level);
            // Sweep the slot we were in plus every slot entered since;
            // one full rotation covers everything filed at this level.
            let steps = (b - a).min(SLOTS as u64 - 1);
            for s in 0..=steps {
                let idx = level * SLOTS + ((a + s) as usize & (SLOTS - 1));
                self.sweep(idx, level, now, due);
            }
        }

        if !self.overflow.is_empty() {
            let mut i = 0;
            while i < self.overflow.len() {
                let (token, at) = self.overflow[i];
                if self.live.get(&token) != Some(&at) {
                    self.overflow.swap_remove(i);
                } else if at <= now {
                    self.live.remove(&token);
                    due.push(token);
                    self.overflow.swap_remove(i);
                } else if at.as_nanos() - now.as_nanos() < range(LEVELS - 1) {
                    self.overflow.swap_remove(i);
                    self.file(token, at);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Sweep one bucket: fire due entries, drop stale ones, cascade
    /// future entries that now fit a finer level.
    fn sweep(&mut self, idx: usize, level: usize, now: SimTime, due: &mut Vec<T>) {
        let mut i = 0;
        while i < self.slots[idx].len() {
            let (token, at) = self.slots[idx][i];
            if self.live.get(&token) != Some(&at) {
                self.slots[idx].swap_remove(i);
                continue;
            }
            if at <= now {
                self.live.remove(&token);
                due.push(token);
                self.slots[idx].swap_remove(i);
                continue;
            }
            // Future deadline. If it still belongs exactly here
            // relative to `now`, leave it; otherwise re-file (it
            // cascades toward level 0 as its slot is entered).
            let delta = at.as_nanos() - now.as_nanos();
            let eff_slot = (at.as_nanos() >> shift(level)) as usize & (SLOTS - 1);
            let here = idx - level * SLOTS;
            if delta < range(level) && (level == 0 || delta >= range(level - 1)) && eff_slot == here
            {
                i += 1;
                continue;
            }
            self.slots[idx].swap_remove(i);
            self.file(token, at);
        }
    }
}

impl<T: Copy + Eq + Hash> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn drain(w: &mut TimerWheel<u32>, now: SimTime) -> Vec<u32> {
        let mut due = Vec::new();
        w.expire_into(now, &mut due);
        due.sort_unstable();
        due
    }

    #[test]
    fn fires_exactly_at_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(1u32, t(5));
        assert_eq!(w.next_deadline(), Some(t(5)));
        assert!(drain(&mut w, t(4)).is_empty());
        assert_eq!(drain(&mut w, t(5)), vec![1]);
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn next_deadline_is_exact_not_slot_granular() {
        let mut w = TimerWheel::new();
        let odd = SimTime::from_nanos(123_457); // not a slot boundary
        w.schedule(7u32, odd);
        assert_eq!(w.next_deadline(), Some(odd));
    }

    #[test]
    fn schedule_replaces_and_schedule_min_keeps_earlier() {
        let mut w = TimerWheel::new();
        w.schedule(1u32, t(10));
        w.schedule(1u32, t(20));
        assert_eq!(w.next_deadline(), Some(t(20)));
        w.schedule_min(1u32, t(30)); // later: ignored
        assert_eq!(w.deadline_of(1), Some(t(20)));
        w.schedule_min(1u32, t(15)); // earlier: taken
        assert_eq!(w.deadline_of(1), Some(t(15)));
        assert_eq!(drain(&mut w, t(15)), vec![1]);
    }

    #[test]
    fn cancel_prevents_firing_and_stale_entries_are_inert() {
        let mut w = TimerWheel::new();
        w.schedule(1u32, t(5));
        w.schedule(2u32, t(5));
        w.cancel(1);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, t(6)), vec![2]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadline_fires_on_next_expiry() {
        let mut w = TimerWheel::new();
        let mut due = Vec::new();
        w.expire_into(t(100), &mut due); // advance wheel first
        w.schedule(9u32, t(50)); // already in the past
        assert_eq!(w.next_deadline(), Some(t(50)));
        assert_eq!(drain(&mut w, t(100)), vec![9]);
    }

    #[test]
    fn multi_level_cascade_fires_at_the_right_time() {
        let mut w = TimerWheel::new();
        // Deadlines spanning all levels: 1ms (L0), 100ms (L1), 5s (L2),
        // 10min (L3) and 2h (overflow).
        w.schedule(0u32, t(1));
        w.schedule(1u32, t(100));
        w.schedule(2u32, t(5_000));
        w.schedule(3u32, t(600_000));
        w.schedule(4u32, t(7_200_000));
        // Step through in coarse increments; each must fire only once
        // its deadline has passed, never before.
        let mut fired = Vec::new();
        let mut clock = SimTime::ZERO;
        while clock < t(8_000_000) {
            clock = clock + SimDuration::from_millis(37);
            let mut due = Vec::new();
            w.expire_into(clock, &mut due);
            for token in due {
                let dl = [t(1), t(100), t(5_000), t(600_000), t(7_200_000)][token as usize];
                assert!(dl <= clock, "token {token} fired early at {clock:?}");
                assert!(
                    clock.since(dl) < SimDuration::from_millis(38),
                    "token {token} fired late: deadline {dl:?}, now {clock:?}"
                );
                fired.push(token);
            }
        }
        fired.sort_unstable();
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert!(w.is_empty());
    }

    #[test]
    fn huge_forward_jump_fires_everything_cheaply() {
        let mut w = TimerWheel::new();
        for i in 0..1000u32 {
            w.schedule(i, t(1 + i as u64 * 13));
        }
        // A year-long jump (experiment E3 scale) must deliver all of
        // them in one call.
        let year = SimTime::from_nanos(365 * 86_400 * 1_000_000_000);
        let due = drain(&mut w, year);
        assert_eq!(due.len(), 1000);
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_after_fire_works_across_rotations() {
        // Model an RTO loop: fire, re-arm, fire again, many times.
        let mut w = TimerWheel::new();
        let mut clock = SimTime::ZERO;
        w.schedule(1u32, clock + SimDuration::from_millis(3));
        let mut fires = 0;
        for _ in 0..10_000 {
            clock = clock + SimDuration::from_micros(500);
            let mut due = Vec::new();
            w.expire_into(clock, &mut due);
            if !due.is_empty() {
                fires += 1;
                w.schedule(1u32, clock + SimDuration::from_millis(3));
            }
        }
        // 10k * 0.5ms = 5s of sim time, one fire per ~3–3.5ms.
        assert!((1400..=1700).contains(&fires), "fires = {fires}");
    }

    #[test]
    fn interleaved_schedule_cancel_storm_stays_consistent() {
        // Pseudo-random storm cross-checked against a naive map.
        let mut w = TimerWheel::new();
        let mut model: HashMap<u32, SimTime> = HashMap::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut clock = SimTime::ZERO;
        for step in 0..20_000u64 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let token = (rng >> 33) as u32 % 64;
            match rng % 5 {
                0 | 1 => {
                    let dl = clock + SimDuration::from_nanos(1 + (rng >> 7) % 50_000_000);
                    w.schedule(token, dl);
                    model.insert(token, dl);
                }
                2 => {
                    let dl = clock + SimDuration::from_nanos(1 + (rng >> 7) % 50_000_000);
                    w.schedule_min(token, dl);
                    let e = model.entry(token).or_insert(dl);
                    if dl < *e {
                        *e = dl;
                    }
                }
                3 => {
                    w.cancel(token);
                    model.remove(&token);
                }
                _ => {
                    clock = clock + SimDuration::from_nanos((rng >> 11) % 3_000_000);
                    let mut due = Vec::new();
                    w.expire_into(clock, &mut due);
                    for tkn in due {
                        let dl = model.remove(&tkn).expect("fired token not in model");
                        assert!(dl <= clock, "step {step}: early fire");
                    }
                    // Nothing due may remain in the model.
                    for (tkn, dl) in &model {
                        assert!(*dl > clock, "step {step}: token {tkn} missed (due {dl:?})");
                    }
                }
            }
            assert_eq!(w.next_deadline(), model.values().min().copied(), "step {step}");
        }
    }
}
