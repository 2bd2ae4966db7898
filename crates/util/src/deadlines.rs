//! Keyed deadlines: what is pending, when it is due, and in which
//! order due things fire.
//!
//! Every layer that promises "a request completes or fails over" keeps
//! the same three facts per request — a key, a deadline, the state
//! needed to retry — and asks the same two questions: *when must I be
//! woken next* and *what is due now*. [`Deadlines`] is that table,
//! written once. The transports key it by `(timer kind, peer)` or
//! connection id with no value, and their in-flight scoreboards by
//! sequence, filed at the last transmission; the resource manager's
//! allocation table and every service client's request table
//! ([`Requests`](crate::requests::Requests)) key it by request id.
//!
//! What the type guarantees, so that no caller has to remember it:
//!
//! * **An entry cannot exist without a deadline.** A request filed here
//!   is always reflected in [`Deadlines::next_deadline`], so a host that
//!   arms its wake-up from that answer cannot forget it.
//! * **`next_deadline` is exact**, never rounded to a bucket: a host
//!   woken one tick past it always finds something due.
//! * **Expiry order is key order.** [`Deadlines::take_due`] hands out
//!   everything due in ascending key order, each entry exactly once —
//!   what a handler re-files while working through the batch waits for
//!   the next call. Retries that draw from a shared counter or rotate a
//!   shared cursor therefore replay from the seed alone; there is no
//!   hash order to leak and no sort to forget.
//!
//! The container is one `Vec` kept sorted by key. Measured live sizes
//! are small — at most 8 / 2 / 50 transport timers on the `wire-small`
//! / `wire-bulk` / `campus` benchmark workloads; the largest request
//! table is the 96 host-descriptor lookups a campus resource manager
//! has in flight after a refresh, filed and answered in id order — so
//! a scan answers `next_deadline` as fast as any index could be kept
//! up to date. And a `Vec` never gives memory back: once it has
//! reached its high-water capacity, insert, replace, remove,
//! `next_deadline` and an expiry with nothing due do not touch the
//! allocator, where a B-tree frees and re-allocates nodes whenever a
//! table of more than one node (11 entries) shrinks and grows.

use std::ops::{Bound, RangeBounds};

use crate::time::SimTime;

struct Entry<K, V> {
    key: K,
    deadline: SimTime,
    value: V,
}

/// An ordered map from key to `(deadline, value)`; see the module doc.
pub struct Deadlines<K, V = ()> {
    /// Ascending by key, keys unique.
    entries: Vec<Entry<K, V>>,
}

impl<K: Ord + Copy, V> Deadlines<K, V> {
    /// An empty table.
    pub const fn new() -> Self {
        Deadlines { entries: Vec::new() }
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.key.cmp(key))
    }

    /// File `value` under `key`, due at `deadline`, replacing whatever
    /// the key held.
    pub fn insert(&mut self, key: K, deadline: SimTime, value: V) {
        let entry = Entry { key, deadline, value };
        match self.find(&key) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Like [`Deadlines::insert`], unless the key is already due no
    /// later than `deadline`: then the existing entry stands.
    pub fn insert_earlier(&mut self, key: K, deadline: SimTime, value: V) {
        if self.find(&key).is_ok_and(|i| self.entries[i].deadline <= deadline) {
            return;
        }
        self.insert(key, deadline, value);
    }

    /// Take `key` out, due or not.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).value)
    }

    /// Take out every entry whose key lies in `keys`, due or not:
    /// `(key, deadline, value)`, ascending by key. All of them leave
    /// the table even if the iterator is dropped early.
    pub fn remove_range(
        &mut self,
        keys: impl RangeBounds<K>,
    ) -> impl Iterator<Item = (K, SimTime, V)> + '_ {
        let below = |k: &K| self.entries.partition_point(|e| e.key < *k);
        let through = |k: &K| self.entries.partition_point(|e| e.key <= *k);
        let lo = match keys.start_bound() {
            Bound::Included(k) => below(k),
            Bound::Excluded(k) => through(k),
            Bound::Unbounded => 0,
        };
        let hi = match keys.end_bound() {
            Bound::Included(k) => through(k),
            Bound::Excluded(k) => below(k),
            Bound::Unbounded => self.entries.len(),
        };
        self.entries.drain(lo..hi.max(lo)).map(|e| (e.key, e.deadline, e.value))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The value filed under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].value)
    }

    /// When `key` is due.
    pub fn deadline(&self, key: &K) -> Option<SimTime> {
        self.find(key).ok().map(|i| self.entries[i].deadline)
    }

    /// Every entry, ascending by key, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.entries.iter_mut().map(|e| (e.key, &mut e.value))
    }

    /// The exact earliest deadline, if anything is pending.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.deadline).min()
    }

    /// Remove and return every entry with `deadline <= now`, ascending
    /// by key. Allocates only when something is due.
    pub fn take_due(&mut self, now: SimTime) -> Vec<(K, V)> {
        self.entries.extract_if(.., |e| e.deadline <= now).map(|e| (e.key, e.value)).collect()
    }

    /// [`Deadlines::take_due`] one entry at a time, for a handler that
    /// must finish with one before it sees the next. Never allocates.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(K, V)> {
        let i = self.entries.iter().position(|e| e.deadline <= now)?;
        let e = self.entries.remove(i);
        Some((e.key, e.value))
    }
}

impl<K: Ord + Copy, V> Default for Deadlines<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::collections::HashMap;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn due(d: &mut Deadlines<u32>, now: SimTime) -> Vec<u32> {
        d.take_due(now).into_iter().map(|(k, ())| k).collect()
    }

    #[test]
    fn fires_exactly_at_deadline() {
        let mut d = Deadlines::new();
        let odd = SimTime::from_nanos(5_000_123); // no bucket boundary
        d.insert(1u32, odd, ());
        assert_eq!(d.next_deadline(), Some(odd));
        assert!(due(&mut d, SimTime::from_nanos(5_000_122)).is_empty());
        assert_eq!(due(&mut d, odd), vec![1]);
        assert_eq!(d.next_deadline(), None);
        assert!(due(&mut d, t(10)).is_empty(), "nothing fires twice");
    }

    #[test]
    fn insert_replaces_and_insert_earlier_keeps_the_earlier() {
        let mut d = Deadlines::new();
        d.insert(1u32, t(10), "a");
        d.insert(1u32, t(20), "b");
        assert_eq!(d.next_deadline(), Some(t(20)));
        d.insert_earlier(1u32, t(30), "c"); // later: the entry stands
        assert_eq!((d.next_deadline(), d.get(&1)), (Some(t(20)), Some(&"b")));
        d.insert_earlier(1u32, t(15), "d"); // earlier: taken
        assert_eq!((d.next_deadline(), d.get(&1)), (Some(t(15)), Some(&"d")));
        d.insert_earlier(2u32, t(40), "e"); // absent: filed
        assert_eq!(d.take_due(t(15)), vec![(1, "d")]);
        assert_eq!(d.next_deadline(), Some(t(40)));
    }

    #[test]
    fn remove_prevents_firing() {
        let mut d = Deadlines::new();
        d.insert(1u32, t(5), 'x');
        d.insert(2u32, t(5), 'y');
        assert_eq!(d.remove(&1), Some('x'));
        assert_eq!(d.remove(&1), None);
        assert_eq!(d.take_due(t(6)), vec![(2, 'y')]);
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn remove_range_takes_exactly_the_keys_in_range() {
        let mut d = Deadlines::new();
        for k in [1u32, 3, 5, 7, 9] {
            d.insert(k, t(u64::from(100 - k)), k * 10);
        }
        assert_eq!(d.remove_range(3..7).collect::<Vec<_>>(), vec![(3, t(97), 30), (5, t(95), 50)]);
        assert_eq!(d.remove_range(4..=4).count(), 0, "no key in range");
        assert_eq!(d.remove_range(..=1).collect::<Vec<_>>(), vec![(1, t(99), 10)]);
        // Dropped unread: the entries are gone all the same.
        drop(d.remove_range(8..));
        assert_eq!(d.take_due(t(1000)), vec![(7, 70)]);
    }

    #[test]
    fn pop_due_takes_the_lowest_due_key_one_at_a_time() {
        let mut d = Deadlines::new();
        d.insert(1u32, t(10), 'a');
        d.insert(2u32, t(5), 'b');
        d.insert(3u32, t(5), 'c');
        assert_eq!(d.pop_due(t(4)), None);
        assert_eq!(d.pop_due(t(5)), Some((2, 'b')));
        d.insert(0u32, t(1), 'z'); // filed between pops: next in key order
        assert_eq!(d.pop_due(t(5)), Some((0, 'z')));
        assert_eq!(d.pop_due(t(5)), Some((3, 'c')));
        assert_eq!(d.pop_due(t(5)), None);
        assert_eq!(d.next_deadline(), Some(t(10)));
    }

    #[test]
    fn past_deadline_fires_on_next_expiry() {
        let mut d = Deadlines::new();
        assert!(due(&mut d, t(100)).is_empty());
        d.insert(9u32, t(50), ()); // already in the past
        assert_eq!(d.next_deadline(), Some(t(50)));
        assert_eq!(due(&mut d, t(100)), vec![9]);
    }

    #[test]
    fn huge_forward_jump_fires_everything_in_key_order() {
        let mut d = Deadlines::new();
        // Filed in descending key order, deadlines from 1 ms to 13 s.
        for i in (0..1000u32).rev() {
            d.insert(i, t(1 + u64::from(i) * 13), ());
        }
        // A year-long jump (experiment E3 scale) delivers all of them
        // in one call.
        let year = SimTime::from_nanos(365 * 86_400 * 1_000_000_000);
        assert_eq!(due(&mut d, year), (0..1000).collect::<Vec<_>>());
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn refiling_while_handling_a_batch_waits_for_the_next_expiry() {
        // Model an RTO loop: fire, re-arm, fire again, many times.
        let mut d = Deadlines::new();
        let mut clock = SimTime::ZERO;
        d.insert(1u32, clock + SimDuration::from_millis(3), ());
        let mut fires = 0;
        for _ in 0..10_000 {
            clock += SimDuration::from_micros(500);
            for (k, ()) in d.take_due(clock) {
                fires += 1;
                // Re-filed already due: must not fire again in this batch.
                d.insert(k, clock, ());
                d.insert(k, clock + SimDuration::from_millis(3), ());
            }
        }
        // 10k * 0.5ms = 5s of sim time, one fire per 3ms.
        assert_eq!(fires, 1666);
    }

    #[test]
    fn interleaved_insert_remove_storm_stays_consistent() {
        // Pseudo-random storm cross-checked against a naive map.
        let mut d = Deadlines::new();
        let mut model: HashMap<u32, SimTime> = HashMap::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut clock = SimTime::ZERO;
        for step in 0..20_000u64 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (rng >> 33) as u32 % 64;
            let dl = clock + SimDuration::from_nanos(1 + (rng >> 7) % 50_000_000);
            match rng % 5 {
                0 | 1 => {
                    d.insert(key, dl, ());
                    model.insert(key, dl);
                }
                2 => {
                    d.insert_earlier(key, dl, ());
                    let e = model.entry(key).or_insert(dl);
                    *e = dl.min(*e);
                }
                3 => {
                    assert_eq!(d.remove(&key).is_some(), model.remove(&key).is_some());
                }
                _ => {
                    clock += SimDuration::from_nanos((rng >> 11) % 3_000_000);
                    for k in due(&mut d, clock) {
                        let dl = model.remove(&k).expect("fired key not in model");
                        assert!(dl <= clock, "step {step}: early fire");
                    }
                    // Nothing due may remain in the model.
                    for (k, dl) in &model {
                        assert!(*dl > clock, "step {step}: key {k} missed (due {dl:?})");
                    }
                }
            }
            assert_eq!(d.next_deadline(), model.values().min().copied(), "step {step}");
        }
    }
}
