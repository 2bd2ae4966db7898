//! Message fragmentation and reassembly.
//!
//! The client library provides "message passing, routing ...,
//! fragmentation, data conversion" (§3.4). Messages larger than the
//! path MTU are split into numbered fragments; the receiver reassembles
//! them tolerant of loss, duplication and reordering (retransmission is
//! the protocol layer's job).
//!
//! Partial reassembly state is bounded two ways: a per-peer cap on
//! concurrent in-progress messages ([`MAX_PARTIAL_MSGS`], stalest
//! evicted first) and virtual-time eviction of entries that have seen
//! no fresh fragment for longer than the owning driver's patience
//! ([`ReassemblySet::evict_stale`]) — a sender that never completes
//! its messages, or a loss-burst chaos plan, costs bounded memory.

use bytes::Bytes;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::time::{SimDuration, SimTime};

/// Split `payload` into chunks of at most `frag_size` bytes.
/// A zero-length payload still produces one (empty) fragment so the
/// message exists on the wire. A zero `frag_size` (hostile or
/// misconfigured MTU state) is a counted `Protocol` error, not a
/// panic.
pub fn split(payload: &Bytes, frag_size: usize) -> SnipeResult<Vec<Bytes>> {
    if frag_size == 0 {
        return Err(SnipeError::Protocol("zero fragment size".into()));
    }
    if payload.is_empty() {
        return Ok(vec![Bytes::new()]);
    }
    let mut out = Vec::with_capacity(payload.len().div_ceil(frag_size));
    let mut off = 0;
    while off < payload.len() {
        let end = (off + frag_size).min(payload.len());
        out.push(payload.slice(off..end));
        off = end;
    }
    Ok(out)
}

/// Reassembly buffer for one message.
#[derive(Debug)]
pub struct Reassembly {
    frags: Vec<Option<Bytes>>,
    received: usize,
    /// When the last *fresh* fragment arrived (stale-entry eviction).
    last_activity: SimTime,
}

impl Reassembly {
    /// For a message of `count` fragments.
    pub fn new(count: usize) -> Reassembly {
        Reassembly {
            frags: (0..count).map(|_| None).collect(),
            received: 0,
            last_activity: SimTime::ZERO,
        }
    }

    /// Store one fragment. A duplicate whose bytes match the stored
    /// copy is ignored; a duplicate whose bytes *differ* is a
    /// `Protocol` error (a corrupted or forged retransmission — the
    /// first copy is kept, the conflict is surfaced so the stack can
    /// count it). Errors on index out of range too (hostile sender).
    pub fn insert(&mut self, idx: usize, data: Bytes) -> SnipeResult<()> {
        if idx >= self.frags.len() {
            return Err(SnipeError::Protocol(format!(
                "fragment index {idx} out of range (count {})",
                self.frags.len()
            )));
        }
        match &self.frags[idx] {
            None => {
                self.frags[idx] = Some(data);
                self.received += 1;
            }
            Some(existing) if *existing != data => {
                return Err(SnipeError::Protocol(format!(
                    "duplicate fragment {idx} with conflicting bytes ({} vs {})",
                    existing.len(),
                    data.len()
                )));
            }
            Some(_) => {} // benign duplicate
        }
        Ok(())
    }

    /// Is a fragment present?
    pub fn has(&self, idx: usize) -> bool {
        self.frags.get(idx).is_some_and(|f| f.is_some())
    }

    /// All fragments present?
    pub fn complete(&self) -> bool {
        self.received == self.frags.len()
    }

    /// Fragments received so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Total fragments expected.
    pub fn expected(&self) -> usize {
        self.frags.len()
    }

    /// Indices still missing.
    pub fn missing(&self) -> Vec<u32> {
        self.frags.iter().enumerate().filter(|(_, f)| f.is_none()).map(|(i, _)| i as u32).collect()
    }

    /// Concatenate into the original message.
    ///
    /// # Panics
    /// Panics if not [`Self::complete`].
    pub fn assemble(mut self) -> Bytes {
        assert!(self.complete(), "assembling incomplete message");
        // Complete means every slot is `Some`: the `flatten`s and the
        // `unwrap_or_default` below never skip or default anything.
        //
        // A message that fit in one fragment needs no concatenation:
        // hand the original buffer back without copying (the common
        // case for sub-MTU traffic).
        if self.frags.len() == 1 {
            return self.frags[0].take().unwrap_or_default();
        }
        let total: usize = self.frags.iter().flatten().map(|f| f.len()).sum();
        let mut out = Vec::with_capacity(total);
        for f in self.frags.iter().flatten() {
            out.extend_from_slice(f);
        }
        Bytes::from(out)
    }
}

/// Most fragments one message may claim. A hostile DATA packet carries
/// an arbitrary 32-bit count; without this bound a single forged header
/// makes [`Reassembly::new`] allocate gigabytes before any payload
/// arrives. 64 Ki fragments × the ~1400-byte MTU is a ~90 MB message —
/// far beyond anything the workloads send.
pub const MAX_FRAGMENTS: usize = 1 << 16;

/// Most concurrently in-progress messages one peer may hold. A
/// well-behaved SRUDP sender can have at most `window` fragments in
/// flight (64 by default), so even one-fragment messages cannot
/// legitimately exceed the window; 256 leaves generous slack for
/// reordering while keeping a sender that opens messages and never
/// finishes them to a bounded footprint.
pub const MAX_PARTIAL_MSGS: usize = 256;

/// Reassembly across many concurrent messages from one peer,
/// capped at [`MAX_PARTIAL_MSGS`] in-progress entries. Each partial
/// carries a note `T` for its owner — what a driver must remember per
/// incoming message lives and dies with the partial, so it cannot be
/// left behind or outlive it.
#[derive(Debug, Default)]
pub struct ReassemblySet<T = ()> {
    msgs: HashMap<u64, (Reassembly, T)>,
}

impl ReassemblySet {
    /// Empty set, no notes.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Default> ReassemblySet<T> {
    /// Insert a fragment of message `msg_id` at virtual time `now`;
    /// returns the full message once complete (and forgets the
    /// buffer). A *fresh* fragment stamps the entry's last-activity
    /// clock (duplicates do not, so a retransmit loop cannot keep a
    /// dead entry alive). When the set is at [`MAX_PARTIAL_MSGS`] and
    /// `msg_id` is new, the stalest entry is evicted to make room.
    pub fn insert(
        &mut self,
        now: SimTime,
        msg_id: u64,
        idx: usize,
        count: usize,
        data: Bytes,
    ) -> SnipeResult<Option<Bytes>> {
        if count == 0 {
            return Err(SnipeError::Protocol("zero fragment count".into()));
        }
        if count > MAX_FRAGMENTS {
            return Err(SnipeError::Protocol(format!(
                "fragment count {count} exceeds limit {MAX_FRAGMENTS}"
            )));
        }
        // Validate before the entry exists: a bogus index must not
        // leave an empty reassembly buffer behind (state poisoning).
        if idx >= count {
            return Err(SnipeError::Protocol(format!(
                "fragment index {idx} out of range (count {count})"
            )));
        }
        if !self.msgs.contains_key(&msg_id) && self.msgs.len() >= MAX_PARTIAL_MSGS {
            if let Some(stalest) = self.stalest() {
                self.msgs.remove(&stalest);
            }
        }
        let (r, _) = match self.msgs.entry(msg_id) {
            // Complete on arrival: the buffer would be built, filled,
            // completed and removed in this call, so it is not built.
            Entry::Vacant(_) if count == 1 => return Ok(Some(data)),
            Entry::Vacant(e) => e.insert((Reassembly::new(count), T::default())),
            Entry::Occupied(e) => e.into_mut(),
        };
        if r.expected() != count {
            return Err(SnipeError::Protocol(format!(
                "fragment count changed for msg {msg_id}: {} vs {count}",
                r.expected()
            )));
        }
        let before = r.received;
        r.insert(idx, data)?;
        if r.received != before {
            r.last_activity = now;
        }
        if r.complete() {
            Ok(self.msgs.remove(&msg_id).map(|(r, _)| r.assemble()))
        } else {
            Ok(None)
        }
    }

    /// The entry with the oldest last-activity stamp (ties broken by
    /// lowest msg id, so eviction order is deterministic).
    #[allow(clippy::disallowed_methods, reason = "a min over unique (stamp, id) keys")]
    fn stalest(&self) -> Option<u64> {
        self.msgs.iter().map(|(id, (r, _))| (r.last_activity, *id)).min().map(|(_, id)| id)
    }

    /// Evict the stalest entry and return its msg id. Lets an owning
    /// driver enforce the cap *before* inserting, so it can clean its
    /// own per-message side tables for the victim (the internal cap in
    /// [`Self::insert`] then never fires for such callers).
    pub fn evict_stalest(&mut self) -> Option<u64> {
        let id = self.stalest()?;
        self.msgs.remove(&id);
        Some(id)
    }

    /// Drop every entry whose last fresh fragment is older than `ttl`
    /// before `now`; returns the evicted message ids so the owning
    /// driver can clean its side tables. Drive this from a periodic
    /// timer with a `ttl` longer than the sender's give-up horizon:
    /// in-contract transfers are never evicted, only abandoned ones.
    #[allow(clippy::disallowed_methods, reason = "the evicted ids are sorted")]
    pub fn evict_stale(&mut self, now: SimTime, ttl: SimDuration) -> Vec<u64> {
        let mut evicted: Vec<u64> = self
            .msgs
            .iter()
            .filter(|(_, (r, _))| now.saturating_since(r.last_activity) > ttl)
            .map(|(id, _)| *id)
            .collect();
        evicted.sort_unstable();
        for id in &evicted {
            self.msgs.remove(id);
        }
        evicted
    }

    /// Is a specific fragment already present?
    pub fn has(&self, msg_id: u64, idx: usize) -> bool {
        self.msgs.get(&msg_id).is_some_and(|(r, _)| r.has(idx))
    }

    /// Fragments received so far for a message (0 if unknown).
    pub fn received(&self, msg_id: u64) -> usize {
        self.msgs.get(&msg_id).map(|(r, _)| r.received()).unwrap_or(0)
    }

    /// The reassembly buffer of a message in progress.
    pub fn partial(&self, msg_id: u64) -> Option<&Reassembly> {
        self.msgs.get(&msg_id).map(|(r, _)| r)
    }

    /// The owner's note on a message in progress.
    pub fn note(&self, msg_id: u64) -> Option<&T> {
        self.msgs.get(&msg_id).map(|(_, note)| note)
    }

    /// The owner's note on a message in progress, mutable.
    pub fn note_mut(&mut self, msg_id: u64) -> Option<&mut T> {
        self.msgs.get_mut(&msg_id).map(|(_, note)| note)
    }

    /// Remove a message's partial state and return the present
    /// fragments with their indices (FEC reconstruction takes over
    /// once a share quorum is in, before the buffer is "complete").
    pub fn take(&mut self, msg_id: u64) -> Option<Vec<(u32, Bytes)>> {
        self.msgs.remove(&msg_id).map(|(r, _)| {
            r.frags.into_iter().enumerate().filter_map(|(i, f)| f.map(|b| (i as u32, b))).collect()
        })
    }

    /// Number of in-progress messages.
    pub fn in_progress(&self) -> usize {
        self.msgs.len()
    }

    /// Drop the partial state of a message (peer gave up).
    pub fn forget(&mut self, msg_id: u64) {
        self.msgs.remove(&msg_id);
    }

    /// Export all partial reassembly state (for migration checkpoints).
    #[allow(clippy::disallowed_methods, reason = "the export is sorted by id")]
    pub fn export(&self) -> Vec<(u64, Vec<Option<Bytes>>)> {
        let mut v: Vec<(u64, Vec<Option<Bytes>>)> =
            self.msgs.iter().map(|(id, (r, _))| (*id, r.frags.clone())).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Import one previously exported partial with its note (replaces
    /// any current state for the same message id). The entry is stamped
    /// with `now`: a restored partial gets a full TTL on its new host
    /// before stale-eviction may claim it.
    pub fn import(&mut self, now: SimTime, msg_id: u64, frags: Vec<Option<Bytes>>, note: T) {
        let received = frags.iter().filter(|f| f.is_some()).count();
        self.msgs.insert(msg_id, (Reassembly { frags, received, last_activity: now }, note));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn split_sizes() {
        let payload = Bytes::from(vec![7u8; 10_000]);
        let frags = split(&payload, 1400).unwrap();
        assert_eq!(frags.len(), 8);
        assert!(frags[..7].iter().all(|f| f.len() == 1400));
        assert_eq!(frags[7].len(), 10_000 - 7 * 1400);
    }

    #[test]
    fn split_empty_yields_one_fragment() {
        let frags = split(&Bytes::new(), 100).unwrap();
        assert_eq!(frags.len(), 1);
        assert!(frags[0].is_empty());
    }

    #[test]
    fn split_exact_multiple() {
        let frags = split(&Bytes::from(vec![0u8; 2800]), 1400).unwrap();
        assert_eq!(frags.len(), 2);
    }

    #[test]
    fn split_zero_frag_size_is_an_error_not_a_panic() {
        let err = split(&Bytes::from_static(b"payload"), 0).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn reassemble_out_of_order_with_duplicates() {
        let payload = Bytes::from((0..5000u32).map(|i| (i % 256) as u8).collect::<Vec<u8>>());
        let frags = split(&payload, 999).unwrap();
        let mut r = Reassembly::new(frags.len());
        let order = [4, 0, 2, 2, 1, 3, 5];
        for &i in &order {
            r.insert(i, frags[i].clone()).unwrap();
        }
        assert!(r.complete());
        assert_eq!(r.assemble(), payload);
    }

    #[test]
    fn conflicting_duplicate_is_a_protocol_error() {
        let mut r = Reassembly::new(2);
        r.insert(0, Bytes::from_static(b"original")).unwrap();
        // Matching duplicate: benign.
        r.insert(0, Bytes::from_static(b"original")).unwrap();
        // Same index, different bytes: corruption made visible.
        let err = r.insert(0, Bytes::from_static(b"tampered")).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        // The first copy is kept.
        assert_eq!(r.received(), 1);
        r.insert(1, Bytes::from_static(b"rest")).unwrap();
        assert_eq!(&r.assemble()[..8], b"original");
    }

    #[test]
    fn single_fragment_assemble_is_zero_copy() {
        let payload = Bytes::from_static(b"fits in one fragment");
        let frags = split(&payload, 1400).unwrap();
        assert_eq!(frags.len(), 1);
        let mut r = Reassembly::new(1);
        r.insert(0, frags[0].clone()).unwrap();
        let out = r.assemble();
        assert_eq!(out, payload);
        // Same backing storage, not a copy.
        assert_eq!(out.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn missing_indices() {
        let mut r = Reassembly::new(4);
        r.insert(1, Bytes::from_static(b"x")).unwrap();
        r.insert(3, Bytes::from_static(b"y")).unwrap();
        assert_eq!(r.missing(), vec![0, 2]);
        assert!(!r.complete());
        assert_eq!(r.received(), 2);
    }

    #[test]
    fn out_of_range_index_rejected() {
        let mut r = Reassembly::new(2);
        assert_eq!(r.insert(5, Bytes::new()).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn set_delivers_on_completion_only() {
        let payload = Bytes::from(vec![1u8; 300]);
        let frags = split(&payload, 100).unwrap();
        let mut set = ReassemblySet::new();
        assert!(set.insert(T0, 9, 0, 3, frags[0].clone()).unwrap().is_none());
        assert!(set.insert(T0, 9, 2, 3, frags[2].clone()).unwrap().is_none());
        assert_eq!(set.in_progress(), 1);
        let done = set.insert(T0, 9, 1, 3, frags[1].clone()).unwrap().unwrap();
        assert_eq!(done, payload);
        assert_eq!(set.in_progress(), 0);
        // A late duplicate fragment recreates a buffer (protocols guard
        // against this with their own dedup); verify it does not panic.
        assert!(set.insert(T0, 9, 1, 3, frags[1].clone()).unwrap().is_none());
    }

    #[test]
    fn set_rejects_inconsistent_count() {
        let mut set = ReassemblySet::new();
        set.insert(T0, 1, 0, 3, Bytes::new()).unwrap();
        assert_eq!(set.insert(T0, 1, 1, 4, Bytes::new()).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn a_one_fragment_message_completes_without_a_buffer() {
        let mut set = ReassemblySet::new();
        let msg = Bytes::from_static(b"whole");
        let done = set.insert(T0, 4, 0, 1, msg.clone()).unwrap().unwrap();
        assert_eq!(done.as_ptr(), msg.as_ptr(), "handed back, not copied");
        assert_eq!(set.in_progress(), 0);
        // The same id claiming one fragment while a multi-fragment
        // partial of it is held is still a changed count.
        set.insert(T0, 5, 0, 3, Bytes::from_static(b"a")).unwrap();
        let err = set.insert(T0, 5, 0, 1, Bytes::from_static(b"b")).unwrap_err();
        assert!(err.to_string().contains("fragment count changed"), "{err}");
        assert_eq!(set.received(5), 1, "the partial is untouched");
    }

    #[test]
    fn forget_discards_state() {
        let mut set = ReassemblySet::new();
        set.insert(T0, 1, 0, 2, Bytes::new()).unwrap();
        set.forget(1);
        assert_eq!(set.in_progress(), 0);
        assert!(set.partial(1).is_none());
    }

    #[test]
    fn take_returns_present_shares_with_indices() {
        let mut set = ReassemblySet::new();
        set.insert(T0, 5, 2, 4, Bytes::from_static(b"c")).unwrap();
        set.insert(T0, 5, 0, 4, Bytes::from_static(b"a")).unwrap();
        assert_eq!(set.received(5), 2);
        let taken = set.take(5).unwrap();
        assert_eq!(taken, vec![(0, Bytes::from_static(b"a")), (2, Bytes::from_static(b"c"))]);
        assert_eq!(set.in_progress(), 0);
        assert!(set.take(5).is_none());
    }

    #[test]
    fn partial_count_is_capped_with_stalest_evicted_first() {
        let mut set = ReassemblySet::new();
        for id in 0..MAX_PARTIAL_MSGS as u64 {
            // Later ids are fresher.
            set.insert(SimTime::from_nanos(id), id, 0, 2, Bytes::new()).unwrap();
        }
        assert_eq!(set.in_progress(), MAX_PARTIAL_MSGS);
        // One more: msg 0 (stalest) makes room.
        set.insert(SimTime::from_nanos(1 << 40), 1 << 40, 0, 2, Bytes::new()).unwrap();
        assert_eq!(set.in_progress(), MAX_PARTIAL_MSGS);
        assert!(set.partial(0).is_none(), "stalest entry should have been evicted");
        assert_eq!(
            set.partial(1).map(Reassembly::missing),
            Some(vec![1]),
            "fresher entries survive"
        );
    }

    #[test]
    fn stale_entries_are_evicted_by_virtual_time() {
        let mut set = ReassemblySet::new();
        let ttl = SimDuration::from_secs(60);
        set.insert(SimTime::from_nanos(0), 1, 0, 2, Bytes::new()).unwrap();
        set.insert(t(50), 2, 0, 3, Bytes::new()).unwrap();
        // At t=30s nothing is older than the ttl.
        assert!(set.evict_stale(t(30), ttl).is_empty());
        // At t=61s msg 1 (last activity t=0) is stale, msg 2 is not.
        assert_eq!(set.evict_stale(t(61), ttl), vec![1]);
        assert_eq!(set.in_progress(), 1);
        // A fresh fragment resets the clock: msg 2 refreshed at t=70s
        // survives the t=120s sweep.
        set.insert(t(70), 2, 1, 3, Bytes::new()).unwrap();
        assert!(set.evict_stale(t(120), ttl).is_empty());
    }

    #[test]
    fn duplicates_do_not_refresh_the_activity_clock() {
        let mut set = ReassemblySet::new();
        let ttl = SimDuration::from_secs(60);
        set.insert(t(0), 7, 0, 2, Bytes::from_static(b"x")).unwrap();
        // The same fragment replayed much later is not "activity".
        set.insert(t(100), 7, 0, 2, Bytes::from_static(b"x")).unwrap();
        assert_eq!(set.evict_stale(t(110), ttl), vec![7]);
    }

    #[test]
    fn import_stamps_entries_with_now() {
        let mut set = ReassemblySet::new();
        set.insert(SimTime::ZERO, 3, 0, 2, Bytes::from_static(b"x")).unwrap();
        let state = set.export();
        let mut restored = ReassemblySet::new();
        for (id, frags) in state {
            restored.import(t(1000), id, frags, ());
        }
        assert_eq!(restored.received(3), 1);
        // Freshly imported: survives a sweep that would evict a ZERO stamp.
        let ttl = SimDuration::from_secs(60);
        assert!(restored.evict_stale(t(1030), ttl).is_empty());
    }
}
