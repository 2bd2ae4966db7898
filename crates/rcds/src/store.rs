//! The replicated catalog: per-URI assertion sets plus the update log
//! and version vector that drive anti-entropy.
//!
//! Every accepted write becomes an [`Update`] stamped `(origin, seq)`;
//! replicas exchange version vectors and push the updates the other
//! side has not seen. Applying an update is idempotent and commutative
//! (last-writer-wins on [`Stamp`]), so replicas converge regardless of
//! delivery order — the availability-first consistency model §2.1
//! argues for.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

use snipe_util::wire_codec;

use crate::assertion::{Assertion, Stamp};
use crate::uri::Uri;

/// One replicated write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Update {
    /// Server that accepted the write.
    pub origin: u64,
    /// Per-origin sequence number.
    pub seq: u64,
    /// Resource the assertion is about.
    pub uri: String,
    /// The stamped assertion (may be a tombstone).
    pub assertion: Assertion,
}

wire_codec!(struct Update { origin, seq, uri, assertion });

impl Update {
    /// Exact length of its encoding, without encoding.
    pub fn wire_len(&self) -> usize {
        8 + 8 + (4 + self.uri.len()) + self.assertion.wire_len()
    }
}

/// A version vector: highest contiguous sequence seen per origin, in
/// origin order (the order of the log and of the wire encoding).
pub type VersionVector = BTreeMap<u64, u64>;

/// One replica's state.
#[derive(Clone, Debug)]
pub struct RcStore {
    /// This server's id (used as stamp tie-break and update origin).
    server_id: u64,
    /// Lamport clock.
    lamport: u64,
    /// Next local sequence number.
    next_seq: u64,
    /// uri -> name -> assertion (live and tombstoned).
    data: HashMap<String, HashMap<String, Assertion>>,
    /// All updates known, by (origin, seq) — the anti-entropy log.
    log: BTreeMap<(u64, u64), Update>,
    /// Highest seq seen per origin.
    vector: VersionVector,
    /// Log entries `updates_since` has visited (that query only reads).
    log_visited: Cell<u64>,
}

impl RcStore {
    /// A fresh replica.
    pub fn new(server_id: u64) -> RcStore {
        RcStore {
            server_id,
            lamport: 0,
            next_seq: 0,
            data: HashMap::new(),
            log: BTreeMap::new(),
            vector: VersionVector::new(),
            log_visited: Cell::new(0),
        }
    }

    /// This replica's id.
    pub fn server_id(&self) -> u64 {
        self.server_id
    }

    /// Accept a local write: stamp it, log it, apply it. Returns the
    /// stored assertion (with its assigned stamp).
    pub fn put(&mut self, uri: &Uri, mut assertion: Assertion, now_ns: u64) -> Assertion {
        self.lamport += 1;
        assertion.stamp = Stamp { lamport: self.lamport, server: self.server_id };
        assertion.stored_at_ns = now_ns;
        let update = Update {
            origin: self.server_id,
            seq: self.next_seq,
            uri: uri.as_str().to_string(),
            assertion: assertion.clone(),
        };
        self.next_seq += 1;
        self.apply(update);
        assertion
    }

    /// Accept a local delete (tombstone) for `name` on `uri`.
    pub fn delete(&mut self, uri: &Uri, name: &str, now_ns: u64) {
        let mut a = Assertion::new(name, "");
        a.deleted = true;
        self.put(uri, a, now_ns);
    }

    /// Live assertions for a URI (tombstones filtered), sorted by name.
    #[allow(clippy::disallowed_methods, reason = "sorted by name, the map's unique key")]
    pub fn get(&self, uri: &Uri) -> Vec<Assertion> {
        let mut v: Vec<Assertion> = self
            .data
            .get(uri.as_str())
            .map(|m| m.values().filter(|a| !a.deleted).cloned().collect())
            .unwrap_or_default();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// One live attribute value.
    pub fn get_one(&self, uri: &Uri, name: &str) -> Option<&Assertion> {
        self.data.get(uri.as_str()).and_then(|m| m.get(name)).filter(|a| !a.deleted)
    }

    /// All URIs with a live assertion whose name equals `name` and
    /// value equals `value` (simple exact-match query).
    #[allow(clippy::disallowed_methods, reason = "the URIs are sorted")]
    pub fn find_by_attr(&self, name: &str, value: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .data
            .iter()
            .filter(|(_, m)| m.get(name).is_some_and(|a| !a.deleted && a.value == value))
            .map(|(u, _)| u.clone())
            .collect();
        v.sort();
        v
    }

    /// Apply one update (local or replicated). Idempotent.
    pub fn apply(&mut self, update: Update) {
        let key = (update.origin, update.seq);
        if self.log.contains_key(&key) {
            return;
        }
        // Lamport clock advance.
        if update.assertion.stamp.lamport > self.lamport {
            self.lamport = update.assertion.stamp.lamport;
        }
        let e = self.vector.entry(update.origin).or_insert(0);
        if update.seq + 1 > *e {
            *e = update.seq + 1;
        }
        let by_name = match self.data.get_mut(&update.uri) {
            Some(by_name) => by_name,
            None => self.data.entry(update.uri.clone()).or_default(),
        };
        match by_name.get(&update.assertion.name) {
            Some(existing) if !update.assertion.supersedes(existing) => {}
            _ => {
                by_name.insert(update.assertion.name.clone(), update.assertion.clone());
            }
        }
        self.log.insert(key, update);
    }

    /// This replica's version vector.
    pub fn version_vector(&self) -> &VersionVector {
        &self.vector
    }

    /// Updates the peer (described by `their` vector) has not seen, in
    /// log order, stopping at `limit` (0 behaves as 1) to bound datagram
    /// size. Each origin's run is entered at the peer's `have`: the cost
    /// is what the peer lacks, not the length of the log.
    pub fn updates_since(&self, their: &VersionVector, limit: usize) -> Vec<&Update> {
        let mut out = Vec::new();
        for &origin in self.vector.keys() {
            let have = their.get(&origin).copied().unwrap_or(0);
            for (_, u) in self.log.range((origin, have)..=(origin, u64::MAX)) {
                self.log_visited.set(self.log_visited.get() + 1);
                out.push(u);
                if out.len() >= limit {
                    return out;
                }
            }
        }
        out
    }

    /// Total updates logged (diagnostics).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Log entries every `updates_since` so far has visited.
    pub fn log_visited(&self) -> u64 {
        self.log_visited.get()
    }

    /// Number of URIs with any assertion.
    pub fn uri_count(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::{WireDecode, WireEncode};

    fn uri(i: u32) -> Uri {
        Uri::process(i as u64)
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = RcStore::new(1);
        s.put(&uri(1), Assertion::new("k", "v"), 100);
        let got = s.get(&uri(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, "v");
        assert_eq!(got[0].stored_at_ns, 100);
        assert!(got[0].stamp.lamport > 0);
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut s = RcStore::new(1);
        s.put(&uri(1), Assertion::new("k", "v1"), 0);
        s.put(&uri(1), Assertion::new("k", "v2"), 1);
        assert_eq!(s.get_one(&uri(1), "k").unwrap().value, "v2");
        assert_eq!(s.get(&uri(1)).len(), 1);
    }

    #[test]
    fn delete_tombstones() {
        let mut s = RcStore::new(1);
        s.put(&uri(1), Assertion::new("k", "v"), 0);
        s.delete(&uri(1), "k", 1);
        assert!(s.get(&uri(1)).is_empty());
        assert!(s.get_one(&uri(1), "k").is_none());
    }

    #[test]
    fn find_by_attr() {
        let mut s = RcStore::new(1);
        s.put(&uri(1), Assertion::new("type", "host"), 0);
        s.put(&uri(2), Assertion::new("type", "host"), 0);
        s.put(&uri(3), Assertion::new("type", "proc"), 0);
        let hosts = s.find_by_attr("type", "host");
        assert_eq!(hosts.len(), 2);
    }

    #[test]
    fn two_replicas_converge_via_updates() {
        let mut a = RcStore::new(1);
        let mut b = RcStore::new(2);
        a.put(&uri(1), Assertion::new("x", "from-a"), 0);
        b.put(&uri(2), Assertion::new("y", "from-b"), 0);
        // Pull each way.
        for u in a.updates_since(b.version_vector(), 100) {
            b.apply(u.clone());
        }
        for u in b.updates_since(a.version_vector(), 100) {
            a.apply(u.clone());
        }
        assert_eq!(a.get_one(&uri(2), "y").unwrap().value, "from-b");
        assert_eq!(b.get_one(&uri(1), "x").unwrap().value, "from-a");
        assert_eq!(a.log_len(), b.log_len());
    }

    #[test]
    fn concurrent_writes_resolve_deterministically() {
        let mut a = RcStore::new(1);
        let mut b = RcStore::new(2);
        // Same lamport value on both: server id breaks the tie, so the
        // write accepted by the higher-id server wins everywhere.
        a.put(&uri(1), Assertion::new("k", "a-wins?"), 0);
        b.put(&uri(1), Assertion::new("k", "b-wins?"), 0);
        for u in a.updates_since(b.version_vector(), 100) {
            b.apply(u.clone());
        }
        for u in b.updates_since(a.version_vector(), 100) {
            a.apply(u.clone());
        }
        let va = a.get_one(&uri(1), "k").unwrap().value.clone();
        let vb = b.get_one(&uri(1), "k").unwrap().value.clone();
        assert_eq!(va, vb);
        assert_eq!(va, "b-wins?");
    }

    #[test]
    fn tombstone_beats_older_write_after_merge() {
        let mut a = RcStore::new(1);
        let mut b = RcStore::new(2);
        a.put(&uri(1), Assertion::new("k", "v"), 0);
        for u in a.updates_since(b.version_vector(), 100) {
            b.apply(u.clone());
        }
        b.delete(&uri(1), "k", 1);
        for u in b.updates_since(a.version_vector(), 100) {
            a.apply(u.clone());
        }
        assert!(a.get_one(&uri(1), "k").is_none());
    }

    #[test]
    fn apply_is_idempotent() {
        let mut a = RcStore::new(1);
        let mut b = RcStore::new(2);
        a.put(&uri(1), Assertion::new("k", "v"), 0);
        let ups = a.updates_since(b.version_vector(), 100);
        for u in ups {
            b.apply(u.clone());
            b.apply(u.clone());
        }
        assert_eq!(b.log_len(), 1);
        assert_eq!(b.get(&uri(1)).len(), 1);
    }

    #[test]
    fn updates_since_respects_limit() {
        let mut a = RcStore::new(1);
        for i in 0..50 {
            a.put(&uri(i), Assertion::new("k", "v"), 0);
        }
        let ups = a.updates_since(&VersionVector::new(), 10);
        assert_eq!(ups.len(), 10);
    }

    #[test]
    fn three_replica_gossip_chain_converges() {
        let mut replicas = [RcStore::new(1), RcStore::new(2), RcStore::new(3)];
        replicas[0].put(&uri(1), Assertion::new("a", "1"), 0);
        replicas[1].put(&uri(2), Assertion::new("b", "2"), 0);
        replicas[2].put(&uri(3), Assertion::new("c", "3"), 0);
        // Ring gossip a few rounds.
        for _ in 0..3 {
            for i in 0..3 {
                let j = (i + 1) % 3;
                let ups: Vec<Update> = replicas[i]
                    .updates_since(replicas[j].version_vector(), 100)
                    .into_iter()
                    .cloned()
                    .collect();
                for u in ups {
                    replicas[j].apply(u);
                }
            }
        }
        for r in &replicas {
            assert_eq!(r.uri_count(), 3, "server {} missing data", r.server_id());
            assert_eq!(r.log_len(), 3);
        }
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        let mut a = RcStore::new(1);
        let mut signed = Assertion::new("public-key", "abc");
        signed.signature = Some(vec![7; 64]);
        a.put(&uri(1), Assertion::new("k", "v"), 0);
        a.put(&uri(2), signed, 1);
        a.delete(&uri(1), "k", 2);
        for u in a.updates_since(&VersionVector::new(), usize::MAX) {
            assert_eq!(u.wire_len(), u.encode_to_bytes().len());
        }
    }

    #[test]
    fn vector_codec_round_trip() {
        let mut v = VersionVector::new();
        v.insert(1, 5);
        v.insert(9, 2);
        assert_eq!(VersionVector::decode_from_bytes(v.encode_to_bytes()).unwrap(), v);
    }
}
