//! Property tests for the catalog's anti-entropy machinery.
//!
//! Four contracts carry the sharded metadata plane: the version-vector
//! codec must round-trip exactly (a replica that mis-reads a peer's
//! vector re-sends or skips updates forever), `updates_since`
//! pagination must deliver every logged update exactly once across
//! continuation batches no matter where the byte-budget cuts fall, its
//! per-origin range walk must answer exactly what a scan of the whole
//! log answers, and the store's compact layout must answer every query
//! exactly as the map-of-maps layout it replaced.

use std::collections::{BTreeMap, HashMap};

use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use snipe_rcds::assertion::{Assertion, Stamp};
use snipe_rcds::store::{RcStore, Update, VersionVector};
use snipe_rcds::uri::Uri;
use snipe_util::codec::{Decoder, WireDecode, WireEncode};

/// The reference `updates_since` is judged against: the scan of every
/// log entry that it replaced, kept verbatim.
fn full_scan<'a>(
    log: &'a BTreeMap<(u64, u64), Update>,
    their: &VersionVector,
    limit: usize,
) -> Vec<&'a Update> {
    let mut out = Vec::new();
    for (key, u) in log {
        let (origin, seq) = *key;
        let have = their.get(&origin).copied().unwrap_or(0);
        if seq >= have {
            out.push(u);
            if out.len() >= limit {
                break;
            }
        }
    }
    out
}

/// The layout `RcStore` replaced, kept as the differential reference:
/// a hash table of attributes per URI and one B-tree over the whole
/// log keyed by `(origin, seq)`.
struct MapOfMaps {
    server_id: u64,
    lamport: u64,
    next_seq: u64,
    data: HashMap<String, HashMap<String, Assertion>>,
    log: BTreeMap<(u64, u64), Update>,
    vector: VersionVector,
}

impl MapOfMaps {
    fn new(server_id: u64) -> MapOfMaps {
        MapOfMaps {
            server_id,
            lamport: 0,
            next_seq: 0,
            data: HashMap::new(),
            log: BTreeMap::new(),
            vector: VersionVector::new(),
        }
    }

    fn put(&mut self, uri: &Uri, mut assertion: Assertion, now_ns: u64) -> Assertion {
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

    fn apply(&mut self, update: Update) {
        let key = (update.origin, update.seq);
        if self.log.contains_key(&key) {
            return;
        }
        self.lamport = self.lamport.max(update.assertion.stamp.lamport);
        let e = self.vector.entry(update.origin).or_insert(0);
        *e = (*e).max(update.seq + 1);
        let by_name = self.data.entry(update.uri.clone()).or_default();
        match by_name.get(&update.assertion.name) {
            Some(existing) if !update.assertion.supersedes(existing) => {}
            _ => {
                by_name.insert(update.assertion.name.clone(), update.assertion.clone());
            }
        }
        self.log.insert(key, update);
    }

    #[allow(clippy::disallowed_methods, reason = "sorted by name, the map's unique key")]
    fn get(&self, uri: &Uri) -> Vec<Assertion> {
        let mut v: Vec<Assertion> = self
            .data
            .get(uri.as_str())
            .map(|m| m.values().filter(|a| !a.deleted).cloned().collect())
            .unwrap_or_default();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    fn get_one(&self, uri: &Uri, name: &str) -> Option<&Assertion> {
        self.data.get(uri.as_str()).and_then(|m| m.get(name)).filter(|a| !a.deleted)
    }

    #[allow(clippy::disallowed_methods, reason = "the URIs are sorted")]
    fn find_by_attr(&self, name: &str, value: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .data
            .iter()
            .filter(|(_, m)| m.get(name).is_some_and(|a| !a.deleted && a.value == value))
            .map(|(u, _)| u.clone())
            .collect();
        v.sort();
        v
    }
}

proptest! {
    /// Arbitrary vectors (any origin ids, any seqs, any size) survive
    /// encode → decode bit-exactly.
    #[test]
    fn vector_codec_round_trips(
        entries in collection::vec((0u64.., 0u64..), 0..12),
    ) {
        let mut v = VersionVector::new();
        for (origin, seq) in entries {
            v.insert(origin, seq);
        }
        let mut d = Decoder::new(v.encode_to_bytes());
        let back = VersionVector::decode(&mut d).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(d.remaining(), 0);
    }

    /// Decoding a truncated vector is an error, never a panic or a
    /// partial success that silently drops entries.
    #[test]
    fn truncated_vector_decode_errs(
        entries in collection::vec((0u64.., 0u64..), 1..8),
        cut in 0usize..128,
    ) {
        let mut v = VersionVector::new();
        for (origin, seq) in entries {
            v.insert(origin, seq);
        }
        let full = v.encode_to_bytes();
        let cut = cut % full.len();
        let mut d = Decoder::new(full.slice(..cut));
        prop_assert!(VersionVector::decode(&mut d).is_err());
    }

    /// Pagination: a peer that repeatedly asks "what am I missing?"
    /// with a small limit receives every update exactly once — no
    /// batch exceeds the limit, nothing is lost, nothing repeats —
    /// regardless of how many origins interleave in the log or where
    /// the batch boundaries cut an origin's run.
    #[test]
    fn updates_since_paginates_without_loss_or_dup(
        per_origin in collection::vec(1usize..14, 1..4),
        limit in 1usize..7,
    ) {
        // Several origins write independently, then one replica merges
        // every log (the anti-entropy source).
        let mut source = RcStore::new(99);
        for (o, &n) in per_origin.iter().enumerate() {
            let mut origin = RcStore::new(o as u64 + 1);
            for i in 0..n {
                let uri = Uri::process((o * 100 + i) as u64);
                origin.put(&uri, Assertion::new("k", format!("v{o}.{i}")), i as u64);
            }
            for u in origin.updates_since(&VersionVector::new(), usize::MAX) {
                source.apply(u.clone());
            }
        }
        let total = source.log_len();

        // A fresh sink pages everything across via its own vector.
        let mut sink = RcStore::new(100);
        let mut seen = Vec::new();
        let mut batches = 0usize;
        loop {
            let page = source.updates_since(sink.version_vector(), limit);
            prop_assert!(page.len() <= limit, "batch of {} exceeds limit {limit}", page.len());
            if page.is_empty() {
                break;
            }
            batches += 1;
            prop_assert!(batches <= total + 1, "pagination failed to make progress");
            for u in page {
                seen.push((u.origin, u.seq));
                sink.apply(u.clone());
            }
        }

        // Exactly once: every (origin, seq) in the source log, no dups.
        let mut expected: Vec<(u64, u64)> = per_origin
            .iter()
            .enumerate()
            .flat_map(|(o, &n)| (0..n as u64).map(move |s| (o as u64 + 1, s)))
            .collect();
        expected.sort_unstable();
        let mut got = seen.clone();
        got.sort_unstable();
        prop_assert_eq!(got.len(), seen.len(), "an update was delivered twice");
        prop_assert_eq!(got, expected);
        prop_assert_eq!(sink.log_len(), total);
        prop_assert_eq!(sink.version_vector(), source.version_vector());
    }

    /// Differential: over random multi-origin logs (gaps and arbitrary
    /// arrival order included) and peer vectors — origins only one side
    /// knows, a `have` past the highest logged seq, the empty vector —
    /// the range walk returns the full scan's updates in the full
    /// scan's order, at every limit the server or a test passes.
    #[test]
    fn updates_since_equals_the_full_scan(
        entries in collection::vec((0u64..6, 0u64..40), 0..80),
        their in collection::vec((0u64..9, 0u64..50), 0..6),
        limit in 0usize..4,
    ) {
        let mut store = RcStore::new(99);
        let mut log = BTreeMap::new();
        for (i, &(origin, seq)) in entries.iter().enumerate() {
            let mut assertion = Assertion::new("k", format!("v{i}"));
            assertion.stamp = Stamp { lamport: i as u64 + 1, server: origin };
            let uri = Uri::process(seq % 7).as_str().to_string();
            let update = Update { origin, seq, uri, assertion };
            store.apply(update.clone());
            log.entry((origin, seq)).or_insert(update);
        }
        prop_assert_eq!(store.log_len(), log.len());
        let their: VersionVector = their.into_iter().collect();
        // 64 is the server's PUSH_BATCH.
        let limit = [0, 1, 64, usize::MAX][limit];
        prop_assert_eq!(store.updates_since(&their, limit), full_scan(&log, &their, limit));
    }

    /// Differential: random puts, deletes and replicated applies —
    /// multi-attribute URIs, tied stamps, duplicate `(origin, seq)`s
    /// with other contents, seqs out of order and with gaps, foreign
    /// updates under the store's own origin — leave the store answering
    /// every query exactly as the map-of-maps layout does, and
    /// `updates_since` visiting exactly the entries it returns.
    #[test]
    fn compact_layout_equals_the_map_of_maps(
        ops in collection::vec(
            (0u8..4, (0u64..4, 0u64..12), (0u64..5, 0u8..3, 0u8..3), (0u64..6, 0u64..4)),
            0..120,
        ),
        their in collection::vec((0u64..5, 0u64..14), 0..5),
    ) {
        const NAMES: [&str; 3] = ["a", "k", "public-key"];
        const VALUES: [&str; 3] = ["", "v", "w"];
        let uri = |u: u64| Uri::process(u);
        let mut store = RcStore::new(2);
        let mut model = MapOfMaps::new(2);
        for (i, &(kind, (origin, seq), (u, name, value), (lamport, server))) in ops.iter().enumerate() {
            let (name, value) = (NAMES[name as usize], VALUES[value as usize]);
            match kind {
                0 => {
                    let a = Assertion::new(name, value);
                    prop_assert_eq!(store.put(&uri(u), a.clone(), i as u64), model.put(&uri(u), a, i as u64));
                }
                1 => {
                    store.delete(&uri(u), name, i as u64);
                    let mut a = Assertion::new(name, "");
                    a.deleted = true;
                    model.put(&uri(u), a, i as u64);
                }
                _ => {
                    let mut assertion = Assertion::new(name, value);
                    assertion.stamp = Stamp { lamport, server };
                    assertion.stored_at_ns = i as u64;
                    assertion.deleted = kind == 3 && value.is_empty();
                    let update = Update { origin, seq, uri: uri(u).as_str().to_string(), assertion };
                    store.apply(update.clone());
                    model.apply(update);
                }
            }
        }
        for u in 0..5 {
            prop_assert_eq!(store.get(&uri(u)), model.get(&uri(u)));
            for name in NAMES {
                prop_assert_eq!(store.get_one(&uri(u), name), model.get_one(&uri(u), name));
            }
        }
        for name in NAMES {
            for value in VALUES {
                prop_assert_eq!(store.find_by_attr(name, value), model.find_by_attr(name, value));
            }
        }
        prop_assert_eq!(store.uri_count(), model.data.len());
        prop_assert_eq!(store.log_len(), model.log.len());
        prop_assert_eq!(store.version_vector(), &model.vector);
        let their: VersionVector = their.into_iter().collect();
        for limit in [0, 1, 64, usize::MAX] {
            let visited = store.log_visited();
            let got = store.updates_since(&their, limit);
            prop_assert_eq!(store.log_visited() - visited, got.len() as u64);
            prop_assert_eq!(got, full_scan(&model.log, &their, limit));
        }
    }
}
