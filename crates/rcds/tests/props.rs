//! Property tests for the catalog's anti-entropy machinery.
//!
//! Three contracts carry the sharded metadata plane: the version-vector
//! codec must round-trip exactly (a replica that mis-reads a peer's
//! vector re-sends or skips updates forever), `updates_since`
//! pagination must deliver every logged update exactly once across
//! continuation batches no matter where the byte-budget cuts fall, and
//! its per-origin range walk must answer exactly what a scan of the
//! whole log answers.

use std::collections::BTreeMap;

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
}
