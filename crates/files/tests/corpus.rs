//! Hostile-input corpus for the file-service decoder (the
//! `wire/tests/corpus.rs` pattern at the FileMsg layer).
//!
//! FileMsg bodies ride SRUDP, whose envelope checksum stops random
//! line noise — but a forged body arrives intact, and a buggy peer can
//! emit anything. The contract: the decoder never panics, truncation
//! and forgery are errors, the server counts every undecodable
//! delivery (`FileServerActor::decode_drops`), and the striped-fetch
//! state machine counts forged stripe replies instead of absorbing
//! them.

use bytes::Bytes;
use snipe_crypto::sha256::sha256;
use snipe_files::proto::FileMsg;
use snipe_files::StripedFetch;
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{Encoder, WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};

fn ep(h: u32, p: u16) -> Endpoint {
    Endpoint::new(HostId(h), p)
}

/// Deterministic garbage generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            v.extend_from_slice(&self.next().to_le_bytes());
        }
        v.truncate(len);
        Bytes::from(v)
    }
}

/// One representative frame per message kind, so the truncation and
/// flip sweeps cover every decode arm.
fn samples() -> Vec<FileMsg> {
    let body = Bytes::from_static(b"stripe payload bytes");
    let hash = Bytes::copy_from_slice(&sha256(&body));
    vec![
        FileMsg::OpenSink { req_id: 1, lifn: "lifn:a".into() },
        FileMsg::SinkOpened { req_id: 1, sink: ep(3, 200) },
        FileMsg::Append { data: body.clone() },
        FileMsg::CloseSink,
        FileMsg::StoreLocal { lifn: "lifn:a".into(), content: body.clone() },
        FileMsg::OpenSource { req_id: 2, lifn: "lifn:a".into(), dest: ep(4, 300) },
        FileMsg::SourceData { lifn: "lifn:a".into(), seq: 3, data: body.clone(), last: true },
        FileMsg::ReadReq { req_id: 5, lifn: "lifn:a".into() },
        FileMsg::ReadResp { req_id: 5, ok: true, content: body.clone(), hash: hash.clone() },
        FileMsg::StoreReq { req_id: 6, lifn: "lifn:a".into(), content: body.clone() },
        FileMsg::StoreResp { req_id: 6, ok: true },
        FileMsg::ReplicaPush { lifn: "lifn:a".into(), content: body.clone(), hash: hash.clone() },
        FileMsg::ReplicaAck { lifn: "lifn:a".into() },
        FileMsg::ReadStripe { req_id: 7, lifn: "lifn:a".into(), offset: 4096, len: 2048 },
        FileMsg::StripeData {
            req_id: 7,
            ok: true,
            offset: 4096,
            total_len: 20_000,
            data: body,
            hash,
        },
    ]
}

#[test]
fn every_strict_prefix_of_every_message_kind_errs() {
    for msg in samples() {
        let full = msg.encode_to_bytes();
        // Sanity: the pristine frame round-trips.
        assert_eq!(FileMsg::decode_from_bytes(full.clone()).unwrap(), msg);
        for len in 0..full.len() {
            assert!(
                FileMsg::decode_from_bytes(full.slice(0..len)).is_err(),
                "{msg:?}: prefix of {len}/{} bytes decoded",
                full.len()
            );
        }
    }
}

#[test]
fn every_bit_flip_never_panics_and_magic_flips_always_err() {
    for msg in samples() {
        let full = msg.encode_to_bytes();
        for i in 0..full.len() {
            for bit in 0..8 {
                let mut hostile = full.to_vec();
                hostile[i] ^= 1 << bit;
                // Must not panic; a changed magic or tag byte must err.
                let r = FileMsg::decode_from_bytes(Bytes::from(hostile));
                if i == 0 {
                    assert!(r.is_err(), "{msg:?}: flipped magic byte decoded");
                }
            }
        }
    }
}

#[test]
fn random_garbage_never_panics_and_never_aliases_magic_free_frames() {
    let mut rng = Rng(0xbadf00d);
    for i in 0..2_000u64 {
        let len = (i % 97) as usize;
        let garbage = rng.bytes(len);
        let magic_ok = garbage.first() == Some(&0xA4);
        let r = FileMsg::decode_from_bytes(garbage);
        if !magic_ok {
            assert!(r.is_err(), "garbage without the magic byte decoded");
        }
    }
}

#[test]
fn forged_giant_length_fields_are_rejected_without_allocating() {
    // A StoreReq claiming a 4 GiB content field in a tiny datagram.
    let mut enc = Encoder::new();
    enc.put_u8(0xA4); // file-service magic
    enc.put_u8(10); // T_STORE_REQ
    enc.put_u64(1);
    enc.put_str("lifn:a");
    enc.put_u32(u32::MAX); // hostile content length
    assert!(FileMsg::decode_from_bytes(enc.finish()).is_err());
}

#[test]
fn forged_stripe_replies_are_counted_not_absorbed() {
    let replicas = vec![ep(1, 4), ep(2, 4)];
    let mut f = StripedFetch::new("lifn:a", replicas.clone(), 2048, SimDuration::from_millis(400));
    let now = SimTime::ZERO;
    f.start(now);
    let sent = f.drain_outbox();
    assert_eq!(sent.len(), 1);
    let (target, req) = &sent[0];
    let FileMsg::ReadStripe { req_id, offset, .. } = *req else { panic!("expected ReadStripe") };

    // Unknown request id: stale, not acted on.
    f.on_msg(
        now,
        *target,
        FileMsg::StripeData {
            req_id: req_id ^ 0xFFFF,
            ok: true,
            offset,
            total_len: 4096,
            data: Bytes::from_static(b"x"),
            hash: Bytes::new(),
        },
    );
    assert_eq!(f.stats().stale_replies, 1);

    // Right id, wrong replica: mismatched, the pending slot survives.
    let other = replicas.iter().copied().find(|e| e != target).unwrap();
    let body = Bytes::from(vec![7u8; 2048]);
    let good_hash = Bytes::copy_from_slice(&sha256(&body));
    f.on_msg(
        now,
        other,
        FileMsg::StripeData {
            req_id,
            ok: true,
            offset,
            total_len: 4096,
            data: body.clone(),
            hash: good_hash.clone(),
        },
    );
    assert_eq!(f.stats().mismatched_replies, 1);

    // Right id and replica, forged hash: integrity reject + refetch.
    f.on_msg(
        now,
        *target,
        FileMsg::StripeData {
            req_id,
            ok: true,
            offset,
            total_len: 4096,
            data: body,
            hash: Bytes::from(vec![0u8; 32]),
        },
    );
    assert_eq!(f.stats().integrity_rejects, 1);
    assert!(!f.done(), "a forged stripe must not complete the fetch");
    assert!(!f.drain_outbox().is_empty(), "the rejected stripe must be re-requested");
}
