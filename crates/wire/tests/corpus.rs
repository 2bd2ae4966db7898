//! Corrupt-frame corpus: hostile bytes against the full wire stack.
//!
//! Every datagram here is something a broken router, a chaos fault or
//! an attacker could put on the wire. The contract under test: the
//! stack never panics, never delivers garbage, and *counts* every
//! rejection in its decode-drop counters — hostile input is expected
//! input.

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::Encoder;
use snipe_util::id::HostId;
use snipe_util::time::SimTime;
use snipe_wire::frame::{seal, Proto, ENVELOPE_OVERHEAD};
use snipe_wire::rstream::RstreamConfig;
use snipe_wire::stack::{DecodeDrops, StackConfig, WireStack};

fn ep(h: u32, p: u16) -> Endpoint {
    Endpoint::new(HostId(h), p)
}

/// A stack with every driver registered, so hostile bodies reach all
/// three protocol decoders, not just SRUDP.
fn full_stack(key: u64) -> WireStack {
    let cfg = StackConfig {
        rstream: Some(RstreamConfig::default()),
        mcast_member: true,
        ..StackConfig::default()
    };
    WireStack::new(key, cfg)
}

/// Tiny deterministic generator (splitmix64) so the garbage corpus is
/// identical on every run.
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

/// A representative valid datagram: the first SRUDP DATA frame a stack
/// emits for a small message.
fn valid_srudp_frame() -> Bytes {
    let mut a = WireStack::new(1, StackConfig::default());
    a.set_peer(2, ep(1, 5), vec![]);
    a.send(SimTime::ZERO, 2, Bytes::from_static(b"corpus seed message")).unwrap();
    for o in a.drain() {
        if let snipe_wire::Out::Send { bytes, .. } = o {
            return bytes;
        }
    }
    panic!("stack emitted no datagram");
}

#[test]
fn truncated_datagrams_are_counted_drops() {
    let mut b = full_stack(2);
    let valid = valid_srudp_frame();
    let mut fed = 0u64;
    // Every strict prefix shorter than the envelope...
    for len in 0..ENVELOPE_OVERHEAD {
        assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), valid.slice(0..len)).is_err());
        fed += 1;
    }
    assert_eq!(b.decode_drops(), fed);
    let short = ENVELOPE_OVERHEAD as u64;
    assert_eq!(b.decode_stats(), DecodeDrops { truncated: short, ..DecodeDrops::default() });
    // ...and longer prefixes, which pass the length guard but lose
    // their checksum trailer.
    for len in ENVELOPE_OVERHEAD..valid.len() {
        assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), valid.slice(0..len)).is_err());
        fed += 1;
    }
    assert_eq!(b.decode_drops(), fed);
    let torn = fed - short;
    assert_eq!(
        b.decode_stats(),
        DecodeDrops { truncated: short, checksum: torn, ..DecodeDrops::default() }
    );
}

#[test]
fn every_bit_flip_of_a_valid_frame_is_a_counted_drop() {
    let mut b = full_stack(2);
    let valid = valid_srudp_frame();
    // Sanity: the pristine frame is consumed without error.
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), valid.clone()).is_ok());
    assert_eq!(b.decode_drops(), 0);
    let mut flips = 0u64;
    for i in 0..valid.len() {
        for bit in 0..8 {
            let mut hostile = valid.to_vec();
            hostile[i] ^= 1 << bit;
            let r = b.on_datagram(SimTime::ZERO, ep(0, 5), Bytes::from(hostile));
            assert!(r.is_err(), "flip of byte {i} bit {bit} was accepted");
            flips += 1;
        }
    }
    assert_eq!(b.decode_drops(), flips, "every flipped frame must be counted");
    // A single flip can break the checksum or (on the tag byte) the
    // checksum as well — either way nothing should classify as a valid
    // envelope with a bad body.
    assert_eq!(b.decode_stats(), DecodeDrops { checksum: flips, ..DecodeDrops::default() });
}

#[test]
fn random_garbage_never_panics() {
    let mut b = full_stack(2);
    let mut rng = Rng(0xc0ffee);
    let mut fed = 0u64;
    for i in 0..2_000 {
        let len = (i % 97) as usize; // 0..96 bytes, cycling
        let r = b.on_datagram(SimTime::ZERO, ep(0, 5), rng.bytes(len));
        if r.is_err() {
            fed += 1;
        }
    }
    // A 32-bit checksum makes an accidental pass a ~1-in-4-billion
    // event; 2000 tries must all be rejected and all be counted.
    assert_eq!(fed, 2_000);
    assert_eq!(b.decode_drops(), 2_000);
    assert_eq!(b.decode_stats().body, 0, "no garbage passed the envelope checksum");
}

#[test]
fn valid_envelope_with_garbage_body_is_a_counted_driver_drop() {
    let mut b = full_stack(2);
    let mut rng = Rng(0xbadf00d);
    let mut expected_body = 0u64;
    for proto in [Proto::Srudp, Proto::Rstream, Proto::Mcast] {
        for len in [1usize, 9, 33] {
            let dg = seal(proto, rng.bytes(len));
            assert!(
                b.on_datagram(SimTime::ZERO, ep(0, 5), dg).is_err(),
                "garbage {proto:?} body of {len} bytes was accepted"
            );
            expected_body += 1;
        }
        // Empty bodies lack even a kind byte.
        assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), seal(proto, Bytes::new())).is_err());
        expected_body += 1;
    }
    assert_eq!(b.decode_stats(), DecodeDrops { body: expected_body, ..DecodeDrops::default() });
    assert_eq!(b.decode_drops(), expected_body);
    // Raw frames have no driver; garbage raw bodies surface unharmed.
    let inc = b.on_datagram(SimTime::ZERO, ep(0, 5), seal(Proto::Raw, rng.bytes(16))).unwrap();
    assert!(inc.is_some());
}

#[test]
fn forged_giant_fragment_count_is_rejected_without_allocating() {
    // A single well-checksummed SRUDP DATA header claiming u32::MAX
    // fragments: before the reassembly bound this allocated gigabytes.
    let mut enc = Encoder::with_capacity(64);
    enc.put_u8(1); // SRUDP Data
    enc.put_u64(77); // src key
    enc.put_u64(0); // msg id
    enc.put_u32(0); // frag idx
    enc.put_u32(u32::MAX); // hostile frag count
    enc.put_bytes(b"x");
    let dg = seal(Proto::Srudp, enc.finish());
    let mut b = full_stack(2);
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), dg).is_err());
    assert_eq!(b.decode_stats().body, 1);
}

#[test]
fn forged_out_of_range_fragment_index_does_not_poison_state() {
    // Hostile index beyond the claimed count: must error, and must not
    // leave a reassembly buffer behind that blocks the real message.
    let make = |idx: u32, count: u32, payload: &[u8]| {
        let mut enc = Encoder::with_capacity(64);
        enc.put_u8(1); // SRUDP Data
        enc.put_u64(77);
        enc.put_u64(0); // first msg id: FIFO delivery starts here
        enc.put_u32(idx);
        enc.put_u32(count);
        enc.put_bytes(payload);
        seal(Proto::Srudp, enc.finish())
    };
    let mut b = full_stack(2);
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), make(9, 2, b"evil")).is_err());
    // The genuine two-fragment message still assembles and delivers.
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), make(0, 2, b"first ")).is_ok());
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), make(1, 2, b"second")).is_ok());
    let delivered: Vec<Bytes> = b
        .drain()
        .into_iter()
        .filter_map(|o| match o {
            snipe_wire::Out::Deliver { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 1);
    assert_eq!(&delivered[0][..], b"first second");
}

#[test]
fn oversized_datagrams_are_handled() {
    let mut b = full_stack(2);
    let mut rng = Rng(7);
    // 256 KiB of garbage: far beyond any MTU, still just a counted drop.
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), rng.bytes(256 * 1024)).is_err());
    // A huge but *valid* raw frame surfaces rather than being dropped:
    // size alone is not corruption (the netsim enforces MTU separately).
    let big = seal(Proto::Raw, rng.bytes(128 * 1024));
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), big).unwrap().is_some());
    assert_eq!(b.decode_stats(), DecodeDrops { checksum: 1, ..DecodeDrops::default() });
}

/// A well-sealed SRUDP Fec share with attacker-chosen header fields:
/// share `idx` of block `block`, blocks of at most `b`.
fn fec_share(idx: u32, b: u8, block: u16, msg_len: u32, checksum: u32, payload: &[u8]) -> Bytes {
    let mut enc = Encoder::with_capacity(64 + payload.len());
    enc.put_u8(3); // SRUDP Fec
    enc.put_u64(77); // src key
    enc.put_u64(0); // msg id
    enc.put_u32(idx);
    enc.put_u8(b);
    enc.put_u16(block);
    enc.put_u32(msg_len);
    enc.put_u32(checksum);
    enc.put_bytes(payload);
    seal(Proto::Srudp, enc.finish())
}

#[test]
fn hostile_fec_headers_are_counted_driver_drops() {
    let mut b = full_stack(2);
    // With 1-byte shares a 100-byte message is 100 data shares; in
    // blocks of at most 3 that is 34 blocks, the first 32 of b = 3
    // (five shares each).
    let hostile = [
        fec_share(0, 0, 0, 100, 9, b"x"),        // b = 0: no such code
        fec_share(0, 1, 0, 100, 9, b"x"),        // b = 1: FEC never emits it
        fec_share(0, 200, 0, 100, 9, b"x"),      // b > MAX_B
        fec_share(0, 3, 0, 0, 9, b"x"),          // zero-length message
        fec_share(0, 3, 0, 1, 9, b"x"),          // one data share: never coded
        fec_share(0, 3, 0, 100, 9, b""),         // empty share
        fec_share(u32::MAX, 3, 0, 100, 9, b"x"), // share index ≥ 2b-1
        fec_share(5, 3, 0, 100, 9, b"x"),        // 5 ≥ 2*3-1: beyond its block
        fec_share(0, 3, 34, 100, 9, b"x"),       // block 34 of 34
        fec_share(0, 3, u16::MAX, 100, 9, b"x"), // block far out of range
    ];
    let mut fed = 0u64;
    for dg in hostile {
        assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), dg).is_err());
        fed += 1;
        assert_eq!(b.decode_stats().body, fed);
    }
    // No reassembly state was poisoned, nothing delivered.
    assert!(b.drain().iter().all(|o| !matches!(o, snipe_wire::Out::Deliver { .. })));
}

#[test]
fn contradictory_fec_metadata_is_rejected_and_contained() {
    let mut b = full_stack(2);
    // First share pins the message metadata...
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(0, 3, 0, 90, 7, b"abc")).is_ok());
    // ...a forged sibling with a different checksum contradicts it...
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(1, 3, 0, 90, 8, b"abc")).is_err());
    assert_eq!(b.decode_stats().body, 1);
    // ...and so does one with another block size, in another block.
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(1, 4, 2, 90, 7, b"abc")).is_err());
    assert_eq!(b.decode_stats().body, 2);
    // A conflicting duplicate of an already-held share is equally hostile.
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(0, 3, 0, 90, 7, b"xyz")).is_err());
    assert_eq!(b.decode_stats().body, 3);
}

#[test]
fn forged_quorum_with_wrong_checksum_is_never_delivered() {
    // An attacker fabricates a full quorum of "shares" whose declared
    // checksum does not match what they reconstruct to: the stack must
    // reject at the reconstruct-then-verify gate, not deliver garbage.
    let mut b = full_stack(2);
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(0, 2, 0, 6, 0xDEAD, b"abc")).is_ok());
    let err = b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(1, 2, 0, 6, 0xDEAD, b"def"));
    assert!(err.is_err(), "checksum-mismatched reconstruction must error");
    assert!(b.drain().iter().all(|o| !matches!(o, snipe_wire::Out::Deliver { .. })));
    // The poisoned partial is forgotten: the real sender's retry can
    // start clean rather than colliding with attacker state.
    assert!(b.on_datagram(SimTime::ZERO, ep(0, 5), fec_share(0, 2, 0, 6, 0xDEAD, b"abc")).is_ok());
}

#[test]
fn rstream_ack_beyond_what_was_sent_is_a_counted_driver_drop() {
    // A well-formed, well-sealed cumulative ACK for bytes the sender
    // never transmitted. Taken at face value it put `snd_una` above
    // `snd_nxt`: a subtract-overflow panic on the next send in debug
    // builds, a connection wedged for good in release.
    let control = |kind: u8, id: u64, cum: Option<u64>| {
        let mut enc = Encoder::with_capacity(32);
        enc.put_u8(kind);
        enc.put_u64(id);
        if let Some(cum) = cum {
            enc.put_u64(cum);
        }
        seal(Proto::Rstream, enc.finish())
    };
    let mut a = full_stack(1);
    let peer = ep(1, 5);
    let id = a.rstream_mut().unwrap().connect(SimTime::ZERO, peer);
    a.on_datagram(SimTime::ZERO, peer, control(2, id, None)).unwrap(); // RSTREAM SynAck
    a.rstream_mut().unwrap().send_message(SimTime::ZERO, id, b"thirteen bytes").unwrap();
    let hostile = control(4, id, Some(1 << 40)); // RSTREAM Ack
    assert!(a.on_datagram(SimTime::ZERO, peer, hostile).is_err());
    assert_eq!(a.decode_stats(), DecodeDrops { body: 1, ..DecodeDrops::default() });
    assert_eq!(a.decode_drops(), 1);
    // The connection is unharmed: it keeps sending and takes the
    // genuine ACK.
    a.rstream_mut().unwrap().send_message(SimTime::ZERO, id, b"more").unwrap();
    let sent = a.rstream().unwrap().unacked_bytes(id) as u64;
    a.on_datagram(SimTime::ZERO, peer, control(4, id, Some(sent))).unwrap();
    assert_eq!(a.rstream().unwrap().unacked_bytes(id), 0);
    assert_eq!(a.decode_drops(), 1);
}
