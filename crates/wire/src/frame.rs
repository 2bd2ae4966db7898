//! The outer wire envelope.
//!
//! Every datagram on a SNIPE wire carries a one-byte protocol
//! discriminator followed by the protocol's own header and payload, so
//! one port can speak several protocols (the daemons multiplex control,
//! SRUDP and multicast relay traffic). A trailing 32-bit checksum
//! over the tag and body catches payload corruption on the wire: a
//! flipped bit anywhere in the datagram turns `open` into a codec
//! error, which every receiver treats as a drop (and SRUDP/RSTREAM
//! retransmit) — corrupt frames must never panic or be delivered.
//!
//! # The checksum
//!
//! Every datagram is walked twice (seal, open), so the checksum is a
//! per-byte cost on the whole wire. It reads the body as little-endian
//! 32-bit words dealt round-robin onto four independent accumulators
//! ("lanes"), each stepped as `h = rotl((h ^ w) * P, 13)`: the
//! lanes' multiplies overlap instead of waiting on one another, which
//! is what a byte-serial hash (one dependent multiply per byte) cannot
//! do. Plain safe Rust on purpose — no SIMD intrinsics, no runtime
//! CPU detection: one code path that is the same on every host the
//! simulator runs on, and already far from the bottleneck.
//!
//! Contract (tested below): two inputs of equal length that differ
//! only inside one aligned 32-bit word of the body — hence any
//! single-bit flip, any single-byte change — or only in the tag,
//! *always* get different checksums. The step is a bijection in `h`
//! for a fixed word and in the word for a fixed `h`, a trailing 1–3
//! byte tail is zero-padded and takes the same step, and the length,
//! the tag and the lanes are folded by further such steps; nothing is
//! ever narrowed from a wider state. Anything else (multi-word damage,
//! a changed length) is caught with probability `1 - 2^-32`; the
//! rotate carries high-bit differences back down so they cannot ride
//! unchanged through later multiplies and cancel.
//!
//! The value is never stored across builds — SRUDP checkpoints carry
//! the message checksum of [`crate::fec`] only within one run — so it
//! needs no format version.
//!
//! # Writing a datagram
//!
//! A datagram costs one allocation and one copy of its payload. A
//! driver writes the tag, its header listing, the payload and the
//! checksum straight into the thread's scratch encoder
//! ([`snipe_util::codec::encode_with`]) through [`seal_with`], which
//! freezes them with one exact-size copy, so what it drains is already
//! sealed. [`seal`] is for a caller that holds a finished body — a Raw
//! service message, an MCAST body — and is `seal_with` writing that
//! body: the envelope has one writer, and its format is this module's
//! alone.

use bytes::Bytes;
use snipe_util::codec::{encode_with, Decoder, Encoder, WireDecode, WireEncode};
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::wire_codec;

/// Protocol discriminators: the envelope's tag byte, and the key of a
/// driver's section in a stack snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Selective-resend UDP (SNIPE's own reliable datagram protocol).
    Srudp,
    /// Reliable stream (TCP substitute).
    Rstream,
    /// Multicast relay.
    Mcast,
    /// Raw datagram: no reliability, delivered as-is.
    Raw,
}

wire_codec!(enum Proto { 1 => Srudp, 2 => Rstream, 3 => Mcast, 4 => Raw });

/// Why an envelope failed to open: the classes the stack counts its
/// decode drops by ([`crate::stack::DecodeDrops`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than tag + checksum ([`ENVELOPE_OVERHEAD`]).
    Truncated,
    /// Stored checksum does not match the computed one.
    Checksum,
    /// Checksum fine, but the protocol tag names no known protocol.
    UnknownTag,
}

impl FrameError {
    /// Stable lowercase name (error messages).
    pub fn name(self) -> &'static str {
        match self {
            FrameError::Truncated => "truncated",
            FrameError::Checksum => "checksum",
            FrameError::UnknownTag => "unknown_tag",
        }
    }
}

/// Independent accumulators of [`checksum`]: enough to cover the
/// multiply latency, few enough that sub-100-byte control frames do
/// not pay for lanes they never fill.
const LANES: usize = 4;

/// The lane multiplier (the 32-bit FNV prime; any odd constant keeps
/// the step bijective).
const LANE_MUL: u32 = 0x0100_0193;

#[inline(always)]
fn lane_step(h: u32, word: u32) -> u32 {
    (h ^ word).wrapping_mul(LANE_MUL).rotate_left(13)
}

/// The 32-bit wire checksum of `tag` and `body` (see the module docs
/// for its shape and its single-word detection contract). Used for
/// the envelope trailer and, via [`crate::fec::msg_checksum`], for the
/// end-to-end check of erasure-coded messages. 32 bits keeps the
/// per-datagram overhead at 4 bytes while making an undetected
/// multi-word corruption a 1-in-4-billion event — plenty for a
/// simulated wire whose corruption is injected, not thermal.
pub(crate) fn checksum(tag: u8, body: &[u8]) -> u32 {
    let mut lanes = [0u32; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = 0x811c_9dc5u32.wrapping_add((i as u32).wrapping_mul(0x9e37_79b9));
    }
    let mut blocks = body.chunks_exact(4 * LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = lane_step(*lane, u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
    }
    // Tail: whole words, then a zero-padded partial word, continuing
    // the round-robin. The length folded in below keeps the padding
    // from aliasing real zero bytes.
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(4)) {
        let mut word = [0u8; 4];
        word[..w.len()].copy_from_slice(w);
        *lane = lane_step(*lane, u32::from_le_bytes(word));
    }
    // Wire and message lengths are far below 2^32 (decoders bound
    // them), so the narrowing loses nothing.
    let mut h = lane_step(body.len() as u32, tag as u32);
    for lane in lanes {
        h = lane_step(h, lane);
    }
    // Final avalanche (the murmur3 finaliser, itself a bijection) so
    // every input bit reaches every trailer bit.
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
}

/// Wrap a finished protocol body in the envelope: one exact-size
/// allocation (see the module docs).
pub fn seal(proto: Proto, body: Bytes) -> Bytes {
    seal_with(proto, |enc| enc.put_raw(&body))
}

/// The envelope around whatever `body` writes (a driver's header
/// listing, then its payload), written in the thread's scratch encoder
/// and frozen with one exact-size copy: the only writer of the
/// envelope, and how a driver seals a datagram as it writes it.
pub fn seal_with(proto: Proto, body: impl FnOnce(&mut Encoder)) -> Bytes {
    encode_with(|enc| {
        proto.encode(enc);
        body(enc);
        let sum = checksum(proto.wire_tag(), &enc.as_slice()[1..]);
        enc.put_u32(sum);
    })
}

/// Split an envelope into protocol and body, verifying the checksum.
pub fn open(datagram: Bytes) -> SnipeResult<(Proto, Bytes)> {
    let len = datagram.len();
    open_classified(datagram).map_err(|e| match e {
        FrameError::Truncated => SnipeError::Codec(format!("truncated envelope: {len} bytes")),
        FrameError::Checksum => SnipeError::Codec("frame checksum mismatch".to_string()),
        FrameError::UnknownTag => SnipeError::Codec("unknown protocol tag".to_string()),
    })
}

/// [`open`], but with the failure *class* preserved so the stack can
/// count truncation, corruption and unknown tags separately. The
/// length guard runs first: `remaining() - 4` below can never
/// underflow on a datagram that passed it.
pub fn open_classified(datagram: Bytes) -> Result<(Proto, Bytes), FrameError> {
    if datagram.len() < ENVELOPE_OVERHEAD {
        return Err(FrameError::Truncated);
    }
    let mut dec = Decoder::new(datagram);
    let tag = dec.get_raw(1).map_err(|_| FrameError::Truncated)?;
    let body = dec.get_raw(dec.remaining() - 4).map_err(|_| FrameError::Truncated)?;
    let want = dec.get_u32().map_err(|_| FrameError::Truncated)?;
    let got = checksum(tag[0], &body);
    if want != got {
        return Err(FrameError::Checksum);
    }
    let proto = Proto::decode_from_bytes(tag).map_err(|_| FrameError::UnknownTag)?;
    Ok((proto, body))
}

/// Split a transport datagram body into its header listing and the
/// bytes after it (a payload or SACK bitmap as a length-prefixed blob,
/// or nothing), without copying them.
pub(crate) fn split_head<H: WireDecode>(body: Bytes) -> SnipeResult<(H, Bytes)> {
    let mut dec = Decoder::new(body);
    let head = H::decode(&mut dec)?;
    let rest = dec.get_raw(dec.remaining())?;
    Ok((head, rest))
}

/// Bytes of envelope overhead per datagram (tag + checksum).
pub const ENVELOPE_OVERHEAD: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let b = seal(Proto::Srudp, Bytes::from_static(b"payload"));
        let (p, body) = open(b).unwrap();
        assert_eq!(p, Proto::Srudp);
        assert_eq!(&body[..], b"payload");
    }

    #[test]
    fn empty_body_ok() {
        let b = seal(Proto::Raw, Bytes::new());
        let (p, body) = open(b).unwrap();
        assert_eq!(p, Proto::Raw);
        assert!(body.is_empty());
    }

    #[test]
    fn unknown_tag_rejected() {
        // A well-checksummed frame with a bogus protocol tag.
        let mut enc = Encoder::new();
        enc.put_u8(99);
        enc.put_raw(b"xy");
        enc.put_u32(super::checksum(99, b"xy"));
        let err = open(enc.finish()).unwrap_err();
        assert_eq!(err.kind(), "codec");
    }

    #[test]
    fn truncated_rejected() {
        assert!(open(Bytes::new()).is_err());
        assert!(open(Bytes::from_static(&[1, 2, 3])).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let orig = seal(Proto::Srudp, Bytes::from_static(b"hello, wire"));
        for i in 0..orig.len() {
            for bit in 0..8 {
                let mut flipped = orig.to_vec();
                flipped[i] ^= 1 << bit;
                let r = open(Bytes::from(flipped));
                assert!(r.is_err(), "flip of byte {i} bit {bit} went undetected");
            }
        }
    }

    fn seeded_body(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = snipe_util::rng::Xoshiro256::seed_from_u64(seed ^ len as u64);
        let mut body = vec![0u8; len];
        rng.fill_bytes(&mut body);
        body
    }

    /// The contract, exhaustively at the lengths where the word loop,
    /// the whole-word tail and the padded tail hand over to one
    /// another: bodies of 0..=70 bytes and MTU-sized ones.
    #[test]
    fn single_bit_flips_are_detected_at_every_lane_and_tail_boundary() {
        for len in (0..=70).chain([1395, 1396, 1399, 1400, 1408, 1425, 1439, 1440]) {
            let orig = seal(Proto::Srudp, Bytes::from(seeded_body(len, 0x5ea1)));
            for i in 0..orig.len() {
                for bit in 0..8 {
                    let mut flipped = orig.to_vec();
                    flipped[i] ^= 1 << bit;
                    assert!(
                        open(Bytes::from(flipped)).is_err(),
                        "len {len}: flip of byte {i} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn any_change_within_one_word_or_the_tag_changes_the_checksum() {
        let body = seeded_body(64, 7);
        let want = checksum(1, &body);
        for word in 0..16 {
            for delta in [1u32, 0x8000_0000, 0x0001_0000, 0xffff_ffff, 0x8000_0001] {
                let mut other = body.clone();
                for (b, d) in other[4 * word..4 * word + 4].iter_mut().zip(delta.to_le_bytes()) {
                    *b ^= d;
                }
                assert_ne!(checksum(1, &other), want, "word {word} delta {delta:#x}");
            }
        }
        for tag in (0..=255u8).filter(|&t| t != 1) {
            assert_ne!(checksum(tag, &body), want, "tag {tag}");
        }
    }

    /// A multiply-only word step lets a top-bit difference ride through
    /// later steps untouched, so flipping the same high bit of two
    /// words on one lane would cancel; the rotate prevents that.
    #[test]
    fn paired_high_bit_flips_on_one_lane_do_not_cancel() {
        let body = seeded_body(256, 11);
        let want = checksum(1, &body);
        let stride = 4 * LANES;
        for first in 0..(256 - stride) / 4 {
            let mut other = body.clone();
            other[4 * first + 3] ^= 0x80;
            other[4 * first + 3 + stride] ^= 0x80;
            assert_ne!(checksum(1, &other), want, "words {first} and {}", first + LANES);
        }
    }

    #[test]
    fn appending_a_zero_byte_changes_the_checksum() {
        for len in 0..=70 {
            let mut body = seeded_body(len, 3);
            let before = checksum(2, &body);
            body.push(0);
            assert_ne!(checksum(2, &body), before, "len {len}");
        }
        // All-zero bodies differ only in length.
        let zeros = [0u8; 40];
        let sums: std::collections::HashSet<u32> =
            (0..=40).map(|n| checksum(2, &zeros[..n])).collect();
        assert_eq!(sums.len(), 41);
    }

    #[test]
    fn open_classified_reports_the_failure_class() {
        assert_eq!(open_classified(Bytes::new()).unwrap_err(), FrameError::Truncated);
        assert_eq!(
            open_classified(Bytes::from_static(&[1, 2, 3, 4])).unwrap_err(),
            FrameError::Truncated
        );
        let good = seal(Proto::Raw, Bytes::from_static(b"ok"));
        let mut corrupt = good.to_vec();
        corrupt[1] ^= 0xFF;
        assert_eq!(open_classified(Bytes::from(corrupt)).unwrap_err(), FrameError::Checksum);
        let mut enc = Encoder::new();
        enc.put_u8(42);
        enc.put_raw(b"zz");
        enc.put_u32(super::checksum(42, b"zz"));
        assert_eq!(open_classified(enc.finish()).unwrap_err(), FrameError::UnknownTag);
        assert!(open_classified(good).is_ok());
    }

    #[test]
    fn overhead_constant_is_accurate() {
        let body = Bytes::from_static(b"abc");
        let sealed = seal(Proto::Mcast, body.clone());
        assert_eq!(sealed.len(), body.len() + ENVELOPE_OVERHEAD);
    }
}
