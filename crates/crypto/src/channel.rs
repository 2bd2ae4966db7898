//! Authenticated secure channels — the TLS substitute of §4.
//!
//! The paper: resource managers "maintain an authenticated connection
//! with each of \[their\] managed resources, which is able to detect
//! connection hijacking"; privacy was planned via TLS with certificates
//! that "may be signed RC metadata in addition to X.509v3".
//!
//! This module provides exactly that shape:
//!
//! 1. an ephemeral **Diffie–Hellman handshake** over the Schnorr group,
//!    optionally authenticated by signing the handshake transcript with
//!    each side's long-term key (certified via `cert`),
//! 2. a **record layer**: ChaCha20 encryption + HMAC-SHA256 tags with
//!    strictly increasing sequence numbers, so any injected, replayed,
//!    reordered or modified record — i.e. a hijack attempt — is
//!    rejected.

use bytes::Bytes;

use snipe_util::codec::WireEncode;
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::rng::Xoshiro256;
use snipe_util::wire_codec;

use crate::bigint::BigUint;
use crate::chacha20::{chacha20_xor, KEY_LEN, NONCE_LEN};
use crate::group::SchnorrGroup;
use crate::hmac::{derive_key, verify_tag, HmacSha256};
use crate::sign::{KeyPair, PublicKey, Signature};

/// Which side of the handshake we are; determines key directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The connecting side.
    Initiator,
    /// The accepting side.
    Responder,
}

/// An ephemeral DH share `g^e mod p` plus an optional transcript
/// signature by the sender's long-term key.
#[derive(Clone, Debug)]
pub struct HandshakeMsg {
    /// The DH public share.
    pub share: PublicKey,
    /// Signature over `share` bytes by the sender's identity key.
    pub auth: Option<Signature>,
}

wire_codec!(struct HandshakeMsg { share, auth });

/// An in-progress handshake holding our ephemeral secret.
pub struct Handshake {
    ephemeral: BigUint,
    msg: HandshakeMsg,
    role: Role,
}

impl Handshake {
    /// Start a handshake. If `identity` is given, the share is signed so
    /// the peer can authenticate us against our certified public key.
    pub fn start(rng: &mut Xoshiro256, role: Role, identity: Option<&KeyPair>) -> Handshake {
        let group = SchnorrGroup::default_group();
        let one = BigUint::one();
        let e = BigUint::random_below(rng, &group.q.sub(&one)).add(&one);
        let share = PublicKey::from_element(group.g.mod_exp(&e, &group.p));
        let auth = identity.map(|kp| kp.sign(rng, &share.encode_to_bytes()));
        Handshake { ephemeral: e, msg: HandshakeMsg { share, auth }, role }
    }

    /// The message to send to the peer.
    pub fn message(&self) -> &HandshakeMsg {
        &self.msg
    }

    /// Complete the handshake with the peer's message.
    ///
    /// If `expected_peer` is provided, the peer's message must carry a
    /// valid signature by that key (mutual authentication); otherwise
    /// the channel is encrypted but unauthenticated, like anonymous DH.
    pub fn complete(
        self,
        peer: &HandshakeMsg,
        expected_peer: Option<&PublicKey>,
    ) -> SnipeResult<SecureChannel> {
        let group = SchnorrGroup::default_group();
        if let Some(pk) = expected_peer {
            let sig = peer.auth.as_ref().ok_or_else(|| {
                SnipeError::AuthenticationFailed("peer did not authenticate handshake".into())
            })?;
            if !pk.verify(&peer.share.encode_to_bytes(), sig) {
                return Err(SnipeError::AuthenticationFailed(
                    "peer handshake signature invalid".into(),
                ));
            }
        }
        let peer_elem = peer.share.element();
        if peer_elem.is_zero() || peer_elem.is_one() || *peer_elem >= group.p {
            return Err(SnipeError::Protocol("degenerate DH share".into()));
        }
        let shared = peer_elem.mod_exp(&self.ephemeral, &group.p);
        Ok(SecureChannel::from_shared_secret(&shared.to_bytes_be(), self.role))
    }
}

/// Directional record-protection keys.
#[derive(Debug)]
struct DirectionKeys {
    key: [u8; KEY_LEN],
    nonce_base: [u8; NONCE_LEN],
    mac_key: [u8; 32],
    seq: u64,
}

impl DirectionKeys {
    fn derive(secret: &[u8], label: &str) -> DirectionKeys {
        let material = derive_key(secret, label, KEY_LEN + NONCE_LEN + 32);
        let mut key = [0u8; KEY_LEN];
        let mut nonce_base = [0u8; NONCE_LEN];
        let mut mac_key = [0u8; 32];
        key.copy_from_slice(&material[..KEY_LEN]);
        nonce_base.copy_from_slice(&material[KEY_LEN..KEY_LEN + NONCE_LEN]);
        mac_key.copy_from_slice(&material[KEY_LEN + NONCE_LEN..]);
        DirectionKeys { key, nonce_base, mac_key, seq: 0 }
    }

    fn nonce_for(&self, seq: u64) -> [u8; NONCE_LEN] {
        let mut n = self.nonce_base;
        let sb = seq.to_be_bytes();
        for i in 0..8 {
            n[NONCE_LEN - 8 + i] ^= sb[i];
        }
        n
    }
}

/// A sealed record: sequence number, ciphertext and MAC tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Sender's sequence number (strictly increasing from 0).
    pub seq: u64,
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 over `seq ‖ ciphertext`.
    pub tag: [u8; 32],
}

wire_codec!(struct Record { seq, ciphertext, tag });

/// An established secure channel (one side of it).
#[derive(Debug)]
pub struct SecureChannel {
    send: DirectionKeys,
    recv: DirectionKeys,
}

impl SecureChannel {
    /// Derive directional keys from a DH shared secret.
    pub fn from_shared_secret(secret: &[u8], role: Role) -> SecureChannel {
        let (send_label, recv_label) = match role {
            Role::Initiator => ("initiator->responder", "responder->initiator"),
            Role::Responder => ("responder->initiator", "initiator->responder"),
        };
        SecureChannel {
            send: DirectionKeys::derive(secret, send_label),
            recv: DirectionKeys::derive(secret, recv_label),
        }
    }

    /// Encrypt and authenticate a message.
    pub fn seal(&mut self, plaintext: &[u8]) -> Record {
        let seq = self.send.seq;
        self.send.seq += 1;
        let mut ct = plaintext.to_vec();
        let nonce = self.send.nonce_for(seq);
        chacha20_xor(&self.send.key, &nonce, 1, &mut ct);
        let mut mac = HmacSha256::new(&self.send.mac_key);
        mac.update(&seq.to_be_bytes());
        mac.update(&ct);
        Record { seq, ciphertext: ct, tag: mac.finalize() }
    }

    /// Verify and decrypt a record. Rejects tampered tags and any
    /// sequence regression/replay (hijack detection).
    pub fn open(&mut self, record: &Record) -> SnipeResult<Bytes> {
        if record.seq < self.recv.seq {
            return Err(SnipeError::AuthenticationFailed(format!(
                "record replay/reorder: seq {} already consumed (expect >= {})",
                record.seq, self.recv.seq
            )));
        }
        let mut mac = HmacSha256::new(&self.recv.mac_key);
        mac.update(&record.seq.to_be_bytes());
        mac.update(&record.ciphertext);
        if !verify_tag(&mac.finalize(), &record.tag) {
            return Err(SnipeError::AuthenticationFailed("record MAC mismatch (hijack?)".into()));
        }
        self.recv.seq = record.seq + 1;
        let mut pt = record.ciphertext.clone();
        let nonce = self.recv.nonce_for(record.seq);
        chacha20_xor(&self.recv.key, &nonce, 1, &mut pt);
        Ok(Bytes::from(pt))
    }
}

/// Convenience: run both sides of an unauthenticated handshake locally
/// (used by tests and by the simulator's in-memory connections).
pub fn handshake_pair(rng: &mut Xoshiro256) -> (SecureChannel, SecureChannel) {
    let a = Handshake::start(rng, Role::Initiator, None);
    let b = Handshake::start(rng, Role::Responder, None);
    let am = a.message().clone();
    let bm = b.message().clone();
    let ca = a.complete(&bm, None).expect("handshake a");
    let cb = b.complete(&am, None).expect("handshake b");
    (ca, cb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::WireDecode;

    #[test]
    fn round_trip_both_directions() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let (mut a, mut b) = handshake_pair(&mut rng);
        let r = a.seal(b"hello from a");
        assert_eq!(&b.open(&r).unwrap()[..], b"hello from a");
        let r2 = b.seal(b"hello from b");
        assert_eq!(&a.open(&r2).unwrap()[..], b"hello from b");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let (mut a, _b) = handshake_pair(&mut rng);
        let r = a.seal(b"secret data here");
        assert_ne!(&r.ciphertext[..], b"secret data here");
    }

    #[test]
    fn tampering_detected() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let (mut a, mut b) = handshake_pair(&mut rng);
        let mut r = a.seal(b"payload");
        r.ciphertext[0] ^= 0xFF;
        assert_eq!(b.open(&r).unwrap_err().kind(), "auth-failed");
    }

    #[test]
    fn replay_detected() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let (mut a, mut b) = handshake_pair(&mut rng);
        let r = a.seal(b"once");
        b.open(&r).unwrap();
        assert_eq!(b.open(&r).unwrap_err().kind(), "auth-failed");
    }

    #[test]
    fn cross_channel_injection_detected() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let (mut a1, _) = handshake_pair(&mut rng);
        let (_, mut b2) = handshake_pair(&mut rng);
        let r = a1.seal(b"wrong channel");
        assert!(b2.open(&r).is_err());
    }

    #[test]
    fn mutual_authentication() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let id_a = KeyPair::generate_default(&mut rng);
        let id_b = KeyPair::generate_default(&mut rng);
        let ha = Handshake::start(&mut rng, Role::Initiator, Some(&id_a));
        let hb = Handshake::start(&mut rng, Role::Responder, Some(&id_b));
        let ma = ha.message().clone();
        let mb = hb.message().clone();
        let mut ca = ha.complete(&mb, Some(&id_b.public)).unwrap();
        let mut cb = hb.complete(&ma, Some(&id_a.public)).unwrap();
        let r = ca.seal(b"authenticated");
        assert_eq!(&cb.open(&r).unwrap()[..], b"authenticated");
    }

    #[test]
    fn wrong_identity_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let id_a = KeyPair::generate_default(&mut rng);
        let id_mallory = KeyPair::generate_default(&mut rng);
        let ha = Handshake::start(&mut rng, Role::Initiator, Some(&id_a));
        let hb = Handshake::start(&mut rng, Role::Responder, None);
        let ma = ha.message().clone();
        // Responder expected mallory, got a.
        let err = hb.complete(&ma, Some(&id_mallory.public)).unwrap_err();
        assert_eq!(err.kind(), "auth-failed");
    }

    #[test]
    fn unauthenticated_peer_rejected_when_auth_required() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let id_b = KeyPair::generate_default(&mut rng);
        let ha = Handshake::start(&mut rng, Role::Initiator, None); // anonymous
        let hb = Handshake::start(&mut rng, Role::Responder, Some(&id_b));
        let ma = ha.message().clone();
        let err = hb.complete(&ma, Some(&id_b.public)).unwrap_err();
        assert_eq!(err.kind(), "auth-failed");
    }

    #[test]
    fn record_wire_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let (mut a, mut b) = handshake_pair(&mut rng);
        let r = a.seal(b"wire format");
        let back = Record::decode_from_bytes(r.encode_to_bytes()).unwrap();
        assert_eq!(back, r);
        assert_eq!(&b.open(&back).unwrap()[..], b"wire format");
    }

    #[test]
    fn degenerate_share_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let h = Handshake::start(&mut rng, Role::Initiator, None);
        let evil = HandshakeMsg { share: PublicKey::from_element(BigUint::one()), auth: None };
        assert_eq!(h.complete(&evil, None).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn empty_message_seals() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let (mut a, mut b) = handshake_pair(&mut rng);
        let r = a.seal(b"");
        assert_eq!(b.open(&r).unwrap().len(), 0);
    }
}
