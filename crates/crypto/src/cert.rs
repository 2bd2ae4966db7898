//! Key certificates as signed subsets of RC metadata.
//!
//! Paper §4: "Each principal's public key is stored as an attribute of
//! that principal's RC metadata. A signed subset of RC metadata serves
//! as a key certificate. Before a client will consider a signed
//! statement to be valid, the key certificate must itself be signed by
//! a party whom that client trusts for that particular purpose."
//!
//! A [`Certificate`] therefore carries a subject URI, a list of
//! `name=value` assertions (including the subject's public key), the
//! issuer's fingerprint and the issuer's signature over the canonical
//! encoding. A [`TrustStore`] records which issuer keys a client trusts
//! for which [`TrustPurpose`]s.

use std::collections::HashMap;

use snipe_util::codec::{encode_seq, Encoder, WireEncode};
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::rng::Xoshiro256;
use snipe_util::wire_codec;

use crate::sign::{KeyPair, PublicKey, Signature};

/// What a trusted key is trusted *for* — per the paper, "each client or
/// service may determine its own requirements for which parties to
/// trust for which purposes".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrustPurpose {
    /// May certify user identities and their access rights.
    UserCertification,
    /// May certify host identities.
    HostCertification,
    /// May authorize use of managed resources (resource managers).
    ResourceAuthorization,
    /// May sign mobile code for playground execution.
    CodeSigning,
    /// May certify metadata (RC server replication peers).
    MetadataCertification,
}

impl TrustPurpose {
    fn tag(self) -> u8 {
        match self {
            TrustPurpose::UserCertification => 0,
            TrustPurpose::HostCertification => 1,
            TrustPurpose::ResourceAuthorization => 2,
            TrustPurpose::CodeSigning => 3,
            TrustPurpose::MetadataCertification => 4,
        }
    }
}

/// One `name=value` assertion inside a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertClaim {
    /// Attribute name, e.g. `public-key`, `allowed-hosts`.
    pub name: String,
    /// Attribute value.
    pub value: String,
}

wire_codec!(struct CertClaim { name, value });

/// A signed subset of RC metadata: SNIPE's certificate format.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// URI of the principal the claims are about.
    pub subject: String,
    /// The subject's public key.
    pub subject_key: PublicKey,
    /// Additional signed assertions (access rights, realms, ...).
    pub claims: Vec<CertClaim>,
    /// Fingerprint (hex) of the issuing key.
    pub issuer: String,
    /// Issuer's signature over the canonical body encoding.
    pub signature: Signature,
}

impl Certificate {
    /// Canonical bytes covered by the signature.
    fn body_bytes(
        subject: &str,
        subject_key: &PublicKey,
        claims: &[CertClaim],
        issuer: &str,
    ) -> bytes::Bytes {
        let mut enc = Encoder::new();
        enc.put_str(subject);
        subject_key.encode(&mut enc);
        encode_seq(&mut enc, claims.iter());
        enc.put_str(issuer);
        enc.finish()
    }

    /// Issue a certificate: `issuer_kp` signs `(subject, key, claims)`.
    pub fn issue(
        rng: &mut Xoshiro256,
        issuer_kp: &KeyPair,
        subject: impl Into<String>,
        subject_key: PublicKey,
        claims: Vec<CertClaim>,
    ) -> Certificate {
        let subject = subject.into();
        let issuer = issuer_kp.public.fingerprint_hex();
        let body = Self::body_bytes(&subject, &subject_key, &claims, &issuer);
        let signature = issuer_kp.sign(rng, &body);
        Certificate { subject, subject_key, claims, issuer, signature }
    }

    /// Verify the signature against a candidate issuer key.
    pub fn verify_with(&self, issuer_key: &PublicKey) -> bool {
        if issuer_key.fingerprint_hex() != self.issuer {
            return false;
        }
        let body = Self::body_bytes(&self.subject, &self.subject_key, &self.claims, &self.issuer);
        issuer_key.verify(&body, &self.signature)
    }

    /// Look up a claim value by name.
    pub fn claim(&self, name: &str) -> Option<&str> {
        self.claims.iter().find(|c| c.name == name).map(|c| c.value.as_str())
    }
}

wire_codec!(struct Certificate { subject, subject_key, claims, issuer, signature });

/// Which keys this client trusts, per purpose.
#[derive(Clone, Debug, Default)]
pub struct TrustStore {
    // purpose tag -> issuer fingerprint hex -> key
    trusted: HashMap<(u8, String), PublicKey>,
}

impl TrustStore {
    /// Empty store: trusts no one.
    pub fn new() -> Self {
        TrustStore::default()
    }

    /// Trust `key` for `purpose`.
    pub fn trust(&mut self, purpose: TrustPurpose, key: PublicKey) {
        self.trusted.insert((purpose.tag(), key.fingerprint_hex()), key);
    }

    /// Stop trusting a key for a purpose.
    pub fn revoke(&mut self, purpose: TrustPurpose, key: &PublicKey) {
        self.trusted.remove(&(purpose.tag(), key.fingerprint_hex()));
    }

    /// Number of (purpose, key) trust entries.
    pub fn len(&self) -> usize {
        self.trusted.len()
    }

    /// True if no keys are trusted.
    pub fn is_empty(&self) -> bool {
        self.trusted.is_empty()
    }

    /// Verify that `cert` was issued by a key trusted for `purpose`.
    ///
    /// On success returns the certified subject key, ready to verify
    /// statements made by the subject.
    pub fn verify<'a>(
        &self,
        purpose: TrustPurpose,
        cert: &'a Certificate,
    ) -> SnipeResult<&'a PublicKey> {
        let issuer_key =
            self.trusted.get(&(purpose.tag(), cert.issuer.clone())).ok_or_else(|| {
                SnipeError::AuthenticationFailed(format!(
                    "issuer {} not trusted for {purpose:?}",
                    &cert.issuer[..12.min(cert.issuer.len())]
                ))
            })?;
        if !cert.verify_with(issuer_key) {
            return Err(SnipeError::AuthenticationFailed(format!(
                "bad signature on certificate for {}",
                cert.subject
            )));
        }
        Ok(&cert.subject_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::SchnorrGroup;
    use snipe_util::codec::WireDecode;

    fn setup() -> (Xoshiro256, KeyPair, KeyPair, SchnorrGroup) {
        let group = SchnorrGroup::generate(128, 64, 42);
        let mut rng = Xoshiro256::seed_from_u64(10);
        let ca = KeyPair::generate(&mut rng, &group);
        let user = KeyPair::generate(&mut rng, &group);
        (rng, ca, user, group)
    }

    // NOTE: these tests sign with the *default* group via KeyPair::sign,
    // so generate keys against the default group for correctness.
    fn default_setup() -> (Xoshiro256, KeyPair, KeyPair) {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let ca = KeyPair::generate_default(&mut rng);
        let user = KeyPair::generate_default(&mut rng);
        (rng, ca, user)
    }

    #[test]
    fn issue_and_verify_certificate() {
        let (mut rng, ca, user) = default_setup();
        let cert = Certificate::issue(
            &mut rng,
            &ca,
            "urn:snipe:user:alice",
            user.public.clone(),
            vec![CertClaim { name: "allowed-hosts".into(), value: "utk.edu".into() }],
        );
        assert!(cert.verify_with(&ca.public));
        assert_eq!(cert.claim("allowed-hosts"), Some("utk.edu"));
        assert_eq!(cert.claim("missing"), None);
    }

    #[test]
    fn tampered_claims_fail_verification() {
        let (mut rng, ca, user) = default_setup();
        let mut cert =
            Certificate::issue(&mut rng, &ca, "urn:snipe:user:bob", user.public.clone(), vec![]);
        cert.claims.push(CertClaim { name: "admin".into(), value: "true".into() });
        assert!(!cert.verify_with(&ca.public));
    }

    #[test]
    fn trust_store_enforces_purpose() {
        let (mut rng, ca, user) = default_setup();
        let cert =
            Certificate::issue(&mut rng, &ca, "urn:snipe:user:carol", user.public.clone(), vec![]);
        let mut store = TrustStore::new();
        store.trust(TrustPurpose::HostCertification, ca.public.clone());
        // Trusted for hosts, not users:
        assert!(store.verify(TrustPurpose::UserCertification, &cert).is_err());
        store.trust(TrustPurpose::UserCertification, ca.public.clone());
        let key = store.verify(TrustPurpose::UserCertification, &cert).unwrap();
        assert_eq!(key, &user.public);
    }

    #[test]
    fn revoked_issuer_rejected() {
        let (mut rng, ca, user) = default_setup();
        let cert =
            Certificate::issue(&mut rng, &ca, "urn:snipe:user:dave", user.public.clone(), vec![]);
        let mut store = TrustStore::new();
        store.trust(TrustPurpose::UserCertification, ca.public.clone());
        assert!(store.verify(TrustPurpose::UserCertification, &cert).is_ok());
        store.revoke(TrustPurpose::UserCertification, &ca.public);
        assert!(store.verify(TrustPurpose::UserCertification, &cert).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn untrusted_self_signed_rejected() {
        let (mut rng, _ca, user) = default_setup();
        let rogue = Certificate::issue(
            &mut rng,
            &user,
            "urn:snipe:user:mallory",
            user.public.clone(),
            vec![],
        );
        let store = TrustStore::new();
        let err = store.verify(TrustPurpose::UserCertification, &rogue).unwrap_err();
        assert_eq!(err.kind(), "auth-failed");
    }

    #[test]
    fn certificate_wire_round_trip() {
        let (mut rng, ca, user) = default_setup();
        let cert = Certificate::issue(
            &mut rng,
            &ca,
            "urn:snipe:proc:42",
            user.public.clone(),
            vec![CertClaim { name: "k".into(), value: "v".into() }],
        );
        let back = Certificate::decode_from_bytes(cert.encode_to_bytes()).unwrap();
        assert_eq!(back, cert);
        assert!(back.verify_with(&ca.public));
    }

    #[test]
    fn non_default_group_keys_still_make_certs() {
        // Certificates sign with the default group regardless of which
        // group the *subject* key lives in; exercise the mixed case.
        let (mut rng, _ca_small, user_small, _g) = setup();
        let mut drng = Xoshiro256::seed_from_u64(11);
        let ca = KeyPair::generate_default(&mut drng);
        let cert = Certificate::issue(&mut rng, &ca, "urn:x", user_small.public.clone(), vec![]);
        assert!(cert.verify_with(&ca.public));
    }
}
