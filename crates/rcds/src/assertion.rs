//! Metadata assertions: `name=value` pairs with automatic timestamps.
//!
//! "The metadata for a resource (a list of attribute 'name=value' pairs
//! called assertions) are maintained in a separate distributed and
//! replicated registry" (§2.1). "Automatic time stamping of metadata by
//! the RC servers also helps temporally dis-joint tasks communication
//! by allowing them to decide for themselves the age and therefore
//! relevance of any metadata previously stored" (§3.1).
//!
//! Replicas merge assertions by last-writer-wins on a
//! ([`Stamp`] = Lamport time, server id) pair; deletions are tombstones
//! so they win over concurrent re-publishes with older stamps.

use bytes::Bytes;

use snipe_util::codec::Encoder;
use snipe_util::wire_codec;

/// A total-ordered update stamp: (Lamport clock, origin server id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Stamp {
    /// Lamport logical time.
    pub lamport: u64,
    /// Tie-breaking origin server id.
    pub server: u64,
}

wire_codec!(struct Stamp { lamport, server });

/// One attribute assertion about a resource.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assertion {
    /// Attribute name (e.g. `comm-address`, `public-key`, `cpu-count`).
    pub name: String,
    /// Attribute value.
    pub value: String,
    /// LWW merge stamp, assigned by the accepting server.
    pub stamp: Stamp,
    /// Simulated wall time when the accepting server stored it (the
    /// "age" consumers use to judge relevance).
    pub stored_at_ns: u64,
    /// Tombstone: true marks a deletion.
    pub deleted: bool,
    /// Optional publisher signature over `name=value` (signed metadata
    /// subsets, §2.1/§4).
    pub signature: Option<Vec<u8>>,
}

impl Assertion {
    /// A plain (unsigned, live) assertion with a zero stamp; servers
    /// assign the real stamp on acceptance.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Assertion {
        Assertion {
            name: name.into(),
            value: value.into(),
            stamp: Stamp::default(),
            stored_at_ns: 0,
            deleted: false,
            signature: None,
        }
    }

    /// The canonical bytes a publisher signs.
    pub fn signable_bytes(uri: &str, name: &str, value: &str) -> Bytes {
        let mut e = Encoder::new();
        e.put_str(uri);
        e.put_str(name);
        e.put_str(value);
        e.finish()
    }

    /// Does `self` supersede `other` under LWW?
    pub fn supersedes(&self, other: &Assertion) -> bool {
        self.stamp > other.stamp
    }

    /// Exact length of its encoding, without encoding.
    pub fn wire_len(&self) -> usize {
        let signature = self.signature.as_ref().map_or(0, |s| 4 + s.len());
        (4 + self.name.len()) + (4 + self.value.len()) + 16 + 8 + 1 + 1 + signature
    }
}

wire_codec!(struct Assertion { name, value, stamp, stored_at_ns, deleted, signature });

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::{WireDecode, WireEncode};

    #[test]
    fn stamp_total_order() {
        let a = Stamp { lamport: 1, server: 9 };
        let b = Stamp { lamport: 2, server: 0 };
        let c = Stamp { lamport: 2, server: 1 };
        assert!(a < b && b < c);
    }

    #[test]
    fn supersedes_uses_stamp() {
        let mut a = Assertion::new("k", "v1");
        let mut b = Assertion::new("k", "v2");
        a.stamp = Stamp { lamport: 5, server: 1 };
        b.stamp = Stamp { lamport: 5, server: 2 };
        assert!(b.supersedes(&a));
        assert!(!a.supersedes(&b));
    }

    #[test]
    fn wire_round_trip_plain_and_signed() {
        let mut a = Assertion::new("comm-address", "h3:100");
        a.stamp = Stamp { lamport: 7, server: 2 };
        a.stored_at_ns = 123_456;
        assert_eq!(a.wire_len(), a.encode_to_bytes().len());
        let back = Assertion::decode_from_bytes(a.encode_to_bytes()).unwrap();
        assert_eq!(back, a);

        let mut s = a.clone();
        s.signature = Some(vec![1, 2, 3]);
        s.deleted = true;
        assert_eq!(s.wire_len(), s.encode_to_bytes().len());
        let back = Assertion::decode_from_bytes(s.encode_to_bytes()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn signable_bytes_bind_uri_name_value() {
        let a = Assertion::signable_bytes("urn:x", "k", "v");
        let b = Assertion::signable_bytes("urn:y", "k", "v");
        let c = Assertion::signable_bytes("urn:x", "k", "w");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
