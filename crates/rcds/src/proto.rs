//! RC client/server RPC and replica synchronization messages.
//!
//! RC traffic rides raw (unreliable) datagrams; the client retries with
//! replica failover and the anti-entropy exchange is periodic and
//! idempotent, so datagram loss only delays convergence. (The 1998
//! implementation used SUN RPC, §6 — the same at-least-once shape.)

use snipe_util::wire_codec;

use crate::assertion::Assertion;
use crate::store::{Update, VersionVector};

/// Operations a client can request.
#[derive(Clone, Debug, PartialEq)]
pub enum RcOp {
    /// Fetch all live assertions for a URI.
    Get(String),
    /// Publish assertions about a URI (server assigns stamps).
    Put(String, Vec<Assertion>),
    /// Tombstone one attribute of a URI.
    Delete(String, String),
    /// Find URIs by exact attribute match.
    Find(String, String),
}

/// Wire messages of the RC protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum RcMsg {
    /// Client request.
    Request {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The operation.
        op: RcOp,
    },
    /// Server response.
    Response {
        /// Echoed request id.
        id: u64,
        /// Operation accepted?
        ok: bool,
        /// Assertions (Get) — with server-assigned stamps (Put).
        assertions: Vec<Assertion>,
        /// URIs (Find).
        uris: Vec<String>,
    },
    /// Replica → replica: "push me what I lack" (sender's vector).
    SyncReq {
        /// Sender's version vector.
        vector: VersionVector,
    },
    /// Replica → replica: updates the peer lacked.
    SyncPush {
        /// The updates.
        updates: Vec<Update>,
        /// True if the batch was truncated (ask again).
        more: bool,
    },
}

// Magic 0xA1 distinguishes RC traffic from other Raw-sealed protocols
// sharing a port.
wire_codec!(enum RcOp {
    1 => Get(uri),
    2 => Put(uri, assertions),
    3 => Delete(uri, name),
    4 => Find(name, value),
});
wire_codec!(enum RcMsg: magic 0xA1 {
    1 => Request { id, op },
    2 => Response { id, ok, assertions, uris },
    3 => SyncReq { vector },
    4 => SyncPush { updates, more },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Stamp;
    use snipe_util::codec::{WireDecode, WireEncode};

    #[test]
    fn all_variants_round_trip() {
        let mut a = Assertion::new("k", "v");
        a.stamp = Stamp { lamport: 3, server: 1 };
        let msgs = vec![
            RcMsg::Request { id: 1, op: RcOp::Get("urn:x".into()) },
            RcMsg::Request { id: 2, op: RcOp::Put("urn:x".into(), vec![a.clone()]) },
            RcMsg::Request { id: 3, op: RcOp::Delete("urn:x".into(), "k".into()) },
            RcMsg::Request { id: 4, op: RcOp::Find("k".into(), "v".into()) },
            RcMsg::Response {
                id: 1,
                ok: true,
                assertions: vec![a.clone()],
                uris: vec!["urn:y".into()],
            },
            RcMsg::SyncReq { vector: [(1u64, 5u64)].into_iter().collect() },
            RcMsg::SyncPush {
                updates: vec![Update { origin: 1, seq: 0, uri: "urn:x".into(), assertion: a }],
                more: true,
            },
        ];
        for m in msgs {
            let back = RcMsg::decode_from_bytes(m.encode_to_bytes()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(RcMsg::decode_from_bytes(bytes::Bytes::from_static(&[9, 9, 9])).is_err());
    }
}
