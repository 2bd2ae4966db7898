//! RC client/server RPC and replica synchronization messages.
//!
//! RC traffic rides raw (unreliable) datagrams; the client retries with
//! replica failover and the anti-entropy exchange is periodic and
//! idempotent, so datagram loss only delays convergence. (The 1998
//! implementation used SUN RPC, §6 — the same at-least-once shape.)

use snipe_util::codec::{decode_seq, encode_seq, Decoder, Encoder, WireDecode, WireEncode};
use snipe_util::error::{SnipeError, SnipeResult};

use crate::assertion::Assertion;
use crate::store::{decode_vector, encode_vector, Update, VersionVector};

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

/// Protocol magic: distinguishes RC traffic from other Raw-sealed
/// protocols sharing a port.
const MAGIC: u8 = 0xA1;

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;
const TAG_SYNC_REQ: u8 = 3;
const TAG_SYNC_PUSH: u8 = 4;

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_FIND: u8 = 4;

impl WireEncode for RcMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MAGIC);
        match self {
            RcMsg::Request { id, op } => {
                enc.put_u8(TAG_REQUEST);
                enc.put_u64(*id);
                match op {
                    RcOp::Get(uri) => {
                        enc.put_u8(OP_GET);
                        enc.put_str(uri);
                    }
                    RcOp::Put(uri, asserts) => {
                        enc.put_u8(OP_PUT);
                        enc.put_str(uri);
                        encode_seq(enc, asserts.iter());
                    }
                    RcOp::Delete(uri, name) => {
                        enc.put_u8(OP_DELETE);
                        enc.put_str(uri);
                        enc.put_str(name);
                    }
                    RcOp::Find(name, value) => {
                        enc.put_u8(OP_FIND);
                        enc.put_str(name);
                        enc.put_str(value);
                    }
                }
            }
            RcMsg::Response { id, ok, assertions, uris } => {
                enc.put_u8(TAG_RESPONSE);
                enc.put_u64(*id);
                enc.put_bool(*ok);
                encode_seq(enc, assertions.iter());
                encode_seq(enc, uris.iter());
            }
            RcMsg::SyncReq { vector } => {
                enc.put_u8(TAG_SYNC_REQ);
                encode_vector(enc, vector);
            }
            RcMsg::SyncPush { updates, more } => {
                enc.put_u8(TAG_SYNC_PUSH);
                encode_seq(enc, updates.iter());
                enc.put_bool(*more);
            }
        }
    }
}

impl WireDecode for RcMsg {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        if dec.get_u8()? != MAGIC {
            return Err(SnipeError::Codec("not an RC message".into()));
        }
        Ok(match dec.get_u8()? {
            TAG_REQUEST => {
                let id = dec.get_u64()?;
                let op = match dec.get_u8()? {
                    OP_GET => RcOp::Get(dec.get_str()?),
                    OP_PUT => RcOp::Put(dec.get_str()?, decode_seq(dec)?),
                    OP_DELETE => RcOp::Delete(dec.get_str()?, dec.get_str()?),
                    OP_FIND => RcOp::Find(dec.get_str()?, dec.get_str()?),
                    o => return Err(SnipeError::Codec(format!("unknown RC op {o}"))),
                };
                RcMsg::Request { id, op }
            }
            TAG_RESPONSE => RcMsg::Response {
                id: dec.get_u64()?,
                ok: dec.get_bool()?,
                assertions: decode_seq(dec)?,
                uris: decode_seq(dec)?,
            },
            TAG_SYNC_REQ => RcMsg::SyncReq { vector: decode_vector(dec)? },
            TAG_SYNC_PUSH => RcMsg::SyncPush { updates: decode_seq(dec)?, more: dec.get_bool()? },
            t => return Err(SnipeError::Codec(format!("unknown RC tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Stamp;

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
                updates: vec![crate::store::Update {
                    origin: 1,
                    seq: 0,
                    uri: "urn:x".into(),
                    assertion: a,
                }],
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
