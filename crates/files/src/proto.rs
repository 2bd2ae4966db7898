//! File service protocol messages.

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::wire_codec;

/// File service wire messages (Raw-sealed).
#[derive(Clone, Debug, PartialEq)]
pub enum FileMsg {
    /// Spawn a file sink for writing `lifn` (§5.9).
    OpenSink {
        /// Echoed id.
        req_id: u64,
        /// File name.
        lifn: String,
    },
    /// Sink ready at `sink`.
    SinkOpened {
        /// Echoed id.
        req_id: u64,
        /// Where to send [`FileMsg::Append`] messages.
        sink: Endpoint,
    },
    /// Append a chunk to a sink.
    Append {
        /// Chunk bytes.
        data: Bytes,
    },
    /// Finish a sink; the file becomes readable and replicable.
    CloseSink,
    /// Sink → server (loopback): store the assembled file.
    StoreLocal {
        /// File name.
        lifn: String,
        /// Full content.
        content: Bytes,
    },
    /// Spawn a file source streaming `lifn` to `dest` (§5.9).
    OpenSource {
        /// Echoed id.
        req_id: u64,
        /// File name.
        lifn: String,
        /// Destination for the stream.
        dest: Endpoint,
    },
    /// One streamed chunk from a source.
    SourceData {
        /// File name.
        lifn: String,
        /// Chunk index.
        seq: u32,
        /// Chunk bytes.
        data: Bytes,
        /// Last chunk?
        last: bool,
    },
    /// Whole-file read (checkpoints, mobile code images).
    ReadReq {
        /// Echoed id.
        req_id: u64,
        /// File name.
        lifn: String,
    },
    /// Read outcome.
    ReadResp {
        /// Echoed id.
        req_id: u64,
        /// Found?
        ok: bool,
        /// Content (when ok).
        content: Bytes,
        /// SHA-256 of content (when ok).
        hash: Bytes,
    },
    /// Whole-file write.
    StoreReq {
        /// Echoed id.
        req_id: u64,
        /// File name.
        lifn: String,
        /// Content.
        content: Bytes,
    },
    /// Write outcome.
    StoreResp {
        /// Echoed id.
        req_id: u64,
        /// Stored?
        ok: bool,
    },
    /// Replication daemon push to a peer server.
    ReplicaPush {
        /// File name.
        lifn: String,
        /// Content.
        content: Bytes,
        /// Expected SHA-256 (integrity check, §2.1).
        hash: Bytes,
    },
    /// Peer acknowledges holding a replica.
    ReplicaAck {
        /// File name.
        lifn: String,
    },
    /// Read one byte range of a file (striped parallel reads pull
    /// different ranges from different replicas).
    ReadStripe {
        /// Echoed id (unique per stripe attempt).
        req_id: u64,
        /// File name.
        lifn: String,
        /// Byte offset of the stripe.
        offset: u32,
        /// Requested stripe length (the reply may be shorter at EOF).
        len: u32,
    },
    /// Stripe read outcome.
    StripeData {
        /// Echoed id.
        req_id: u64,
        /// Found (and range valid)?
        ok: bool,
        /// Echoed stripe offset.
        offset: u32,
        /// Total file length — lets the first stripe reply size the
        /// whole fetch plan.
        total_len: u32,
        /// Stripe bytes (when ok).
        data: Bytes,
        /// SHA-256 of `data` (per-stripe integrity check, when ok).
        hash: Bytes,
    },
}

wire_codec!(enum FileMsg: magic 0xA4 {
    1 => OpenSink { req_id, lifn },
    2 => SinkOpened { req_id, sink },
    3 => Append { data },
    4 => CloseSink,
    5 => StoreLocal { lifn, content },
    6 => OpenSource { req_id, lifn, dest },
    7 => SourceData { lifn, seq, data, last },
    8 => ReadReq { req_id, lifn },
    9 => ReadResp { req_id, ok, content, hash },
    10 => StoreReq { req_id, lifn, content },
    11 => StoreResp { req_id, ok },
    12 => ReplicaPush { lifn, content, hash },
    13 => ReplicaAck { lifn },
    14 => ReadStripe { req_id, lifn, offset, len },
    15 => StripeData { req_id, ok, offset, total_len, data, hash },
});

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::{WireDecode, WireEncode};
    use snipe_util::id::HostId;

    #[test]
    fn variants_round_trip() {
        let msgs = vec![
            FileMsg::OpenSink { req_id: 1, lifn: "lifn:snipe:file:x".into() },
            FileMsg::SinkOpened { req_id: 1, sink: Endpoint::new(HostId(1), 200) },
            FileMsg::Append { data: Bytes::from_static(b"chunk") },
            FileMsg::CloseSink,
            FileMsg::StoreLocal { lifn: "l".into(), content: Bytes::from_static(b"c") },
            FileMsg::OpenSource { req_id: 2, lifn: "l".into(), dest: Endpoint::new(HostId(2), 3) },
            FileMsg::SourceData {
                lifn: "l".into(),
                seq: 0,
                data: Bytes::from_static(b"d"),
                last: true,
            },
            FileMsg::ReadReq { req_id: 3, lifn: "l".into() },
            FileMsg::ReadResp {
                req_id: 3,
                ok: true,
                content: Bytes::from_static(b"c"),
                hash: Bytes::from_static(&[0; 32]),
            },
            FileMsg::StoreReq { req_id: 4, lifn: "l".into(), content: Bytes::from_static(b"c") },
            FileMsg::StoreResp { req_id: 4, ok: true },
            FileMsg::ReplicaPush {
                lifn: "l".into(),
                content: Bytes::from_static(b"c"),
                hash: Bytes::from_static(&[1; 32]),
            },
            FileMsg::ReplicaAck { lifn: "l".into() },
            FileMsg::ReadStripe { req_id: 5, lifn: "l".into(), offset: 4096, len: 1024 },
            FileMsg::StripeData {
                req_id: 5,
                ok: true,
                offset: 4096,
                total_len: 9000,
                data: Bytes::from_static(b"stripe"),
                hash: Bytes::from_static(&[2; 32]),
            },
        ];
        for m in msgs {
            assert_eq!(FileMsg::decode_from_bytes(m.encode_to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(FileMsg::decode_from_bytes(Bytes::from_static(&[0xA1, 1])).is_err());
    }
}
