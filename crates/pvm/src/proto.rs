//! PVM wire messages.

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::wire_codec;
use snipe_wire::frame::{open, seal, Proto};

/// A PVM task identifier: valid only inside one virtual machine (the
/// paper's point about the missing global name space).
pub type Tid = u32;

/// PVM control and data messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PvmMsg {
    /// Slave asks to join the VM (pvm_addhosts).
    AddHost {
        /// The slave daemon's endpoint.
        slave: Endpoint,
    },
    /// Master broadcasts the new host table; every slave must ack
    /// before the update commits.
    HostTable {
        /// Table version.
        version: u32,
        /// All slave endpoints.
        slaves: Vec<Endpoint>,
    },
    /// Slave acks a host table version.
    HostTableAck {
        /// Acked version.
        version: u32,
        /// The acking slave.
        slave: Endpoint,
    },
    /// Client asks the master to spawn (central RM decides placement).
    SpawnReq {
        /// Request id.
        req_id: u64,
        /// Program name.
        program: String,
        /// Args.
        args: Bytes,
    },
    /// Master → chosen slave: start the task.
    SlaveSpawn {
        /// Request id (flows through).
        req_id: u64,
        /// Assigned tid.
        tid: Tid,
        /// Program.
        program: String,
        /// Args.
        args: Bytes,
        /// Who asked (for the final reply).
        reply_to: Endpoint,
    },
    /// Slave → requester (via master bookkeeping): task started.
    SpawnResp {
        /// Request id.
        req_id: u64,
        /// Success?
        ok: bool,
        /// The new task's tid.
        tid: Tid,
        /// The new task's endpoint.
        endpoint: Endpoint,
    },
    /// Resolve a tid to an endpoint (every lookup hits the master).
    LookupReq {
        /// Request id.
        req_id: u64,
        /// The tid.
        tid: Tid,
    },
    /// Lookup answer.
    LookupResp {
        /// Request id.
        req_id: u64,
        /// Found?
        ok: bool,
        /// Endpoint when found.
        endpoint: Endpoint,
    },
    /// Task registers itself after starting.
    Register {
        /// Its tid.
        tid: Tid,
        /// Its endpoint.
        endpoint: Endpoint,
    },
    /// Task-to-task data (direct route once resolved).
    Data {
        /// Sender tid.
        from: Tid,
        /// Payload.
        payload: Bytes,
    },
    /// Daemon-routed task data (the PVM default route: task → local
    /// pvmd → remote pvmd → task, which PVMPI inherited, §6.1).
    RouteData {
        /// Destination tid.
        dest: Tid,
        /// Sender tid.
        from: Tid,
        /// Payload.
        payload: Bytes,
    },
}

wire_codec!(enum PvmMsg: magic 0xB0 {
    1 => AddHost { slave },
    2 => HostTable { version, slaves },
    3 => HostTableAck { version, slave },
    4 => SpawnReq { req_id, program, args },
    5 => SlaveSpawn { req_id, tid, program, args, reply_to },
    6 => SpawnResp { req_id, ok, tid, endpoint },
    7 => LookupReq { req_id, tid },
    8 => LookupResp { req_id, ok, endpoint },
    9 => Register { tid, endpoint },
    10 => Data { from, payload },
    11 => RouteData { dest, from, payload },
});

impl PvmMsg {
    /// This message as a Raw-sealed datagram, ready to send.
    pub fn sealed(&self) -> Bytes {
        seal(Proto::Raw, self.encode_to_bytes())
    }

    /// A received datagram as a PVM message, if it is one.
    pub fn open(datagram: Bytes) -> Option<PvmMsg> {
        match open(datagram) {
            Ok((Proto::Raw, body)) => PvmMsg::decode_from_bytes(body).ok(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::{WireDecode, WireEncode};
    use snipe_util::id::HostId;

    #[test]
    fn variants_round_trip() {
        let ep = Endpoint::new(HostId(1), 11);
        let msgs = vec![
            PvmMsg::AddHost { slave: ep },
            PvmMsg::HostTable { version: 2, slaves: vec![ep, Endpoint::new(HostId(2), 11)] },
            PvmMsg::HostTableAck { version: 2, slave: ep },
            PvmMsg::SpawnReq { req_id: 1, program: "w".into(), args: Bytes::from_static(b"a") },
            PvmMsg::SlaveSpawn {
                req_id: 1,
                tid: 7,
                program: "w".into(),
                args: Bytes::new(),
                reply_to: ep,
            },
            PvmMsg::SpawnResp { req_id: 1, ok: true, tid: 7, endpoint: ep },
            PvmMsg::LookupReq { req_id: 2, tid: 7 },
            PvmMsg::LookupResp { req_id: 2, ok: false, endpoint: ep },
            PvmMsg::Register { tid: 7, endpoint: ep },
            PvmMsg::Data { from: 7, payload: Bytes::from_static(b"x") },
            PvmMsg::RouteData { dest: 8, from: 7, payload: Bytes::from_static(b"y") },
        ];
        for m in msgs {
            assert_eq!(PvmMsg::decode_from_bytes(m.encode_to_bytes()).unwrap(), m);
        }
    }
}
