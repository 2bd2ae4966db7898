//! Resource manager protocol messages.

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::wire_codec;

use snipe_daemon::proto::SpawnSpec;

/// Passive reservation vs active proxy allocation (§3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocMode {
    /// Reserve capacity; the caller spawns via the daemons itself.
    Passive,
    /// The RM spawns on the caller's behalf and returns live endpoints.
    Active,
}

wire_codec!(enum AllocMode { 0 => Passive, 1 => Active });

/// One granted allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    /// Chosen host's name.
    pub hostname: String,
    /// The host's daemon endpoint (always valid).
    pub daemon: Endpoint,
    /// Spawned task endpoint (active mode only; port 0 otherwise).
    pub task: Endpoint,
    /// Spawned task's process key (active mode only; 0 otherwise).
    pub proc_key: u64,
}

wire_codec!(struct Allocation { hostname, daemon, task, proc_key });

/// RM wire messages (Raw-sealed on the RM port).
#[derive(Clone, Debug, PartialEq)]
pub enum RmMsg {
    /// Request `count` resources matching `spec`.
    AllocReq {
        /// Echoed id.
        req_id: u64,
        /// Requirements + program (program used in active mode).
        spec: SpawnSpec,
        /// How many tasks/hosts.
        count: u32,
        /// Passive or active.
        mode: AllocMode,
    },
    /// Allocation outcome.
    AllocResp {
        /// Echoed id.
        req_id: u64,
        /// All `count` allocations succeeded?
        ok: bool,
        /// Granted allocations (possibly partial on !ok).
        allocations: Vec<Allocation>,
        /// Failure description.
        error: String,
    },
    /// §4 dual-certificate authorization request.
    AuthReq {
        /// Echoed id.
        req_id: u64,
        /// Encoded user certificate granting the process access.
        user_cert: Bytes,
        /// Encoded host certificate vouching for the requesting process.
        host_cert: Bytes,
        /// The resource being requested (hostname or URI).
        resource: String,
    },
    /// Authorization outcome: a certificate signed by the RM.
    AuthResp {
        /// Echoed id.
        req_id: u64,
        /// Granted?
        ok: bool,
        /// Encoded authorization certificate (when ok).
        grant: Bytes,
        /// Failure description.
        error: String,
    },
    /// Active-mode task control: suspend/kill relayed to the daemon.
    TaskControl {
        /// Target daemon.
        daemon: Endpoint,
        /// Task port on that host.
        port: u16,
        /// 0 = kill, otherwise the signal number to deliver.
        signum: u32,
    },
    /// Active-mode migration (§3.5): tell the task at `task` to move to
    /// `target_host`.
    Migrate {
        /// The task's current endpoint.
        task: Endpoint,
        /// Destination hostname.
        target_host: String,
    },
}

wire_codec!(enum RmMsg: magic 0xA3 {
    1 => AllocReq { req_id, spec, count, mode },
    2 => AllocResp { req_id, ok, allocations, error },
    3 => AuthReq { req_id, user_cert, host_cert, resource },
    4 => AuthResp { req_id, ok, grant, error },
    5 => TaskControl { daemon, port, signum },
    6 => Migrate { task, target_host },
});

/// The order an active resource manager sends a process to move to
/// `target_host` (§3.5: an active RM "may ... migrate processes between
/// hosts"), in answer to [`RmMsg::Migrate`]. Raw-sealed to the process.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrateOrder {
    /// Destination hostname.
    pub target_host: String,
}

wire_codec!(struct MigrateOrder: magic 0xAA { target_host });

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::{WireDecode, WireEncode};
    use snipe_util::id::HostId;

    #[test]
    fn variants_round_trip() {
        let msgs = vec![
            RmMsg::AllocReq {
                req_id: 1,
                spec: SpawnSpec::program("w", Bytes::new()),
                count: 4,
                mode: AllocMode::Active,
            },
            RmMsg::AllocResp {
                req_id: 1,
                ok: true,
                allocations: vec![Allocation {
                    hostname: "h".into(),
                    daemon: Endpoint::new(HostId(1), 1),
                    task: Endpoint::new(HostId(1), 100),
                    proc_key: 9,
                }],
                error: String::new(),
            },
            RmMsg::AuthReq {
                req_id: 2,
                user_cert: Bytes::from_static(b"u"),
                host_cert: Bytes::from_static(b"h"),
                resource: "worker1".into(),
            },
            RmMsg::AuthResp { req_id: 2, ok: false, grant: Bytes::new(), error: "no".into() },
            RmMsg::TaskControl { daemon: Endpoint::new(HostId(2), 1), port: 100, signum: 0 },
            RmMsg::Migrate { task: Endpoint::new(HostId(2), 100), target_host: "w3".into() },
        ];
        for m in msgs {
            assert_eq!(RmMsg::decode_from_bytes(m.encode_to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn alloc_mode_byte_is_zero_or_one() {
        // An allocation request's last byte is its mode: 0 is passive,
        // 1 active, and any other byte a malformed request (not a
        // passive one).
        let req = |mode| RmMsg::AllocReq {
            req_id: 1,
            spec: SpawnSpec::program("w", Bytes::new()),
            count: 1,
            mode,
        };
        let mut bytes = req(AllocMode::Active).encode_to_bytes().to_vec();
        for byte in 0..=u8::MAX {
            *bytes.last_mut().unwrap() = byte;
            let got = RmMsg::decode_from_bytes(Bytes::from(bytes.clone())).ok();
            let want = match byte {
                0 => Some(req(AllocMode::Passive)),
                1 => Some(req(AllocMode::Active)),
                _ => None,
            };
            assert_eq!(got, want, "mode byte {byte}");
        }
    }

    #[test]
    fn migrate_order_bytes() {
        let order = MigrateOrder { target_host: "w3".into() };
        assert_eq!(&order.encode_to_bytes()[..], b"\xaa\x00\x00\x00\x02w3");
        assert_eq!(MigrateOrder::decode_from_bytes(order.encode_to_bytes()).unwrap(), order);
    }
}
