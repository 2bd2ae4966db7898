//! Daemon control protocol messages.

use bytes::Bytes;

use snipe_netsim::topology::Endpoint;
use snipe_util::wire_codec;

/// Task lifecycle states the daemon reports (§3.3: "exit, suspend,
/// checkpoint").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Running normally.
    Running,
    /// Suspended by a resource manager.
    Suspended,
    /// Checkpointed (state captured).
    Checkpointed,
    /// Exited.
    Exited,
    /// Lost to a host crash.
    Crashed,
}

wire_codec!(enum TaskState {
    1 => Running,
    2 => Suspended,
    3 => Checkpointed,
    4 => Exited,
    5 => Crashed,
});

impl TaskState {
    /// RC metadata value.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskState::Running => "running",
            TaskState::Suspended => "suspended",
            TaskState::Checkpointed => "checkpointed",
            TaskState::Exited => "exited",
            TaskState::Crashed => "crashed",
        }
    }
}

/// What to run and under which constraints (§5.5: "a specification of
/// the program to be run and the environment which the program
/// requires").
#[derive(Clone, Debug, PartialEq)]
pub struct SpawnSpec {
    /// Registered program name.
    pub program: String,
    /// Opaque argument bytes handed to the program factory.
    pub args: Bytes,
    /// Environment requirements (matched by resource managers):
    /// minimum CPU factor.
    pub min_cpu_factor: f64,
    /// Required architecture tag (empty = any).
    pub arch: String,
    /// Endpoints to notify of task state changes (the "notify list").
    pub notify: Vec<Endpoint>,
    /// Optional credential (encoded certificate) authorizing the spawn.
    pub credential: Option<Bytes>,
    /// Keep this process key instead of assigning a new one (used by
    /// migration so the logical identity survives the move, §5.6).
    pub fixed_key: u64,
}

impl SpawnSpec {
    /// A spec with no constraints.
    pub fn program(name: impl Into<String>, args: Bytes) -> SpawnSpec {
        SpawnSpec {
            program: name.into(),
            args,
            min_cpu_factor: 0.0,
            arch: String::new(),
            notify: Vec::new(),
            credential: None,
            fixed_key: 0,
        }
    }
}

wire_codec!(struct SpawnSpec { program, args, min_cpu_factor, arch, notify, credential, fixed_key });

/// Daemon control messages (Raw-sealed datagrams on the daemon port).
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonMsg {
    /// Ask the daemon to start a task.
    SpawnReq {
        /// Request id echoed in the reply.
        req_id: u64,
        /// What to run.
        spec: SpawnSpec,
    },
    /// Spawn outcome.
    SpawnResp {
        /// Echoed id.
        req_id: u64,
        /// Success?
        ok: bool,
        /// The task's endpoint (valid when ok).
        endpoint: Endpoint,
        /// The task's globally unique process key (valid when ok).
        proc_key: u64,
        /// Failure reason (when !ok).
        error: String,
    },
    /// Kill a local task by port.
    Kill {
        /// Task port on this daemon's host.
        port: u16,
    },
    /// Deliver a signal to a local task.
    Signal {
        /// Task port.
        port: u16,
        /// Signal number.
        signum: u32,
    },
    /// A local task reports its own state change (exit, checkpoint...).
    TaskReport {
        /// Task port.
        port: u16,
        /// New state.
        state: TaskState,
    },
    /// Notification fanned out to the notify list.
    TaskEvent {
        /// The task's process key.
        proc_key: u64,
        /// New state.
        state: TaskState,
    },
    /// Ask the daemon to (maybe) become a multicast router for a group.
    ElectRouter {
        /// Group id (hash of the group URN).
        group: u64,
    },
    /// Reply: the router endpoint serving the group on this host.
    ElectResp {
        /// Group id.
        group: u64,
        /// Router endpoint (this host's router actor).
        router: Endpoint,
    },
    /// Add a watcher to a local task's notify list (§5.2.3).
    Watch {
        /// Task port.
        port: u16,
        /// Endpoint to notify of state changes.
        watcher: Endpoint,
    },
    /// Remove a task from this daemon's tables without reporting an
    /// exit — the migration handoff (§5.6). The daemon replies with
    /// [`DaemonMsg::DetachResp`].
    Detach {
        /// Task port.
        port: u16,
    },
    /// Reply to [`DaemonMsg::Detach`]: the task's notify list, to be
    /// carried to the new host.
    DetachResp {
        /// Task port.
        port: u16,
        /// The notify list the daemon held.
        notify: Vec<Endpoint>,
    },
}

wire_codec!(enum DaemonMsg: magic 0xA2 {
    1 => SpawnReq { req_id, spec },
    2 => SpawnResp { req_id, ok, endpoint, proc_key, error },
    3 => Kill { port },
    4 => Signal { port, signum },
    5 => TaskReport { port, state },
    6 => TaskEvent { proc_key, state },
    7 => ElectRouter { group },
    8 => ElectResp { group, router },
    9 => Watch { port, watcher },
    10 => Detach { port },
    11 => DetachResp { port, notify },
});

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::codec::{WireDecode, WireEncode};
    use snipe_util::id::HostId;

    #[test]
    fn all_variants_round_trip() {
        let spec = SpawnSpec {
            program: "worker".into(),
            args: Bytes::from_static(b"a"),
            min_cpu_factor: 1.5,
            arch: "sparc".into(),
            notify: vec![Endpoint::new(HostId(1), 2)],
            credential: Some(Bytes::from_static(b"cert")),
            fixed_key: 42,
        };
        let msgs = vec![
            DaemonMsg::SpawnReq { req_id: 1, spec },
            DaemonMsg::SpawnResp {
                req_id: 1,
                ok: true,
                endpoint: Endpoint::new(HostId(3), 100),
                proc_key: 77,
                error: String::new(),
            },
            DaemonMsg::Kill { port: 100 },
            DaemonMsg::Signal { port: 100, signum: 15 },
            DaemonMsg::TaskReport { port: 100, state: TaskState::Checkpointed },
            DaemonMsg::TaskEvent { proc_key: 7, state: TaskState::Exited },
            DaemonMsg::ElectRouter { group: 5 },
            DaemonMsg::ElectResp { group: 5, router: Endpoint::new(HostId(0), 5) },
            DaemonMsg::Watch { port: 100, watcher: Endpoint::new(HostId(2), 3) },
            DaemonMsg::Detach { port: 100 },
            DaemonMsg::DetachResp { port: 100, notify: vec![Endpoint::new(HostId(2), 3)] },
        ];
        for m in msgs {
            assert_eq!(DaemonMsg::decode_from_bytes(m.encode_to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn task_state_strings() {
        assert_eq!(TaskState::Running.as_str(), "running");
        assert_eq!(TaskState::Crashed.as_str(), "crashed");
    }

    #[test]
    fn a_forged_notify_count_is_refused_up_front() {
        // A detach reply claiming 1 000 watchers but carrying one.
        let mut bytes =
            DaemonMsg::DetachResp { port: 100, notify: vec![Endpoint::new(HostId(2), 3)] }
                .encode_to_bytes()
                .to_vec();
        bytes[4..8].copy_from_slice(&1_000u32.to_be_bytes());
        let err = DaemonMsg::decode_from_bytes(Bytes::from(bytes)).unwrap_err();
        assert!(err.to_string().contains("count 1000 exceeds the 6 bytes left"), "{err}");
    }

    #[test]
    fn bad_state_tag_rejected() {
        assert!(TaskState::decode_from_bytes(Bytes::from_static(&[99])).is_err());
    }
}
