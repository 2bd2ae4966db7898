//! Self-initiated migration (§5.6) as a sans-IO machine.
//!
//! A process runs; freezes from its checkpoint until the target daemon
//! answers the respawn request, consuming no traffic (the new
//! incarnation will own the protocol state, and SRUDP retransmits what
//! the frozen one drops, so nothing is lost); redirects stragglers for
//! [`REDIRECT_GRACE`] once the new incarnation is up; then is gone. A
//! refused or unanswered respawn returns it to running.

use bytes::Bytes;

use snipe_daemon::proto::DaemonMsg;
use snipe_netsim::actor::due;
use snipe_netsim::topology::Endpoint;
use snipe_rm::proto::MigrateOrder;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;
use snipe_wire::frame::{open, seal, Proto};

use crate::actor::Out;

/// How long a migrated-away process keeps redirecting (§5.6 "act as a
/// relay or redirect for a short period").
pub const REDIRECT_GRACE: SimDuration = SimDuration::from_secs(1);

/// Serialized state shipped to the new host during migration.
pub struct MigrationPayload {
    pub program: String,
    pub args: Bytes,
    pub user_state: Bytes,
    pub stack_state: Bytes,
    pub groups: Vec<String>,
}

wire_codec!(struct MigrationPayload { program, args, user_state, stack_state, groups });

/// Raw notice a migrated-away process sends a straggler: `proc_key`
/// now lives at `to` (§5.6, "act as a relay or redirect").
pub struct RedirectNotice {
    pub proc_key: u64,
    pub to: Endpoint,
}

wire_codec!(struct RedirectNotice: magic 0xA8 { proc_key, to });

/// Where a process is in its life on this host: running; frozen, its
/// respawn request out; redirecting to its new incarnation `to` until
/// `until`; gone (exited, rebooted away, or moved for good).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Lifecycle {
    Running,
    Frozen,
    Redirecting { to: Endpoint, until: SimTime },
    Gone,
}

/// The migration machine of one process; see the module doc.
pub struct Migration {
    proc_key: u64,
    /// `ProcessConfig::chaos_disable_migration_freeze`: a frozen
    /// process admits everything (the planted bug).
    leaky: bool,
    pub state: Lifecycle,
    pub out: Vec<Out>,
}

impl Migration {
    pub fn new(proc_key: u64, leaky: bool) -> Migration {
        Migration { proc_key, leaky, state: Lifecycle::Running, out: Vec::new() }
    }

    /// Move to `host`, which is `target` if the topology knows it. Only
    /// a running process moves, and only away from `here`.
    pub fn start(&mut self, host: &str, target: Option<HostId>, here: HostId) {
        match target {
            _ if self.state != Lifecycle::Running => {}
            None => self.out.push(Out::Log(format!("migration failed: unknown host {host}"))),
            Some(t) if t == here => {}
            Some(t) => {
                self.state = Lifecycle::Frozen;
                self.out.push(Out::Checkpoint(t));
            }
        }
    }

    /// The respawn request was answered with the new incarnation's
    /// endpoint, refused, or timed out.
    pub fn on_respawn(&mut self, now: SimTime, outcome: Result<Endpoint, String>) {
        match outcome {
            Ok(to) => {
                self.state = Lifecycle::Redirecting { to, until: now + REDIRECT_GRACE };
                self.out.push(Out::Cutover);
            }
            Err(error) => {
                if self.state == Lifecycle::Frozen {
                    self.state = Lifecycle::Running;
                }
                self.out.push(Out::Log(format!("migration rejected: {error}")));
            }
        }
    }

    /// A datagram arrived from `from`: the stack's (returned) while the
    /// process runs. Once it is checkpointed only a daemon's spawn
    /// answer passes, and once it is cut over every other datagram but
    /// a detach answer is answered with a redirect.
    pub fn admit(&mut self, from: Endpoint, payload: Bytes) -> Option<Bytes> {
        if self.state == Lifecycle::Running || self.leaky {
            return Some(payload);
        }
        let daemon = match open(payload) {
            Ok((Proto::Raw, body)) => DaemonMsg::decode_from_bytes(body).ok(),
            _ => None,
        };
        match (daemon, self.state) {
            (Some(msg @ DaemonMsg::SpawnResp { .. }), _) => self.out.push(Out::Daemon(msg)),
            (Some(DaemonMsg::DetachResp { .. }), _) => {}
            (_, Lifecycle::Redirecting { to, .. }) => {
                let notice = RedirectNotice { proc_key: self.proc_key, to }.encode_to_bytes();
                self.out.push(Out::Send(from, seal(Proto::Raw, notice)));
            }
            _ => {}
        }
        None
    }

    /// A raw message reached the running process: a redirect notice or
    /// an authorized controller's migrate order is the machine's.
    /// Returns whether it was.
    pub fn on_raw(&mut self, msg: &Bytes) -> bool {
        if let Ok(notice) = RedirectNotice::decode_from_bytes(msg.clone()) {
            self.out.push(Out::Repoint(notice.proc_key, notice.to));
        } else if let Ok(order) = MigrateOrder::decode_from_bytes(msg.clone()) {
            let line = format!("resource manager requests migration to {}", order.target_host);
            self.out.extend([Out::Log(line), Out::MoveTo(order.target_host)]);
        } else {
            return false;
        }
        true
    }

    /// The end of the redirect grace.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self.state {
            Lifecycle::Redirecting { until, .. } => Some(until),
            _ => None,
        }
    }

    /// Woken at `now`: done redirecting, vanish.
    pub fn on_wake(&mut self, now: SimTime) {
        if due(self.next_deadline(), now) {
            self.state = Lifecycle::Gone;
            self.out.push(Out::Vanish);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_daemon::proto::DaemonMsg;

    const HERE: HostId = HostId(1);
    const THERE: HostId = HostId(2);

    fn ep(host: u32, port: u16) -> Endpoint {
        Endpoint::new(HostId(host), port)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// One SRUDP datagram of application data, as a peer would send it.
    fn data() -> Bytes {
        seal(Proto::Srudp, Bytes::from_static(b"app data"))
    }

    fn daemon(msg: DaemonMsg) -> Bytes {
        seal(Proto::Raw, msg.encode_to_bytes())
    }

    fn spawn_resp() -> DaemonMsg {
        let endpoint = ep(2, 100);
        DaemonMsg::SpawnResp { req_id: 1, ok: true, endpoint, proc_key: 7, error: String::new() }
    }

    /// A machine that has checkpointed for a move to `THERE`.
    fn frozen(leaky: bool) -> Migration {
        let mut m = Migration::new(7, leaky);
        m.start("there", Some(THERE), HERE);
        assert_eq!(m.state, Lifecycle::Frozen);
        assert!(matches!(m.out.as_slice(), [Out::Checkpoint(THERE)]));
        m.out.clear();
        m
    }

    #[test]
    fn a_frozen_process_consumes_no_application_data() {
        let mut running = Migration::new(7, false);
        assert_eq!(running.admit(ep(3, 40), data()), Some(data()), "running: to the stack");
        let mut m = frozen(false);
        assert_eq!(m.admit(ep(3, 40), data()), None);
        let order = MigrateOrder { target_host: "elsewhere".into() }.encode_to_bytes();
        assert_eq!(m.admit(ep(3, 40), seal(Proto::Raw, order)), None);
        assert!(m.out.is_empty(), "not cut over yet: nothing to redirect to");
        // Only the daemon's answer to the respawn gets through.
        assert_eq!(m.admit(ep(1, 7), daemon(spawn_resp())), None);
        assert!(matches!(m.out.as_slice(), [Out::Daemon(msg)] if *msg == spawn_resp()));
        // The planted bug: the drill switch lets data reach the stack.
        assert_eq!(frozen(true).admit(ep(3, 40), data()), Some(data()));
    }

    #[test]
    fn a_straggler_gets_one_redirect_notice_per_datagram() {
        let mut m = frozen(false);
        let new_home = ep(2, 100);
        m.on_respawn(ms(10), Ok(new_home));
        assert!(matches!(m.out.as_slice(), [Out::Cutover]));
        m.out.clear();
        let straggler = ep(3, 40);
        for _ in 0..3 {
            assert_eq!(m.admit(straggler, data()), None);
        }
        assert_eq!(
            m.admit(ep(1, 7), daemon(DaemonMsg::DetachResp { port: 50, notify: vec![] })),
            None
        );
        assert_eq!(m.out.len(), 3, "one notice per datagram, none for the detach answer");
        for out in &m.out {
            let Out::Send(to, datagram) = out else { panic!("{out:?}") };
            let Ok((Proto::Raw, body)) = open(datagram.clone()) else { panic!("not raw") };
            let notice = RedirectNotice::decode_from_bytes(body).unwrap();
            assert_eq!((*to, notice.proc_key, notice.to), (straggler, 7, new_home));
        }
    }

    #[test]
    fn the_process_disappears_at_the_end_of_the_grace() {
        let mut m = frozen(false);
        m.on_respawn(ms(10), Ok(ep(2, 100)));
        m.out.clear();
        assert_eq!(m.next_deadline(), Some(ms(10) + REDIRECT_GRACE));
        m.on_wake(ms(10) + REDIRECT_GRACE - SimDuration::from_micros(1));
        assert!(m.out.is_empty() && m.next_deadline().is_some(), "still redirecting");
        m.on_wake(ms(10) + REDIRECT_GRACE);
        assert!(matches!(m.out.as_slice(), [Out::Vanish]));
        assert_eq!((m.state, m.next_deadline()), (Lifecycle::Gone, None));
        m.out.clear();
        assert_eq!(m.admit(ep(3, 40), data()), None);
        assert!(m.out.is_empty(), "gone: no more redirects");
    }

    #[test]
    fn a_refused_respawn_returns_the_process_to_running() {
        let mut m = frozen(false);
        m.on_respawn(ms(10), Err("no such program".into()));
        assert_eq!(m.state, Lifecycle::Running);
        assert!(
            matches!(m.out.as_slice(), [Out::Log(l)] if l == "migration rejected: no such program")
        );
        assert_eq!(m.admit(ep(3, 40), data()), Some(data()), "consuming again");
        m.out.clear();
        m.start("there", Some(THERE), HERE);
        assert!(matches!(m.out.as_slice(), [Out::Checkpoint(THERE)]), "free to try again");
    }
}
