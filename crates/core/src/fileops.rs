//! Replicated file access (§5.9) as a sans-IO machine.
//!
//! An operation goes to the file servers nearest first: its k-th
//! attempt to the k-th server. A server silent for [`FILE_OP_TIMEOUT`],
//! or without a copy of a file being read, passes it to the next; the
//! last one's failure is the operation's. Each attempt draws an id from
//! the host's shared request counter and lives in a [`Requests`] table.

use bytes::Bytes;

use snipe_files::proto::FileMsg;
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::WireEncode;
use snipe_util::error::SnipeError;
use snipe_util::requests::{Request, Requests};
use snipe_util::time::{SimDuration, SimTime};

use crate::actor::Out;
use crate::api::TicketResult;

/// Per-attempt deadline for file server operations.
const FILE_OP_TIMEOUT: SimDuration = SimDuration::from_millis(800);

pub(crate) struct FileOp {
    ticket: u64,
    lifn: String,
    /// What to store; `None` for a read.
    content: Option<Bytes>,
}

type Pending = Request<Endpoint, FileOp>;

/// The file operations of one process; see the module doc.
pub struct FileOps {
    servers: Vec<Endpoint>,
    /// Operations awaiting their server's answer, by request id; one
    /// attempt per server.
    pub pending: Requests<Endpoint, FileOp>,
    pub out: Vec<Out>,
}

impl FileOps {
    pub fn new(servers: Vec<Endpoint>) -> FileOps {
        let pending = Requests::new(FILE_OP_TIMEOUT, servers.len() as u32);
        FileOps { servers, pending, out: Vec::new() }
    }

    /// Start a write of `content`, or a read if there is none.
    pub fn start(
        &mut self,
        now: SimTime,
        req: &mut u64,
        ticket: u64,
        lifn: String,
        content: Option<Bytes>,
    ) {
        let Some(&server) = self.servers.first() else {
            let err = SnipeError::Unavailable("no file servers configured".into());
            return self.out.push(Out::Ticket(ticket, result(content.is_some(), Err(err))));
        };
        let op = FileOp { ticket, lifn, content };
        let req_id = *req;
        *req += 1;
        self.out.push(Out::Reliable(server, request(req_id, &op)));
        self.pending.send(now, req_id, server, op);
    }

    /// Try `op` on the next server under a fresh id, or fail it: the
    /// last server had no copy, or it `timed_out`.
    fn fail_over(&mut self, now: SimTime, next_req: &mut u64, op: Pending, timed_out: bool) {
        let server = self.servers[op.attempts as usize % self.servers.len()];
        let req_id = *next_req;
        let op = match self.pending.retry(now, req_id, server, op) {
            Ok(op) => {
                *next_req += 1;
                return self.out.push(Out::Reliable(server, request(req_id, op)));
            }
            Err(op) => op.value,
        };
        let err = if timed_out {
            SnipeError::Timeout(format!("file operation on {} timed out on every server", op.lifn))
        } else {
            SnipeError::NameNotFound(op.lifn.clone())
        };
        let done = result(op.content.is_some(), Err(err));
        self.out.push(Out::Ticket(op.ticket, done));
    }

    /// File server `from` answered.
    pub fn on_reply(&mut self, now: SimTime, next_req: &mut u64, from: Endpoint, msg: FileMsg) {
        let (req_id, ok, content) = match msg {
            FileMsg::StoreResp { req_id, ok } => (req_id, ok, None),
            FileMsg::ReadResp { req_id, ok, content, .. } => (req_id, ok, Some(content)),
            _ => return,
        };
        let Some(op) = self.pending.on_reply(req_id, &from) else {
            return;
        };
        let done = match content {
            Some(content) if ok => TicketResult::FileRead(Ok(content)),
            Some(_) => return self.fail_over(now, next_req, op, false),
            None if ok => TicketResult::FileWritten(Ok(())),
            None => result(true, Err(SnipeError::Unavailable("file store rejected".into()))),
        };
        self.out.push(Out::Ticket(op.value.ticket, done));
    }

    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.next_deadline()
    }

    /// Woken at `now`: fail over the lowest-numbered expired operation.
    /// Returns whether one had expired; the host drains in between, as
    /// a completion may start requests that draw the next ids.
    pub fn on_wake(&mut self, now: SimTime, next_req: &mut u64) -> bool {
        let Some((_, op)) = self.pending.pop_due(now) else {
            return false;
        };
        self.fail_over(now, next_req, op, true);
        true
    }
}

/// The wire request for `op` under `req_id`.
fn request(req_id: u64, op: &FileOp) -> Bytes {
    let lifn = op.lifn.clone();
    let msg = match &op.content {
        Some(content) => FileMsg::StoreReq { req_id, lifn, content: content.clone() },
        None => FileMsg::ReadReq { req_id, lifn },
    };
    msg.encode_to_bytes()
}

fn result(write: bool, r: Result<Bytes, SnipeError>) -> TicketResult {
    if write {
        TicketResult::FileWritten(r.map(drop))
    } else {
        TicketResult::FileRead(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_util::id::HostId;

    fn read_resp(req_id: u64, ok: bool) -> FileMsg {
        let content = Bytes::from_static(b"x");
        FileMsg::ReadResp { req_id, ok, content, hash: Bytes::new() }
    }

    /// A read goes to the nearest server; a reply from anyone else is
    /// dropped as mismatched, a missing copy passes it on under a fresh
    /// id, and silence at the last server fails it.
    #[test]
    fn a_read_fails_over_nearest_first_and_only_its_server_answers() {
        let (a, b) = (Endpoint::new(HostId(1), 9), Endpoint::new(HostId(2), 9));
        let mut f = FileOps::new(vec![a, b]);
        let mut next_req = 1;
        f.start(SimTime::ZERO, &mut next_req, 7, "lifn:x".into(), None);
        assert!(matches!(f.out.drain(..).as_slice(), [Out::Reliable(to, _)] if *to == a));
        f.on_reply(SimTime::ZERO, &mut next_req, b, read_resp(1, true));
        assert!(f.out.is_empty(), "a reply from the wrong server completes nothing");
        f.on_reply(SimTime::ZERO, &mut next_req, a, read_resp(1, false));
        assert!(matches!(f.out.drain(..).as_slice(), [Out::Reliable(to, _)] if *to == b));
        assert_eq!(next_req, 3, "each attempt draws an id");
        let late = SimTime::ZERO + FILE_OP_TIMEOUT;
        assert!(f.on_wake(late, &mut next_req));
        let [Out::Ticket(7, TicketResult::FileRead(Err(e)))] = f.out.as_slice() else {
            panic!("expected a failed read, got {:?}", f.out);
        };
        assert_eq!(e.kind(), "timeout");
        f.on_reply(late, &mut next_req, b, read_resp(2, true));
        let s = f.pending.stats();
        assert_eq!((s.mismatched, s.retries, s.gave_up, s.stale), (1, 1, 1, 1));
    }
}
