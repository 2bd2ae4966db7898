//! Replicated file access (§5.9) as a sans-IO machine.
//!
//! An operation goes to the file servers nearest first. A server silent
//! for [`FILE_OP_TIMEOUT`], or without a copy of a file being read,
//! passes it to the next; the last one's failure is the operation's.
//! Each attempt draws an id from the host's shared request counter.

use bytes::Bytes;

use snipe_files::proto::FileMsg;
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::WireEncode;
use snipe_util::deadlines::Deadlines;
use snipe_util::error::SnipeError;
use snipe_util::time::{SimDuration, SimTime};

use crate::actor::Out;
use crate::api::TicketResult;

/// Per-attempt deadline for file server operations.
const FILE_OP_TIMEOUT: SimDuration = SimDuration::from_millis(800);

struct FileOp {
    ticket: u64,
    lifn: String,
    /// What to store; `None` for a read.
    content: Option<Bytes>,
    /// Index of the server asked last.
    server: usize,
}

/// The file operations of one process; see the module doc.
pub struct FileOps {
    servers: Vec<Endpoint>,
    /// Operations awaiting their server's answer, by request id.
    pending: Deadlines<u64, FileOp>,
    pub out: Vec<Out>,
}

impl FileOps {
    pub fn new(servers: Vec<Endpoint>) -> FileOps {
        FileOps { servers, pending: Deadlines::new(), out: Vec::new() }
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
        if self.servers.is_empty() {
            let err = SnipeError::Unavailable("no file servers configured".into());
            return self.out.push(Out::Ticket(ticket, result(content.is_some(), Err(err))));
        }
        self.send(now, req, FileOp { ticket, lifn, content, server: 0 });
    }

    /// Put `op` to its server under a fresh id, pending until the
    /// server answers or [`FILE_OP_TIMEOUT`] passes.
    fn send(&mut self, now: SimTime, next_req: &mut u64, op: FileOp) {
        let req_id = *next_req;
        *next_req += 1;
        let lifn = op.lifn.clone();
        let msg = match &op.content {
            Some(content) => FileMsg::StoreReq { req_id, lifn, content: content.clone() },
            None => FileMsg::ReadReq { req_id, lifn },
        };
        let server = self.servers[op.server];
        self.pending.insert(req_id, now + FILE_OP_TIMEOUT, op);
        self.out.push(Out::Reliable(server, msg.encode_to_bytes()));
    }

    /// Try `op` on the next server, or fail it: the last server had no
    /// copy, or it `timed_out`.
    fn fail_over(&mut self, now: SimTime, next_req: &mut u64, mut op: FileOp, timed_out: bool) {
        if op.server + 1 < self.servers.len() {
            op.server += 1;
            return self.send(now, next_req, op);
        }
        let err = if timed_out {
            SnipeError::Timeout(format!("file operation on {} timed out on every server", op.lifn))
        } else {
            SnipeError::NameNotFound(op.lifn.clone())
        };
        let done = result(op.content.is_some(), Err(err));
        self.out.push(Out::Ticket(op.ticket, done));
    }

    /// A file server answered.
    pub fn on_reply(&mut self, now: SimTime, next_req: &mut u64, msg: FileMsg) {
        let (req_id, ok, content) = match msg {
            FileMsg::StoreResp { req_id, ok } => (req_id, ok, None),
            FileMsg::ReadResp { req_id, ok, content, .. } => (req_id, ok, Some(content)),
            _ => return,
        };
        let Some(op) = self.pending.remove(&req_id) else {
            return;
        };
        let done = match content {
            Some(content) if ok => TicketResult::FileRead(Ok(content)),
            Some(_) => return self.fail_over(now, next_req, op, false),
            None if ok => TicketResult::FileWritten(Ok(())),
            None => result(true, Err(SnipeError::Unavailable("file store rejected".into()))),
        };
        self.out.push(Out::Ticket(op.ticket, done));
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

fn result(write: bool, r: Result<Bytes, SnipeError>) -> TicketResult {
    if write {
        TicketResult::FileWritten(r.map(drop))
    } else {
        TicketResult::FileRead(r)
    }
}
