//! File sink and source processes (§5.9).

use bytes::Bytes;

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_wire::frame::{open, seal, Proto};

use crate::proto::FileMsg;

/// A file sink: accumulates [`FileMsg::Append`] chunks until
/// [`FileMsg::CloseSink`], then hands the assembled file to its parent
/// server and exits.
pub struct FileSinkActor {
    lifn: String,
    server: Endpoint,
    buf: Vec<u8>,
}

impl FileSinkActor {
    /// Sink for `lifn`, reporting to `server` when closed.
    pub fn new(lifn: String, server: Endpoint) -> FileSinkActor {
        FileSinkActor { lifn, server, buf: Vec::new() }
    }
}

impl Actor for FileSinkActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let Event::Packet { payload, .. } = event else {
            return;
        };
        let Ok((Proto::Raw, body)) = open(payload) else {
            return;
        };
        let Ok(msg) = FileMsg::decode_from_bytes(body) else {
            return;
        };
        match msg {
            FileMsg::Append { data } => self.buf.extend_from_slice(&data),
            FileMsg::CloseSink => {
                let store = FileMsg::StoreLocal {
                    lifn: std::mem::take(&mut self.lifn),
                    content: Bytes::from(std::mem::take(&mut self.buf)),
                };
                ctx.send(self.server, seal(Proto::Raw, store.encode_to_bytes()));
                let me = ctx.me();
                ctx.kill(me);
            }
            _ => {}
        }
    }
}

/// Chunk size used by file sources.
pub const SOURCE_CHUNK: usize = 1024;

/// A file source: streams a file's content to a destination endpoint as
/// a series of [`FileMsg::SourceData`] messages, then exits.
pub struct FileSourceActor {
    lifn: String,
    content: Bytes,
    dest: Endpoint,
    next: usize,
}

impl FileSourceActor {
    /// Source streaming `content` (named `lifn`) to `dest`.
    pub fn new(lifn: String, content: Bytes, dest: Endpoint) -> FileSourceActor {
        FileSourceActor { lifn, content, dest, next: 0 }
    }
}

impl Actor for FileSourceActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::Timer { .. } => {
                // Send a bounded burst per tick to avoid swamping the
                // destination, then re-arm.
                for _ in 0..8 {
                    let start = self.next * SOURCE_CHUNK;
                    if start >= self.content.len() && !(self.content.is_empty() && self.next == 0) {
                        let me = ctx.me();
                        ctx.kill(me);
                        return;
                    }
                    let end = (start + SOURCE_CHUNK).min(self.content.len());
                    let last = end == self.content.len();
                    let msg = FileMsg::SourceData {
                        lifn: self.lifn.clone(),
                        seq: self.next as u32,
                        data: self.content.slice(start..end),
                        last,
                    };
                    ctx.send(self.dest, seal(Proto::Raw, msg.encode_to_bytes()));
                    self.next += 1;
                    if last {
                        let me = ctx.me();
                        ctx.kill(me);
                        return;
                    }
                }
                ctx.set_timer(snipe_util::time::SimDuration::from_micros(500), 1);
            }
            _ => {}
        }
    }
}
