//! Consoles: SNIPE processes that talk to humans (§3.7).
//!
//! "A SNIPE process can also function as an HTTP server ... A
//! SNIPE-based HTTP server can register a binding between a URN or URL
//! and its current location, allowing a web browser to find it even
//! though it may migrate from one host to another." The [`ConsoleActor`]
//! is that HTTP server; [`BrowserActor`] is the paper's proxy-resolving
//! web browser, locating consoles through RC metadata.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::uri::Uri;
use snipe_rcds::{RcClient, RcHost, RC_TIMEOUT};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;
use snipe_wire::frame::{open, seal, Proto};

use crate::names::{comm_address, format_endpoint, ATTR_COMM_ADDRESS};

/// Minimal HTTP-shaped request/response pair.
#[derive(Clone, Debug, PartialEq)]
pub enum HttpMsg {
    /// GET a path.
    Get {
        /// Request id echoed in the response.
        req_id: u64,
        /// Path, e.g. `/status`.
        path: String,
    },
    /// Response.
    Resp {
        /// Echoed id.
        req_id: u64,
        /// 200 or 404.
        status: u16,
        /// Body text.
        body: String,
    },
}

wire_codec!(enum HttpMsg: magic 0xA9 {
    1 => Get { req_id, path },
    2 => Resp { req_id, status, body },
});

/// A console: serves registered pages over the simulated HTTP protocol
/// and keeps its URL→location binding fresh in RC metadata.
pub struct ConsoleActor {
    /// The console's URL (e.g. `http://console.snipe/`).
    url: Uri,
    rc: RcHost,
    pages: HashMap<String, Box<dyn Fn() -> String + Send>>,
    /// Requests served (diagnostics).
    pub served: u64,
}

impl ConsoleActor {
    /// A console registered under `url`.
    pub fn new(url: Uri, rc_replicas: Vec<Endpoint>) -> ConsoleActor {
        let rc = RcClient::new(rc_replicas, RC_TIMEOUT);
        ConsoleActor { url, rc: RcHost::new(rc), pages: HashMap::new(), served: 0 }
    }

    /// Register a page.
    pub fn page(
        mut self,
        path: impl Into<String>,
        render: impl Fn() -> String + Send + 'static,
    ) -> Self {
        self.pages.insert(path.into(), Box::new(render));
        self
    }

    fn publish(&mut self, ctx: &mut dyn SimCtx) {
        let binding = Assertion::new(ATTR_COMM_ADDRESS, format_endpoint(ctx.me()));
        self.rc.put(ctx.now(), &self.url, vec![binding]);
        self.rc.flush(ctx);
    }
}

impl Actor for ConsoleActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::HostUp => self.publish(ctx),
            Event::Wake => {
                self.rc.on_wake(ctx.now());
                self.rc.flush(ctx);
            }
            Event::Packet { from, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    return;
                };
                if let Ok(HttpMsg::Get { req_id, path }) = HttpMsg::decode_from_bytes(body.clone())
                {
                    self.served += 1;
                    let resp = match self.pages.get(&path) {
                        Some(render) => HttpMsg::Resp { req_id, status: 200, body: render() },
                        None => HttpMsg::Resp { req_id, status: 404, body: "not found".into() },
                    };
                    ctx.send(from, seal(Proto::Raw, resp.encode_to_bytes()));
                } else {
                    self.rc.on_packet(ctx.now(), from, body);
                    self.rc.flush(ctx);
                }
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.rc.next_deadline()
    }
}

/// A scripted "web browser": resolves console URLs via RC metadata (the
/// §3.7 proxy behaviour) and fetches paths, logging responses.
pub struct BrowserActor {
    rc: RcHost,
    /// (delay, url, path) fetches to perform in order, each `delay`
    /// after the one before (the first after start).
    script: VecDeque<(SimDuration, Uri, String)>,
    /// When the head of `script` is fetched.
    next_fetch: Option<SimTime>,
    /// Pending RC lookups: rc req id → (req_id for HTTP, path).
    pending_resolve: HashMap<u64, (u64, String)>,
    next_req: u64,
    /// Responses received: (status, body).
    pub responses: Arc<Mutex<Vec<(u16, String)>>>,
}

impl BrowserActor {
    /// A browser with a fetch script.
    pub fn new(
        rc_replicas: Vec<Endpoint>,
        script: Vec<(SimDuration, Uri, String)>,
        responses: Arc<Mutex<Vec<(u16, String)>>>,
    ) -> BrowserActor {
        let rc = RcClient::new(rc_replicas, RC_TIMEOUT);
        BrowserActor {
            rc: RcHost::new(rc),
            script: script.into(),
            next_fetch: None,
            pending_resolve: HashMap::new(),
            next_req: 1,
            responses,
        }
    }

    /// Flush the RC client; every resolved console URL turns into the
    /// HTTP request that was waiting for it.
    fn pump_rc(&mut self, ctx: &mut dyn SimCtx) {
        for (id, result) in self.rc.flush(ctx) {
            let Some((req_id, path)) = self.pending_resolve.remove(&id) else {
                continue;
            };
            match result.ok().and_then(|r| comm_address(&r.assertions)) {
                Some(ep) => {
                    let msg = HttpMsg::Get { req_id, path };
                    ctx.send(ep, seal(Proto::Raw, msg.encode_to_bytes()));
                }
                None => self
                    .responses
                    .lock()
                    .expect("responses poisoned")
                    .push((0, format!("resolve failed: {path}"))),
            }
        }
    }
}

impl Actor for BrowserActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => self.next_fetch = self.script.front().map(|s| ctx.now() + s.0),
            Event::Wake => {
                let now = ctx.now();
                while due(self.next_fetch, now) {
                    let (_, url, path) = self.script.pop_front().expect("a fetch is due");
                    let req_id = self.next_req;
                    self.next_req += 1;
                    let id = self.rc.get(now, &url);
                    self.pending_resolve.insert(id, (req_id, path));
                    self.next_fetch = self.script.front().map(|s| now + s.0);
                }
                self.rc.on_wake(now);
                self.pump_rc(ctx);
            }
            Event::Packet { from, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    return;
                };
                if let Ok(HttpMsg::Resp { status, body, .. }) =
                    HttpMsg::decode_from_bytes(body.clone())
                {
                    self.responses.lock().expect("responses poisoned").push((status, body));
                } else {
                    self.rc.on_packet(ctx.now(), from, body);
                    self.pump_rc(ctx);
                }
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        earliest([self.next_fetch, self.rc.next_deadline()])
    }
}
