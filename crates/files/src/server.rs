//! The file server actor with its replication daemon.

use std::collections::HashMap;

use bytes::Bytes;

use snipe_crypto::sha256::sha256;
use snipe_netsim::actor::{due, earliest, Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::uri::Uri;
use snipe_rcds::{RcClient, RcHost};
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};
use snipe_wire::host::StackHost;
use snipe_wire::stack::{endpoint_key, Incoming, StackConfig, WireStack};

use crate::proto::FileMsg;
use crate::sink::{FileSinkActor, FileSourceActor};

/// Replication daemon tick.
const REPLICATE_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// File server configuration.
#[derive(Clone)]
pub struct FileServerConfig {
    /// Name used in replica-location metadata.
    pub name: String,
    /// RC replicas for location registration.
    pub rc_replicas: Vec<Endpoint>,
    /// Peer file servers to replicate to.
    pub peers: Vec<Endpoint>,
    /// Desired replica count per file ("redundancy requirements", §3.2).
    pub replication_factor: usize,
}

impl FileServerConfig {
    /// Defaults for a named server.
    pub fn new(name: impl Into<String>, rc_replicas: Vec<Endpoint>, peers: Vec<Endpoint>) -> Self {
        FileServerConfig { name: name.into(), rc_replicas, peers, replication_factor: 2 }
    }
}

struct Stored {
    content: Bytes,
    hash: [u8; 32],
    /// Peers known to hold a replica (including via acks).
    replicas: usize,
}

/// The file server actor (listens on `snipe_wire::ports::FILE_SERVER`).
///
/// File operations ride the normal SNIPE reliable message layer
/// (SRUDP via [`WireStack`]) — exactly as §5.9 specifies: files are
/// read and written "using the normal message passing routines used to
/// send messages between processes". Only sink/source chunk traffic
/// (already MTU-sized) and RC lookups stay on raw datagrams.
pub struct FileServerActor {
    cfg: FileServerConfig,
    rc: RcHost,
    stack: StackHost,
    /// When the replicas are next compared and pushed.
    next_replicate: Option<SimTime>,
    files: HashMap<String, Stored>,
    /// Integrity rejections observed (diagnostics).
    pub rejected_pushes: u64,
    /// Reliable-path payloads that failed to decode as file messages.
    pub decode_drops: u64,
}

impl FileServerActor {
    /// New server.
    pub fn new(cfg: FileServerConfig) -> FileServerActor {
        let rc = RcClient::new(cfg.rc_replicas.clone(), SimDuration::from_millis(250));
        FileServerActor {
            cfg,
            rc: RcHost::new(rc),
            stack: StackHost::new(),
            next_replicate: None,
            files: HashMap::new(),
            rejected_pushes: 0,
            decode_drops: 0,
        }
    }

    /// Flush the stack and serve the file operations it delivered.
    fn pump_stack(&mut self, ctx: &mut dyn SimCtx) {
        for d in self.stack.flush(ctx) {
            match FileMsg::decode_from_bytes(d.msg) {
                Ok(m) => self.handle_file_msg(ctx, d.from_key, d.from_ep, m),
                Err(_) => self.decode_drops += 1,
            }
        }
    }

    fn reliable_send(&mut self, ctx: &mut dyn SimCtx, to_key: u64, msg: &FileMsg) {
        let now = ctx.now();
        if let Some(stack) = self.stack.as_mut() {
            stack.send(now, to_key, msg.encode_to_bytes()).expect("default frag size");
        }
        self.pump_stack(ctx);
    }

    /// Pre-load a file before the world starts (models the server's
    /// disk contents, which survive a process crash/restart exactly as
    /// the paper's disk-backed servers do). No RC registration happens
    /// here — callers that need the location published store normally.
    pub fn preload(&mut self, lifn: impl Into<String>, content: Bytes) {
        let hash = sha256(&content);
        self.files
            .insert(lifn.into(), Stored { content, hash, replicas: self.cfg.replication_factor });
    }

    /// Does this server hold `lifn`?
    pub fn holds(&self, lifn: &str) -> bool {
        self.files.contains_key(lifn)
    }

    fn register_replica(&mut self, ctx: &mut dyn SimCtx, lifn: &str, hash: &[u8]) {
        // Name-to-location binding in RC (§3.2): one attribute per
        // replica location, plus the integrity hash.
        let Ok(uri) = Uri::parse(lifn.to_string()) else {
            return;
        };
        let me = ctx.me();
        let now = ctx.now();
        self.rc.put(
            now,
            &uri,
            vec![
                Assertion::new(
                    format!("replica:{}", self.cfg.name),
                    format!("{}:{}", me.host.0, me.port),
                ),
                Assertion::new("sha256", snipe_crypto::sha256::hex(hash)),
                Assertion::new("type", "file"),
            ],
        );
        self.rc.flush(ctx);
    }

    fn store(&mut self, ctx: &mut dyn SimCtx, lifn: String, content: Bytes) {
        let hash = sha256(&content);
        self.files.insert(lifn.clone(), Stored { content, hash, replicas: 1 });
        self.register_replica(ctx, &lifn, &hash);
    }

    fn replicate_tick(&mut self, ctx: &mut dyn SimCtx) {
        if !self.cfg.peers.is_empty() {
            // Push under-replicated files to the first peers in the
            // (deterministic) peer order; acks raise the replica count.
            let mut pushes: Vec<(u64, FileMsg)> = Vec::new();
            #[allow(clippy::disallowed_methods, reason = "the names are sorted")]
            let mut names: Vec<&String> = self
                .files
                .iter()
                .filter(|(_, s)| s.replicas < self.cfg.replication_factor)
                .map(|(n, _)| n)
                .collect();
            names.sort();
            for name in names {
                let s = &self.files[name];
                let needed = self.cfg.replication_factor - s.replicas;
                for &peer in self.cfg.peers.iter().take(needed) {
                    pushes.push((
                        endpoint_key(peer),
                        FileMsg::ReplicaPush {
                            lifn: name.clone(),
                            content: s.content.clone(),
                            hash: Bytes::copy_from_slice(&s.hash),
                        },
                    ));
                }
            }
            for (key, msg) in pushes {
                self.reliable_send(ctx, key, &msg);
            }
        }
        self.next_replicate = Some(ctx.now() + REPLICATE_INTERVAL);
    }
}

impl Actor for FileServerActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            // A host that is down at spawn swallows `Start`; the first
            // `HostUp` then finds no stack and starts one.
            Event::Start | Event::HostUp if self.stack.as_ref().is_none() => {
                let me = ctx.me();
                let mut stack = WireStack::new(endpoint_key(me), StackConfig::default());
                for &peer in &self.cfg.peers {
                    stack.set_peer(endpoint_key(peer), peer, vec![]);
                }
                self.stack.start(stack);
                self.next_replicate = Some(ctx.now() + REPLICATE_INTERVAL);
            }
            Event::Wake => {
                let now = ctx.now();
                if self.stack.on_wake(now) {
                    self.pump_stack(ctx);
                }
                if self.rc.on_wake(now) {
                    self.rc.flush(ctx);
                }
                if due(self.next_replicate, now) {
                    self.replicate_tick(ctx);
                }
            }
            Event::Packet { from, payload } => {
                // StoreLocal from our own sinks arrives as a raw-sealed
                // loopback datagram; everything else goes through the
                // reliable stack (SRUDP) or is an RC response.
                let now = ctx.now();
                if let Some(Incoming::Raw { from, msg }) = self.stack.on_packet(now, from, payload)
                {
                    if let Ok(fmsg) = FileMsg::decode_from_bytes(msg.clone()) {
                        self.handle_raw_file_msg(ctx, from, fmsg);
                    } else {
                        self.rc.on_packet(now, from, msg);
                        self.rc.flush(ctx);
                    }
                }
                self.pump_stack(ctx);
            }
            _ => {}
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        earliest([self.stack.next_deadline(), self.rc.next_deadline(), self.next_replicate])
    }
}

impl FileServerActor {
    /// Raw-path messages: sink StoreLocal (loopback) only.
    fn handle_raw_file_msg(&mut self, ctx: &mut dyn SimCtx, _from: Endpoint, msg: FileMsg) {
        if let FileMsg::StoreLocal { lifn, content } = msg {
            self.store(ctx, lifn, content);
        }
    }

    /// Reliable-path file operations.
    fn handle_file_msg(
        &mut self,
        ctx: &mut dyn SimCtx,
        from_key: u64,
        _from_ep: Endpoint,
        msg: FileMsg,
    ) {
        match msg {
            FileMsg::OpenSink { req_id, lifn } => {
                let me = ctx.me();
                let port = ctx.alloc_port(ctx.host());
                let sink = FileSinkActor::new(lifn, me);
                if let Some(ep) = ctx.spawn_portable(ctx.host(), port, Box::new(sink)) {
                    let resp = FileMsg::SinkOpened { req_id, sink: ep };
                    self.reliable_send(ctx, from_key, &resp);
                }
            }
            FileMsg::OpenSource { req_id, lifn, dest } => {
                let _ = req_id;
                let ok = if let Some(s) = self.files.get(&lifn) {
                    let port = ctx.alloc_port(ctx.host());
                    let src = FileSourceActor::new(lifn.clone(), s.content.clone(), dest);
                    ctx.spawn_portable(ctx.host(), port, Box::new(src)).is_some()
                } else {
                    false
                };
                if !ok {
                    // Report not-found via an empty last chunk.
                    let msg = FileMsg::SourceData { lifn, seq: 0, data: Bytes::new(), last: true };
                    ctx.send(dest, seal(Proto::Raw, msg.encode_to_bytes()));
                }
            }
            FileMsg::ReadReq { req_id, lifn } => {
                let resp = match self.files.get(&lifn) {
                    Some(s) => FileMsg::ReadResp {
                        req_id,
                        ok: true,
                        content: s.content.clone(),
                        hash: Bytes::copy_from_slice(&s.hash),
                    },
                    None => FileMsg::ReadResp {
                        req_id,
                        ok: false,
                        content: Bytes::new(),
                        hash: Bytes::new(),
                    },
                };
                self.reliable_send(ctx, from_key, &resp);
            }
            FileMsg::ReadStripe { req_id, lifn, offset, len } => {
                // One stripe of a striped read: the slice plus its own
                // hash, so the fetcher can verify each stripe
                // independently and re-dispatch just the bad ones.
                let resp = match self.files.get(&lifn) {
                    Some(s) if (offset as usize) < s.content.len() || offset == 0 => {
                        let start = offset as usize;
                        let end = (start + len as usize).min(s.content.len());
                        let data = s.content.slice(start..end);
                        let hash = sha256(&data);
                        FileMsg::StripeData {
                            req_id,
                            ok: true,
                            offset,
                            total_len: s.content.len() as u32,
                            data,
                            hash: Bytes::copy_from_slice(&hash),
                        }
                    }
                    _ => FileMsg::StripeData {
                        req_id,
                        ok: false,
                        offset,
                        total_len: 0,
                        data: Bytes::new(),
                        hash: Bytes::new(),
                    },
                };
                self.reliable_send(ctx, from_key, &resp);
            }
            FileMsg::StoreReq { req_id, lifn, content } => {
                self.store(ctx, lifn, content);
                let resp = FileMsg::StoreResp { req_id, ok: true };
                self.reliable_send(ctx, from_key, &resp);
            }
            FileMsg::ReplicaPush { lifn, content, hash } => {
                // Verify integrity before accepting (§2.1).
                let computed = sha256(&content);
                if computed[..] != hash[..] {
                    self.rejected_pushes += 1;
                    return;
                }
                if !self.files.contains_key(&lifn) {
                    self.store(ctx, lifn.clone(), content);
                }
                let ack = FileMsg::ReplicaAck { lifn };
                self.reliable_send(ctx, from_key, &ack);
            }
            FileMsg::ReplicaAck { lifn } => {
                if let Some(s) = self.files.get_mut(&lifn) {
                    s.replicas = (s.replicas + 1).min(self.cfg.replication_factor);
                }
            }
            FileMsg::StoreLocal { .. }
            | FileMsg::SinkOpened { .. }
            | FileMsg::Append { .. }
            | FileMsg::CloseSink
            | FileMsg::SourceData { .. }
            | FileMsg::ReadResp { .. }
            | FileMsg::StoreResp { .. }
            | FileMsg::StripeData { .. } => {}
        }
    }
}
