//! The RC / metadata server actor.
//!
//! Each server is one replica of the catalog. It answers client RPCs
//! and runs pairwise anti-entropy with its peer replicas: every
//! `sync_interval` it asks one (deterministically random) peer to push
//! the updates it lacks. Because [`crate::store::RcStore::apply`] is
//! idempotent and commutative, replicas converge regardless of loss,
//! reordering or crash/recovery — host state survives crashes as the
//! paper's disk-backed servers did.

use snipe_netsim::actor::{Actor, Event, SimCtx, TimerGate};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::time::SimDuration;
use snipe_wire::frame::{open, seal, Proto};

use crate::proto::{RcMsg, RcOp};
use crate::shard::ShardMap;
use crate::store::RcStore;
use crate::uri::Uri;

/// Timer token for the anti-entropy tick.
const TIMER_SYNC: u64 = 1;
/// Maximum updates per SyncPush datagram.
const PUSH_BATCH: usize = 64;
/// Byte budget for the updates in one SyncPush. Servers send raw
/// datagrams (no wire-layer fragmentation), so a push must fit the
/// path MTU with headroom for framing — on a busy catalog a
/// count-only batch silently exceeds 1500 bytes and every push is
/// dropped `TooBig`, wedging anti-entropy entirely.
const PUSH_BYTES: usize = 1100;

/// The RC server actor.
pub struct RcServerActor {
    store: RcStore,
    peers: Vec<Endpoint>,
    sync_interval: SimDuration,
    /// Keeps the periodic anti-entropy tick to one chain across host
    /// flaps.
    sync_gate: TimerGate,
    /// When set, this replica owns exactly one shard of the namespace:
    /// URI-addressed requests routed here by mistake are rejected (and
    /// counted) instead of being stored where anti-entropy would never
    /// reconcile them with the true owners.
    shard: Option<(ShardMap, usize)>,
    /// Served client requests (diagnostics).
    pub requests_served: u64,
    /// Anti-entropy rounds initiated.
    pub sync_rounds: u64,
    /// URI-addressed requests rejected for belonging to another shard.
    pub misrouted: u64,
    /// Datagrams on the RC port that failed to open/decode.
    pub decode_drops: u64,
}

impl RcServerActor {
    /// A replica with the given id and peer replica endpoints.
    pub fn new(server_id: u64, peers: Vec<Endpoint>, sync_interval: SimDuration) -> RcServerActor {
        RcServerActor {
            store: RcStore::new(server_id),
            peers,
            sync_interval,
            sync_gate: TimerGate::new(),
            shard: None,
            requests_served: 0,
            sync_rounds: 0,
            misrouted: 0,
            decode_drops: 0,
        }
    }

    /// One replica group over `eps`, in endpoint order: server ids
    /// `1..=n`, each server's peers all the other endpoints.
    pub fn group(
        eps: &[Endpoint],
        sync_interval: SimDuration,
    ) -> impl Iterator<Item = RcServerActor> + '_ {
        (1..).zip(eps).map(move |(id, ep)| {
            let peers = eps.iter().copied().filter(|e| e != ep).collect();
            RcServerActor::new(id, peers, sync_interval)
        })
    }

    /// Declare this replica a member of shard `idx` of `map`. Peers
    /// should be the other replicas of the *same* group so anti-entropy
    /// stays within the shard.
    pub fn with_shard(mut self, map: ShardMap, idx: usize) -> RcServerActor {
        self.shard = Some((map, idx));
        self
    }

    /// Read access to the replica state (tests/experiments).
    pub fn store(&self) -> &RcStore {
        &self.store
    }

    /// Pre-load an assertion before the world starts (bootstrap data
    /// such as host descriptors).
    pub fn preload(&mut self, uri: &Uri, assertion: crate::assertion::Assertion) {
        self.store.put(uri, assertion, 0);
    }

    fn send(&self, ctx: &mut dyn SimCtx, to: Endpoint, msg: &RcMsg) {
        ctx.send(to, seal(Proto::Raw, msg.encode_to_bytes()));
    }

    /// Ask `peer` to push what this replica lacks.
    fn send_sync_req(&self, ctx: &mut dyn SimCtx, peer: Endpoint) {
        self.send(ctx, peer, &RcMsg::SyncReq { vector: self.store.version_vector().clone() });
    }

    /// Does a URI-addressed op belong to this replica's shard? `Find`
    /// scans the local shard only (callers fan out across groups).
    fn owns(&mut self, op: &RcOp) -> bool {
        let Some((map, idx)) = &self.shard else {
            return true;
        };
        let uri = match op {
            RcOp::Get(u) | RcOp::Put(u, _) | RcOp::Delete(u, _) => u.as_str(),
            RcOp::Find(..) => return true,
        };
        if map.shard_of(uri) == *idx {
            true
        } else {
            self.misrouted += 1;
            false
        }
    }

    fn handle_request(&mut self, ctx: &mut dyn SimCtx, from: Endpoint, id: u64, op: RcOp) {
        self.requests_served += 1;
        if !self.owns(&op) {
            let resp = RcMsg::Response { id, ok: false, assertions: vec![], uris: vec![] };
            self.send(ctx, from, &resp);
            return;
        }
        let now_ns = ctx.now().as_nanos();
        let resp = match op {
            RcOp::Get(uri) => match Uri::parse(uri) {
                Ok(u) => {
                    RcMsg::Response { id, ok: true, assertions: self.store.get(&u), uris: vec![] }
                }
                Err(_) => RcMsg::Response { id, ok: false, assertions: vec![], uris: vec![] },
            },
            RcOp::Put(uri, asserts) => match Uri::parse(uri) {
                Ok(u) => {
                    let stored: Vec<_> =
                        asserts.into_iter().map(|a| self.store.put(&u, a, now_ns)).collect();
                    RcMsg::Response { id, ok: true, assertions: stored, uris: vec![] }
                }
                Err(_) => RcMsg::Response { id, ok: false, assertions: vec![], uris: vec![] },
            },
            RcOp::Delete(uri, name) => match Uri::parse(uri) {
                Ok(u) => {
                    self.store.delete(&u, &name, now_ns);
                    RcMsg::Response { id, ok: true, assertions: vec![], uris: vec![] }
                }
                Err(_) => RcMsg::Response { id, ok: false, assertions: vec![], uris: vec![] },
            },
            RcOp::Find(name, value) => RcMsg::Response {
                id,
                ok: true,
                assertions: vec![],
                uris: self.store.find_by_attr(&name, &value),
            },
        };
        self.send(ctx, from, &resp);
    }

    fn arm_timer(&mut self, ctx: &mut dyn SimCtx) {
        if !self.peers.is_empty() {
            self.sync_gate.arm_after(ctx, self.sync_interval, TIMER_SYNC);
        }
    }
}

impl Actor for RcServerActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start | Event::HostUp => self.arm_timer(ctx),
            Event::Timer { token: TIMER_SYNC } => {
                self.sync_rounds += 1;
                let peers: Vec<Endpoint> =
                    self.peers.iter().copied().filter(|p| p.host != ctx.host()).collect();
                if let Some(&peer) = ctx.rng().choose(&peers) {
                    self.send_sync_req(ctx, peer);
                }
                self.arm_timer(ctx);
            }
            Event::Timer { .. } => {}
            Event::Packet { from, payload } => {
                let Ok((Proto::Raw, body)) = open(payload) else {
                    self.decode_drops += 1; // not RC traffic
                    return;
                };
                let Ok(msg) = RcMsg::decode_from_bytes(body) else {
                    self.decode_drops += 1;
                    return;
                };
                match msg {
                    RcMsg::Request { id, op } => self.handle_request(ctx, from, id, op),
                    RcMsg::SyncReq { vector } => {
                        let candidates = self.store.updates_since(&vector, PUSH_BATCH);
                        // Pack updates up to the byte budget; the
                        // `more` flag makes the peer re-request
                        // immediately, so a large backlog drains in a
                        // burst of MTU-sized pushes instead of one
                        // undeliverable datagram.
                        let mut updates = Vec::new();
                        let mut budget = PUSH_BYTES;
                        for &u in &candidates {
                            let sz = u.wire_len();
                            if !updates.is_empty() && sz > budget {
                                break;
                            }
                            budget = budget.saturating_sub(sz);
                            updates.push(u.clone());
                        }
                        let more =
                            updates.len() < candidates.len() || candidates.len() == PUSH_BATCH;
                        if !updates.is_empty() {
                            self.send(ctx, from, &RcMsg::SyncPush { updates, more });
                        }
                    }
                    RcMsg::SyncPush { updates, more } => {
                        for u in updates {
                            self.store.apply(u);
                        }
                        if more {
                            // Keep draining the peer without waiting a round.
                            self.send_sync_req(ctx, from);
                        }
                    }
                    RcMsg::Response { .. } => {}
                }
            }
            Event::HostDown | Event::Signal { .. } => {}
        }
    }
}
