//! Hostile-input corpus for the RC protocol decoders (the
//! `wire/tests/corpus.rs` pattern, one layer up the stack).
//!
//! RC traffic rides Raw-sealed datagrams, so the envelope checksum
//! catches random corruption — but a forged or misrouted body arrives
//! with a *valid* envelope. The contract under test: client and server
//! never panic on hostile bytes, never act on garbage, and count every
//! rejection (`RcClientStats::decode_drops` / `RcServerActor::
//! decode_drops`) so chaos soaks can assert drops instead of silence.

use bytes::Bytes;
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::topology::{Endpoint, Topology};
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::proto::{RcMsg, RcOp};
use snipe_rcds::server::RcServerActor;
use snipe_util::codec::{Encoder, WireEncode};
use snipe_util::id::{HostId, NetId};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::frame::{seal, Proto};

fn ep(h: u32, p: u16) -> Endpoint {
    Endpoint::new(HostId(h), p)
}

/// Minimal engine-free [`SimCtx`]: enough to drive a server actor's
/// packet path directly with attacker-chosen datagrams.
struct FakeCtx {
    now: SimTime,
    me: Endpoint,
    sent: Vec<(Endpoint, Bytes)>,
    rng: Xoshiro256,
    topo: Topology,
}

impl FakeCtx {
    fn new(me: Endpoint) -> FakeCtx {
        FakeCtx {
            now: SimTime::ZERO,
            me,
            sent: Vec::new(),
            rng: Xoshiro256::seed_from_u64(7),
            topo: Topology::new(),
        }
    }
}

impl SimCtx for FakeCtx {
    fn now(&self) -> SimTime {
        self.now
    }
    fn me(&self) -> Endpoint {
        self.me
    }
    fn host(&self) -> HostId {
        self.me.host
    }
    fn send(&mut self, to: Endpoint, payload: Bytes) {
        self.sent.push((to, payload));
    }
    fn send_via(&mut self, to: Endpoint, payload: Bytes, _via: NetId) {
        self.sent.push((to, payload));
    }
    fn set_timer(&mut self, _delay: SimDuration, _token: u64) {}
    fn spawn_portable(
        &mut self,
        _host: HostId,
        _port: u16,
        _actor: Box<dyn Actor>,
    ) -> Option<Endpoint> {
        None
    }
    fn alloc_port(&mut self, _host: HostId) -> u16 {
        9999
    }
    fn is_bound(&self, _ep: Endpoint) -> bool {
        false
    }
    fn kill(&mut self, _ep: Endpoint) {}
    fn signal(&mut self, _to: Endpoint, _signum: u32) {}
    fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.rng
    }
    fn topology(&self) -> &Topology {
        &self.topo
    }
    fn host_up(&self, _h: HostId) -> bool {
        true
    }
}

/// Deterministic garbage generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            v.extend_from_slice(&self.next().to_le_bytes());
        }
        v.truncate(len);
        Bytes::from(v)
    }
}

fn started_server() -> (RcServerActor, FakeCtx) {
    let mut ctx = FakeCtx::new(ep(1, 2));
    let mut srv = RcServerActor::new(1, vec![], SimDuration::from_millis(500));
    srv.on_event(&mut ctx, Event::Start);
    (srv, ctx)
}

fn valid_response() -> Bytes {
    RcMsg::Response {
        id: 7,
        ok: true,
        assertions: vec![Assertion::new("loc", "host3")],
        uris: vec!["urn:snipe:x".into()],
    }
    .encode_to_bytes()
}

#[test]
fn truncated_requests_are_counted_server_drops() {
    let (mut srv, mut ctx) = started_server();
    let body = RcMsg::Request {
        id: 1,
        op: RcOp::Put("urn:snipe:x".into(), vec![Assertion::new("k", "v")]),
    }
    .encode_to_bytes();
    let mut fed = 0u64;
    // Every strict prefix, re-sealed so the envelope is valid and the
    // hostile bytes reach the RC decoder itself.
    for len in 0..body.len() {
        let dg = seal(Proto::Raw, body.slice(0..len));
        srv.on_event(&mut ctx, Event::Packet { from: ep(9, 50), payload: dg });
        fed += 1;
        assert_eq!(srv.decode_drops, fed, "prefix of {len} bytes was not counted");
    }
    // Bytes that are not even a valid envelope count too.
    srv.on_event(&mut ctx, Event::Packet { from: ep(9, 50), payload: Bytes::from_static(b"junk") });
    assert_eq!(srv.decode_drops, fed + 1);
    // The server still works: a pristine request gets a response.
    let sent_before = ctx.sent.len();
    let good = RcMsg::Request { id: 2, op: RcOp::Get("urn:snipe:x".into()) }.encode_to_bytes();
    srv.on_event(&mut ctx, Event::Packet { from: ep(9, 50), payload: seal(Proto::Raw, good) });
    assert_eq!(srv.decode_drops, fed + 1);
    assert!(ctx.sent.len() > sent_before, "server stopped answering after hostile input");
}

#[test]
fn bit_flipped_responses_never_panic_and_are_counted() {
    // No pending op: every flip outcome must be a counted rejection —
    // a decode failure or a stale (unsolicited) reply — never a
    // completion and never a panic. (Payload integrity against random
    // corruption is the sealed envelope's job one layer down; this
    // pins the client's accounting for bodies that arrive "valid".)
    let mut client = RcClient::new(vec![ep(1, 2)], SimDuration::from_millis(300));
    let valid = valid_response();
    let mut flips = 0u64;
    for i in 0..valid.len() {
        for bit in 0..8 {
            let mut hostile = valid.to_vec();
            hostile[i] ^= 1 << bit;
            client.on_packet(SimTime::ZERO, ep(1, 2), Bytes::from(hostile));
            flips += 1;
        }
    }
    let s = client.stats();
    assert_eq!(s.decode_drops + s.stale_replies, flips, "unaccounted flip outcome: {s:?}");
    assert!(client.drain_done().is_empty(), "a corrupted reply completed an op");
}

#[test]
fn random_garbage_never_panics_client_or_server() {
    let mut client = RcClient::new(vec![ep(1, 2)], SimDuration::from_millis(300));
    let (mut srv, mut ctx) = started_server();
    let mut rng = Rng(0xc0ffee);
    let n = 2_000u64;
    for i in 0..n {
        let len = (i % 97) as usize;
        let garbage = rng.bytes(len);
        client.on_packet(SimTime::ZERO, ep(1, 2), garbage.clone());
        srv.on_event(&mut ctx, Event::Packet { from: ep(9, 50), payload: garbage });
    }
    let s = client.stats();
    assert_eq!(s.decode_drops + s.stale_replies, n);
    assert_eq!(srv.decode_drops, n);
    assert!(client.drain_done().is_empty());
}

#[test]
fn forged_giant_vector_count_is_rejected_without_allocating() {
    // A SyncReq claiming u32::MAX vector entries in a 6-byte body:
    // before sizing the allocation the decoder must check the claim
    // against the bytes actually present.
    let mut enc = Encoder::new();
    enc.put_u8(0xA1); // RC magic
    enc.put_u8(3); // TAG_SYNC_REQ
    enc.put_u32(u32::MAX);
    let (mut srv, mut ctx) = started_server();
    srv.on_event(
        &mut ctx,
        Event::Packet { from: ep(9, 50), payload: seal(Proto::Raw, enc.finish()) },
    );
    assert_eq!(srv.decode_drops, 1);
    assert!(ctx.sent.is_empty(), "a forged sync request must not trigger pushes");
}

#[test]
fn forged_giant_update_batch_is_rejected() {
    // Same attack against the SyncPush update-sequence decoder.
    let mut enc = Encoder::new();
    enc.put_u8(0xA1); // RC magic
    enc.put_u8(4); // TAG_SYNC_PUSH
    enc.put_u32(u32::MAX);
    let (mut srv, mut ctx) = started_server();
    srv.on_event(
        &mut ctx,
        Event::Packet { from: ep(9, 50), payload: seal(Proto::Raw, enc.finish()) },
    );
    assert_eq!(srv.decode_drops, 1);
}

#[test]
fn sync_chatter_on_a_client_port_is_a_counted_drop() {
    // Valid RC traffic of the wrong kind: a replica's sync message
    // misdelivered to a client must be dropped and counted, not crash
    // the pending-op bookkeeping.
    let mut client = RcClient::new(vec![ep(1, 2)], SimDuration::from_millis(300));
    let sync = RcMsg::SyncReq { vector: Default::default() }.encode_to_bytes();
    client.on_packet(SimTime::ZERO, ep(1, 2), sync);
    assert_eq!(client.stats().decode_drops, 1);
    assert!(client.drain_done().is_empty());
}
