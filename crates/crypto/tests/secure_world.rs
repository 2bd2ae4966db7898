//! §4 end-to-end over the simulator: a mutually authenticated secure
//! channel between two hosts, with an on-path attacker whose replays
//! and forgeries are detected — "an authenticated connection ... able
//! to detect connection hijacking".
//!
//! The shared Ethernet segment is modelled honestly: the sender
//! broadcasts a copy of every record to the sniffer host (a passive tap
//! on a 1997 hub), which then mounts replay and bit-flip attacks
//! against the receiver.

use bytes::Bytes;
use snipe_crypto::channel::{Handshake, HandshakeMsg, Record, Role, SecureChannel};
use snipe_crypto::sign::KeyPair;
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;
use snipe_util::codec::{Decoder, Encoder, WireDecode, WireEncode};
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimDuration;
use std::sync::{Arc, Mutex};

fn frame_handshake(m: &HandshakeMsg) -> Bytes {
    let mut e = Encoder::new();
    e.put_u8(1);
    m.encode(&mut e);
    e.finish()
}

fn frame_record(r: &Record) -> Bytes {
    let mut e = Encoder::new();
    e.put_u8(2);
    r.encode(&mut e);
    e.finish()
}

/// The sender: handshakes with B (mutually authenticated), then sends
/// its records to B *and* a copy to the tap.
struct Sender {
    identity: KeyPair,
    peer_key: snipe_crypto::sign::PublicKey,
    peer: Endpoint,
    tap: Endpoint,
    pending: Option<Handshake>,
    to_send: Vec<&'static str>,
}

impl Actor for Sender {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                let mut rng = Xoshiro256::seed_from_u64(100);
                let hs = Handshake::start(&mut rng, Role::Initiator, Some(&self.identity));
                ctx.send(self.peer, frame_handshake(hs.message()));
                self.pending = Some(hs);
            }
            Event::Packet { payload, .. } => {
                let mut d = Decoder::new(payload);
                if d.get_u8() != Ok(1) {
                    return;
                }
                let Ok(msg) = HandshakeMsg::decode(&mut d) else {
                    return;
                };
                let Some(hs) = self.pending.take() else {
                    return;
                };
                let Ok(mut ch) = hs.complete(&msg, Some(&self.peer_key)) else {
                    return;
                };
                for text in self.to_send.drain(..) {
                    let rec = ch.seal(text.as_bytes());
                    let framed = frame_record(&rec);
                    ctx.send(self.peer, framed.clone());
                    ctx.send(self.tap, framed); // the hub "leaks" a copy
                }
            }
            _ => {}
        }
    }
}

/// The receiver: accepts the handshake, opens records, counts rejects.
struct Receiver {
    identity: KeyPair,
    peer_key: snipe_crypto::sign::PublicKey,
    channel: Option<SecureChannel>,
    pending: Option<Handshake>,
    accepted: Arc<Mutex<Vec<String>>>,
    rejected: Arc<Mutex<u32>>,
}

impl Actor for Receiver {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let Event::Packet { from, payload } = event else {
            return;
        };
        let mut d = Decoder::new(payload);
        let Ok(kind) = d.get_u8() else { return };
        match kind {
            1 => {
                let Ok(msg) = HandshakeMsg::decode(&mut d) else {
                    return;
                };
                let mut rng = Xoshiro256::seed_from_u64(200);
                let hs = Handshake::start(&mut rng, Role::Responder, Some(&self.identity));
                ctx.send(from, frame_handshake(hs.message()));
                self.pending = Some(hs);
                if let Some(hs) = self.pending.take() {
                    if let Ok(ch) = hs.complete(&msg, Some(&self.peer_key)) {
                        self.channel = Some(ch);
                    }
                }
            }
            2 => {
                let Ok(rec) = Record::decode(&mut d) else {
                    return;
                };
                if let Some(ch) = self.channel.as_mut() {
                    match ch.open(&rec) {
                        Ok(pt) => self
                            .accepted
                            .lock()
                            .unwrap()
                            .push(String::from_utf8_lossy(&pt).into_owned()),
                        Err(_) => *self.rejected.lock().unwrap() += 1,
                    }
                }
            }
            _ => {}
        }
    }
}

/// The attacker: replays every sniffed record and injects a bit-flipped
/// forgery of each.
struct Tap {
    victim: Endpoint,
    attacks: Arc<Mutex<u32>>,
}

impl Actor for Tap {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        if let Event::Packet { payload, .. } = event {
            if payload.first() == Some(&2) {
                // Replay, delayed so the original arrives first.
                *self.attacks.lock().unwrap() += 2;
                ctx.send(self.victim, payload.clone());
                let mut forged = payload.to_vec();
                let n = forged.len();
                forged[n - 1] ^= 0xFF;
                ctx.send(self.victim, Bytes::from(forged));
            }
        }
    }
}

#[test]
fn hijack_attempts_on_the_wire_are_detected() {
    let mut rng = Xoshiro256::seed_from_u64(7);
    let id_a = KeyPair::generate_default(&mut rng);
    let id_b = KeyPair::generate_default(&mut rng);
    let mut topo = Topology::new();
    let net = topo.add_network("hubbed-lan", Medium::ethernet10(), true);
    let ha = topo.add_host(HostCfg::named("a"));
    let hb = topo.add_host(HostCfg::named("b"));
    let hm = topo.add_host(HostCfg::named("mallory"));
    for h in [ha, hb, hm] {
        topo.attach(h, net);
    }
    let mut world = World::new(topo, 3);
    let accepted = Arc::new(Mutex::new(Vec::new()));
    let rejected = Arc::new(Mutex::new(0u32));
    let attacks = Arc::new(Mutex::new(0u32));
    let b_ep = Endpoint::new(hb, 40);
    world.spawn(
        ha,
        40,
        Box::new(Sender {
            identity: id_a.clone(),
            peer_key: id_b.public.clone(),
            peer: b_ep,
            tap: Endpoint::new(hm, 40),
            pending: None,
            to_send: vec!["resource grant #1", "resource grant #2", "resource grant #3"],
        }),
    );
    world.spawn(
        hb,
        40,
        Box::new(Receiver {
            identity: id_b,
            peer_key: id_a.public.clone(),
            channel: None,
            pending: None,
            accepted: accepted.clone(),
            rejected: rejected.clone(),
        }),
    );
    world.spawn(hm, 40, Box::new(Tap { victim: b_ep, attacks: attacks.clone() }));
    world.run_for(SimDuration::from_secs(2));

    assert_eq!(
        &*accepted.lock().unwrap(),
        &vec![
            "resource grant #1".to_string(),
            "resource grant #2".to_string(),
            "resource grant #3".to_string()
        ],
        "legitimate traffic flows"
    );
    assert!(*attacks.lock().unwrap() >= 6, "the tap attacked");
    assert_eq!(
        *rejected.lock().unwrap(),
        *attacks.lock().unwrap(),
        "every replay and forgery must be rejected"
    );
}

#[test]
fn attacker_without_identity_cannot_complete_handshake() {
    // Mallory intercepts the handshake and answers with her own share,
    // signed by her own key: A must refuse.
    let mut rng = Xoshiro256::seed_from_u64(8);
    let id_a = KeyPair::generate_default(&mut rng);
    let id_b = KeyPair::generate_default(&mut rng);
    let id_m = KeyPair::generate_default(&mut rng);
    let a = Handshake::start(&mut rng, Role::Initiator, Some(&id_a));
    let mallory = Handshake::start(&mut rng, Role::Responder, Some(&id_m));
    let msg = mallory.message().clone();
    let err = a.complete(&msg, Some(&id_b.public)).unwrap_err();
    assert_eq!(err.kind(), "auth-failed");
}
