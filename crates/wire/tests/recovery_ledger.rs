//! Loss-recovery ledger: what the transports put on a lossy pipe, pinned.
//!
//! One 128 KiB message (94 fragments at the default 1400-byte fragment
//! size) crosses a seeded pipe with 5 % loss and 1 % reordering — the
//! `wire-bulk` benchmark's medium — once as plain SRUDP fragments, once
//! as FEC shares and once over RSTREAM, with every protocol timer
//! driven from the endpoints' own `next_deadline()` answers. Each run
//! pins the exact counters, a hash of every datagram put on the pipe
//! and a hash of every `next_deadline()` answer the two endpoints gave.
//!
//! The values are a characterisation, not a target: a refactor of the
//! loss-recovery code must leave every row alone, and a change that
//! means to retransmit less moves them on purpose and says so. The
//! SRUDP rows were last moved by selective re-send (a hole goes out at
//! most once per hold-off, retry budgets are charged per timeout) and
//! block FEC (a block stops once a quorum of it is reported): plain
//! re-sends at 5 % loss fell from 12–35 to 7–10 per message, FEC ones
//! from 9–31 to 0, and at 40 % loss the datagrams on the pipe fell by
//! a fifth to a half. The RSTREAM rows did not move.

use std::collections::BTreeMap;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::error::SnipeResult;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimTime;
use snipe_wire::fec::FragStrategy;
use snipe_wire::frame::{open_sends, Proto};
use snipe_wire::rstream::{Rstream, RstreamConfig};
use snipe_wire::srudp::{Srudp, SrudpConfig};
use snipe_wire::Out;

const MSG_LEN: usize = 128 * 1024;
const LATENCY_NS: u64 = 120_000;
const REORDER_EXTRA_NS: u64 = 300_000;
const BANDWIDTH_BPS: u64 = 100_000_000;
const REORDER: f64 = 0.01;
const TX: u64 = 1;
const RX: u64 = 2;

fn ep(i: usize) -> Endpoint {
    Endpoint::new(HostId(i as u32 + 1), 7)
}

/// FNV-1a, folded one `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The sans-IO surface a run drives, common to both transports.
trait Transport {
    const PROTO: Proto;
    fn on_packet(&mut self, now: SimTime, from: Endpoint, body: Bytes) -> SnipeResult<()>;
    fn on_timer(&mut self, now: SimTime);
    fn next_deadline(&self) -> Option<SimTime>;
    fn drain_into(&mut self, into: &mut Vec<Out>);

    /// Everything queued, each datagram opened.
    fn drain_opened(&mut self) -> Vec<Out> {
        let mut outs = Vec::new();
        self.drain_into(&mut outs);
        open_sends(outs, Self::PROTO)
    }
}

macro_rules! transport {
    ($t:ty, $proto:expr) => {
        impl Transport for $t {
            const PROTO: Proto = $proto;
            fn on_packet(&mut self, now: SimTime, from: Endpoint, body: Bytes) -> SnipeResult<()> {
                <$t>::on_packet(self, now, from, body)
            }
            fn on_timer(&mut self, now: SimTime) {
                <$t>::on_timer(self, now)
            }
            fn next_deadline(&self) -> Option<SimTime> {
                <$t>::next_deadline(self)
            }
            fn drain_into(&mut self, into: &mut Vec<Out>) {
                <$t>::drain_into(self, into)
            }
        }
    };
}

transport!(Srudp, Proto::Srudp);
transport!(Rstream, Proto::Rstream);

/// What one run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    /// Datagrams put on the pipe (lost ones included).
    datagrams: u64,
    /// Hash of those datagrams: sender index and bytes, in order.
    wire: u64,
    /// Hash of both endpoints' `next_deadline()` after every step.
    deadlines: u64,
}

/// Shuttle datagrams between endpoint 0 (the sender) and endpoint 1
/// until the pipe is empty and neither endpoint wants a timer.
fn run<T: Transport>(mut ends: [&mut T; 2], msgs: &[Bytes], loss: f64, seed: u64) -> Ledger {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // (arrival ns, tiebreak) -> (destination index, bytes).
    let mut pipe: BTreeMap<(u64, u64), (usize, Bytes)> = BTreeMap::new();
    let mut link_free = [0u64; 2];
    let mut now = 0u64;
    let mut ledger = Ledger { datagrams: 0, wire: 0, deadlines: 0 };
    let (mut wire, mut deadlines) = (Fnv::new(), Fnv::new());
    for _step in 0..200_000 {
        for (src, end) in ends.iter_mut().enumerate() {
            for o in end.drain_opened() {
                match o {
                    Out::Send { to, bytes, .. } => {
                        assert_eq!(to, ep(1 - src));
                        ledger.datagrams += 1;
                        wire.word(src as u64);
                        wire.bytes(&bytes);
                        let tx_ns = bytes.len() as u64 * 8 * 1_000_000_000 / BANDWIDTH_BPS;
                        link_free[src] = link_free[src].max(now) + tx_ns;
                        if rng.gen_bool(loss) {
                            continue;
                        }
                        let mut at = link_free[src] + LATENCY_NS;
                        if rng.gen_bool(REORDER) {
                            at += REORDER_EXTRA_NS;
                        }
                        pipe.insert((at, ledger.datagrams), (1 - src, bytes));
                    }
                    Out::Deliver { msg: got, .. } => {
                        assert_eq!(src, 1, "only the receiver delivers");
                        assert!(msgs.contains(&got), "delivered bytes differ from what was sent");
                    }
                    Out::Wake { .. } => unreachable!("never constructed"),
                }
            }
        }
        let timers = [ends[0].next_deadline(), ends[1].next_deadline()];
        for t in timers {
            deadlines.word(t.map_or(u64::MAX, SimTime::as_nanos));
        }
        let next_timer = timers.into_iter().flatten().min().map(SimTime::as_nanos);
        let next_arrival = pipe.keys().next().map(|&(at, _)| at);
        match (next_arrival, next_timer) {
            (None, None) => {
                ledger.wire = wire.0;
                ledger.deadlines = deadlines.0;
                return ledger;
            }
            // A datagram and a timer due at the same instant: the
            // datagram first, as an engine's event order would have it.
            (Some(at), t) if t.is_none_or(|t| at <= t) => {
                now = now.max(at);
                let (_, (to, bytes)) = pipe.pop_first().expect("peeked");
                ends[to].on_packet(SimTime::from_nanos(now), ep(1 - to), bytes).unwrap();
            }
            (_, Some(t)) => {
                now = now.max(t);
                for end in ends.iter_mut() {
                    end.on_timer(SimTime::from_nanos(now));
                }
            }
            (Some(_), None) => unreachable!("covered by the guard above"),
        }
    }
    panic!("the exchange never went quiet");
}

fn messages(n: usize, seed: u64) -> Vec<Bytes> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x006d_7367);
    (0..n)
        .map(|_| {
            let mut body = vec![0u8; MSG_LEN];
            rng.fill_bytes(&mut body);
            Bytes::from(body)
        })
        .collect()
}

/// `[data_sent, retransmits, sacks_sent, failed, delivered]`, sender's
/// sending counters and the receiver's receiving ones.
fn srudp(cfg: SrudpConfig, n: usize, loss: f64, seed: u64) -> ([u64; 5], Ledger) {
    let mut tx = Srudp::new(TX, cfg.clone());
    let mut rx = Srudp::new(RX, cfg);
    tx.set_peer_endpoint(RX, ep(1));
    let msgs = messages(n, seed);
    for m in &msgs {
        tx.send_message(SimTime::ZERO, RX, m.clone()).unwrap();
    }
    let ledger = run([&mut tx, &mut rx], &msgs, loss, seed);
    let (s, r) = (tx.stats(), rx.stats());
    ([s.data_sent, s.retransmits, r.sacks_sent, s.failed, r.delivered], ledger)
}

/// `[segments_sent, retransmits, fast_retransmits, aborted, delivered]`.
fn rstream(n: usize, loss: f64, seed: u64) -> ([u64; 5], Ledger) {
    let mut tx = Rstream::new(RstreamConfig::default(), TX);
    let mut rx = Rstream::new(RstreamConfig::default(), RX);
    let msgs = messages(n, seed);
    let id = tx.connect(SimTime::ZERO, ep(1));
    for m in &msgs {
        tx.send_message(SimTime::ZERO, id, m).unwrap();
    }
    let ledger = run([&mut tx, &mut rx], &msgs, loss, seed);
    let (s, r) = (tx.stats(), rx.stats());
    ([s.segments_sent, s.retransmits, s.fast_retransmits, s.aborted, r.delivered], ledger)
}

/// One pinned row: the five counters, then the [`Ledger`].
fn row(stats: [u64; 5], datagrams: u64, wire: u64, deadlines: u64) -> ([u64; 5], Ledger) {
    (stats, Ledger { datagrams, wire, deadlines })
}

fn plain() -> SrudpConfig {
    SrudpConfig::default()
}

fn fec() -> SrudpConfig {
    SrudpConfig { frag_strategy: FragStrategy::Fec, ..SrudpConfig::default() }
}

const SEEDS: [u64; 3] = [1997, 1998, 1999];
/// The `wire-bulk` loss rate.
const LOSS: f64 = 0.05;
/// Heavy enough that retry budgets run out.
const HEAVY_LOSS: f64 = 0.4;

#[test]
fn plain_srudp_over_a_lossy_pipe() {
    let got: Vec<_> = SEEDS.iter().map(|&s| srudp(plain(), 1, LOSS, s)).collect();
    let want = vec![
        row([94, 7, 13, 0, 1], 114, 0x296de8f93c9a2dc5, 0x28a247aec684b70b),
        row([94, 9, 13, 0, 1], 116, 0xde6367fee0f31124, 0xb96d77a2ffced032),
        row([94, 10, 13, 0, 1], 117, 0xc80e90be2387e2da, 0xcad735e90b3ac674),
    ];
    assert_eq!(got, want, "94 plain fragments, 5 % loss, 1 % reorder");
}

#[test]
fn fec_srudp_over_a_lossy_pipe() {
    let got: Vec<_> = SEEDS.iter().map(|&s| srudp(fec(), 1, LOSS, s)).collect();
    let want = vec![
        row([139, 0, 44, 0, 1], 183, 0xefc58a647f6589fa, 0x5edbc65fd14096cf),
        row([149, 0, 52, 0, 1], 201, 0x3ff2c9d51f20ddd0, 0xa25a2f2ccde49973),
        row([147, 0, 55, 0, 1], 202, 0x253fb29c49b9a79c, 0x984e6c8b574bec00),
    ];
    assert_eq!(got, want, "94 data shares in 11 blocks (177 shares), 5 % loss, 1 % reorder");
}

#[test]
fn rstream_over_a_lossy_pipe() {
    let got: Vec<_> = SEEDS.iter().map(|&s| rstream(1, LOSS, s)).collect();
    let want = vec![
        row([94, 22, 22, 0, 1], 232, 0x6f66df17c860b7ea, 0x8f7a47f9479ad103),
        row([94, 38, 32, 0, 1], 258, 0x7ffc5f7ce40d156c, 0x1b0e300200418c6d),
        row([94, 38, 33, 0, 1], 257, 0x1677acbc0fd8b6bd, 0xd9189dfabf4d5fda),
    ];
    assert_eq!(got, want, "one 128 KiB framed message, 5 % loss, 1 % reorder");
}

/// At 40 % loss, two messages queued and a retry budget of four, the
/// give-up paths run too: SRUDP abandons messages (some of them after
/// the receiver delivered), RSTREAM backs its RTO off and aborts.
#[test]
fn heavy_loss_reaches_the_give_up_paths() {
    let tight = |cfg| SrudpConfig { max_retries: 4, ..cfg };
    let mut got = Vec::new();
    for &s in &SEEDS {
        got.push(srudp(tight(plain()), 2, HEAVY_LOSS, s));
        got.push(srudp(tight(fec()), 2, HEAVY_LOSS, s));
        got.push(rstream(2, HEAVY_LOSS, s));
    }
    let want = vec![
        row([188, 139, 28, 1, 2], 355, 0xa5ae2eb61b051893, 0xc4f96c8a8c254981),
        row([341, 17, 33, 0, 2], 391, 0xfce6a0107ff54bf8, 0x8dd296278e1a83a1),
        row([108, 33, 11, 1, 0], 236, 0x62361a9d7019566c, 0x66e8f19f7ae6803b),
        row([188, 157, 30, 2, 0], 375, 0xc48d48359f41eb86, 0xa723288c9feff94b),
        row([343, 12, 29, 0, 2], 384, 0x8e3db05d1610541d, 0x93e5c8a1f049cfed),
        row([177, 121, 11, 1, 1], 473, 0x1011cad305622bb5, 0x60dc125ab217f5b0),
        row([188, 144, 32, 0, 2], 364, 0xde43068906f2b897, 0x8a31fb7da78299ac),
        row([329, 21, 31, 0, 2], 381, 0x76c99b2cdac59778, 0x6ce61391aeef1492),
        row([188, 200, 9, 0, 2], 629, 0x87b303ab05decdde, 0x01ea3a2bd89ca19e),
    ];
    assert_eq!(got, want, "plain, FEC and RSTREAM per seed, 40 % loss");
}
