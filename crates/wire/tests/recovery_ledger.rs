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
//! means to retransmit less moves them on purpose and says so. They are
//! the unit-level "before" for `wire.srudp.retransmits_per_msg`.

use std::collections::BTreeMap;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimTime;
use snipe_wire::driver::{drain_opened, Driver};
use snipe_wire::fec::FragStrategy;
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
fn run(mut ends: [&mut dyn Driver; 2], msgs: &[Bytes], loss: f64, seed: u64) -> Ledger {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // (arrival ns, tiebreak) -> (destination index, bytes).
    let mut pipe: BTreeMap<(u64, u64), (usize, Bytes)> = BTreeMap::new();
    let mut link_free = [0u64; 2];
    let mut now = 0u64;
    let mut ledger = Ledger { datagrams: 0, wire: 0, deadlines: 0 };
    let (mut wire, mut deadlines) = (Fnv::new(), Fnv::new());
    for _step in 0..200_000 {
        for (src, end) in ends.iter_mut().enumerate() {
            for o in drain_opened(&mut **end) {
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
                ends[to].on_datagram(SimTime::from_nanos(now), ep(1 - to), bytes).unwrap();
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
        row([94, 12, 13, 0, 1], 119, 0xc754a355a971e02b, 0xf6b2366a71d5cecd),
        row([94, 35, 23, 0, 1], 152, 0x26ac0c97b3f27ca1, 0xd22aa4668c26d51c),
        row([94, 32, 22, 0, 1], 148, 0xf5e8ec61c08278e8, 0x93eee5fd49c459cf),
    ];
    assert_eq!(got, want, "94 plain fragments, 5 % loss, 1 % reorder");
}

#[test]
fn fec_srudp_over_a_lossy_pipe() {
    let got: Vec<_> = SEEDS.iter().map(|&s| srudp(fec(), 1, LOSS, s)).collect();
    let want = vec![
        row([151, 9, 73, 0, 1], 233, 0x48da1d0d9c0b1b79, 0x4b0e3fd3d3d9d50e),
        row([157, 23, 86, 0, 1], 266, 0xad6f7dfbc225e0d6, 0xfe1f85e00a69212a),
        row([157, 31, 93, 0, 1], 281, 0x09df52a3015f482f, 0x97485ddd9cb53444),
    ];
    assert_eq!(got, want, "187 shares of a b = 94 message, 5 % loss, 1 % reorder");
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
        row([188, 235, 33, 2, 0], 456, 0xc5d24fc09f41d1da, 0x84a0445baff2d3b5),
        row([309, 267, 159, 0, 2], 735, 0xa2b9835d7ad3a046, 0x53e1b1a35ca60568),
        row([108, 33, 11, 1, 0], 236, 0x62361a9d7019566c, 0x66e8f19f7ae6803b),
        row([188, 265, 36, 2, 1], 489, 0xba10102c3d4dbec0, 0x8fe89aa875027bc1),
        row([309, 354, 193, 0, 2], 856, 0xda1111d75dc89af2, 0x48175df2f04be7b2),
        row([177, 121, 11, 1, 1], 473, 0x1011cad305622bb5, 0x60dc125ab217f5b0),
        row([188, 371, 62, 0, 2], 621, 0xbf125b4d9e3a466b, 0xd9c316157e31e6ed),
        row([309, 415, 214, 0, 2], 938, 0x76f4531ae57ec0da, 0x3df4992185698054),
        row([188, 200, 9, 0, 2], 629, 0x87b303ab05decdde, 0x01ea3a2bd89ca19e),
    ];
    assert_eq!(got, want, "plain, FEC and RSTREAM per seed, 40 % loss");
}
