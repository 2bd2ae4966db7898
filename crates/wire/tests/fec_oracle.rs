//! Analytical oracle for erasure-coded delivery.
//!
//! Every other FEC test checks the transport against itself (what was
//! sent comes back). This one checks it against mathematics. An
//! FEC-framed message of `b` data chunks goes out as `2b-1` shares and
//! is delivered on the first flight iff at least `b` of them arrive.
//! With each share surviving independently with probability `p`, that
//! is the binomial tail
//!
//! ```text
//! P(b, p) = sum_{k >= b} C(2b-1, k) p^k (1-p)^(2b-1-k)
//! ```
//!
//! (`p^3 + 3p^2(1-p)` at `b = 2`). Two `Srudp` endpoints are driven
//! directly — no stack, no timers ever fired, so no retransmission can
//! rescue a message — and the observed first-flight delivery frequency
//! must sit within four binomial standard deviations of `P(b, p)`.
//!
//! The second half runs the whole protocol, timers and all, over a pipe
//! that delivers each datagram either way with probability `p`, and
//! holds the transport to what selective re-send costs in closed form:
//!
//! * a plain fragment goes out until a copy arrives, `1/p` times on
//!   average, so a message of `n` fragments costs `n/p` DATA datagrams,
//!   plus its SACKs;
//! * a coded message of `⌈n/B⌉` blocks puts `(2B-1)/B` bytes on the
//!   wire per payload byte on its first flight, and delivers on it with
//!   probability `q_B^⌈n/B⌉`, `q_B = P(B, p)` — Fragmentos's arithmetic
//!   per block;
//! * no sender writes off a message its receiver delivered.

use std::collections::BTreeMap;

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::fec::{FragStrategy, BLOCK};
use snipe_wire::frame::{open_sends, Proto};
use snipe_wire::srudp::{Srudp, SrudpConfig};
use snipe_wire::Out;

const MESSAGES: usize = 2500;

/// Everything `s` queued, each datagram opened.
fn drain_opened(s: &mut Srudp) -> Vec<Out> {
    let mut outs = Vec::new();
    s.drain_into(&mut outs);
    open_sends(outs, Proto::Srudp)
}
const FRAG: usize = 48;
const TX: u64 = 1;
const RX: u64 = 2;

fn choose(n: usize, k: usize) -> f64 {
    (0..k).fold(1.0, |c, i| c * (n - i) as f64 / (i + 1) as f64)
}

/// `P(at least b of 2b-1 independent shares survive)`.
fn quorum_probability(b: usize, p: f64) -> f64 {
    let n = 2 * b - 1;
    (b..=n).map(|k| choose(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)).sum()
}

/// Send `MESSAGES` messages of `b` chunks, each through a fresh endpoint
/// pair (an undelivered message would otherwise hold the FIFO behind
/// it), dropping every share with probability `1 - p`; the number
/// delivered intact with no timer fired.
fn first_flight_deliveries(b: usize, p: f64, seed: u64) -> usize {
    let cfg =
        SrudpConfig { frag_size: FRAG, frag_strategy: FragStrategy::Fec, ..SrudpConfig::default() };
    let (tx_ep, rx_ep) = (Endpoint::new(HostId(1), 7), Endpoint::new(HostId(2), 7));
    let now = SimTime::ZERO;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut delivered = 0;
    for m in 0..MESSAGES {
        let mut msg = vec![0u8; b * FRAG - m % FRAG];
        rng.fill_bytes(&mut msg);
        let msg = Bytes::from(msg);
        let mut tx = Srudp::new(TX, cfg.clone());
        tx.set_peer_endpoint(RX, rx_ep);
        let mut rx = Srudp::new(RX, cfg.clone());
        tx.send_message(now, RX, msg.clone()).unwrap();
        let shares = drain_opened(&mut tx);
        assert_eq!(shares.len(), 2 * b - 1, "one flight carries every share");
        for share in shares {
            let Out::Send { to, spray, bytes, .. } = share else {
                panic!("sender emitted {share:?}");
            };
            assert_eq!(to, rx_ep);
            assert!(spray.is_some(), "shares are tagged for spraying");
            if rng.gen_bool(p) {
                rx.on_packet(now, tx_ep, bytes).unwrap();
            }
        }
        let got: Vec<Bytes> = drain_opened(&mut rx)
            .into_iter()
            .filter_map(|o| match o {
                Out::Deliver { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        match got.as_slice() {
            [] => {}
            [one] => {
                assert_eq!(*one, msg, "delivered bytes differ from sent");
                assert_eq!(rx.stats().fec_delivered, 1);
                delivered += 1;
            }
            many => panic!("{} deliveries of one message", many.len()),
        }
        assert_eq!(tx.stats().retransmits, 0);
        assert_eq!(rx.stats().fec_corrupt, 0);
    }
    delivered
}

#[test]
fn quorum_probability_matches_the_closed_form_at_b_2() {
    for p in [0.95f64, 0.8, 0.5] {
        let closed = p.powi(3) + 3.0 * p.powi(2) * (1.0 - p);
        assert!((quorum_probability(2, p) - closed).abs() < 1e-12);
    }
    assert_eq!(quorum_probability(5, 1.0), 1.0);
    assert_eq!(quorum_probability(5, 0.0), 0.0);
}

#[test]
fn first_flight_delivery_tracks_the_binomial_tail() {
    for (i, &(b, p)) in
        [(2usize, 0.95f64), (2, 0.8), (3, 0.95), (3, 0.8), (5, 0.95), (5, 0.8)].iter().enumerate()
    {
        let want = quorum_probability(b, p);
        let sigma = (want * (1.0 - want) / MESSAGES as f64).sqrt();
        let got = first_flight_deliveries(b, p, 0xFEC0 + i as u64) as f64 / MESSAGES as f64;
        assert!(
            (got - want).abs() <= 4.0 * sigma,
            "b {b} p {p}: delivered {got:.4}, binomial tail {want:.4} +- {:.4}",
            4.0 * sigma
        );
    }
}

/// What one message cost on the timed pipe.
#[derive(Default)]
struct Cost {
    /// DATA datagrams (fragments or shares, copies included).
    data: u64,
    /// Their payload bytes, if they are shares.
    data_bytes: u64,
    /// SACK datagrams.
    sacks: u64,
    /// Delivered before any SACK could have come back.
    first_flight: bool,
    delivered: bool,
    /// The sender wrote the message off.
    abandoned: bool,
}

/// Bytes of an opened FEC datagram before its share: kind, source key,
/// message id, share index, the coding parameters (block size, block,
/// message length, checksum) and the share's length prefix.
const SHARE_HEAD: usize = 1 + 8 + 8 + 4 + (1 + 2 + 4 + 4) + 4;

/// One-way delay of the timed pipe.
const DELAY: SimDuration = SimDuration::from_millis(1);

/// Send one `len`-byte message through a fresh endpoint pair over a
/// pipe that delivers every datagram, either way, with probability `p`
/// after [`DELAY`], firing each endpoint's timers at its own deadline,
/// until the exchange goes quiet.
fn timed_run(strategy: FragStrategy, len: usize, p: f64, rng: &mut Xoshiro256) -> Cost {
    let cfg = SrudpConfig { frag_size: FRAG, frag_strategy: strategy, ..SrudpConfig::default() };
    let eps = [Endpoint::new(HostId(1), 7), Endpoint::new(HostId(2), 7)];
    let mut ends = [Srudp::new(TX, cfg.clone()), Srudp::new(RX, cfg)];
    ends[0].set_peer_endpoint(RX, eps[1]);
    let mut msg = vec![0u8; len];
    rng.fill_bytes(&mut msg);
    let msg = Bytes::from(msg);
    ends[0].send_message(SimTime::ZERO, RX, msg.clone()).unwrap();
    let mut cost = Cost::default();
    // (arrival, sequence) -> (destination, datagram)
    let mut pipe: BTreeMap<(SimTime, u64), (usize, Bytes)> = BTreeMap::new();
    let (mut now, mut seq) = (SimTime::ZERO, 0u64);
    loop {
        for (from, end) in ends.iter_mut().enumerate() {
            for out in drain_opened(end) {
                match out {
                    Out::Send { bytes, .. } => {
                        if from == 0 {
                            cost.data += 1;
                            cost.data_bytes += bytes.len().saturating_sub(SHARE_HEAD) as u64;
                        } else {
                            cost.sacks += 1;
                        }
                        seq += 1;
                        if rng.gen_bool(p) {
                            pipe.insert((now + DELAY, seq), (1 - from, bytes));
                        }
                    }
                    Out::Deliver { msg: got, .. } => {
                        assert_eq!(got, msg, "delivered bytes differ from sent");
                        assert!(!cost.delivered, "delivered twice");
                        cost.delivered = true;
                        cost.first_flight = now <= SimTime::ZERO + DELAY;
                    }
                    Out::Wake { .. } => {}
                }
            }
        }
        let arrival = pipe.keys().next().map(|&(at, _)| at);
        let timer = ends.iter().filter_map(Srudp::next_deadline).min();
        match (arrival, timer) {
            (None, None) => break,
            (Some(at), t) if t.is_none_or(|t| at <= t) => {
                let ((at, _), (to, bytes)) = pipe.pop_first().expect("peeked");
                now = at;
                ends[to].on_packet(now, eps[1 - to], bytes).unwrap();
            }
            (_, Some(t)) => {
                now = t;
                ends.iter_mut().for_each(|end| end.on_timer(now));
            }
            (Some(_), None) => unreachable!("covered by the guard above"),
        }
    }
    cost.abandoned = ends[0].stats().failed > 0;
    cost
}

/// Messages per timed point.
const TIMED: usize = 300;

/// Mean costs of [`TIMED`] messages of `n` fragments, and how many
/// delivered on their first flight.
fn timed_point(strategy: FragStrategy, n: usize, p: f64, seed: u64) -> (f64, f64, f64, usize) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let (mut data, mut bytes, mut sacks, mut first) = (0u64, 0u64, 0u64, 0usize);
    for m in 0..TIMED {
        let len = n * FRAG - m % FRAG;
        let cost = timed_run(strategy, len, p, &mut rng);
        assert!(cost.delivered, "{strategy:?} p {p}: message {m} never delivered");
        assert!(!cost.abandoned, "{strategy:?} p {p}: message {m} delivered, yet written off");
        data += cost.data;
        bytes += cost.data_bytes * 1000 / len as u64;
        sacks += cost.sacks;
        first += usize::from(cost.first_flight);
    }
    let per = |x: u64| x as f64 / TIMED as f64;
    (per(data), per(bytes) / 1000.0, per(sacks), first)
}

#[test]
fn plain_fragments_cost_n_over_p_datagrams() {
    let n = 27;
    for (i, &p) in [0.95f64, 0.8].iter().enumerate() {
        let (data, _, sacks, _) = timed_point(FragStrategy::Plain, n, p, 0x5AC0 + i as u64);
        let want = n as f64 / p;
        // A copy beyond the geometric count is spurious: a report lost
        // on the way back (probability 1-p) leaves fragments that did
        // arrive unreported until a later one, or a timeout, re-sends
        // them, so the band above n/p is (1-p) of the message.
        let band = want * 0.98..=want + (1.0 - p) * n as f64;
        assert!(
            band.contains(&data),
            "p {p}: {data:.1} DATA datagrams per message, want {band:.1?}"
        );
        // About one SACK per eight fragments that arrive, plus the
        // delayed one and the answer to each copy.
        assert!(sacks <= data / 4.0, "p {p}: {sacks:.1} SACKs per message of {data:.1} DATA");
    }
}

#[test]
fn coded_blocks_cost_and_deliver_as_fragmentos_predicts() {
    let n = 3 * BLOCK; // three full blocks: one flight fits the window
    let blocks = n.div_ceil(BLOCK) as i32;
    let overhead = (2 * BLOCK - 1) as f64 / BLOCK as f64;
    for (i, &p) in [0.95f64, 0.8, 0.6].iter().enumerate() {
        let (_, bytes, _, first) = timed_point(FragStrategy::Fec, n, p, 0xB10C + i as u64);
        // Every share of every block goes out before any report comes
        // back. Repairs, and copies of what a lost report (probability
        // 1-p) left unreported, add at most (1-p) of that flight.
        let band = overhead * 0.99..=overhead * (2.0 - p);
        assert!(
            band.contains(&bytes),
            "p {p}: {bytes:.3} wire bytes per payload byte, want {band:.3?}"
        );
        let want = quorum_probability(BLOCK, p).powi(blocks);
        let sigma = (want * (1.0 - want) / TIMED as f64).sqrt().max(1.0 / TIMED as f64);
        let got = first as f64 / TIMED as f64;
        assert!(
            (got - want).abs() <= 4.0 * sigma,
            "p {p}: {got:.4} delivered on the first flight, q_B^{blocks} = {want:.4} +- {:.4}",
            4.0 * sigma
        );
    }
}
