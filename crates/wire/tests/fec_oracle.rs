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

use bytes::Bytes;
use snipe_netsim::topology::Endpoint;
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::SimTime;
use snipe_wire::fec::FragStrategy;
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
