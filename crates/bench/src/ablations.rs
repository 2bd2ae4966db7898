//! Ablations of design choices the paper calls out.
//!
//! * **A1** — SRUDP window and fragment size on a lossy WAN: the
//!   selective-resend design (§6) earns its keep when loss is real.
//! * **A2** — RC anti-entropy interval vs cross-replica staleness:
//!   the availability/consistency trade of §2.1.
//! * **A3** — playground fuel-slice size vs completion time and
//!   checkpoint cost (§5.8).

use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::Endpoint;
use snipe_netsim::world::World;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::client::RcClient;
use snipe_rcds::host::RcHost;
use snipe_rcds::uri::Uri;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::stack::StackConfig;

use crate::fig1::{hosted, Flow, Receiver, Transfer};
use crate::{drive, lan, rc_group};

/// A1 result row.
#[derive(Clone, Debug)]
pub struct A1Point {
    /// SRUDP window (fragments in flight).
    pub window: usize,
    /// Fragment size (bytes).
    pub frag_size: usize,
    /// Loss probability of the WAN.
    pub loss: f64,
    /// Goodput in bytes/second (NaN if the transfer stalled).
    pub goodput: f64,
}

/// A1: sweep SRUDP (window, frag size) over a lossy WAN link.
pub fn run_a1(window: usize, frag_size: usize, loss: f64, seed: u64) -> A1Point {
    let (mut world, hosts) = lan(seed, &[Medium::wan_lossy(loss)], 2);
    let (a, b) = (hosts[0], hosts[1]);
    let total = 2 << 20;
    let mut cfg = StackConfig::default();
    cfg.srudp.window = window;
    cfg.srudp.frag_size = frag_size;
    cfg.srudp.rto_initial = SimDuration::from_millis(150);
    let rx = Transfer {
        flow: Flow::Srudp(cfg),
        pin: None,
        msg_size: 64 * 1024,
        work: total,
        window: window * frag_size * 2,
    }
    .spawn(&mut world, a, b);
    let done_at = |w: &World| hosted::<Receiver>(w, rx).app.done_at;
    drive(
        &mut world,
        SimDuration::from_millis(100),
        SimTime::ZERO + SimDuration::from_secs(120),
        |w| done_at(w).is_some(),
    );
    let goodput = done_at(&world).map_or(f64::NAN, |t| total as f64 / t.as_secs_f64());
    A1Point { window, frag_size, loss, goodput }
}

/// FEC A/B result row (goodput-vs-loss, plain vs erasure-coded).
#[derive(Clone, Debug)]
pub struct FecAbPoint {
    /// `true` = erasure-coded share spray, `false` = plain fragments.
    pub fec: bool,
    /// Loss probability of the WAN.
    pub loss: f64,
    /// Messages delivered (of [`FEC_AB_COUNT`]).
    pub delivered: u64,
    /// Messages that arrived via FEC reconstruction.
    pub fec_delivered: u64,
    /// Goodput in bytes/second of delivered payload.
    pub goodput: f64,
}

/// Messages per A/B run.
pub const FEC_AB_COUNT: u64 = 60;
/// Message size: five 1400-byte fragments, so FEC uses b=5 → 9 shares.
pub const FEC_AB_MSG: usize = 7000;

/// One goodput-vs-loss point for the Fig.1-style FEC A/B curve.
///
/// The transfer is deliberately latency-bound (one message in flight
/// over a 35 ms WAN): each plain message needs *all five* fragments in
/// one flight or pays a retransmit round-trip, while the FEC variant
/// completes from any 5 of its 9 shares. At zero loss plain wins
/// slightly (no parity bytes); from ~5% loss the avoided RTO rounds
/// dominate and FEC overtakes — that crossover is the claim
/// `fec_beats_plain_on_a_lossy_wan` pins.
pub fn run_fec_ab(fec: bool, loss: f64, seed: u64) -> FecAbPoint {
    use snipe_wire::fec::FragStrategy;

    let (mut world, hosts) = lan(seed, &[Medium::wan_lossy(loss)], 2);
    let (a, b) = (hosts[0], hosts[1]);
    let mut cfg = StackConfig::default();
    if fec {
        cfg.srudp.frag_strategy = FragStrategy::Fec;
    }
    let rx = Transfer {
        flow: Flow::Patterned(cfg),
        pin: None,
        msg_size: FEC_AB_MSG,
        work: FEC_AB_COUNT as usize,
        // Strict stop-and-wait: the next message enters the stack only
        // when the previous one is fully acknowledged, so both variants
        // carry exactly one message in flight and the comparison is
        // per-message completion latency. (A byte budget would let
        // plain pipeline deeper than FEC purely because shares cost
        // 2b-1/b more bytes.)
        window: 0,
    }
    .spawn(&mut world, a, b);
    drive(
        &mut world,
        SimDuration::from_millis(100),
        SimTime::ZERO + SimDuration::from_secs(60),
        |w| hosted::<Receiver>(w, rx).app.done_at.is_some(),
    );
    let rx = hosted::<Receiver>(&world, rx);
    let delivered = rx.app.seqs.len() as u64;
    assert!(
        rx.app.mismatches.is_empty(),
        "A/B run delivered corrupted payload: {:?}",
        rx.app.mismatches
    );
    let elapsed = rx.app.done_at.unwrap_or(world.now()).as_secs_f64();
    let goodput =
        if elapsed > 0.0 { delivered as f64 * FEC_AB_MSG as f64 / elapsed } else { f64::NAN };
    let fec_delivered = rx.srudp_stats().fec_delivered;
    FecAbPoint { fec, loss, delivered, fec_delivered, goodput }
}

/// A2 result row.
#[derive(Clone, Debug)]
pub struct A2Point {
    /// Anti-entropy interval (seconds).
    pub sync_interval: f64,
    /// Mean time for a write at replica 0 to be visible at replica 1.
    pub staleness: f64,
}

const TIMER_PROBE: u64 = 3;
const TIMER_RC: u64 = 4;

/// Probes replica 1 until the expected value appears; records when.
struct StalenessProbe {
    uri: Uri,
    expect: String,
    rc: RcHost,
    visible_at: Option<SimTime>,
}

impl StalenessProbe {
    /// Flush the RC client and look for the expected value in what it
    /// completed.
    fn pump(&mut self, ctx: &mut dyn SimCtx) {
        for (_, result) in self.rc.flush(ctx) {
            if let Ok(reply) = result {
                if reply.assertions.iter().any(|a| a.value == self.expect)
                    && self.visible_at.is_none()
                {
                    self.visible_at = Some(ctx.now());
                }
            }
        }
    }
}

impl Actor for StalenessProbe {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start | Event::Timer { token: TIMER_PROBE } if self.visible_at.is_none() => {
                self.rc.get(now, &self.uri);
                self.pump(ctx);
                ctx.set_timer(SimDuration::from_millis(10), TIMER_PROBE);
                return;
            }
            Event::Timer { token: TIMER_RC } => self.rc.on_timer(now),
            Event::HostUp => self.rc.on_host_up(now),
            Event::Packet { from, payload } => self.rc.on_datagram(now, from, payload),
            // Including a probe tick still pending when the value
            // became visible.
            _ => return,
        }
        self.pump(ctx);
    }
}

struct OneShotWriter {
    uri: Uri,
    value: String,
    rc: RcHost,
    wrote_at: Option<SimTime>,
}

impl Actor for OneShotWriter {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        let now = ctx.now();
        match event {
            Event::Start => {
                self.rc.put(now, &self.uri, vec![Assertion::new("k", self.value.clone())]);
                self.wrote_at = Some(now);
            }
            Event::Timer { token: TIMER_RC } => self.rc.on_timer(now),
            Event::HostUp => self.rc.on_host_up(now),
            Event::Packet { from, payload } => self.rc.on_datagram(now, from, payload),
            _ => return,
        }
        self.rc.flush(ctx);
    }
}

/// A2: measure replication staleness for a sync interval.
pub fn run_a2(sync_interval: SimDuration, seed: u64) -> A2Point {
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], 3);
    let (r0, r1, c) = (hosts[0], hosts[1], hosts[2]);
    let eps = rc_group(&mut world, &[r0, r1], sync_interval);
    // Let the replicas settle so the first sync tick isn't aligned with
    // the write.
    world.run_for(sync_interval + SimDuration::from_millis(37));
    let uri = Uri::process(1);
    let client = |ep| RcHost::new(RcClient::new(vec![ep], SimDuration::from_millis(200)), TIMER_RC);
    let writer = OneShotWriter {
        uri: uri.clone(),
        value: "fresh".into(),
        rc: client(eps[0]),
        wrote_at: None,
    };
    let probe =
        StalenessProbe { uri, expect: "fresh".into(), rc: client(eps[1]), visible_at: None };
    world.spawn(c, 50, Box::new(writer));
    world.spawn(c, 51, Box::new(probe));
    world.run_for(sync_interval * 4 + SimDuration::from_secs(2));
    let wrote_at = world.actor_ref::<OneShotWriter>(Endpoint::new(c, 50)).and_then(|w| w.wrote_at);
    let visible_at =
        world.actor_ref::<StalenessProbe>(Endpoint::new(c, 51)).and_then(|p| p.visible_at);
    let staleness = match (wrote_at, visible_at) {
        (Some(w), Some(v)) => v.saturating_since(w).as_secs_f64(),
        _ => f64::NAN,
    };
    A2Point { sync_interval: sync_interval.as_secs_f64(), staleness }
}

/// A3 result row.
#[derive(Clone, Debug)]
pub struct A3Point {
    /// Instructions per scheduling slice.
    pub slice: u64,
    /// Completion time of the reference program (seconds).
    pub completion: f64,
    /// Checkpoint size in bytes (taken mid-run).
    pub checkpoint_bytes: usize,
}

/// A3: playground slice-size sweep on a fixed compute kernel.
pub fn run_a3(slice: u64, seed: u64) -> A3Point {
    use snipe_crypto::sign::KeyPair;
    use snipe_playground::bytecode::{CodeImage, Instr, Program};
    use snipe_playground::playground::{PlaygroundActor, PlaygroundConfig, PlaygroundMsg};
    use snipe_playground::vm::{sys, Quotas, Vm, CAP_EMIT};
    use snipe_util::codec::WireDecode;
    use snipe_util::rng::Xoshiro256;

    // countdown loop: 200k iterations (~1.4M instructions).
    let program = Program {
        code: vec![
            Instr::PushI(200_000),
            Instr::Store(0),
            Instr::Load(0), // 2
            Instr::Jz(9),
            Instr::Load(0),
            Instr::PushI(1),
            Instr::Sub,
            Instr::Store(0),
            Instr::Jmp(2),
            Instr::PushI(1), // 9
            Instr::Syscall(sys::EMIT),
            Instr::Halt,
        ],
        locals: 1,
        required_caps: CAP_EMIT,
    };
    // Checkpoint size: measured directly from a VM mid-run.
    let mut vm = Vm::new(&program, CAP_EMIT, Quotas { fuel: 10_000_000, ..Quotas::default() });
    let mut host = snipe_playground::vm::NullHost::default();
    vm.run_slice(50_000, &mut host);
    let checkpoint_bytes = vm.checkpoint().len();

    let mut rng = Xoshiro256::seed_from_u64(seed);
    let signer = KeyPair::generate_default(&mut rng);
    let image = CodeImage::sign(&mut rng, &signer, "kernel", &program);
    let (mut world, hosts) = lan(seed, &[Medium::ethernet100()], 2);
    let (h, s) = (hosts[0], hosts[1]);
    /// Notes when the playground reports its program done.
    struct Sup {
        done: Option<SimTime>,
    }
    impl Actor for Sup {
        fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
            if let Event::Packet { payload, .. } = event {
                if let Ok((snipe_wire::frame::Proto::Raw, body)) = snipe_wire::frame::open(payload)
                {
                    if let Ok(PlaygroundMsg::Done { .. }) = PlaygroundMsg::decode_from_bytes(body) {
                        self.done = Some(ctx.now());
                    }
                }
            }
        }
    }
    let sup = Endpoint::new(s, 10);
    world.spawn(s, 10, Box::new(Sup { done: None }));
    let cfg = PlaygroundConfig {
        code_signer: signer.public.clone(),
        granted_caps: CAP_EMIT,
        quotas: Quotas { fuel: 10_000_000, ..Quotas::default() },
        slice,
        supervisor: sup,
        address_book: Default::default(),
    };
    world.spawn(h, 100, Box::new(PlaygroundActor::new(cfg, image, vec![])));
    let done = |w: &World| w.actor_ref::<Sup>(sup).and_then(|s| s.done);
    drive(
        &mut world,
        SimDuration::from_millis(100),
        SimTime::ZERO + SimDuration::from_secs(60),
        |w| done(w).is_some(),
    );
    let completion = done(&world).map_or(f64::NAN, |t| t.as_secs_f64());
    A3Point { slice, completion, checkpoint_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_bigger_window_helps_on_lossy_wan() {
        let small = run_a1(4, 1400, 0.05, 31);
        let big = run_a1(64, 1400, 0.05, 31);
        assert!(big.goodput > small.goodput, "{small:?} vs {big:?}");
    }

    #[test]
    fn fec_beats_plain_on_a_lossy_wan() {
        // The acceptance claim of the FEC work: at ≥5% loss an
        // erasure-coded multi-fragment message stream beats plain
        // fragmentation, because any-5-of-9 completes in one flight
        // while plain pays an RTO round for every lost fragment.
        for loss in [0.05, 0.10] {
            let plain = run_fec_ab(false, loss, 11);
            let fec = run_fec_ab(true, loss, 11);
            assert_eq!(fec.delivered, FEC_AB_COUNT, "{fec:?}");
            assert_eq!(fec.fec_delivered, FEC_AB_COUNT, "every message must use the FEC path");
            assert!(
                fec.goodput > plain.goodput,
                "loss {loss}: fec {:.0} B/s not above plain {:.0} B/s",
                fec.goodput,
                plain.goodput
            );
        }
    }

    #[test]
    fn a2_staleness_tracks_sync_interval() {
        let fast = run_a2(SimDuration::from_millis(100), 32);
        let slow = run_a2(SimDuration::from_secs(2), 32);
        assert!(fast.staleness.is_finite() && slow.staleness.is_finite());
        assert!(slow.staleness > fast.staleness, "{fast:?} vs {slow:?}");
    }

    #[test]
    fn a3_larger_slices_finish_sooner() {
        let small = run_a3(1_000, 33);
        let big = run_a3(50_000, 33);
        assert!(big.completion < small.completion, "{small:?} vs {big:?}");
        assert!(small.checkpoint_bytes > 0);
    }
}
