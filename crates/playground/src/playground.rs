//! The playground actor: supervised, sliced execution of verified
//! mobile code.
//!
//! The actor verifies a [`CodeImage`] against the trusted code-signing
//! key, refuses code whose required capabilities exceed the grant, then
//! runs the VM in fuel slices on a timer (modelling the preemptive
//! scheduling a 1997 Unix host gave native playground processes).
//! Violations are logged and reported; checkpoints can be taken on
//! demand via a signal (§5.8: "the playground provides hooks for
//! checkpointing, restart, and process migration for use by resource
//! managers").

use std::collections::HashMap;

use bytes::Bytes;

use snipe_crypto::sign::PublicKey;
use snipe_netsim::actor::{Actor, Event, SimCtx};
use snipe_netsim::topology::Endpoint;
use snipe_util::codec::WireEncode;
use snipe_util::error::SnipeResult;
use snipe_util::time::{SimDuration, SimTime};
use snipe_util::wire_codec;
use snipe_wire::frame::{seal, Proto};

use crate::bytecode::CodeImage;
use crate::vm::{Quotas, StepOutcome, SyscallHost, Vm};

/// Signal number requesting a checkpoint (delivered by daemons/RMs).
pub const SIG_CHECKPOINT: u32 = 20;

const TIMER_SLICE: u64 = 1;

/// One logged access violation or quota event (§3.6: "logging access
/// violations and excess resource use").
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// When it happened.
    pub at: SimTime,
    /// Description.
    pub what: String,
}

/// Reports from a playground to its supervisor.
#[derive(Clone, Debug, PartialEq)]
pub enum PlaygroundMsg {
    /// The program halted; outputs attached.
    Done {
        /// Values the program emitted.
        outputs: Vec<i64>,
        /// Fuel actually consumed.
        fuel_used: u64,
    },
    /// The program was stopped (trap / rejected image).
    Failed {
        /// Reason.
        reason: String,
    },
    /// A checkpoint, taken on [`SIG_CHECKPOINT`].
    Checkpoint {
        /// Serialized VM state (restorable with [`Vm::restore`]).
        state: Bytes,
    },
}

wire_codec!(enum PlaygroundMsg: magic 0xA5 {
    1 => Done { outputs, fuel_used },
    2 => Failed { reason },
    3 => Checkpoint { state },
});

/// A value the program sent with the SEND syscall, Raw-sealed to the
/// address-book target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlaygroundSend {
    /// The value.
    pub value: i64,
}

wire_codec!(struct PlaygroundSend: magic 0xA6 { value });

/// Playground configuration.
#[derive(Clone)]
pub struct PlaygroundConfig {
    /// Key trusted to sign mobile code.
    pub code_signer: PublicKey,
    /// Capabilities granted to this code (must cover its requirements).
    pub granted_caps: u32,
    /// Resource quotas.
    pub quotas: Quotas,
    /// Instructions per scheduling slice.
    pub slice: u64,
    /// Interval between slices.
    pub slice_interval: SimDuration,
    /// Where to send reports.
    pub supervisor: Endpoint,
    /// Address book for the SEND syscall: program-visible handle →
    /// endpoint. Anything not listed is unreachable (access control).
    pub address_book: HashMap<i64, Endpoint>,
}

/// Host bridge: translates VM syscalls into simulator operations.
struct ActorHost<'a> {
    ctx: &'a mut dyn SimCtx,
    address_book: &'a HashMap<i64, Endpoint>,
    violations: &'a mut Vec<Violation>,
    logged: &'a mut Vec<i64>,
}

impl SyscallHost for ActorHost<'_> {
    fn now_ms(&mut self) -> i64 {
        (self.ctx.now().as_nanos() / 1_000_000) as i64
    }

    fn send(&mut self, target: i64, value: i64) {
        match self.address_book.get(&target) {
            Some(&ep) => {
                let msg = PlaygroundSend { value };
                self.ctx.send(ep, seal(Proto::Raw, msg.encode_to_bytes()));
            }
            None => self.violations.push(Violation {
                at: self.ctx.now(),
                what: format!("send to unauthorized target {target}"),
            }),
        }
    }

    fn log(&mut self, value: i64) {
        self.logged.push(value);
    }
}

/// The playground actor.
pub struct PlaygroundActor {
    cfg: PlaygroundConfig,
    image: CodeImage,
    inputs: Vec<i64>,
    vm: Option<Vm>,
    /// Violations observed so far.
    pub violations: Vec<Violation>,
    /// Values the program logged.
    pub logged: Vec<i64>,
    reported: bool,
}

impl PlaygroundActor {
    /// Host `image` with `inputs` pre-queued.
    pub fn new(cfg: PlaygroundConfig, image: CodeImage, inputs: Vec<i64>) -> PlaygroundActor {
        PlaygroundActor {
            cfg,
            image,
            inputs,
            vm: None,
            violations: Vec::new(),
            logged: Vec::new(),
            reported: false,
        }
    }

    /// Resume from a checkpoint instead of starting fresh (migration /
    /// restart path).
    pub fn from_checkpoint(
        cfg: PlaygroundConfig,
        image: CodeImage,
        state: Bytes,
    ) -> SnipeResult<PlaygroundActor> {
        let vm = Vm::restore(state)?;
        Ok(PlaygroundActor {
            cfg,
            image,
            inputs: Vec::new(),
            vm: Some(vm),
            violations: Vec::new(),
            logged: Vec::new(),
            reported: false,
        })
    }

    fn report(&mut self, ctx: &mut dyn SimCtx, msg: &PlaygroundMsg) {
        let sup = self.cfg.supervisor;
        ctx.send(sup, seal(Proto::Raw, msg.encode_to_bytes()));
    }

    fn fail(&mut self, ctx: &mut dyn SimCtx, reason: String) {
        self.violations.push(Violation { at: ctx.now(), what: reason.clone() });
        if !self.reported {
            self.reported = true;
            self.report(ctx, &PlaygroundMsg::Failed { reason }.clone());
        }
        let me = ctx.me();
        ctx.kill(me);
    }
}

impl Actor for PlaygroundActor {
    fn on_event(&mut self, ctx: &mut dyn SimCtx, event: Event) {
        match event {
            Event::Start => {
                // 1. Verify authenticity + integrity + static safety.
                let program = match self.image.verify(&self.cfg.code_signer) {
                    Ok(p) => p,
                    Err(e) => return self.fail(ctx, format!("image rejected: {e}")),
                };
                // 2. Check the rights the code demands against the grant
                //    ("verifying that the code has the rights needed",
                //    §3.6).
                if program.required_caps & !self.cfg.granted_caps != 0 {
                    return self.fail(
                        ctx,
                        format!(
                            "code requires capabilities {:#x} beyond grant {:#x}",
                            program.required_caps, self.cfg.granted_caps
                        ),
                    );
                }
                if self.vm.is_none() {
                    let mut vm = Vm::new(&program, self.cfg.granted_caps, self.cfg.quotas);
                    vm.inputs = std::mem::take(&mut self.inputs);
                    self.vm = Some(vm);
                }
                ctx.set_timer(self.cfg.slice_interval, TIMER_SLICE);
            }
            Event::Timer { token: TIMER_SLICE } => {
                let Some(vm) = self.vm.as_mut() else { return };
                let outcome = {
                    let mut host = ActorHost {
                        ctx,
                        address_book: &self.cfg.address_book,
                        violations: &mut self.violations,
                        logged: &mut self.logged,
                    };
                    vm.run_slice(self.cfg.slice, &mut host)
                };
                match outcome {
                    StepOutcome::Running => ctx.set_timer(self.cfg.slice_interval, TIMER_SLICE),
                    StepOutcome::Halted => {
                        let vm = self.vm.as_ref().expect("running vm");
                        let msg = PlaygroundMsg::Done {
                            outputs: vm.outputs.clone(),
                            fuel_used: self.cfg.quotas.fuel - vm.fuel_left(),
                        };
                        self.reported = true;
                        self.report(ctx, &msg);
                        let me = ctx.me();
                        ctx.kill(me);
                    }
                    StepOutcome::Trapped(t) => {
                        self.fail(ctx, format!("trap: {t:?}"));
                    }
                }
            }
            Event::Signal { signum: SIG_CHECKPOINT, .. } => {
                if let Some(vm) = self.vm.as_ref() {
                    let state = vm.checkpoint();
                    self.report(ctx, &PlaygroundMsg::Checkpoint { state });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Instr, Program};
    use crate::vm::{sys, CAP_EMIT};
    use snipe_crypto::sign::KeyPair;
    use snipe_netsim::actor::{Actor, SimCtx};
    use snipe_netsim::medium::Medium;
    use snipe_netsim::topology::{HostCfg, Topology};
    use snipe_netsim::world::World;
    use snipe_util::codec::WireDecode;
    use snipe_util::rng::Xoshiro256;
    use snipe_wire::frame::open;
    use std::sync::{Arc, Mutex};

    struct Collector {
        log: Arc<Mutex<Vec<PlaygroundMsg>>>,
    }

    impl Actor for Collector {
        fn on_event(&mut self, _ctx: &mut dyn SimCtx, event: Event) {
            if let Event::Packet { payload, .. } = event {
                if let Ok((Proto::Raw, body)) = open(payload) {
                    if let Ok(m) = PlaygroundMsg::decode_from_bytes(body) {
                        self.log.lock().unwrap().push(m);
                    }
                }
            }
        }
    }

    fn setup() -> (World, Endpoint, snipe_util::id::HostId, Arc<Mutex<Vec<PlaygroundMsg>>>) {
        let mut topo = Topology::new();
        let net = topo.add_network("lan", Medium::ethernet100(), true);
        let h = topo.add_host(HostCfg::named("pg"));
        let s = topo.add_host(HostCfg::named("sup"));
        topo.attach(h, net);
        topo.attach(s, net);
        let mut world = World::new(topo, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let sup_ep = Endpoint::new(s, 10);
        world.spawn(s, 10, Box::new(Collector { log: log.clone() }));
        (world, sup_ep, h, log)
    }

    fn cfg(signer: &KeyPair, sup: Endpoint) -> PlaygroundConfig {
        PlaygroundConfig {
            code_signer: signer.public.clone(),
            granted_caps: CAP_EMIT,
            quotas: Quotas::default(),
            slice: 1000,
            slice_interval: SimDuration::from_millis(1),
            supervisor: sup,
            address_book: HashMap::new(),
        }
    }

    #[test]
    fn send_message_bytes() {
        let b = PlaygroundSend { value: -2 }.encode_to_bytes();
        assert_eq!(&b[..], &[0xA6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE]);
        assert_eq!(PlaygroundSend::decode_from_bytes(b).unwrap(), PlaygroundSend { value: -2 });
    }

    #[test]
    fn verified_code_runs_to_completion() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let signer = KeyPair::generate_default(&mut rng);
        let program = Program {
            code: vec![
                Instr::PushI(21),
                Instr::PushI(2),
                Instr::Mul,
                Instr::Syscall(sys::EMIT),
                Instr::Halt,
            ],
            locals: 0,
            required_caps: CAP_EMIT,
        };
        let image = CodeImage::sign(&mut rng, &signer, "job", &program);
        let (mut world, sup, h, log) = setup();
        let pg = PlaygroundActor::new(cfg(&signer, sup), image, vec![]);
        world.spawn(h, 100, Box::new(pg));
        world.run_for(SimDuration::from_secs(1));
        let log = log.lock().unwrap();
        assert!(
            matches!(&log[..], [PlaygroundMsg::Done { outputs, .. }] if outputs == &vec![42]),
            "{log:?}"
        );
    }

    #[test]
    fn unsigned_code_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let signer = KeyPair::generate_default(&mut rng);
        let mallory = KeyPair::generate_default(&mut rng);
        let program = Program { code: vec![Instr::Halt], locals: 0, required_caps: 0 };
        let image = CodeImage::sign(&mut rng, &mallory, "evil", &program);
        let (mut world, sup, h, log) = setup();
        let pg = PlaygroundActor::new(cfg(&signer, sup), image, vec![]);
        world.spawn(h, 100, Box::new(pg));
        world.run_for(SimDuration::from_secs(1));
        let log = log.lock().unwrap();
        assert!(
            matches!(&log[..], [PlaygroundMsg::Failed { reason }] if reason.contains("image rejected")),
            "{log:?}"
        );
    }

    #[test]
    fn excess_capability_demand_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let signer = KeyPair::generate_default(&mut rng);
        let program = Program {
            code: vec![Instr::Halt],
            locals: 0,
            required_caps: crate::vm::CAP_SEND, // not granted
        };
        let image = CodeImage::sign(&mut rng, &signer, "greedy", &program);
        let (mut world, sup, h, log) = setup();
        let pg = PlaygroundActor::new(cfg(&signer, sup), image, vec![]);
        world.spawn(h, 100, Box::new(pg));
        world.run_for(SimDuration::from_secs(1));
        let log = log.lock().unwrap();
        assert!(
            matches!(&log[..], [PlaygroundMsg::Failed { reason }] if reason.contains("capabilities")),
            "{log:?}"
        );
    }

    #[test]
    fn runaway_code_killed_by_fuel_quota() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let signer = KeyPair::generate_default(&mut rng);
        let program = Program { code: vec![Instr::Jmp(0)], locals: 0, required_caps: 0 };
        let image = CodeImage::sign(&mut rng, &signer, "spin", &program);
        let (mut world, sup, h, log) = setup();
        let mut c = cfg(&signer, sup);
        c.quotas.fuel = 10_000;
        let pg = PlaygroundActor::new(c, image, vec![]);
        world.spawn(h, 100, Box::new(pg));
        world.run_for(SimDuration::from_secs(1));
        let log = log.lock().unwrap();
        assert!(
            matches!(&log[..], [PlaygroundMsg::Failed { reason }] if reason.contains("FuelExhausted")),
            "{log:?}"
        );
        // The playground actor exited.
        assert!(!world.is_bound(Endpoint::new(h, 100)));
    }

    #[test]
    fn checkpoint_signal_produces_restorable_state() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let signer = KeyPair::generate_default(&mut rng);
        // Long loop so it is still running when the signal arrives.
        let program = Program {
            code: vec![
                Instr::PushI(100_000),
                Instr::Store(0),
                Instr::Load(0), // 2
                Instr::Jz(9),
                Instr::Load(0),
                Instr::PushI(1),
                Instr::Sub,
                Instr::Store(0),
                Instr::Jmp(2),
                Instr::PushI(7), // 9
                Instr::Syscall(sys::EMIT),
                Instr::Halt,
            ],
            locals: 1,
            required_caps: CAP_EMIT,
        };
        let image = CodeImage::sign(&mut rng, &signer, "long", &program);
        let (mut world, sup, h, log) = setup();
        let pg = PlaygroundActor::new(cfg(&signer, sup), image.clone(), vec![]);
        let pg_ep = world.spawn(h, 100, Box::new(pg)).unwrap();
        world.run_for(SimDuration::from_millis(10));
        world.signal(None, pg_ep, SIG_CHECKPOINT);
        world.run_for(SimDuration::from_millis(5));
        let state = log
            .lock()
            .unwrap()
            .iter()
            .find_map(|m| match m {
                PlaygroundMsg::Checkpoint { state } => Some(state.clone()),
                _ => None,
            })
            .expect("checkpoint produced");
        // Restore into a new playground on the supervisor host and let
        // it finish (migration!).
        let (mut world2, sup2, h2, log2) = setup();
        let mut rng2 = Xoshiro256::seed_from_u64(5);
        let signer2 = KeyPair::generate_default(&mut rng2);
        let pg2 = PlaygroundActor::from_checkpoint(cfg(&signer2, sup2), image, state).unwrap();
        world2.spawn(h2, 100, Box::new(pg2));
        world2.run_for(SimDuration::from_secs(60));
        let log2 = log2.lock().unwrap();
        assert!(
            matches!(&log2[..], [PlaygroundMsg::Done { outputs, .. }] if outputs == &vec![7]),
            "restored code must finish: {log2:?}"
        );
    }
}
