//! Mobile code in playgrounds — §3.6/§5.8.
//!
//! A signed bytecode agent is executed inside a playground under fuel
//! and capability quotas; we then (1) checkpoint it mid-flight and
//! resume it on a different host — the migration path for mobile code —
//! (2) demonstrate that a tampered image and an unsigned image are
//! rejected, and (3) let a runaway agent hit its fuel quota.
//!
//! Run with: `cargo run --example mobile_agent`

use bytes::Bytes;
use snipe::crypto::sign::KeyPair;
use snipe::netsim::actor::{Actor, Event, SimCtx};
use snipe::netsim::medium::Medium;
use snipe::netsim::topology::{Endpoint, HostCfg, Topology};
use snipe::netsim::world::World;
use snipe::playground::bytecode::{CodeImage, Instr, Program};
use snipe::playground::playground::{
    PlaygroundActor, PlaygroundConfig, PlaygroundMsg, SIG_CHECKPOINT,
};
use snipe::playground::vm::{sys, Quotas, CAP_EMIT};
use snipe::util::codec::WireDecode;
use snipe::util::rng::Xoshiro256;
use snipe::util::time::SimDuration;
use snipe::wire::frame::{open, Proto};
use std::sync::{Arc, Mutex};

/// Collects playground reports.
struct Supervisor {
    log: Arc<Mutex<Vec<PlaygroundMsg>>>,
}

impl Actor for Supervisor {
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

/// sum(1..=n) computed the slow way, then emitted.
fn summing_agent(n: i64) -> Program {
    Program {
        code: vec![
            Instr::PushI(n),
            Instr::Store(1),
            Instr::Load(1), // 2: loop head
            Instr::Jz(13),
            Instr::Load(0),
            Instr::Load(1),
            Instr::Add,
            Instr::Store(0),
            Instr::Load(1),
            Instr::PushI(1),
            Instr::Sub,
            Instr::Store(1),
            Instr::Jmp(2),
            Instr::Load(0), // 13
            Instr::Syscall(sys::EMIT),
            Instr::Halt,
        ],
        locals: 2,
        required_caps: CAP_EMIT,
    }
}

fn world3() -> (World, Vec<snipe::util::id::HostId>) {
    let mut topo = Topology::new();
    let net = topo.add_network("lan", Medium::ethernet100(), true);
    let hosts: Vec<_> = (0..3)
        .map(|i| {
            let h = topo.add_host(HostCfg::named(format!("pg{i}")));
            topo.attach(h, net);
            h
        })
        .collect();
    (World::new(topo, 4), hosts)
}

fn cfg(signer: &KeyPair, sup: Endpoint, fuel: u64) -> PlaygroundConfig {
    PlaygroundConfig {
        code_signer: signer.public.clone(),
        granted_caps: CAP_EMIT,
        quotas: Quotas { fuel, ..Quotas::default() },
        slice: 2_000,
        supervisor: sup,
        address_book: Default::default(),
    }
}

fn main() {
    let mut rng = Xoshiro256::seed_from_u64(1);
    let signer = KeyPair::generate_default(&mut rng);
    let mallory = KeyPair::generate_default(&mut rng);
    let (mut world, hosts) = world3();
    let log = Arc::new(Mutex::new(Vec::new()));
    let sup = Endpoint::new(hosts[0], 10);
    world.spawn(hosts[0], 10, Box::new(Supervisor { log: log.clone() }));

    // 1. A properly signed agent: checkpoint mid-run, resume elsewhere.
    let image = CodeImage::sign(&mut rng, &signer, "summing-agent", &summing_agent(100_000));
    let pg = PlaygroundActor::new(cfg(&signer, sup, 10_000_000), image.clone(), vec![]);
    let agent_ep = world.spawn(hosts[1], 100, Box::new(pg)).unwrap();
    world.run_for(SimDuration::from_millis(50)); // partially executed
    world.signal(None, agent_ep, SIG_CHECKPOINT);
    world.run_for(SimDuration::from_millis(5));
    let ckpt = log
        .lock()
        .unwrap()
        .iter()
        .find_map(|m| match m {
            PlaygroundMsg::Checkpoint { state } => Some(state.clone()),
            _ => None,
        })
        .expect("checkpoint captured");
    println!("checkpoint taken on pg1: {} bytes of VM state", ckpt.len());
    // Kill the original; resume the agent on pg2 from the checkpoint.
    world.kill(agent_ep);
    let resumed =
        PlaygroundActor::from_checkpoint(cfg(&signer, sup, 10_000_000), image.clone(), ckpt)
            .expect("restorable");
    world.spawn(hosts[2], 100, Box::new(resumed));
    world.run_for(SimDuration::from_secs(5));
    let done = log.lock().unwrap().iter().find_map(|m| match m {
        PlaygroundMsg::Done { outputs, fuel_used } => Some((outputs.clone(), *fuel_used)),
        _ => None,
    });
    let (outputs, fuel) = done.expect("agent finished after migration");
    println!(
        "agent finished on pg2: sum = {} (expected {}), fuel used {}",
        outputs[0],
        100_000i64 * 100_001 / 2,
        fuel
    );
    assert_eq!(outputs[0], 100_000i64 * 100_001 / 2);

    // 2. A tampered image is rejected before execution.
    let mut tampered = image.clone();
    let mut body = tampered.program.to_vec();
    body[4] ^= 0xFF;
    tampered.program = Bytes::from(body);
    world.spawn(
        hosts[1],
        101,
        Box::new(PlaygroundActor::new(cfg(&signer, sup, 1_000_000), tampered, vec![])),
    );
    // 3. An image signed by an untrusted key is rejected.
    let evil = CodeImage::sign(&mut rng, &mallory, "trojan", &summing_agent(10));
    world.spawn(
        hosts[1],
        102,
        Box::new(PlaygroundActor::new(cfg(&signer, sup, 1_000_000), evil, vec![])),
    );
    // 4. A runaway agent dies at its fuel quota.
    let spin = Program { code: vec![Instr::Jmp(0)], locals: 0, required_caps: 0 };
    let runaway = CodeImage::sign(&mut rng, &signer, "runaway", &spin);
    world.spawn(
        hosts[1],
        103,
        Box::new(PlaygroundActor::new(cfg(&signer, sup, 50_000), runaway, vec![])),
    );
    world.run_for(SimDuration::from_secs(2));

    println!("\n--- supervisor log ---");
    for m in log.lock().unwrap().iter() {
        match m {
            PlaygroundMsg::Done { outputs, fuel_used } => {
                println!("DONE outputs={outputs:?} fuel={fuel_used}")
            }
            PlaygroundMsg::Failed { reason } => println!("REJECTED/KILLED: {reason}"),
            PlaygroundMsg::Checkpoint { state } => println!("CHECKPOINT {} bytes", state.len()),
        }
    }
    let failures =
        log.lock().unwrap().iter().filter(|m| matches!(m, PlaygroundMsg::Failed { .. })).count();
    assert_eq!(failures, 3, "tampered + unsigned + runaway must all be stopped");
    println!("\nall hostile agents contained; the legitimate agent migrated and completed.");
}
