//! The wire formats, pinned.
//!
//! One sample per variant of every message the services exchange
//! (RCDS, daemon, resource manager, files, PVM, playground, console,
//! multicast relay and the crypto certificates and records), each with
//! its exact encoding as
//! hex and its round trip. A change to how any of them is written, or a
//! tag or field order that moves, fails here first.
//!
//! The transport's own formats are pinned the same way: one migration
//! snapshot per migratable driver (SRUDP, multicast member), a stack
//! snapshot, a playground VM checkpoint, and one datagram per SRUDP and
//! RSTREAM kind. The datagrams come from driving a real sender and are
//! decoded by a fresh receiving driver, the path the network reaches.
//!
//! The same samples are the hostile corpus for every one of those
//! decoders:
//! - every strict prefix of an encoding decodes to an error;
//! - every single-bit flip decodes, to a value or an error, without
//!   panicking;
//! - a sequence count (or a datagram's blob length) forged to
//!   `0xFFFF_FFFF` decodes to an error.

use std::fmt::Debug;

use bytes::Bytes;

use snipe::core::HttpMsg;
use snipe::crypto::bigint::BigUint;
use snipe::crypto::cert::{CertClaim, Certificate};
use snipe::crypto::channel::{HandshakeMsg, Record};
use snipe::crypto::sign::{PublicKey, Signature};
use snipe::daemon::proto::{DaemonMsg, SpawnSpec, TaskState};
use snipe::files::proto::FileMsg;
use snipe::netsim::topology::Endpoint;
use snipe::playground::playground::PlaygroundMsg;
use snipe::playground::{CodeImage, Instr, Program, Quotas, Vm, CAP_EMIT};
use snipe::pvm::proto::PvmMsg;
use snipe::rcds::assertion::{Assertion, Stamp};
use snipe::rcds::proto::{RcMsg, RcOp};
use snipe::rcds::store::Update;
use snipe::rm::proto::{AllocMode, Allocation, RmMsg};
use snipe::util::codec::{WireDecode, WireEncode};
use snipe::util::error::SnipeResult;
use snipe::util::id::HostId;
use snipe::util::time::{SimDuration, SimTime};
use snipe::wire::fec::FragStrategy;
use snipe::wire::frame::{open_sends, Proto};
use snipe::wire::mcast::{McastMember, McastMsg};
use snipe::wire::rstream::{Rstream, RstreamConfig};
use snipe::wire::srudp::{Srudp, SrudpConfig};
use snipe::wire::stack::{StackConfig, WireStack};
use snipe::wire::Out;

/// A decoder under test: the decoded value's `Debug` text and its
/// re-encoding.
type Decode = fn(Bytes) -> SnipeResult<(String, Bytes)>;

fn wire<T: WireEncode + WireDecode + Debug>(b: Bytes) -> SnipeResult<(String, Bytes)> {
    let v = T::decode_from_bytes(b)?;
    Ok((format!("{v:?}"), v.encode_to_bytes()))
}

fn program(b: Bytes) -> SnipeResult<(String, Bytes)> {
    let p = Program::from_bytes(b)?;
    Ok((format!("{p:?}"), p.to_bytes()))
}

/// One pinned encoding.
struct Pin {
    /// The sample's `Debug` text (also the failure label).
    value: String,
    bytes: Bytes,
    decode: Decode,
    hex: &'static str,
    /// `(byte offset, count)` of every sequence count in `bytes`.
    counts: &'static [(usize, u32)],
}

fn pin<T: WireEncode + WireDecode + Debug>(
    v: T,
    hex: &'static str,
    counts: &'static [(usize, u32)],
) -> Pin {
    Pin { value: format!("{v:?}"), bytes: v.encode_to_bytes(), decode: wire::<T>, hex, counts }
}

fn ep(h: u32, p: u16) -> Endpoint {
    Endpoint::new(HostId(h), p)
}

fn b(s: &'static [u8]) -> Bytes {
    Bytes::from_static(s)
}

/// A signature with one-byte `e` and `s`, small enough to read in hex.
fn sig() -> Signature {
    Signature::decode_from_bytes(b(&[0, 0, 0, 1, 5, 0, 0, 0, 1, 7])).unwrap()
}

fn key() -> PublicKey {
    PublicKey::from_element(BigUint::from_u64(0x1234))
}

fn assertion(signed: bool) -> Assertion {
    let mut a = Assertion::new("k", "v");
    a.stamp = Stamp { lamport: 3, server: 1 };
    a.stored_at_ns = 9;
    a.deleted = signed;
    a.signature = signed.then(|| vec![1, 2, 3]);
    a
}

fn spec() -> SpawnSpec {
    SpawnSpec {
        program: "w".into(),
        args: b(b"a"),
        min_cpu_factor: 1.5,
        arch: "x".into(),
        notify: vec![ep(1, 2)],
        credential: Some(b(b"c")),
        fixed_key: 42,
    }
}

fn every_instr() -> Program {
    use Instr::*;
    Program {
        code: vec![
            PushI(-7),
            Pop,
            Dup,
            Swap,
            Add,
            Sub,
            Mul,
            Div,
            Mod,
            Neg,
            Eq,
            Lt,
            Gt,
            Not,
            Load(3),
            Store(4),
            Jmp(9),
            Jz(10),
            Call(11),
            Ret,
            Halt,
            Syscall(2),
        ],
        locals: 5,
        required_caps: 0x11,
    }
}

const T0: SimTime = SimTime::ZERO;

/// A pin whose decoder yields no `Debug` value of the sample itself (a
/// driver snapshot, a datagram): its label is what the decoder reports.
fn accepted(
    bytes: Bytes,
    decode: Decode,
    hex: &'static str,
    counts: &'static [(usize, u32)],
) -> Pin {
    let value = decode(bytes.clone()).map_or_else(|e| format!("undecodable: {e}"), |(v, _)| v);
    Pin { value, bytes, decode, hex, counts }
}

fn srudp_snapshot(b: Bytes) -> SnipeResult<(String, Bytes)> {
    let s = Srudp::import_state(b, SrudpConfig::default(), T0)?;
    Ok((format!("SRUDP snapshot of key {}", s.key()), s.export_state()))
}

fn mcast_snapshot(b: Bytes) -> SnipeResult<(String, Bytes)> {
    Ok(("MCAST member snapshot".into(), McastMember::import_state(b)?.export_state()))
}

fn stack_cfg() -> StackConfig {
    StackConfig {
        rstream: Some(RstreamConfig::default()),
        mcast_member: true,
        ..Default::default()
    }
}

fn stack_snapshot(b: Bytes) -> SnipeResult<(String, Bytes)> {
    Ok(("stack snapshot".into(), WireStack::import_state(b, stack_cfg(), T0)?.export_state()))
}

fn vm(b: Bytes) -> SnipeResult<(String, Bytes)> {
    let vm = Vm::restore(b)?;
    Ok((format!("{vm:?}"), vm.checkpoint()))
}

// A datagram has no decoded value to re-encode: a fresh receiving
// driver taking it is its round trip.
fn srudp_datagram(b: Bytes) -> SnipeResult<(String, Bytes)> {
    Srudp::new(9, SrudpConfig::default()).on_packet(T0, ep(1, 5), b.clone())?;
    Ok((format!("SRUDP datagram of kind {}", b[0]), b))
}

fn rstream_datagram(b: Bytes) -> SnipeResult<(String, Bytes)> {
    Rstream::new(RstreamConfig::default(), 9).on_packet(T0, ep(1, 5), b.clone())?;
    Ok((format!("RSTREAM datagram of kind {}", b[0]), b))
}

/// A bare transport whose datagrams the pins below hold.
trait Transport {
    const PROTO: Proto;
    fn drain_into(&mut self, into: &mut Vec<Out>);
}

impl Transport for Srudp {
    const PROTO: Proto = Proto::Srudp;
    fn drain_into(&mut self, into: &mut Vec<Out>) {
        Srudp::drain_into(self, into)
    }
}

impl Transport for Rstream {
    const PROTO: Proto = Proto::Rstream;
    fn drain_into(&mut self, into: &mut Vec<Out>) {
        Rstream::drain_into(self, into)
    }
}

/// The datagrams `end` queued, each opened to the body the envelope
/// holds (what the pins below are).
fn sends<T: Transport>(end: &mut T) -> Vec<Bytes> {
    let mut outs = Vec::new();
    end.drain_into(&mut outs);
    open_sends(outs, T::PROTO)
        .into_iter()
        .filter_map(|o| match o {
            Out::Send { bytes, .. } => Some(bytes),
            _ => None,
        })
        .collect()
}

/// Two SRUDP endpoints mid-transfer, with 4-byte fragments and FEC on.
/// Key 1 sends a 10-byte message (five shares), then "xy" and "z"
/// (plain, one fragment each); key 2 gets only "xy" and share 0, so it
/// holds "xy" behind a partial, and its delayed SACK acknowledges
/// share 0. Returns both snapshots and `[share 0, "z", the SACK]`.
fn srudp_scene() -> (Bytes, Bytes, Vec<Bytes>) {
    let cfg = SrudpConfig { frag_size: 4, frag_strategy: FragStrategy::Fec, ..Default::default() };
    let mut a = Srudp::new(1, cfg.clone());
    let mut b = Srudp::new(2, cfg);
    a.set_peer_endpoint(2, ep(2, 5));
    for m in [&b"abcdefghij"[..], b"xy", b"z"] {
        a.send_message(T0, 2, Bytes::from_static(m)).unwrap();
    }
    let from_a = sends(&mut a);
    b.on_packet(T0, ep(1, 5), from_a[5].clone()).unwrap();
    b.on_packet(T0, ep(1, 5), from_a[0].clone()).unwrap();
    let t = T0 + SimDuration::from_millis(5);
    b.on_timer(t);
    let from_b = sends(&mut b);
    for sack in &from_b {
        a.on_packet(t, ep(2, 5), sack.clone()).unwrap();
    }
    (
        a.export_state(),
        b.export_state(),
        vec![from_a[0].clone(), from_a[6].clone(), from_b[1].clone()],
    )
}

/// One RSTREAM connection's life: SYN, SYNACK, DATA ("hi"), ACK, FIN.
fn rstream_scene() -> Vec<Bytes> {
    let mut r = Rstream::new(RstreamConfig::default(), 1);
    let mut s = Rstream::new(RstreamConfig::default(), 2);
    let id = r.connect(T0, ep(2, 5));
    let syn = sends(&mut r).remove(0);
    s.on_packet(T0, ep(1, 5), syn.clone()).unwrap();
    let synack = sends(&mut s).remove(0);
    r.on_packet(T0, ep(2, 5), synack.clone()).unwrap();
    r.send_message(T0, id, b"hi").unwrap();
    let data = sends(&mut r).remove(0);
    s.on_packet(T0, ep(1, 5), data.clone()).unwrap();
    let ack = sends(&mut s).remove(0);
    r.close(id);
    let fin = sends(&mut r).remove(0);
    vec![syn, synack, data, ack, fin]
}

fn mcast_member() -> McastMember {
    let mut m = McastMember::new();
    for (group, origin, seq) in [(7, 42, 3), (7, 42, 1), (9, 1, 0)] {
        m.accept(group, origin, seq, Bytes::new());
    }
    m.next_seq(7);
    m.next_seq(7);
    m
}

/// A VM stopped mid-call (six steps in, one output emitted) and one
/// trapped on its first instruction.
fn vms() -> (Vm, Vm) {
    use Instr::*;
    let code = vec![PushI(7), Store(0), Call(4), Halt, Load(0), Syscall(1), PushI(1), Ret];
    let quotas = Quotas { fuel: 100, max_stack: 8, max_calls: 4, max_outputs: 4 };
    let mut running =
        Vm::new(&Program { code, locals: 1, required_caps: CAP_EMIT }, CAP_EMIT, quotas);
    running.inputs = vec![3];
    let mut host = snipe::playground::vm::NullHost::default();
    running.run_slice(6, &mut host);
    let mut trapped = Vm::new(&Program { code: vec![Pop], locals: 0, required_caps: 0 }, 0, quotas);
    trapped.run_slice(1, &mut host);
    (running, trapped)
}

fn samples() -> Vec<Pin> {
    let p = every_instr();
    let (srudp_a, srudp_b, srudp) = srudp_scene();
    let rstream = rstream_scene();
    let (running, trapped) = vms();
    vec![
        // ---- RCDS (magic 0xA1) ----
        pin(
            RcMsg::Request { id: 1, op: RcOp::Get("urn:x".into()) },
            "a1010000000000000001010000000575726e3a78",
            &[],
        ),
        pin(
            RcMsg::Request { id: 2, op: RcOp::Put("urn:x".into(), vec![assertion(false)]) },
            concat!(
                "a1010000000000000002020000000575726e3a7800000001000000016b000000",
                "01760000000000000003000000000000000100000000000000090000"
            ),
            &[(20, 1)],
        ),
        pin(
            RcMsg::Request { id: 3, op: RcOp::Delete("urn:x".into(), "k".into()) },
            "a1010000000000000003030000000575726e3a78000000016b",
            &[],
        ),
        pin(
            RcMsg::Request { id: 4, op: RcOp::Find("k".into(), "v".into()) },
            "a101000000000000000404000000016b0000000176",
            &[],
        ),
        pin(
            RcMsg::Response {
                id: 5,
                ok: true,
                assertions: vec![assertion(true)],
                uris: vec!["urn:y".into()],
            },
            concat!(
                "a10200000000000000050100000001000000016b000000017600000000000000",
                "0300000000000000010000000000000009010100000003010203000000010000",
                "000575726e3a79"
            ),
            &[(11, 1), (51, 3), (58, 1)],
        ),
        pin(
            RcMsg::SyncReq { vector: [(1, 5), (9, 2)].into_iter().collect() },
            concat!(
                "a103000000020000000000000001000000000000000500000000000000090000",
                "000000000002"
            ),
            &[(2, 2)],
        ),
        pin(
            RcMsg::SyncPush {
                updates: vec![Update {
                    origin: 1,
                    seq: 0,
                    uri: "urn:x".into(),
                    assertion: assertion(false),
                }],
                more: true,
            },
            concat!(
                "a10400000001000000000000000100000000000000000000000575726e3a7800",
                "0000016b00000001760000000000000003000000000000000100000000000000",
                "09000001"
            ),
            &[(2, 1)],
        ),
        // ---- daemon (magic 0xA2) ----
        pin(
            DaemonMsg::SpawnReq { req_id: 1, spec: spec() },
            concat!(
                "a2010000000000000001000000017700000001613ff800000000000000000001",
                "7800000001000000010002010000000163000000000000002a"
            ),
            &[(33, 1)],
        ),
        pin(
            DaemonMsg::SpawnResp {
                req_id: 1,
                ok: true,
                endpoint: ep(3, 100),
                proc_key: 77,
                error: "e".into(),
            },
            "a202000000000000000101000000030064000000000000004d0000000165",
            &[],
        ),
        pin(DaemonMsg::Kill { port: 100 }, "a2030064", &[]),
        pin(DaemonMsg::Signal { port: 100, signum: 15 }, "a20400640000000f", &[]),
        pin(DaemonMsg::TaskReport { port: 100, state: TaskState::Running }, "a205006401", &[]),
        pin(
            DaemonMsg::TaskEvent { proc_key: 7, state: TaskState::Suspended },
            "a206000000000000000702",
            &[],
        ),
        pin(
            DaemonMsg::TaskEvent { proc_key: 7, state: TaskState::Checkpointed },
            "a206000000000000000703",
            &[],
        ),
        pin(
            DaemonMsg::TaskEvent { proc_key: 7, state: TaskState::Exited },
            "a206000000000000000704",
            &[],
        ),
        pin(
            DaemonMsg::TaskEvent { proc_key: 7, state: TaskState::Crashed },
            "a206000000000000000705",
            &[],
        ),
        pin(DaemonMsg::ElectRouter { group: 5 }, "a2070000000000000005", &[]),
        pin(
            DaemonMsg::ElectResp { group: 5, router: ep(0, 5) },
            "a2080000000000000005000000000005",
            &[],
        ),
        pin(DaemonMsg::Watch { port: 100, watcher: ep(2, 3) }, "a2090064000000020003", &[]),
        pin(DaemonMsg::Detach { port: 100 }, "a20a0064", &[]),
        pin(
            DaemonMsg::DetachResp { port: 100, notify: vec![ep(2, 3), ep(4, 5)] },
            "a20b006400000002000000020003000000040005",
            &[(4, 2)],
        ),
        // ---- resource manager (magic 0xA3) ----
        pin(
            RmMsg::AllocReq {
                req_id: 1,
                spec: SpawnSpec::program("w", Bytes::new()),
                count: 4,
                mode: AllocMode::Active,
            },
            concat!(
                "a301000000000000000100000001770000000000000000000000000000000000",
                "0000000000000000000000000000000401"
            ),
            &[(31, 0)],
        ),
        pin(
            RmMsg::AllocReq { req_id: 2, spec: spec(), count: 1, mode: AllocMode::Passive },
            concat!(
                "a3010000000000000002000000017700000001613ff800000000000000000001",
                "7800000001000000010002010000000163000000000000002a0000000100"
            ),
            &[(33, 1)],
        ),
        pin(
            RmMsg::AllocResp {
                req_id: 1,
                ok: true,
                allocations: vec![Allocation {
                    hostname: "h".into(),
                    daemon: ep(1, 1),
                    task: ep(1, 100),
                    proc_key: 9,
                }],
                error: String::new(),
            },
            concat!(
                "a302000000000000000101000000010000000168000000010001000000010064",
                "000000000000000900000000"
            ),
            &[(11, 1)],
        ),
        pin(
            RmMsg::AuthReq {
                req_id: 2,
                user_cert: b(b"u"),
                host_cert: b(b"h"),
                resource: "w1".into(),
            },
            "a303000000000000000200000001750000000168000000027731",
            &[],
        ),
        pin(
            RmMsg::AuthResp { req_id: 2, ok: false, grant: Bytes::new(), error: "no".into() },
            "a30400000000000000020000000000000000026e6f",
            &[],
        ),
        pin(
            RmMsg::TaskControl { daemon: ep(2, 1), port: 100, signum: 0 },
            "a305000000020001006400000000",
            &[],
        ),
        pin(
            RmMsg::Migrate { task: ep(2, 100), target_host: "w3".into() },
            "a306000000020064000000027733",
            &[],
        ),
        // ---- files (magic 0xA4) ----
        pin(
            FileMsg::OpenSink { req_id: 1, lifn: "l".into() },
            "a4010000000000000001000000016c",
            &[],
        ),
        pin(
            FileMsg::SinkOpened { req_id: 1, sink: ep(1, 200) },
            "a40200000000000000010000000100c8",
            &[],
        ),
        pin(FileMsg::Append { data: b(b"chunk") }, "a403000000056368756e6b", &[]),
        pin(FileMsg::CloseSink, "a404", &[]),
        pin(
            FileMsg::StoreLocal { lifn: "l".into(), content: b(b"c") },
            "a405000000016c0000000163",
            &[],
        ),
        pin(
            FileMsg::OpenSource { req_id: 2, lifn: "l".into(), dest: ep(2, 3) },
            "a4060000000000000002000000016c000000020003",
            &[],
        ),
        pin(
            FileMsg::SourceData { lifn: "l".into(), seq: 0, data: b(b"d"), last: true },
            "a407000000016c00000000000000016401",
            &[],
        ),
        pin(
            FileMsg::ReadReq { req_id: 3, lifn: "l".into() },
            "a4080000000000000003000000016c",
            &[],
        ),
        pin(
            FileMsg::ReadResp { req_id: 3, ok: true, content: b(b"c"), hash: b(&[0; 4]) },
            "a40900000000000000030100000001630000000400000000",
            &[],
        ),
        pin(
            FileMsg::StoreReq { req_id: 4, lifn: "l".into(), content: b(b"c") },
            "a40a0000000000000004000000016c0000000163",
            &[],
        ),
        pin(FileMsg::StoreResp { req_id: 4, ok: true }, "a40b000000000000000401", &[]),
        pin(
            FileMsg::ReplicaPush { lifn: "l".into(), content: b(b"c"), hash: b(&[1; 4]) },
            "a40c000000016c00000001630000000401010101",
            &[],
        ),
        pin(FileMsg::ReplicaAck { lifn: "l".into() }, "a40d000000016c", &[]),
        pin(
            FileMsg::ReadStripe { req_id: 5, lifn: "l".into(), offset: 4096, len: 1024 },
            "a40e0000000000000005000000016c0000100000000400",
            &[],
        ),
        pin(
            FileMsg::StripeData {
                req_id: 5,
                ok: true,
                offset: 4096,
                total_len: 9000,
                data: b(b"s"),
                hash: b(&[2; 4]),
            },
            "a40f000000000000000501000010000000232800000001730000000402020202",
            &[],
        ),
        // ---- PVM (magic 0xB0) ----
        pin(PvmMsg::AddHost { slave: ep(1, 11) }, "b00100000001000b", &[]),
        pin(
            PvmMsg::HostTable { version: 2, slaves: vec![ep(1, 11), ep(2, 11)] },
            "b002000000020000000200000001000b00000002000b",
            &[(6, 2)],
        ),
        pin(PvmMsg::HostTableAck { version: 2, slave: ep(1, 11) }, "b0030000000200000001000b", &[]),
        pin(
            PvmMsg::SpawnReq { req_id: 1, program: "w".into(), args: b(b"a") },
            "b004000000000000000100000001770000000161",
            &[],
        ),
        pin(
            PvmMsg::SlaveSpawn {
                req_id: 1,
                tid: 7,
                program: "w".into(),
                args: Bytes::new(),
                reply_to: ep(1, 11),
            },
            "b00500000000000000010000000700000001770000000000000001000b",
            &[],
        ),
        pin(
            PvmMsg::SpawnResp { req_id: 1, ok: true, tid: 7, endpoint: ep(1, 11) },
            "b0060000000000000001010000000700000001000b",
            &[],
        ),
        pin(PvmMsg::LookupReq { req_id: 2, tid: 7 }, "b007000000000000000200000007", &[]),
        pin(
            PvmMsg::LookupResp { req_id: 2, ok: false, endpoint: ep(1, 11) },
            "b00800000000000000020000000001000b",
            &[],
        ),
        pin(PvmMsg::Register { tid: 7, endpoint: ep(1, 11) }, "b0090000000700000001000b", &[]),
        pin(PvmMsg::Data { from: 7, payload: b(b"x") }, "b00a000000070000000178", &[]),
        pin(
            PvmMsg::RouteData { dest: 8, from: 7, payload: b(b"y") },
            "b00b00000008000000070000000179",
            &[],
        ),
        // ---- playground (magic 0xA5; images and programs carry none) ----
        pin(
            PlaygroundMsg::Done { outputs: vec![42, -1], fuel_used: 99 },
            "a50100000002000000000000002affffffffffffffff0000000000000063",
            &[(2, 2)],
        ),
        pin(PlaygroundMsg::Failed { reason: "trap".into() }, "a5020000000474726170", &[]),
        pin(PlaygroundMsg::Checkpoint { state: b(b"vm") }, "a50300000002766d", &[]),
        Pin {
            value: format!("{p:?}"),
            bytes: p.to_bytes(),
            decode: program,
            hex: concat!(
                "0005000000110000001601fffffffffffffff902030405060708090a0b0c0d0e",
                "0f00031000041100000009120000000a130000000b14151602"
            ),
            counts: &[(6, 22)],
        },
        pin(
            CodeImage {
                name: "job".into(),
                program: every_instr().to_bytes(),
                hash: [0xAB; 32],
                signature: sig(),
            },
            concat!(
                "000000036a6f62000000390005000000110000001601fffffffffffffff90203",
                "0405060708090a0b0c0d0e0f00031000041100000009120000000a130000000b",
                "14151602abababababababababababababababababababababababababababab",
                "abababab00000001050000000107"
            ),
            &[],
        ),
        // ---- console (magic 0xA9) ----
        pin(
            HttpMsg::Get { req_id: 1, path: "/status".into() },
            "a9010000000000000001000000072f737461747573",
            &[],
        ),
        pin(
            HttpMsg::Resp { req_id: 1, status: 200, body: "ok".into() },
            "a902000000000000000100c8000000026f6b",
            &[],
        ),
        // ---- multicast relay (MCAST envelope body; no magic) ----
        pin(
            McastMsg::Data { group: 7, origin: 42, seq: 3, ttl: 2, payload: b(b"m") },
            "010000000000000007000000000000002a000000000000000302000000016d",
            &[],
        ),
        pin(McastMsg::Join { group: 7, member: ep(1, 2) }, "020000000000000007000000010002", &[]),
        pin(McastMsg::Leave { group: 7, member: ep(1, 2) }, "030000000000000007000000010002", &[]),
        pin(McastMsg::Peer { group: 7, router: ep(3, 5) }, "040000000000000007000000030005", &[]),
        // ---- crypto: certificates, handshakes, records ----
        pin(CertClaim { name: "k".into(), value: "v".into() }, "000000016b0000000176", &[]),
        pin(
            Certificate {
                subject: "urn:s".into(),
                subject_key: key(),
                claims: vec![CertClaim { name: "k".into(), value: "v".into() }],
                issuer: "ab".into(),
                signature: sig(),
            },
            concat!(
                "0000000575726e3a7300000002123400000001000000016b0000000176000000",
                "02616200000001050000000107"
            ),
            &[(15, 1)],
        ),
        pin(HandshakeMsg { share: key(), auth: None }, "00000002123400", &[]),
        pin(
            HandshakeMsg { share: key(), auth: Some(sig()) },
            "0000000212340100000001050000000107",
            &[],
        ),
        pin(
            Record { seq: 3, ciphertext: vec![9, 8, 7], tag: [0xCD; 32] },
            concat!(
                "000000000000000300000003090807cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
                "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
            ),
            &[(8, 3)],
        ),
        // ---- transport: migration snapshots and VM checkpoints ----
        accepted(
            srudp_a,
            srudp_snapshot,
            concat!(
                "0000000000000001000000010000000000000002010000000200050000000000",
                "000003000000020000000000000000010900000000000a45e49a110000000501",
                "00000004616263640000000004656667680000000004696a000000000000046d",
                "6e040c0000000004717214410000000000000002000000000100000000017a00",
                "000000000000000000000000000000",
            ),
            &[(8, 1), (35, 2), (59, 5), (117, 1), (135, 0), (139, 0)],
        ),
        accepted(
            srudp_b,
            srudp_snapshot,
            concat!(
                "0000000000000002000000010000000000000001010000000100050000000000",
                "0000000000000000000000000000000000000100000000000000010000000278",
                "79000000010000000000000000010900000000000a45e49a1100000005010000",
                "00046162636400000000",
            ),
            &[(8, 1), (35, 0), (47, 1), (65, 1), (89, 5)],
        ),
        // A fresh stack with all three drivers: SRUDP, RSTREAM, MCAST.
        accepted(
            WireStack::new(5, stack_cfg()).export_state(),
            stack_snapshot,
            concat!(
                "00000003010000000c000000000000000500000000020000000003000000080000",
                "000000000000"
            ),
            &[(0, 3)],
        ),
        accepted(
            mcast_member().export_state(),
            mcast_snapshot,
            concat!(
                "00000002000000000000000700000002000000000000002a0000000000000001",
                "000000000000002a000000000000000300000000000000090000000100000000",
                "0000000100000000000000000000000100000000000000070000000000000002",
            ),
            &[(0, 2), (12, 2), (56, 1), (76, 1)],
        ),
        accepted(
            running.checkpoint(),
            vm,
            concat!(
                "000000080100000000000000071000001300000004150f000016010100000000",
                "0000000114000000070000000100000000000000010000000100000000000000",
                "070000000100000003000000000000005e000000000000006400000000000000",
                "0800000000000000040000000000000004000000010000000100000000000000",
                "03000000000000000000000001000000000000000700",
            ),
            &[(0, 8), (41, 1), (53, 1), (65, 1), (117, 1), (137, 1)],
        ),
        accepted(
            trapped.checkpoint(),
            vm,
            concat!(
                "0000000102000000010000000000000000000000000000000000000063000000",
                "0000000064000000000000000800000000000000040000000000000004000000",
                "00000000000000000000000000000000000302",
            ),
            &[(0, 1), (77, 0)],
        ),
        // ---- transport: SRUDP datagrams (FEC share, DATA, SACK) ----
        accepted(
            srudp[0].clone(),
            srudp_datagram,
            concat!(
                "0300000000000000010000000000000000000000000900000000000a45e49a11",
                "0000000461626364",
            ),
            &[(32, 4)],
        ),
        accepted(
            srudp[1].clone(),
            srudp_datagram,
            "01000000000000000100000000000000020000000000000001000000017a",
            &[(21, 1), (25, 1)],
        ),
        accepted(
            srudp[2].clone(),
            srudp_datagram,
            "02000000000000000200000000000000000000000001e1",
            &[(18, 1)],
        ),
        // ---- transport: RSTREAM datagrams (SYN, SYNACK, DATA, ACK, FIN) ----
        accepted(rstream[0].clone(), rstream_datagram, "016c576fac43fd007d", &[]),
        accepted(rstream[1].clone(), rstream_datagram, "026c576fac43fd007d", &[]),
        accepted(
            rstream[2].clone(),
            rstream_datagram,
            "036c576fac43fd007d000000000000000000000006000000026869",
            &[(17, 6)],
        ),
        accepted(rstream[3].clone(), rstream_datagram, "046c576fac43fd007d0000000000000006", &[]),
        accepted(rstream[4].clone(), rstream_datagram, "056c576fac43fd007d", &[]),
    ]
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

#[test]
fn every_sample_encodes_to_its_pinned_hex() {
    let moved: Vec<String> = samples()
        .iter()
        .filter(|p| hex(&p.bytes) != p.hex)
        .map(|p| format!("{}\n    pinned {}\n    now    {}", p.value, p.hex, hex(&p.bytes)))
        .collect();
    assert!(moved.is_empty(), "{} encodings moved:\n{}", moved.len(), moved.join("\n"));
}

#[test]
fn every_sample_round_trips() {
    for p in samples() {
        let (value, again) =
            (p.decode)(p.bytes.clone()).unwrap_or_else(|e| panic!("{}: {e}", p.value));
        assert_eq!(value, p.value);
        assert_eq!(again, p.bytes, "{}: re-encoding differs", p.value);
    }
}

#[test]
fn every_strict_prefix_is_an_error() {
    for p in samples() {
        for len in 0..p.bytes.len() {
            assert!(
                (p.decode)(p.bytes.slice(..len)).is_err(),
                "{}: {len}-byte prefix decoded",
                p.value
            );
        }
    }
}

#[test]
fn every_single_bit_flip_decodes_without_panicking() {
    let mut flips = 0;
    for p in samples() {
        for i in 0..p.bytes.len() {
            for bit in 0..8 {
                let mut hostile = p.bytes.to_vec();
                hostile[i] ^= 1 << bit;
                let _ = (p.decode)(Bytes::from(hostile));
                flips += 1;
            }
        }
    }
    assert!(flips > 10_000, "corpus shrank to {flips} flips");
}

#[test]
fn a_forged_sequence_count_is_an_error() {
    let mut forged = 0;
    for p in samples() {
        for &(at, count) in p.counts {
            let mut hostile = p.bytes.to_vec();
            let held = u32::from_be_bytes(hostile[at..at + 4].try_into().unwrap());
            assert_eq!(held, count, "{}: no count of {count} at byte {at}", p.value);
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            assert!(
                (p.decode)(Bytes::from(hostile)).is_err(),
                "{}: forged count at byte {at} decoded",
                p.value
            );
            forged += 1;
        }
    }
    assert_eq!(forged, 45, "a sequence count was added or dropped");
}
