//! Property-based tests on the core data structures and invariants,
//! spanning crates: the canonical codec, fragmentation, big integers,
//! the replicated store, SRUDP delivery and the playground VM.

use bytes::Bytes;
use proptest::prelude::*;

use snipe::crypto::bigint::BigUint;
use snipe::playground::vm::{NullHost, Quotas, StepOutcome, Vm};
use snipe::playground::{Instr, Program};
use snipe::rcds::assertion::Assertion;
use snipe::rcds::store::RcStore;
use snipe::rcds::uri::Uri;
use snipe::util::codec::{Decoder, Encoder};
use snipe::util::id::HostId;
use snipe::util::rng::Xoshiro256;
use snipe::util::time::{SimDuration, SimTime};
use snipe::wire::driver::drain_opened;
use snipe::wire::frag::{split, ReassemblySet};
use snipe::wire::srudp::{Srudp, SrudpConfig};
use snipe_netsim::medium::Medium;
use snipe_netsim::topology::{Endpoint, HostCfg, Topology};
use snipe_netsim::world::World;

proptest! {
    #[test]
    fn codec_primitives_round_trip(a in any::<u64>(), b in any::<i64>(), c in any::<u16>(),
                                   s in "\\PC{0,64}", blob in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut e = Encoder::new();
        e.put_u64(a);
        e.put_i64(b);
        e.put_u16(c);
        e.put_str(&s);
        e.put_bytes(&blob);
        let mut d = Decoder::new(e.finish());
        prop_assert_eq!(d.get_u64().unwrap(), a);
        prop_assert_eq!(d.get_i64().unwrap(), b);
        prop_assert_eq!(d.get_u16().unwrap(), c);
        prop_assert_eq!(d.get_str().unwrap(), s);
        prop_assert_eq!(&d.get_bytes().unwrap()[..], &blob[..]);
        d.expect_end().unwrap();
    }

    #[test]
    fn codec_rejects_truncation(blob in proptest::collection::vec(any::<u8>(), 1..128),
                                cut in 0usize..127) {
        let mut e = Encoder::new();
        e.put_bytes(&blob);
        let full = e.finish();
        let cut = cut.min(full.len() - 1);
        let mut d = Decoder::new(full.slice(..cut));
        // Truncated input must error, never panic.
        let _ = d.get_bytes();
    }

    #[test]
    fn fragmentation_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..20_000),
                                 frag in 1usize..4000,
                                 seed in any::<u64>()) {
        let payload = Bytes::from(payload);
        let frags = split(&payload, frag).unwrap();
        // Reassemble in a shuffled order with duplicates sprinkled in.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        rng.shuffle(&mut order);
        let mut set = ReassemblySet::new();
        let mut result = None;
        for &i in &order {
            if let Some(m) = set.insert(SimTime::ZERO, 1, i, frags.len(), frags[i].clone()).unwrap() {
                result = Some(m);
            }
            // Duplicate insert of the same fragment must be harmless
            // while the message is still incomplete.
            if result.is_none() {
                let _ = set.insert(SimTime::ZERO, 1, i, frags.len(), frags[i].clone()).unwrap();
            }
        }
        prop_assert_eq!(result.unwrap(), payload);
    }

    #[test]
    fn bigint_matches_u128(a in any::<u64>(), b in 1u64..) {
        let (a128, b128) = (a as u128, b as u128);
        let ba = BigUint::from_u64(a);
        let bb = BigUint::from_u64(b);
        prop_assert_eq!(ba.add(&bb).to_bytes_be(), BigUint::from_bytes_be(&(a128 + b128).to_be_bytes()).to_bytes_be());
        prop_assert_eq!(ba.mul(&bb).to_bytes_be(), BigUint::from_bytes_be(&(a128 * b128).to_be_bytes()).to_bytes_be());
        let (q, r) = ba.div_rem(&bb);
        prop_assert_eq!(q.to_bytes_be(), BigUint::from_u64(a / b).to_bytes_be());
        prop_assert_eq!(r.to_bytes_be(), BigUint::from_u64(a % b).to_bytes_be());
    }

    #[test]
    fn bigint_byte_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&v.to_bytes_be());
        prop_assert_eq!(v, back);
    }

    #[test]
    fn bigint_modexp_identity(a in 2u64.., e in 0u64..64, m in 2u64..) {
        // a^e mod m computed by repeated mod-multiplication.
        let bm = BigUint::from_u64(m);
        let ba = BigUint::from_u64(a);
        let be = BigUint::from_u64(e);
        let fast = ba.mod_exp(&be, &bm);
        let mut slow = BigUint::one().rem(&bm);
        for _ in 0..e {
            slow = slow.mod_mul(&ba, &bm);
        }
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn rcstore_replicas_converge(ops in proptest::collection::vec(
        (0u8..3, 0u64..8, "[a-z]{1,6}"), 1..40)) {
        // Apply a random op sequence, alternating accepting replica,
        // then fully sync both ways: stores must agree.
        let mut a = RcStore::new(1);
        let mut b = RcStore::new(2);
        for (i, (kind, key, val)) in ops.iter().enumerate() {
            let uri = Uri::process(*key);
            let store = if i % 2 == 0 { &mut a } else { &mut b };
            match kind {
                0 | 1 => {
                    store.put(&uri, Assertion::new("attr", val.clone()), i as u64);
                }
                _ => store.delete(&uri, "attr", i as u64),
            }
        }
        for _ in 0..3 {
            for u in a.updates_since(b.version_vector(), 1000) {
                b.apply(u.clone());
            }
            for u in b.updates_since(a.version_vector(), 1000) {
                a.apply(u.clone());
            }
        }
        prop_assert_eq!(a.log_len(), b.log_len());
        for key in 0..8u64 {
            let uri = Uri::process(key);
            let va: Vec<_> = a.get(&uri).into_iter().map(|x| (x.name, x.value)).collect();
            let vb: Vec<_> = b.get(&uri).into_iter().map(|x| (x.name, x.value)).collect();
            prop_assert_eq!(va, vb);
        }
    }

    #[test]
    fn srudp_delivers_everything_fifo(sizes in proptest::collection::vec(0usize..10_000, 1..10),
                                      drop_mod in 2usize..9,
                                      seed in any::<u64>()) {
        let cfg = SrudpConfig { rto_initial: SimDuration::from_millis(10), ..Default::default() };
        let mut a = Srudp::new(1, cfg.clone());
        let mut b = Srudp::new(2, cfg);
        let ep_a = Endpoint::new(HostId(0), 5);
        let ep_b = Endpoint::new(HostId(1), 5);
        a.set_peer_endpoint(2, ep_b);
        for (i, &s) in sizes.iter().enumerate() {
            a.send_message(SimTime::ZERO, 2, Bytes::from(vec![i as u8; s])).unwrap();
        }
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut got = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..5000 {
            let mut moved = false;
            for o in drain_opened(&mut a) {
                if let snipe::wire::Out::Send { bytes, .. } = o {
                    moved = true;
                    if rng.gen_range(drop_mod as u64) != 0 {
                        b.on_packet(now, ep_a, bytes).unwrap();
                    }
                }
            }
            for o in drain_opened(&mut b) {
                match o {
                    snipe::wire::Out::Send { bytes, .. } => {
                        moved = true;
                        if rng.gen_range(drop_mod as u64) != 0 {
                            a.on_packet(now, ep_b, bytes).unwrap();
                        }
                    }
                    snipe::wire::Out::Deliver { msg, .. } => got.push(msg),
                    _ => {}
                }
            }
            if got.len() == sizes.len() {
                break;
            }
            if !moved {
                now += SimDuration::from_millis(15);
                a.on_timer(now);
                b.on_timer(now);
            }
        }
        prop_assert_eq!(got.len(), sizes.len(), "all messages delivered");
        for (i, m) in got.iter().enumerate() {
            prop_assert_eq!(m.len(), sizes[i], "FIFO order");
            if !m.is_empty() {
                prop_assert_eq!(m[0], i as u8);
            }
        }
    }

    #[test]
    fn route_cache_matches_fresh_computation(
        ops in proptest::collection::vec((0u8..6, 0usize..5, 0usize..3, any::<bool>()), 1..40),
        seed in any::<u64>()) {
        // Random fault script over a dual-homed topology: after every
        // mutation, every cached route answer must equal a fresh
        // (uncached) path computation — including negative answers.
        let mut topo = Topology::new();
        let nets = [
            topo.add_network("n0", Medium::ethernet100(), true),
            topo.add_network("n1", Medium::ethernet100(), true),
            topo.add_network("n2", Medium::atm155(), false),
        ];
        let mut hosts = Vec::new();
        for i in 0..5usize {
            let h = topo.add_host(HostCfg::named(format!("h{i}")));
            topo.attach(h, nets[i % 3]);
            if i % 2 == 0 {
                topo.attach(h, nets[(i + 1) % 3]);
            }
            hosts.push(h);
        }
        let mut w = World::new(topo, seed);
        for (kind, hi, ni, flag) in ops {
            let (h, n) = (hosts[hi], nets[ni]);
            match kind {
                0 => if flag { w.host_up(h) } else { w.host_down(h) },
                1 => w.set_net_up(n, flag),
                2 => {
                    let _ = w.set_iface_up(h, n, flag);
                }
                3 => w.set_net_loss(n, flag.then_some(0.5)),
                4 => w.set_partition(n, u32::from(flag)),
                _ => {} // query-only step: cache keeps serving old epoch
            }
            for &a in &hosts {
                for &b in &hosts {
                    prop_assert_eq!(w.route(a, b, None), w.route_uncached(a, b, None));
                    prop_assert_eq!(w.route(a, b, Some(n)), w.route_uncached(a, b, Some(n)));
                }
            }
        }
    }

    #[test]
    fn vm_checkpoint_transparent(n in 1i64..500, cut in 1u64..2000) {
        // Program: count down from n, emitting nothing; halting state
        // must match whether or not we checkpoint mid-flight.
        let program = Program {
            code: vec![
                Instr::PushI(n),
                Instr::Store(0),
                Instr::Load(0),
                Instr::Jz(9),
                Instr::Load(0),
                Instr::PushI(1),
                Instr::Sub,
                Instr::Store(0),
                Instr::Jmp(2),
                Instr::Halt,
            ],
            locals: 1,
            required_caps: 0,
        };
        program.verify_static().unwrap();
        let mut host = NullHost::default();
        let mut reference = Vm::new(&program, 0, Quotas::default());
        let out_ref = reference.run_slice(1_000_000, &mut host);
        prop_assert_eq!(out_ref, StepOutcome::Halted);

        let mut vm = Vm::new(&program, 0, Quotas::default());
        let mid = vm.run_slice(cut, &mut host);
        let mut resumed = Vm::restore(vm.checkpoint()).unwrap();
        if mid == StepOutcome::Running {
            let out = resumed.run_slice(1_000_000, &mut host);
            prop_assert_eq!(out, StepOutcome::Halted);
        }
        prop_assert_eq!(resumed.fuel_left() > 0, true);
        prop_assert_eq!(reference.fuel_left() > 0, true);
    }
}
