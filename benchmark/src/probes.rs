//! Direct probes: per-layer numbers taken by calling a crate's public
//! functions in isolation, outside any workload. Each call is a span,
//! so the probe trace shows them like any other layer call; every
//! result is checked before its time is believed.

use std::time::Instant;

use bytes::Bytes;
use snipe_crypto::chacha20::chacha20_xor;
use snipe_crypto::sha256::sha256;
use snipe_crypto::sign::KeyPair;
use snipe_netsim::topology::Endpoint;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::proto::{RcMsg, RcOp};
use snipe_rcds::shard::ShardMap;
use snipe_rcds::store::RcStore;
use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_wire::fec;
use snipe_wire::frag::{self, Reassembly};

use crate::stats::derive;
use crate::trace::{span, Sp};
use crate::workloads::names::{name_uri, GROUPS, NAMES, REPLICAS};

const MSG_LEN: usize = 128 * 1024;
const FRAG: usize = 1400;
/// 128 KiB in 1400 B fragments: the `b` `wire-bulk` codes with.
const B: usize = MSG_LEN.div_ceil(FRAG);

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Run every probe; `(metric name, value)` pairs. `span_ns` is what
/// one span costs the thread that records it (0 when tracing is off);
/// it is taken back out of every timing.
pub fn run(seed: u64, span_ns: f64) -> Vec<(String, f64)> {
    // Time `n` runs of `f`, each in a `name` span; total seconds.
    let timed = |name: Sp, n: usize, f: &mut dyn FnMut(usize)| -> f64 {
        let t0 = Instant::now();
        for i in 0..n {
            let _g = span(name);
            f(i);
        }
        (t0.elapsed().as_secs_f64() - n as f64 * span_ns / 1e9).max(1e-9)
    };
    let mut out = Vec::new();
    let mut rng = Xoshiro256::seed_from_u64(derive(seed, 0x9_0be5));
    let mut msg = vec![0u8; MSG_LEN];
    rng.fill_bytes(&mut msg);

    // --- wire: FEC and fragmentation, 128 KiB, b = 94 --------------------
    let n = 6;
    let secs = timed(Sp::FecEncode, n, &mut |_| {
        std::hint::black_box(fec::encode(&msg, B).expect("b within MAX_B"));
    });
    out.push(("wire.fec.encode_mb_s".into(), mb_per_s(n * MSG_LEN, secs)));
    let shares = fec::encode(&msg, B).expect("b within MAX_B");
    // Withhold 5 % of the shares, all of them data shares, so the
    // decoder has to rebuild them from parity.
    let withheld = (2 * B - 1) / 20;
    let quorum: Vec<(u32, Bytes)> = shares
        .iter()
        .enumerate()
        .skip(withheld)
        .take(B)
        .map(|(i, s)| (i as u32, s.clone()))
        .collect();
    let secs = timed(Sp::FecDecode, n, &mut |_| {
        let got = fec::decode(B, MSG_LEN, &quorum).expect("quorum decodes");
        assert!(got == msg, "FEC decode returned different bytes");
    });
    out.push(("wire.fec.decode_mb_s".into(), mb_per_s(n * MSG_LEN, secs)));

    let payload = Bytes::from(msg.clone());
    let n = 2000;
    let secs = timed(Sp::FragSplit, n, &mut |_| {
        std::hint::black_box(frag::split(&payload, FRAG).expect("non-zero size"));
    });
    out.push(("wire.frag.split_mb_s".into(), mb_per_s(n * MSG_LEN, secs)));
    let frags = frag::split(&payload, FRAG).expect("non-zero size");
    assert_eq!(frags.len(), B);
    let n = 300;
    let secs = timed(Sp::FragReassemble, n, &mut |_| {
        let mut r = Reassembly::new(frags.len());
        for (i, f) in frags.iter().enumerate() {
            r.insert(i, f.clone()).expect("index in range");
        }
        let whole = r.assemble();
        assert!(whole.len() == MSG_LEN && whole[..64] == msg[..64]);
    });
    out.push(("wire.frag.reassemble_mb_s".into(), mb_per_s(n * MSG_LEN, secs)));

    // --- util: the codec on an RC request + response ---------------------
    let uri = name_uri(12_345);
    let req = RcMsg::Request { id: 77, op: RcOp::Get(uri.as_str().to_string()) };
    let resp = RcMsg::Response {
        id: 77,
        ok: true,
        assertions: vec![Assertion::new("v", "12345")],
        uris: vec![],
    };
    let n = 100_000;
    let secs = timed(Sp::CodecEncode, n, &mut |_| {
        std::hint::black_box((req.encode_to_bytes(), resp.encode_to_bytes()));
    });
    out.push(("util.codec.encode_ns_per_msg".into(), secs * 1e9 / n as f64));
    let (req_b, resp_b) = (req.encode_to_bytes(), resp.encode_to_bytes());
    let secs = timed(Sp::CodecDecode, n, &mut |_| {
        let a = RcMsg::decode_from_bytes(req_b.clone()).expect("own encoding decodes");
        let b = RcMsg::decode_from_bytes(resp_b.clone()).expect("own encoding decodes");
        std::hint::black_box((a, b));
    });
    out.push(("util.codec.decode_ns_per_msg".into(), secs * 1e9 / n as f64));
    assert_eq!(RcMsg::decode_from_bytes(resp_b.clone()).expect("decodes"), resp);

    // --- rcds: store and shard map at the `names` catalog size ------------
    let uris: Vec<_> = (0..NAMES).map(name_uri).collect();
    let mut store = RcStore::new(1);
    let secs = timed(Sp::StorePut, NAMES, &mut |i| {
        std::hint::black_box(store.put(&uris[i], Assertion::new("v", "0"), 0));
    });
    out.push(("rcds.store.put.ns_per_call".into(), secs * 1e9 / NAMES as f64));
    let n = 100_000;
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(NAMES as u64) as usize).collect();
    let secs = timed(Sp::StoreGet, n, &mut |i| {
        let got = store.get(&uris[picks[i]]);
        assert!(got.len() == 1 && got[0].value == "0");
    });
    out.push(("rcds.store.get.ns_per_call".into(), secs * 1e9 / n as f64));
    drop(store);
    let map = ShardMap::new(
        (0..GROUPS)
            .map(|g| {
                (0..REPLICAS).map(|r| Endpoint::new(HostId((g * REPLICAS + r) as u32), 2)).collect()
            })
            .collect(),
    );
    let mut sizes = [0usize; GROUPS];
    let secs = timed(Sp::ShardOf, NAMES, &mut |i| sizes[map.shard_of(uris[i].as_str())] += 1);
    out.push(("rcds.shard.shard_of.ns_per_call".into(), secs * 1e9 / NAMES as f64));
    assert_eq!(sizes.iter().sum::<usize>(), NAMES);

    // --- crypto ------------------------------------------------------------
    let mut buf = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut buf);
    let n = 8;
    let secs = timed(Sp::Sha256, n, &mut |_| {
        std::hint::black_box(sha256(&buf));
    });
    out.push(("crypto.sha256.mb_s".into(), mb_per_s(n * buf.len(), secs)));
    let (key, nonce) = ([7u8; 32], [9u8; 12]);
    let before = sha256(&buf);
    let secs = timed(Sp::Chacha20, n, &mut |_| chacha20_xor(&key, &nonce, 1, &mut buf));
    out.push(("crypto.chacha20.mb_s".into(), mb_per_s(n * buf.len(), secs)));
    // An even number of XORs with one keystream restores the input.
    assert!(sha256(&buf) == before, "chacha20 is not an involution");
    let kp = KeyPair::generate_default(&mut rng);
    let n = 12;
    let mut sigs = Vec::new();
    let secs = timed(Sp::Sign, n, &mut |i| sigs.push(kp.sign(&mut rng, &buf[i * 64..i * 64 + 64])));
    out.push(("crypto.sign.ops_s".into(), n as f64 / secs));
    let secs = timed(Sp::Verify, n, &mut |i| {
        assert!(kp.public.verify(&buf[i * 64..i * 64 + 64], &sigs[i]), "own signature rejected");
    });
    out.push(("crypto.verify.ops_s".into(), n as f64 / secs));
    out
}
