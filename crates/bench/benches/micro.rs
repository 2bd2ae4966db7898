//! Criterion microbenchmarks for the hot kernels under the experiment
//! harness: the wire codec, SHA-256, Schnorr signatures, the SRUDP
//! state machine and RC store merging. `cargo bench` runs these;
//! `cargo run -p snipe-bench --release --bin harness` regenerates the
//! paper's figures/tables.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use snipe_crypto::sha256::sha256;
use snipe_crypto::sign::KeyPair;
use snipe_netsim::topology::Endpoint;
use snipe_rcds::assertion::Assertion;
use snipe_rcds::store::RcStore;
use snipe_rcds::uri::Uri;
use snipe_util::codec::{Decoder, Encoder};
use snipe_util::id::HostId;
use snipe_util::rng::Xoshiro256;
use snipe_util::time::{SimDuration, SimTime};
use snipe_wire::srudp::{Srudp, SrudpConfig};

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let payload = vec![0xABu8; 1400];
    g.throughput(Throughput::Bytes(1400));
    g.bench_function("encode_1400B", |b| {
        b.iter(|| {
            let mut e = Encoder::with_capacity(1500);
            e.put_u64(1);
            e.put_u32(2);
            e.put_bytes(&payload);
            e.finish()
        })
    });
    let encoded = {
        let mut e = Encoder::new();
        e.put_u64(1);
        e.put_u32(2);
        e.put_bytes(&payload);
        e.finish()
    };
    g.bench_function("decode_1400B", |b| {
        b.iter(|| {
            let mut d = Decoder::new(encoded.clone());
            let _ = d.get_u64().unwrap();
            let _ = d.get_u32().unwrap();
            d.get_bytes().unwrap()
        })
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("sha256_4k", |b| b.iter(|| sha256(&data)));
    g.finish();

    let mut g = c.benchmark_group("schnorr");
    let mut rng = Xoshiro256::seed_from_u64(1);
    let kp = KeyPair::generate_default(&mut rng);
    g.bench_function("sign", |b| b.iter(|| kp.sign(&mut rng, b"benchmark message")));
    let sig = kp.sign(&mut rng, b"benchmark message");
    g.bench_function("verify", |b| b.iter(|| kp.public.verify(b"benchmark message", &sig)));
    g.finish();
}

fn bench_srudp(c: &mut Criterion) {
    let mut g = c.benchmark_group("srudp");
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("transfer_64k_loopback", |b| {
        b.iter_batched(
            || {
                let mut a = Srudp::new(1, SrudpConfig::default());
                let b_ = Srudp::new(2, SrudpConfig::default());
                a.set_peer_endpoint(2, Endpoint::new(HostId(1), 5));
                (a, b_)
            },
            |(mut a, mut b_)| {
                a.send_message(SimTime::ZERO, 2, Bytes::from(vec![0u8; 64 * 1024])).unwrap();
                let mut now = SimTime::ZERO;
                let mut delivered = false;
                for _ in 0..200 {
                    let mut moved = false;
                    for o in a.drain() {
                        if let snipe_wire::Out::Send { bytes, .. } = o {
                            moved = true;
                            b_.on_packet(now, Endpoint::new(HostId(0), 5), bytes).unwrap();
                        }
                    }
                    for o in b_.drain() {
                        match o {
                            snipe_wire::Out::Send { bytes, .. } => {
                                moved = true;
                                a.on_packet(now, Endpoint::new(HostId(1), 5), bytes).unwrap();
                            }
                            snipe_wire::Out::Deliver { .. } => delivered = true,
                            _ => {}
                        }
                    }
                    if delivered {
                        break;
                    }
                    if !moved {
                        now += SimDuration::from_millis(10);
                        a.on_timer(now);
                    }
                }
                assert!(delivered);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_rcstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("rcds");
    g.bench_function("merge_1000_updates", |b| {
        b.iter_batched(
            || {
                let mut a = RcStore::new(1);
                for i in 0..1000u64 {
                    a.put(&Uri::process(i), Assertion::new("k", "v"), 0);
                }
                (a, RcStore::new(2))
            },
            |(a, mut b_)| {
                loop {
                    let ups = a.updates_since(b_.version_vector(), 256);
                    if ups.is_empty() {
                        break;
                    }
                    for u in ups {
                        b_.apply(u.clone());
                    }
                }
                b_
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_fig1_point(c: &mut Criterion) {
    // Wall-clock cost of regenerating one Fig. 1 point (simulation
    // efficiency, not protocol speed).
    let mut g = c.benchmark_group("harness");
    g.sample_size(10);
    g.bench_function("fig1_eth100_srudp_64k", |b| {
        b.iter(|| {
            snipe_bench::fig1::measure(
                snipe_netsim::medium::Medium::ethernet100(),
                snipe_bench::fig1::Protocol::Srudp,
                65536,
            )
            .expect("completes")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_crypto, bench_srudp, bench_rcstore, bench_fig1_point);
criterion_main!(benches);
