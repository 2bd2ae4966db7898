//! Property tests for the GF(2^8) Reed-Solomon share codec.
//!
//! The contracts under test are the erasure code's load-bearing
//! promises: any `b` of the `2b-1` shares reconstruct the message
//! exactly (whichever `b-1` shares the network loses), and a
//! corrupted share can *change* the reconstruction but never slip a
//! wrong message past the checksum — the delivery gate is
//! reconstruct-then-verify, so "wrong bytes delivered" is impossible,
//! only "retry".
//!
//! The packed-lane kernel is additionally held, share for share and
//! byte for byte, to [`reference`]: the byte-at-a-time codec it
//! replaced, kept here with its own bitwise field multiply so the two
//! share no table and no code.

use bytes::Bytes;
use proptest::{prop_assert, prop_assert_eq, proptest};
use snipe_util::rng::Xoshiro256;
use snipe_wire::fec::{
    decode, decode_blocks, encode, encode_blocks, msg_checksum, share_len, Blocks, MAX_B,
};

/// The byte-at-a-time Reed-Solomon codec: one scalar multiply per byte
/// per output row, one O(b) product per Lagrange coefficient. Slow and
/// obviously the textbook construction, which is the point.
mod reference {
    /// Shift-and-reduce multiply in GF(2^8) modulo `x^8+x^4+x^3+x^2+1`.
    fn shift_and_reduce(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            let carry = a & 0x80 != 0;
            a <<= 1;
            if carry {
                a ^= 0x1d;
            }
            b >>= 1;
        }
        p
    }

    /// The full 256 x 256 product table of [`shift_and_reduce`], filled
    /// on first use (debug-build tests make ~10^8 products).
    pub fn gf_mul(a: u8, b: u8) -> u8 {
        static PRODUCTS: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let products = PRODUCTS.get_or_init(|| {
            (0..=255u8).flat_map(|a| (0..=255u8).map(move |b| shift_and_reduce(a, b))).collect()
        });
        products[a as usize * 256 + b as usize]
    }

    /// `a^254 = a^-1` (the multiplicative group has order 255), by
    /// square-and-multiply.
    fn gf_inv(a: u8) -> u8 {
        let (mut inv, mut power) = (1u8, a);
        for bit in 0..8 {
            if 254 >> bit & 1 != 0 {
                inv = gf_mul(inv, power);
            }
            power = gf_mul(power, power);
        }
        inv
    }

    /// `l_i(at) = prod_{m != i} (at - xs[m]) / (xs[i] - xs[m])`.
    fn lagrange_coeff(xs: &[u8], i: usize, at: u8) -> u8 {
        let (mut num, mut den) = (1u8, 1u8);
        for (m, &xm) in xs.iter().enumerate() {
            if m != i {
                num = gf_mul(num, at ^ xm);
                den = gf_mul(den, xs[i] ^ xm);
            }
        }
        gf_mul(num, gf_inv(den))
    }

    /// The value at `at`, per byte position, of the polynomials through
    /// `(xs[i], srcs[i][t])`.
    fn evaluate(xs: &[u8], srcs: &[&[u8]], at: u8) -> Vec<u8> {
        let mut row = vec![0u8; srcs[0].len()];
        for (i, src) in srcs.iter().enumerate() {
            let c = lagrange_coeff(xs, i, at);
            for (d, &v) in row.iter_mut().zip(src.iter()) {
                *d ^= gf_mul(c, v);
            }
        }
        row
    }

    /// All `2b-1` shares of `msg`.
    pub fn encode(msg: &[u8], b: usize) -> Vec<Vec<u8>> {
        let slen = msg.len().div_ceil(b);
        let mut padded = msg.to_vec();
        padded.resize(b * slen, 0);
        let mut shares: Vec<Vec<u8>> = padded.chunks(slen).map(<[u8]>::to_vec).collect();
        let xs: Vec<u8> = (0..b as u8).collect();
        let srcs: Vec<&[u8]> = shares.iter().map(Vec::as_slice).collect();
        let parity: Vec<Vec<u8>> = (b..2 * b - 1).map(|k| evaluate(&xs, &srcs, k as u8)).collect();
        shares.extend(parity);
        shares
    }

    /// The message, from exactly `b` distinct `(index, share)` points.
    pub fn decode(b: usize, msg_len: usize, points: &[(u8, &[u8])]) -> Vec<u8> {
        assert_eq!(points.len(), b);
        let (xs, srcs): (Vec<u8>, Vec<&[u8]>) = points.iter().copied().unzip();
        let mut out: Vec<u8> = (0..b as u8).flat_map(|j| evaluate(&xs, &srcs, j)).collect();
        out.truncate(msg_len);
        out
    }
}

fn seeded_msg(len: usize, seed: u64) -> Vec<u8> {
    let mut msg = vec![0u8; len];
    Xoshiro256::seed_from_u64(seed).fill_bytes(&mut msg);
    msg
}

/// `encode` against the reference, share for share.
fn assert_encode_matches(msg: &[u8], b: usize) -> Vec<Bytes> {
    let shares = encode(msg, b).unwrap();
    let want = reference::encode(msg, b);
    assert_eq!(shares.len(), want.len(), "share count, len {} b {b}", msg.len());
    for (i, (got, want)) in shares.iter().zip(&want).enumerate() {
        assert_eq!(&got[..], &want[..], "share {i}, len {} b {b}", msg.len());
    }
    shares
}

/// `decode` of `supplied` (any order, duplicates and surplus allowed)
/// against the message and against the reference's reconstruction from
/// the same quorum: the first `b` distinct indices in arrival order.
fn assert_decode_matches(msg: &[u8], b: usize, shares: &[Bytes], supplied: &[usize]) {
    let given: Vec<(u32, Bytes)> =
        supplied.iter().map(|&i| (i as u32, shares[i].clone())).collect();
    let got = decode(b, msg.len(), &given).unwrap();
    assert_eq!(got, msg, "len {} b {b} supplied {supplied:?}", msg.len());
    let mut quorum: Vec<usize> = Vec::new();
    for &i in supplied {
        if quorum.len() < b && !quorum.contains(&i) {
            quorum.push(i);
        }
    }
    let points: Vec<(u8, &[u8])> = quorum.iter().map(|&i| (i as u8, &shares[i][..])).collect();
    assert_eq!(got, reference::decode(b, msg.len(), &points), "reference, supplied {supplied:?}");
}

#[test]
fn reference_multiply_is_a_field() {
    // The oracle itself: 2 generates all 255 non-zero elements, and
    // multiplication distributes over XOR.
    let mut seen = [false; 256];
    let mut x = 1u8;
    for _ in 0..255 {
        assert!(!seen[x as usize]);
        seen[x as usize] = true;
        x = reference::gf_mul(x, 2);
    }
    assert_eq!(x, 1);
    for (a, b, c) in [(3u8, 7u8, 250u8), (0x80, 0x1d, 0xff), (91, 0, 17)] {
        assert_eq!(reference::gf_mul(a, b ^ c), reference::gf_mul(a, b) ^ reference::gf_mul(a, c));
    }
}

/// Every supported `b`, once, with a length that leaves the last chunk
/// short. A spread of them also decode from the parity-heaviest quorum
/// there is (all `b-1` parity shares and a single data share); the
/// reference's O(b^3) coefficients make doing that for all 128 slow.
#[test]
fn every_b_matches_the_reference() {
    for b in 1..=MAX_B {
        let len = 2 * b + 1 + b / 2;
        let msg = seeded_msg(len, 0xB00 + b as u64);
        let shares = assert_encode_matches(&msg, b);
        if b <= 12 || b % 16 == 0 || [94, 127].contains(&b) {
            let supplied: Vec<usize> = std::iter::once(b / 3).chain(b..2 * b - 1).collect();
            assert_decode_matches(&msg, b, &shares, &supplied);
        }
    }
}

/// Fewer bytes than chunks: trailing data shares are pure padding.
#[test]
fn messages_shorter_than_b_match_the_reference() {
    for (len, b) in [(1, 2), (1, MAX_B), (3, 5), (10, 7), (93, 94), (127, MAX_B)] {
        let msg = seeded_msg(len, 0x5407 + len as u64);
        let shares = assert_encode_matches(&msg, b);
        assert_eq!(share_len(len, b), shares[0].len());
        let supplied: Vec<usize> = (b - 1..2 * b - 1).collect();
        assert_decode_matches(&msg, b, &shares, &supplied);
    }
}

/// Deterministically pick `keep` distinct share indices out of `total`.
fn choose(total: usize, keep: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..total).collect();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    rng.shuffle(&mut idx);
    idx.truncate(keep);
    idx
}

proptest! {
    /// New kernel vs reference: `encode` share for share, then `decode`
    /// under four erasure shapes — a random quorum, the parity-heaviest
    /// quorum, every share supplied in random order (the first `b` to
    /// arrive are the quorum), and a quorum with duplicates mixed in.
    #[test]
    fn kernel_matches_the_byte_at_a_time_reference(
        len in 1usize..700,
        b in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let msg = seeded_msg(len, seed ^ 0xD1FF);
        let shares = assert_encode_matches(&msg, b);
        let total = 2 * b - 1;
        assert_decode_matches(&msg, b, &shares, &choose(total, b, seed));
        let one_data: Vec<usize> =
            std::iter::once(seed as usize % b).chain(b..total).collect();
        assert_decode_matches(&msg, b, &shares, &one_data);
        let everything = choose(total, total, seed ^ 1);
        assert_decode_matches(&msg, b, &shares, &everything);
        let mut with_dups = Vec::new();
        for i in choose(total, b, seed ^ 2) {
            with_dups.push(i);
            with_dups.push(with_dups[seed as usize % with_dups.len()]);
        }
        assert_decode_matches(&msg, b, &shares, &with_dups);
    }

    /// encode → lose any b-1 shares → decode round-trips, whatever the
    /// message length, block count, or loss pattern.
    #[test]
    fn any_b_of_2b_minus_1_shares_round_trip(
        len in 1usize..6000,
        b in 2usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF3C);
        let msg: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let shares = encode(&msg, b).unwrap();
        prop_assert_eq!(shares.len(), 2 * b - 1);
        for s in &shares {
            prop_assert_eq!(s.len(), share_len(len, b));
        }
        let survivors: Vec<(u32, Bytes)> = choose(2 * b - 1, b, seed)
            .into_iter()
            .map(|i| (i as u32, shares[i].clone()))
            .collect();
        let back = decode(b, len, &survivors).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// A message coded in blocks is, block by block, the single-block
    /// code of that block's bytes (zero-padded to the message's share
    /// length), its shares in message-wide order; and any `b` shares of
    /// every block, in any order, bring the message back.
    #[test]
    fn blocks_are_single_block_codes_and_any_b_of_each_reconstruct(
        len in 1usize..4000,
        n in 1usize..60,
        max_b in 1usize..17,
        seed in 0u64..u64::MAX,
    ) {
        let n = n.min(len);
        let msg = Bytes::from(seeded_msg(len, seed ^ 0xB10C));
        let blocks = Blocks::new(n, max_b).unwrap();
        let shares = encode_blocks(&msg, blocks).unwrap();
        prop_assert_eq!(shares.len(), blocks.shares());
        let slen = share_len(len, n);
        let mut padded = msg.to_vec();
        padded.resize(n * slen, 0);
        let mut first = 0;
        let mut survivors = Vec::new();
        for k in 0..blocks.count() {
            let b = blocks.b(k);
            prop_assert!(b <= max_b && b + 1 >= n / blocks.count());
            let own = encode(&padded[first * slen..(first + b) * slen], b).unwrap();
            for (i, share) in own.iter().enumerate() {
                let g = blocks.share(k, i);
                prop_assert_eq!(blocks.locate(g), (k, i));
                prop_assert_eq!(&shares[g], share, "block {} share {}", k, i);
            }
            for i in choose(2 * b - 1, b, seed ^ k as u64) {
                let g = blocks.share(k, i);
                survivors.push((g as u32, shares[g].clone()));
            }
            first += b;
        }
        prop_assert_eq!(first, n);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        rng.shuffle(&mut survivors);
        prop_assert_eq!(decode_blocks(blocks, len, &survivors).unwrap(), msg.to_vec());
        // One share short in one block is never enough.
        let short = survivors[1..].to_vec();
        prop_assert!(decode_blocks(blocks, len, &short).is_err());
    }

    /// Fewer than b distinct shares must never reconstruct.
    #[test]
    fn below_quorum_always_errors(
        len in 1usize..2000,
        b in 2usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let msg = vec![0xA5u8; len];
        let shares = encode(&msg, b).unwrap();
        let survivors: Vec<(u32, Bytes)> = choose(2 * b - 1, b - 1, seed)
            .into_iter()
            .map(|i| (i as u32, shares[i].clone()))
            .collect();
        prop_assert!(decode(b, len, &survivors).is_err());
    }

    /// Corrupt one surviving share: decode either errors outright or
    /// produces bytes the message checksum rejects. It must never
    /// yield the right checksum with wrong bytes — that is the gate
    /// SRUDP applies before delivering.
    #[test]
    fn corruption_never_beats_the_checksum(
        len in 16usize..3000,
        b in 2usize..16,
        seed in 0u64..u64::MAX,
        victim in 0usize..16,
        flip in 1u8..255,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xBAD);
        let msg: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let sum = msg_checksum(&msg);
        let shares = encode(&msg, b).unwrap();
        let mut survivors: Vec<(u32, Bytes)> = choose(2 * b - 1, b, seed)
            .into_iter()
            .map(|i| (i as u32, shares[i].clone()))
            .collect();
        let v = victim % b;
        let mut bad = survivors[v].1.to_vec();
        let at = seed as usize % bad.len();
        bad[at] ^= flip;
        survivors[v].1 = Bytes::from(bad);
        match decode(b, len, &survivors) {
            Err(_) => {}
            Ok(got) => {
                prop_assert!(
                    msg_checksum(&got) != sum || got == msg,
                    "wrong reconstruction with a matching checksum"
                );
                // A single flipped byte inside the quorum always
                // perturbs the output (the code is MDS: each chunk
                // depends on every quorum share or is copied verbatim).
                prop_assert!(got != msg || flip == 0);
            }
        }
    }

    /// Hostile share structure — mismatched lengths, out-of-range
    /// indices, duplicate indices, absurd msg_len — errors, never
    /// panics, never fabricates a message.
    #[test]
    fn hostile_share_structure_is_rejected(
        b in 2usize..16,
        len in 1usize..512,
        junk_len in 0usize..64,
        idx in 0u32..64,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let junk: Vec<(u32, Bytes)> = (0..b)
            .map(|i| {
                let l = (junk_len + i * (seed as usize % 3)) % 64;
                let bytes: Vec<u8> = (0..l).map(|_| rng.next_u64() as u8).collect();
                (idx.wrapping_add((i as u32).wrapping_mul(seed as u32 | 1)), Bytes::from(bytes))
            })
            .collect();
        // Whatever happens, it must not panic; errors are fine.
        let _ = decode(b, len, &junk);
        let _ = decode(b, len * MAX_B, &junk);
        let _ = decode(MAX_B + 1, len, &junk);
        let blocks = Blocks::new(b.max(1), 9).unwrap();
        let _ = decode_blocks(blocks, len, &junk);
        let _ = decode(0, len, &junk);
    }
}

/// Block layouts no sender builds are errors, never panics.
#[test]
fn hostile_block_layouts_are_rejected() {
    assert!(Blocks::new(0, 9).is_err(), "no data shares");
    assert!(Blocks::new(10, 0).is_err(), "blocks of zero");
    assert!(Blocks::new(10, MAX_B + 1).is_err(), "blocks beyond MAX_B");
    let blocks = Blocks::new(94, 9).unwrap();
    assert_eq!((blocks.count(), blocks.shares()), (11, 177));
    assert_eq!((0..11).map(|k| blocks.b(k)).collect::<Vec<_>>(), [9, 9, 9, 9, 9, 9, 8, 8, 8, 8, 8]);
    let junk = vec![(177u32, Bytes::from_static(b"x")), (u32::MAX, Bytes::from_static(b"y"))];
    assert!(decode_blocks(blocks, 94, &junk).is_err(), "indices beyond the family never count");
}
