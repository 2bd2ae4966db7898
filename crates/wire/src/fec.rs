//! Erasure-coded fragmentation: systematic Reed-Solomon over GF(2^8).
//!
//! Plain fragmentation makes a message's delivery probability collapse
//! as `(1-p)^n` under per-packet loss `p`: every fragment must survive.
//! Share coding inverts the shape. A message is split into `b` data
//! chunks and extended to `2b-1` equal-length shares such that *any*
//! `b` of them reconstruct the original — the sender can lose any
//! `b-1` shares (about half) and the receiver still assembles the
//! message on the first flight, with no retransmission round-trips.
//! Combined with spraying shares across distinct routes
//! ([`crate::path::PathSelector::select_k_distinct`]), a gray link
//! costs shares, not messages.
//!
//! The code is a classic systematic Reed-Solomon construction: for each
//! byte position `t`, the `b` data bytes define the unique polynomial
//! `p_t` of degree `< b` with `p_t(j) = chunk_j[t]` for `j in 0..b`;
//! parity share `k` (for `k in b..2b-1`) carries `p_t(k)`. Decoding
//! from any `b` received shares is Lagrange interpolation back to the
//! data points. All arithmetic is over GF(2^8) with the primitive
//! polynomial `x^8+x^4+x^3+x^2+1` (0x11d) and generator 2, via
//! compile-time log/exp tables — no runtime initialisation, no
//! dependencies, same spirit as the in-repo checksum primitives.
//!
//! # The kernel
//!
//! Encoding and decoding are the same computation: every output row
//! (a parity share, or a lost data chunk) is a fixed GF(2^8)-linear
//! combination of `b` source shares, applied at each byte position.
//! Both go through one routine, `interpolate`:
//!
//! * **Coefficients once, in O(b²).** All Lagrange rows come from one
//!   set of barycentric weights `d_i = Π_{m≠i}(x_i - x_m)`: the row for
//!   evaluation point `a` is `l_i(a) = L(a) / (d_i · (a - x_i))` with
//!   `L(a) = Π_m (a - x_m)`, O(b) per row instead of O(b) per
//!   coefficient.
//! * **Eight rows per table load.** Multiplication by a constant is
//!   XOR-linear in the other operand, so for one source share and a
//!   group of eight output rows a 256-entry table of `u64`s — lane `r`
//!   of entry `v` holding `c_r · v` — is built from its eight
//!   power-of-two entries (themselves eight SWAR doublings of the
//!   packed coefficients) with one XOR per entry. The byte loop is then
//!   one table load and one 64-bit XOR into an accumulator per source
//!   byte, serving eight rows at once, with no per-byte branch or
//!   log/exp lookup; the accumulator is unpacked into the eight rows
//!   after the last source.
//!
//! This is plain safe Rust: no SIMD intrinsics, no runtime CPU
//! detection. A `pshufb` nibble-table kernel would be faster still,
//! but it would be a second, host-dependent code path to keep
//! byte-identical with this one; at 94 shares the packed table already
//! codes several times faster than the FEC transport around it moves
//! bytes. The byte-at-a-time formulation survives as the reference
//! the differential tests in `tests/fec_props.rs` compare against.
//!
//! Reconstruction is integrity-checked end to end: the share header
//! (owned by the driver: SRUDP's `Fec` datagram header) carries a
//! 32-bit [`msg_checksum`] over the *original message*, verified after
//! interpolation. A decode that passes share-length validation but
//! yields wrong bytes (corrupted or forged shares that slipped past
//! the envelope checksum) is detected there and never delivered.

use bytes::Bytes;
use snipe_util::error::{SnipeError, SnipeResult};

/// Largest supported data-share count. `2b-1` evaluation points must
/// be distinct field elements, and keeping `b` in a `u8` keeps the
/// share header small; 128 data shares of one MTU each already covers
/// messages far beyond SNIPE's RPC and file-chunk sizes.
pub const MAX_B: usize = 128;

/// How a driver fragments outgoing messages that exceed one MTU.
///
/// Selectable per-driver (each driver's config carries one), so
/// SRUDP / RSTREAM / mcast can opt in independently without any
/// change to `WireStack::send` callers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FragStrategy {
    /// Split into `n` fragments; all `n` must arrive (delivery decays
    /// as `(1-p)^n` per flight, recovered by retransmission).
    #[default]
    Plain,
    /// Encode into `2b-1` Reed-Solomon shares; any `b` reconstruct.
    /// Falls back to [`FragStrategy::Plain`] for messages that fit in
    /// one fragment (no benefit) or need more than [`MAX_B`] chunks.
    Fec,
}

impl FragStrategy {
    /// Stable lowercase name (config echo, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            FragStrategy::Plain => "plain",
            FragStrategy::Fec => "fec",
        }
    }
}

// ---------------------------------------------------------------------
// GF(2^8) arithmetic
// ---------------------------------------------------------------------

const GF_POLY: u32 = 0x11d;

/// `exp` is doubled (510 entries) so `mul` can index `log a + log b`
/// without a modular reduction.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u32 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 510 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const GF_EXP: [u8; 512] = TABLES.0;
const GF_LOG: [u8; 256] = TABLES.1;

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// `a / b`. `b` must be non-zero; every divisor in this module is a
/// product of XORs of *distinct* evaluation points, which cannot be 0.
#[inline]
fn gf_div(a: u8, b: u8) -> u8 {
    debug_assert_ne!(b, 0, "division by zero in GF(2^8)");
    if a == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + 255 - GF_LOG[b as usize] as usize]
    }
}

/// Lagrange basis rows for the point set `xs`, one per evaluation
/// point in `targets`, row-major: entry `[r * xs.len() + i]` is
/// `l_i(targets[r]) = prod_{m != i} (a - xs[m]) / (xs[i] - xs[m])`
/// (subtraction is XOR). `xs` must be distinct and disjoint from
/// `targets` — both callers interpolate *away* from the points they
/// hold — so no factor below is zero.
fn lagrange_rows(xs: &[u8], targets: &[u8]) -> Vec<u8> {
    // Barycentric denominators d_i = prod_{m != i} (x_i - x_m).
    let dens: Vec<u8> = xs
        .iter()
        .map(|&xi| xs.iter().filter(|&&xm| xm != xi).fold(1u8, |d, &xm| gf_mul(d, xi ^ xm)))
        .collect();
    let mut rows = Vec::with_capacity(targets.len() * xs.len());
    for &a in targets {
        let full = xs.iter().fold(1u8, |l, &xm| gf_mul(l, a ^ xm));
        rows.extend(xs.iter().zip(&dens).map(|(&xi, &d)| gf_div(full, gf_mul(d, a ^ xi))));
    }
    rows
}

/// Output rows one table lookup serves: eight byte lanes of a `u64`.
const LANES: usize = 8;

/// Multiply each of eight packed field elements by `x` (i.e. by 2).
#[inline]
fn double_lanes(v: u64) -> u64 {
    let carry = (v >> 7) & 0x0101_0101_0101_0101;
    ((v & 0x7f7f_7f7f_7f7f_7f7f) << 1) ^ (carry * (GF_POLY as u64 & 0xff))
}

/// The one GF(2^8) multiply-accumulate kernel. For every byte position
/// `t`, take the polynomial through the points `(xs[i], srcs[i][t])`
/// and write its value at `targets[r]` to `dst[r][t]`. All of `srcs`
/// and `dst` have one length (the share length).
fn interpolate(xs: &[u8], srcs: &[&[u8]], targets: &[u8], dst: &mut [&mut [u8]]) {
    let n = xs.len();
    let coeffs = lagrange_rows(xs, targets);
    let mut acc = vec![0u64; dst.first().map_or(0, |row| row.len())];
    let mut table = [0u64; 256];
    for (group, rows) in dst.chunks_mut(LANES).enumerate() {
        acc.fill(0);
        for (j, src) in srcs.iter().enumerate() {
            // Lane r of `table[v]` is `c_r * v` for this source's
            // coefficient in row r: power-of-two entries by doubling,
            // the rest by XOR-linearity in `v`.
            let mut basis = (0..rows.len())
                .fold(0u64, |p, r| p | (coeffs[(group * LANES + r) * n + j] as u64) << (8 * r));
            for bit in 0..8 {
                let half = 1usize << bit;
                let (lo, hi) = table.split_at_mut(half);
                for (h, l) in hi[..half].iter_mut().zip(lo.iter()) {
                    *h = *l ^ basis;
                }
                basis = double_lanes(basis);
            }
            for (a, &v) in acc.iter_mut().zip(src.iter()) {
                *a ^= table[v as usize];
            }
        }
        for (r, row) in rows.iter_mut().enumerate() {
            for (d, a) in row.iter_mut().zip(&acc) {
                *d = (a >> (8 * r)) as u8;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// The end-to-end integrity check carried in every share header and
/// verified after reconstruction: the envelope checksum of
/// [`crate::frame`] (see its module docs) over the whole message, under
/// a tag no protocol uses.
pub fn msg_checksum(msg: &[u8]) -> u32 {
    crate::frame::checksum(0, msg)
}

/// Share length for a message of `msg_len` bytes split into `b` chunks.
pub fn share_len(msg_len: usize, b: usize) -> usize {
    msg_len.div_ceil(b)
}

/// Encode `msg` into `2b-1` equal-length shares. Shares `0..b` are the
/// message bytes themselves (the last chunk zero-padded) — the
/// systematic property: under zero loss the receiver concatenates and
/// never touches field arithmetic. Shares `b..2b-1` are parity.
///
/// Errors if `b` is out of `1..=MAX_B` or the message is empty.
///
/// Copies `msg` once; a caller that already holds the message as
/// [`Bytes`] uses [`encode_bytes`] and copies nothing.
pub fn encode(msg: &[u8], b: usize) -> SnipeResult<Vec<Bytes>> {
    encode_bytes(&Bytes::copy_from_slice(msg), b)
}

/// [`encode`] without the copy: every whole data chunk is a `slice()`
/// of `msg`'s buffer (as [`crate::frag::split`] does for plain
/// fragments); only a chunk that needs zero padding — the last one,
/// unless `b` exceeds what the length can fill — is allocated. The
/// parity shares are slices of one shared buffer.
pub fn encode_bytes(msg: &Bytes, b: usize) -> SnipeResult<Vec<Bytes>> {
    if b == 0 || b > MAX_B {
        return Err(SnipeError::Protocol(format!("fec encode: b {b} out of 1..={MAX_B}")));
    }
    if msg.is_empty() {
        return Err(SnipeError::Protocol("fec encode: empty message".to_string()));
    }
    let slen = share_len(msg.len(), b);
    let mut shares: Vec<Bytes> = Vec::with_capacity(2 * b - 1);
    for j in 0..b {
        let lo = (j * slen).min(msg.len());
        let hi = (lo + slen).min(msg.len());
        shares.push(if hi - lo == slen {
            msg.slice(lo..hi)
        } else {
            let mut padded = vec![0u8; slen];
            padded[..hi - lo].copy_from_slice(&msg[lo..hi]);
            Bytes::from(padded)
        });
    }
    if b > 1 {
        // Parity share k carries p_t(k), the data points sitting at
        // x = 0..b.
        let xs: Vec<u8> = (0..b as u8).collect();
        let targets: Vec<u8> = (b as u8..(2 * b - 1) as u8).collect();
        let srcs: Vec<&[u8]> = shares.iter().map(|s| &s[..]).collect();
        let mut parity = vec![0u8; (b - 1) * slen];
        interpolate(&xs, &srcs, &targets, &mut parity.chunks_mut(slen).collect::<Vec<_>>());
        let parity = Bytes::from(parity);
        shares.extend((0..b - 1).map(|r| parity.slice(r * slen..(r + 1) * slen)));
    }
    Ok(shares)
}

/// Reconstruct a `msg_len`-byte message from any `b` distinct shares
/// of an [`encode`]`(msg, b)` family. `shares` pairs each share index
/// (`0..2b-1`) with its bytes; duplicates beyond the first `b`
/// distinct indices are ignored.
///
/// Every structural property is validated — index range, share count,
/// uniform share length consistent with `msg_len` — and violations are
/// `Protocol` errors, never panics: hostile shares are expected input.
/// Content corruption that passes these checks is caught by the
/// caller's [`msg_checksum`] comparison.
pub fn decode(b: usize, msg_len: usize, shares: &[(u32, Bytes)]) -> SnipeResult<Vec<u8>> {
    if b == 0 || b > MAX_B {
        return Err(SnipeError::Protocol(format!("fec decode: b {b} out of 1..={MAX_B}")));
    }
    if msg_len == 0 {
        return Err(SnipeError::Protocol("fec decode: empty message".to_string()));
    }
    let total = 2 * b - 1;
    let slen = share_len(msg_len, b);
    if msg_len > b * slen {
        return Err(SnipeError::Protocol(format!(
            "fec decode: msg_len {msg_len} inconsistent with b {b}"
        )));
    }
    // First `b` distinct in-range shares, in index order (deterministic
    // regardless of arrival order).
    let mut chosen: Vec<Option<&Bytes>> = vec![None; total];
    let mut have = 0usize;
    for (idx, bytes) in shares {
        let idx = *idx as usize;
        if idx >= total || chosen[idx].is_some() {
            continue;
        }
        if bytes.len() != slen {
            return Err(SnipeError::Protocol(format!(
                "fec decode: share {idx} is {} bytes, want {slen}",
                bytes.len()
            )));
        }
        chosen[idx] = Some(bytes);
        have += 1;
        if have == b {
            break;
        }
    }
    if have < b {
        return Err(SnipeError::Protocol(format!("fec decode: {have} distinct shares, need {b}")));
    }
    let mut out = vec![0u8; b * slen];
    // Systematic shares drop straight in; the chunks still missing are
    // rebuilt in place from the whole quorum.
    let mut missing: Vec<u8> = Vec::new();
    let mut rebuilt: Vec<&mut [u8]> = Vec::new();
    for (j, chunk) in out.chunks_mut(slen).enumerate() {
        match chosen[j] {
            Some(bytes) => chunk.copy_from_slice(bytes),
            None => {
                missing.push(j as u8);
                rebuilt.push(chunk);
            }
        }
    }
    if !missing.is_empty() {
        let (xs, srcs): (Vec<u8>, Vec<&[u8]>) = chosen
            .iter()
            .enumerate()
            .filter_map(|(x, s)| s.map(|bytes| (x as u8, &bytes[..])))
            .unzip();
        interpolate(&xs, &srcs, &missing, &mut rebuilt);
    }
    out.truncate(msg_len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn tables_are_a_permutation() {
        // Generator 2 must cycle through all 255 non-zero elements.
        let mut seen = [false; 256];
        for (i, &v) in GF_EXP[..255].iter().enumerate() {
            let v = v as usize;
            assert!(v != 0 && !seen[v], "exp table not a permutation at {i}");
            seen[v] = true;
        }
        for a in 1..=255u8 {
            assert_eq!(GF_EXP[GF_LOG[a as usize] as usize], a);
        }
    }

    #[test]
    fn field_axioms_spot_check() {
        for a in [1u8, 7, 100, 255] {
            for b in [1u8, 3, 90, 254] {
                let p = gf_mul(a, b);
                assert_eq!(gf_div(p, b), a);
                assert_eq!(gf_mul(a, 1), a);
            }
        }
        assert_eq!(gf_mul(0, 123), 0);
        assert_eq!(gf_mul(123, 0), 0);
    }

    #[test]
    fn packed_doubling_matches_the_scalar_multiply() {
        for v in 0..=255u8 {
            let packed = u64::from_le_bytes([v, v ^ 0xff, 0, 0x80, 0x7f, v, 1, 0xff]);
            let want = packed.to_le_bytes().map(|lane| gf_mul(lane, 2));
            assert_eq!(double_lanes(packed).to_le_bytes(), want, "v = {v}");
        }
    }

    #[test]
    fn lagrange_rows_are_the_basis_polynomials() {
        // Held points scattered over data and parity indices, as a
        // decode sees them; rows must match the textbook product.
        let xs = [0u8, 2, 3, 7, 11, 200];
        let targets = [1u8, 4, 5, 254];
        let rows = lagrange_rows(&xs, &targets);
        for (r, &a) in targets.iter().enumerate() {
            for (i, &xi) in xs.iter().enumerate() {
                let (mut num, mut den) = (1u8, 1u8);
                for &xm in xs.iter().filter(|&&xm| xm != xi) {
                    num = gf_mul(num, a ^ xm);
                    den = gf_mul(den, xi ^ xm);
                }
                assert_eq!(rows[r * xs.len() + i], gf_div(num, den), "l_{i}({a})");
            }
        }
    }

    #[test]
    fn encode_bytes_shares_the_callers_buffer() {
        let m = Bytes::from(msg(1000));
        let shares = encode_bytes(&m, 3).unwrap(); // share length 334, last chunk padded
        assert_eq!(shares[0].as_ptr(), m.as_ptr());
        assert_eq!(shares[1].as_ptr(), m[334..].as_ptr());
        assert_eq!(&shares[2][..332], &m[668..]);
        assert_eq!(&shares[2][332..], &[0, 0]);
        assert_eq!(shares, encode(&m, 3).unwrap());
    }

    #[test]
    fn systematic_prefix_is_the_message() {
        let m = msg(1000);
        let b = 4;
        let shares = encode(&m, b).unwrap();
        assert_eq!(shares.len(), 2 * b - 1);
        let slen = share_len(m.len(), b);
        let concat: Vec<u8> = shares[..b].iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(&concat[..m.len()], &m[..]);
        assert!(shares.iter().all(|s| s.len() == slen));
    }

    #[test]
    fn any_b_shares_reconstruct() {
        let m = msg(997); // deliberately not a multiple of b
        let b = 5;
        let shares = encode(&m, b).unwrap();
        let indexed: Vec<(u32, Bytes)> =
            shares.iter().enumerate().map(|(i, s)| (i as u32, s.clone())).collect();
        // Every contiguous window and a few scattered subsets.
        for start in 0..b {
            let subset: Vec<_> =
                (0..b).map(|i| indexed[(start + i) % (2 * b - 1)].clone()).collect();
            assert_eq!(decode(b, m.len(), &subset).unwrap(), m, "window at {start}");
        }
        let parity_heavy: Vec<_> =
            [8usize, 7, 6, 5, 0].iter().map(|&i| indexed[i].clone()).collect();
        assert_eq!(decode(b, m.len(), &parity_heavy).unwrap(), m);
    }

    #[test]
    fn b_one_degenerates_to_the_message() {
        let m = msg(33);
        let shares = encode(&m, 1).unwrap();
        assert_eq!(shares.len(), 1);
        assert_eq!(&shares[0][..], &m[..]);
        assert_eq!(decode(1, m.len(), &[(0, shares[0].clone())]).unwrap(), m);
    }

    #[test]
    fn too_few_shares_is_an_error() {
        let m = msg(100);
        let shares = encode(&m, 3).unwrap();
        let two: Vec<(u32, Bytes)> = vec![(0, shares[0].clone()), (4, shares[4].clone())];
        assert_eq!(decode(3, m.len(), &two).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let m = msg(64);
        let shares = encode(&m, 3).unwrap();
        let dup: Vec<(u32, Bytes)> =
            vec![(0, shares[0].clone()), (0, shares[0].clone()), (1, shares[1].clone())];
        assert_eq!(decode(3, m.len(), &dup).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn hostile_structure_is_rejected_not_panicked() {
        let m = msg(64);
        let shares = encode(&m, 3).unwrap();
        // Wrong share length.
        let bad_len: Vec<(u32, Bytes)> =
            vec![(0, Bytes::from_static(b"x")), (1, shares[1].clone()), (2, shares[2].clone())];
        assert!(decode(3, m.len(), &bad_len).is_err());
        // Out-of-range index never counts toward the quorum.
        let oob: Vec<(u32, Bytes)> =
            vec![(99, shares[0].clone()), (1, shares[1].clone()), (2, shares[2].clone())];
        assert!(decode(3, m.len(), &oob).is_err());
        // Inconsistent msg_len / b combinations.
        assert!(decode(0, 10, &[]).is_err());
        assert!(decode(MAX_B + 1, 10, &[]).is_err());
        assert!(decode(3, 0, &[]).is_err());
        assert!(encode(&m, 0).is_err());
        assert!(encode(&m, MAX_B + 1).is_err());
        assert!(encode(&[], 3).is_err());
    }

    #[test]
    fn corrupted_share_changes_output_and_checksum_catches_it() {
        let m = msg(500);
        let b = 4;
        let want = msg_checksum(&m);
        let shares = encode(&m, b).unwrap();
        // Corrupt a parity share, then force a reconstruction that uses it.
        let mut evil = shares[b].to_vec();
        evil[3] ^= 0x40;
        let subset: Vec<(u32, Bytes)> = vec![
            (b as u32, Bytes::from(evil)),
            (1, shares[1].clone()),
            (2, shares[2].clone()),
            (3, shares[3].clone()),
        ];
        let got = decode(b, m.len(), &subset).unwrap();
        assert_ne!(got, m);
        assert_ne!(msg_checksum(&got), want);
    }

    #[test]
    fn max_b_family_round_trips() {
        let m = msg(MAX_B * 3 + 11);
        let shares = encode(&m, MAX_B).unwrap();
        assert_eq!(shares.len(), 2 * MAX_B - 1);
        // Drop all systematic shares except one: worst-case interpolation.
        let subset: Vec<(u32, Bytes)> = std::iter::once((0u32, shares[0].clone()))
            .chain((MAX_B..2 * MAX_B - 1).map(|i| (i as u32, shares[i].clone())))
            .collect();
        assert_eq!(decode(MAX_B, m.len(), &subset).unwrap(), m);
    }
}
