//! Small-sample statistics used for reporting and for `compare`.

use snipe_util::rng::SplitMix64;
use snipe_util::stats::Summary;

/// Median of `v` (mean of the two middle values for even lengths).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(q1, q3)` as Python's `statistics.quantiles(v, n=4)` (the default
/// "exclusive" method) computes them, so `compare` and the acceptance
/// protocol agree digit for digit. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly
/// interpolated between the two nearest ranks.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Standard deviation ÷ mean (0 when the mean is 0).
pub fn coeff_of_variation(v: &[f64]) -> f64 {
    let mut s = Summary::new();
    v.iter().for_each(|x| s.add(*x));
    if s.mean() == 0.0 {
        0.0
    } else {
        s.stddev() / s.mean()
    }
}

/// The benchmark's seed-derivation function: `derive(seed, k)` gives
/// pass (or actor, or file) `k` its own stream.
pub fn derive(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// FNV-1a over 64-bit words: the digest the replay oracle compares.
pub fn fold_digest(h: u64, v: u64) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_sorted(&[10, 20, 30, 40, 50], 0.5), 30.0);
        assert_eq!(quantile_sorted(&[10, 20], 0.25), 12.5);
    }
}
