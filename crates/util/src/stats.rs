//! Streaming statistics: a mean/variance summary and a log2 histogram.
//!
//! [`Summary`] condenses a run's samples (mean, stddev, min, max)
//! without storing them; [`Log2Histogram`] answers latency quantiles to
//! the nearest power of two (`harness rcds`).

/// Welford online mean/variance accumulator plus min/max.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Number of log2 buckets: one per bit width of a `u64` sample, plus
/// bucket 0 for the sample `0`.
const LOG2_BUCKETS: usize = 65;

/// Power-of-two histogram: bucket `b` counts samples whose bit width
/// is `b` (i.e. `2^(b-1) <= x < 2^b`; bucket 0 holds exact zeros).
/// Fixed 65-slot array — recording is a shift and two adds, no
/// allocation ever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; LOG2_BUCKETS], count: 0 }
    }
}

impl Log2Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, x: u64) {
        let b = (64 - x.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// Nearest-bucket quantile estimate: the upper bound `2^b` of the
    /// bucket containing the `q`-th sample (0 for an empty histogram).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return if b >= 64 { u64::MAX } else { 1u64 << b };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.stddev() - 1.2909944487).abs() < 1e-6);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn log2_buckets_land_on_bit_width() {
        let mut h = Log2Histogram::default();
        for x in [0u64, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(x);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn quantile_bound_tracks_the_mass() {
        let mut h = Log2Histogram::default();
        for _ in 0..99 {
            h.observe(100); // bucket 7, bound 128
        }
        h.observe(1 << 40);
        assert_eq!(h.quantile_bound(0.5), 128);
        assert_eq!(h.quantile_bound(1.0), 1 << 41);
        assert_eq!(Log2Histogram::default().quantile_bound(0.5), 0);
    }
}
