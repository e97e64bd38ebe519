//! Order statistics and digests shared by every workload.

/// A latency-like sample summarised the way the benchmark reports
/// timings: the median, and the highest percentile that still has at
/// least [`TAIL_SUPPORT`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// Which percentile `tail` is (99 when the sample supports it).
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly after the nearest-rank position of `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Summarises `values` (sorted in place). `None` when empty.
pub fn tail(values: &mut [f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_SUPPORT)
        .unwrap_or(50.0);
    Some(Tail {
        p50: percentile(values, 50.0),
        tail: percentile(values, tail_pct),
        tail_pct,
        n,
    })
}

/// Median of `values` (sorted in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// FNV-1a, 64-bit: a stable digest for inputs and results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a sample slice into the digest.
    pub fn samples(&mut self, samples: &[i32]) {
        for &s in samples {
            self.bytes(&s.to_le_bytes());
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_uses_p99_only_with_ten_samples_beyond() {
        let mut big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&mut big).unwrap();
        assert_eq!((t.tail_pct, t.tail, t.p50, t.n), (99.0, 990.0, 500.0, 1000));

        let mut small: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&mut small).unwrap();
        assert_eq!((t.tail_pct, t.tail), (90.0, 90.0));
    }

    #[test]
    fn digest_separates_inputs() {
        let mut a = Digest::default();
        a.samples(&[1, 2, 3]);
        let mut b = Digest::default();
        b.samples(&[1, 2, 4]);
        assert_ne!(a.value(), b.value());
    }
}
