//! Order statistics over small samples, and a log-bucket histogram for
//! per-call latencies too numerous to keep.

/// Median of `values` (mean of the two middle values when even).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// spreads computed here match the ones the benchmark is accepted on.
///
/// # Panics
///
/// Panics if `values` has fewer than two points or holds a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two points");
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's acceptance rule is written in.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Sub-buckets per power of two: bucket bounds are ≤ 12.5 % apart.
const SUB: u32 = 8;

/// A histogram of nanosecond durations in log-spaced buckets.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let mantissa = (ns >> (exp - 3)) & (SUB as u64 - 1);
        (exp * SUB) as usize + mantissa as usize
    }

    /// Lower bound of bucket `b`, in nanoseconds.
    fn floor_of(b: usize) -> u64 {
        if b < SUB as usize {
            return b as u64;
        }
        let (exp, mantissa) = (b as u32 / SUB, b as u64 % SUB as u64);
        (SUB as u64 + mantissa) << (exp - 3)
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Number of durations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the recorded durations, in nanoseconds (exact).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The `q`-quantile (`0 < q < 1`) in microseconds, as the lower bound
    /// of the bucket holding it; 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor_of(b) as f64 / 1e3;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn hist_quantiles_are_within_a_bucket() {
        let mut h = Hist::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum_ns(), 10_000 * 10_001 / 2);
        let p50 = h.quantile_us(0.5) * 1e3;
        assert!((4_400.0..=5_000.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99) * 1e3;
        assert!((8_700.0..=9_900.0).contains(&p99), "p99 {p99}");
        for ns in [0u64, 1, 7, 8, 9, 1_000, u64::MAX / 2] {
            assert!(Hist::floor_of(Hist::bucket(ns)) <= ns);
        }
    }
}
