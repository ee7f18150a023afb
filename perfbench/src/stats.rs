//! Order statistics, run-to-run spreads and the bound check between two
//! sets of runs.

/// Fewest samples a reported tail percentile must have beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in percent) of an ascending slice: the
/// smallest sample with at least `q` % of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Tail {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The highest of p99.9, p99, p90 and p50 that keeps at least
/// [`MIN_BEYOND`] samples beyond its rank, with its level in percent.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, Tail)> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|q| {
        percentile(sorted, q)
            .filter(|t| t.beyond >= MIN_BEYOND)
            .map(|t| (q, t))
    })
}

/// Sorts a copy ascending; NaN is not expected and sorts last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let cut = |i: i64| {
        // Python clamps j to 1..=n-1 and lets delta extrapolate.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, accuracy).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(raw: &str) -> Option<Better> {
        match raw {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Share by which the candidate runs' median is worse than the base runs'
/// median (negative when it is better).
pub fn worsening(base: &[f64], candidate: &[f64], better: Better) -> f64 {
    let (b, c) = (median(base), median(candidate));
    match better {
        Better::Lower => (c - b) / b.abs(),
        Better::Higher => (b - c) / b.abs(),
    }
}

/// Whether the candidate runs stay within `bound` of the base runs.
pub fn within_bound(base: &[f64], candidate: &[f64], better: Better, bound: f64) -> bool {
    worsening(base, candidate, better) <= bound
}

/// FNV-1a 64 over a stream of f64 bit patterns.
pub fn fnv1a_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// SplitMix64 — derives independent sub-seeds from the workload seed.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = percentile(&v, 99.0).expect("non-empty");
        assert_eq!(t.value, 990.0);
        assert_eq!((t.samples, t.beyond), (1000, 10));
        let (q, t) = highest_supported(&v).expect("non-empty");
        assert_eq!((q, t.value), (99.0, 990.0));
    }

    #[test]
    fn p99_falls_back_when_too_few_samples_lie_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0).expect("non-empty").beyond, 9);
        let (q, t) = highest_supported(&v).expect("non-empty");
        assert_eq!(q, 90.0);
        assert!(t.beyond >= MIN_BEYOND);
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert!(highest_supported(&few).is_none());
        assert_eq!(percentile(&few, 50.0).expect("non-empty").value, 8.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        let s = spread(&v).expect("two or more samples");
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_check_between_two_sets_of_runs() {
        let base = [10.0, 11.0, 9.0, 10.0, 10.5];
        let slower = [11.5, 11.0, 12.0, 11.2, 11.4];
        assert!((worsening(&base, &slower, Better::Lower) - 0.14).abs() < 1e-12);
        assert!(within_bound(&base, &slower, Better::Lower, 0.15));
        assert!(!within_bound(&base, &slower, Better::Lower, 0.10));
        // The same numbers read as throughput are an improvement.
        assert!(worsening(&base, &slower, Better::Higher) < 0.0);
        assert!(within_bound(&base, &slower, Better::Higher, 0.0));
        assert!(!within_bound(&slower, &base, Better::Higher, 0.10));
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_ne!(fnv1a_f64([1.0, 2.0]), fnv1a_f64([2.0, 1.0]));
        assert_eq!(fnv1a_f64([]), 0xcbf2_9ce4_8422_2325);
    }
}
