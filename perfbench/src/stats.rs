//! Order statistics and process memory readings.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median and quartiles by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so the
/// benchmark's own spreads match the ones a reader computes from its
/// output. `None` for an empty sample set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    };
    if n == 1 {
        return Some(Summary {
            q1: median,
            median,
            q3: median,
            n,
        });
    }
    // Python's rule, including its extrapolation for tiny samples
    // (where `delta` goes negative).
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some(Summary {
        q1: quartile(1),
        median,
        q3: quartile(3),
        n,
    })
}

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks; `None` for an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let last = data.len().checked_sub(1)?;
    let rank = p / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(data[lo] + (data[hi] - data[lo]) * (rank - lo as f64))
}

/// One `kB` field of `/proc/self/status`, in bytes (0 where the field is
/// unavailable, as on non-Linux hosts).
fn status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Resident set size of this process now, in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// High-water mark of this process's resident set, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&data).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let data: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 99.0), Some(99.0));
        assert_eq!(percentile(&[1.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
