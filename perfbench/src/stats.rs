//! Sample statistics: medians, quartiles and guarded tail percentiles.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the numbers printed here match
/// what a reader recomputes from the raw samples. One sample gives that
/// sample for all three; an empty set gives `None`.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        1 => Some(Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        }),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            let median = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            Some(Summary {
                n,
                q1: cut(1),
                median,
                q3: cut(3),
            })
        }
    }
}

/// Median of `xs` (NaN when empty, which `Outcome::put` rejects).
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).map_or(f64::NAN, |s| s.median)
}

/// Samples that must lie beyond a quoted percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1), or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it: a tail quoted from fewer samples
/// than that is one or two outliers, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_TAIL {
        return None;
    }
    Some(v[rank - 1])
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
    }
}
