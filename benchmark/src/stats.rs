//! Order statistics for the benchmark's two kinds of timing: a handful
//! of whole passes (fastest, median, max, n) and, inside an ECO block,
//! a thousand per-edit samples (median plus a tail percentile that is
//! only reported when enough samples lie beyond it to be more than one
//! outlier).

/// Samples that must lie strictly beyond a percentile for it to be
/// reported (choosing-metrics: "the highest percentile that has at
/// least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Sorts ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice: the middle sample, or the mean of the
/// two middle samples. `NaN` for an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank index of quantile `q` in `n` ascending samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice, reported only when at
/// least [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn percentile_supported(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let idx = rank(n, q);
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// How one metric's per-pass readings reduce to the run's value.
///
/// The value is the *fastest* pass, not the median: the workloads are
/// deterministic and single-threaded, so run-to-run differences are
/// interference, which only ever adds time. On the sizing host it came
/// in bursts of +10–40% lasting 10–30 s; the median of a 15 s window
/// moved by up to 16% between back-to-back runs of one binary, the
/// minimum by under 3%. The median is kept beside it so a disturbed
/// run can be told from a quiet one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The fastest pass's reading.
    pub value: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is one reading, not a distribution (peak RSS).
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            median: value,
            max: value,
            n: 1,
        }
    }

    /// Fastest, median and slowest of per-pass readings.
    pub fn fastest_of(per_pass: &[f64]) -> Self {
        let s = sorted(per_pass.to_vec());
        Summary {
            value: s.first().copied().unwrap_or(f64::NAN),
            median: median(&s),
            max: s.last().copied().unwrap_or(f64::NAN),
            n: s.len(),
        }
    }

    /// The same readings, each moved by `by` (set-up adds the warm-up).
    pub fn shifted(self, by: f64) -> Self {
        Summary {
            value: self.value + by,
            median: self.median + by,
            max: self.max + by,
            n: self.n,
        }
    }

    /// How far the median pass sits above the fastest, as a share of
    /// it: the run's own measure of how disturbed it was.
    pub fn spread(&self) -> f64 {
        (self.median - self.value) / self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // p99 of 1000 samples is index 989: exactly ten beyond.
        assert_eq!(percentile_supported(&v, 0.99), Some(989.0));
        // One sample fewer and only nine lie beyond.
        assert_eq!(percentile_supported(&v[..999], 0.99), None);
        // p99.9 of 4000 samples has four beyond: refused; p99 has forty.
        let w: Vec<f64> = (0..4000).map(f64::from).collect();
        assert_eq!(percentile_supported(&w, 0.999), None);
        assert_eq!(percentile_supported(&w, 0.99), Some(3959.0));
        assert_eq!(percentile_supported(&[], 0.5), None);
    }

    #[test]
    fn summary_reports_fastest_median_and_spread() {
        let s = Summary::fastest_of(&[4.0, 1.0, 3.0]);
        assert_eq!((s.value, s.median, s.max, s.n), (1.0, 3.0, 4.0, 3));
        assert_eq!(s.spread(), 2.0);
        assert_eq!(s.shifted(1.0).value, 2.0);
        assert_eq!(Summary::single(2.5).spread(), 0.0);
        assert!(Summary::fastest_of(&[]).value.is_nan());
    }
}
