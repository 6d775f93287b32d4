//! Summary statistics and histograms for Monte Carlo post-processing.
//!
//! The paper's statistical content — the asymmetric path-delay
//! distribution of Figure 7 (separate late/early sigmas), the 3σ delay
//! behind the corner-pessimism metric of Figure 8, and the accuracy
//! comparison of AOCV/POCV/LVF against Monte Carlo — all reduce to
//! moments and quantiles of sample sets, which this module computes.
//!
//! # Examples
//!
//! ```
//! use tc_core::stats::Summary;
//!
//! let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! assert_eq!(s.min, 1.0);
//! assert_eq!(s.max, 4.0);
//! ```

/// Moments and extrema of a sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub sigma: f64,
    /// Sample skewness (Fisher–Pearson, bias-uncorrected).
    pub skewness: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes moments of a sample set. An empty input yields the
    /// all-zero summary.
    pub fn of(xs: &[f64]) -> Summary {
        let n = xs.len();
        if n == 0 {
            return Summary::default();
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            let d = x - mean;
            m2 += d * d;
            m3 += d * d * d;
            min = min.min(x);
            max = max.max(x);
        }
        let var = if n > 1 { m2 / (n as f64 - 1.0) } else { 0.0 };
        let sigma = var.sqrt();
        let pop_sigma = (m2 / n as f64).sqrt();
        let skewness = if pop_sigma > 0.0 {
            (m3 / n as f64) / pop_sigma.powi(3)
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            sigma,
            skewness,
            min,
            max,
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a sample set by linear
/// interpolation between order statistics.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let t = pos - i as f64;
    if i + 1 < sorted.len() {
        sorted[i] + t * (sorted[i + 1] - sorted[i])
    } else {
        sorted[i]
    }
}

/// Separate late/early deviations of an asymmetric distribution, the
/// quantity the Liberty Variation Format carries per arc (paper §3.1,
/// Figure 7): the late sigma is measured on the right tail and the early
/// sigma on the left tail, each as (quantile − median)/z.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailSigmas {
    /// Median of the samples.
    pub median: f64,
    /// Effective sigma of the late (right) tail.
    pub late: f64,
    /// Effective sigma of the early (left) tail.
    pub early: f64,
}

/// Estimates separate late/early sigmas from the 0.13% / 99.87% (±3σ)
/// quantiles of a sample set.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn tail_sigmas(xs: &[f64]) -> TailSigmas {
    let median = quantile(xs, 0.5);
    let hi = quantile(xs, 0.99865); // +3σ point of a Gaussian
    let lo = quantile(xs, 0.00135); // −3σ point
    TailSigmas {
        median,
        late: (hi - median) / 3.0,
        early: (median - lo) / 3.0,
    }
}

/// A fixed-bin histogram over a closed range.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    outliers: usize,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && lo < hi, "bad histogram spec");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Adds a sample; out-of-range samples count as outliers.
    pub fn add(&mut self, x: f64) {
        if x < self.lo || x > self.hi || !x.is_finite() {
            self.outliers += 1;
            return;
        }
        let bins = self.counts.len();
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize;
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Samples that fell outside `[lo, hi]`.
    pub fn outliers(&self) -> usize {
        self.outliers
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Renders a compact ASCII bar chart, one bin per line — used by the
    /// figure-regeneration binaries.
    pub fn render(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * width / peak);
            out.push_str(&format!("{:>10.3} |{bar} {c}\n", self.bin_center(i)));
        }
        out
    }
}

/// Pearson correlation coefficient of two equal-length sample sets.
///
/// # Panics
///
/// Panics if lengths differ or fewer than 2 samples are given.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs equal lengths");
    assert!(xs.len() >= 2, "correlation needs >= 2 samples");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Root-sum-square of a slice — the accumulation rule POCV/LVF use to
/// combine independent per-stage sigmas along a path (paper §3.1).
pub fn rss(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Standard normal CDF Φ(z), via the Abramowitz–Stegun erf
/// approximation (|error| < 1.5e-7) — used by parametric-yield models.
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_set() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population sigma is 2.0; sample sigma = 2.138...
        assert!((s.sigma - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(s.skewness > 0.0); // right-tailed set
    }

    #[test]
    fn summary_handles_empty_and_singleton() {
        assert_eq!(Summary::of(&[]).n, 0);
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.sigma, 0.0);
        assert_eq!(s.skewness, 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn tail_sigmas_detect_asymmetry() {
        // Right-skewed: late sigma should exceed early sigma.
        let mut r = crate::rng::Rng::seed_from(11);
        let xs: Vec<f64> = (0..60_000).map(|_| r.skew_normal(5.0)).collect();
        let t = tail_sigmas(&xs);
        assert!(t.late > t.early * 1.1, "late {} early {}", t.late, t.early);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.6, 9.9, 11.0, -1.0] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 2, 0, 0, 1]);
        assert_eq!(h.outliers(), 2);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!(h.render(10).lines().count() == 5);
    }

    #[test]
    fn correlation_of_linear_data_is_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rss_accumulates() {
        assert!((rss(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(rss(&[]), 0.0);
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.8413447).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.1586553).abs() < 1e-6);
        assert!((normal_cdf(3.0) - 0.9986501).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999999);
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized invariants driven by the in-tree deterministic RNG.

    use super::*;
    use crate::rng::Rng;

    fn random_vec(rng: &mut Rng, lo: f64, hi: f64, max_len: usize) -> Vec<f64> {
        let n = 1 + rng.below(max_len - 1);
        (0..n).map(|_| rng.uniform_in(lo, hi)).collect()
    }

    #[test]
    fn quantile_is_bounded_and_monotone() {
        let mut rng = Rng::seed_from(0x5_7a71);
        for _ in 0..128 {
            let mut xs = random_vec(&mut rng, -1e6, 1e6, 60);
            xs.iter_mut().for_each(|x| *x = x.trunc());
            let (q1, q2) = (rng.uniform(), rng.uniform());
            let (lo, hi) = (q1.min(q2), q1.max(q2));
            let v_lo = quantile(&xs, lo);
            let v_hi = quantile(&xs, hi);
            assert!(v_lo <= v_hi + 1e-9);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
        }
    }

    #[test]
    fn summary_mean_is_within_extrema() {
        let mut rng = Rng::seed_from(0x5_7a72);
        for _ in 0..128 {
            let xs = random_vec(&mut rng, -1e3, 1e3, 50);
            let s = Summary::of(&xs);
            assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
            assert!(s.sigma >= 0.0);
        }
    }

    #[test]
    fn rss_dominates_components() {
        let mut rng = Rng::seed_from(0x5_7a73);
        for _ in 0..128 {
            let xs = random_vec(&mut rng, 0.0, 1e3, 20);
            let r = rss(&xs);
            let max = xs.iter().cloned().fold(0.0f64, f64::max);
            let sum: f64 = xs.iter().sum();
            assert!(r >= max - 1e-9, "rss at least the largest term");
            assert!(r <= sum + 1e-9, "rss at most the linear sum");
        }
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        let mut rng = Rng::seed_from(0x5_7a74);
        for _ in 0..256 {
            let z = rng.uniform_in(-6.0, 6.0);
            assert!(normal_cdf(z) >= 0.0 && normal_cdf(z) <= 1.0);
            assert!(normal_cdf(z + 0.1) >= normal_cdf(z));
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-6);
        }
    }
}
