//! Order statistics over latency samples.

/// Percentiles a timing may be reported at, ascending, each with the `k`
/// for which one sample in `k` lies beyond it (integer arithmetic keeps
/// the sample-count thresholds exact).
const LADDER: [(f64, usize); 5] = [
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// Samples with at least this many observations beyond a percentile make
/// that percentile reportable (the `choosing-metrics` rule).
const BEYOND: usize = 10;

/// The nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps binary fractions such as 99.9 from rounding an
    // exact rank up by one.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest ladder percentile that still has [`BEYOND`] samples above
/// it in a sample of `n`, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|(_, k)| n / k >= BEYOND)
        .map(|(p, _)| *p)
}

/// One timing, summarised: what the result files carry per metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The bounded tail metric: p90 where the sample has ten samples
    /// beyond it, else (a handful of samples) the upper quartile. Higher
    /// percentiles are the host's scheduler on a shared two-core sandbox
    /// (a p99 moved by 10–34 % between identical runs) and stay
    /// diagnostics.
    pub tail: f64,
    /// What `tail` is: `p90` or `p75`.
    pub tail_label: String,
    /// The highest supported percentile (p99 and beyond), reported as an
    /// unbounded diagnostic.
    pub top: f64,
    pub top_label: String,
    pub max: f64,
}

fn label(p: f64) -> String {
    format!("p{p}")
}

/// Sorts `samples` in place and summarises them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let max = samples[samples.len() - 1];
    let supported = highest_percentile(samples.len());
    let (top, top_label) = match supported {
        Some(p) => (percentile(samples, p), label(p)),
        None => (max, "max".to_string()),
    };
    let tail_p = if supported.is_some() { 90.0 } else { 75.0 };
    let (tail, tail_label) = (percentile(samples, tail_p), label(tail_p));
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail,
        tail_label,
        top,
        top_label,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(2_000_000), Some(99.99));
    }

    #[test]
    fn small_samples_fall_back_to_the_upper_quartile() {
        let mut few = [3.0, 1.0, 2.0, 5.0, 4.0];
        let s = summarize(&mut few);
        assert_eq!((s.n, s.p50, s.tail, s.max), (5, 3.0, 4.0, 5.0));
        assert_eq!(
            (s.tail_label.as_str(), s.top_label.as_str()),
            ("p75", "max")
        );

        let mut many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let s = summarize(&mut many);
        assert_eq!(s.p50, 10_000.5);
        assert_eq!((s.tail, s.tail_label.as_str()), (18_000.0, "p90"));
        assert_eq!((s.top, s.top_label.as_str()), (19_980.0, "p99.9"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
