//! Order statistics for timing samples: percentiles, the quartiles the
//! acceptance rule uses, the median absolute deviation, and which
//! operations of a run count as typical.

/// Median, quartiles and spread of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
}

impl Summary {
    /// Summarises `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let sorted = sorted(values);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            mad: mad(&sorted),
        })
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// acceptance rule compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `values` in ascending order (NaN-free input assumed; timings are).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation percentile (`p` in 0..=1) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, which is what the benchmark driver computes. A single
/// value is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    assert!(len > 0, "quartiles of an empty sample");
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median absolute deviation from the median of an ascending slice.
pub fn mad(sorted_values: &[f64]) -> f64 {
    let med = median(sorted_values);
    let deviations: Vec<f64> = sorted_values.iter().map(|v| (v - med).abs()).collect();
    median(&sorted(&deviations))
}

/// `part / whole`, or 0 when there is no whole: a layer that did no work
/// reports no rate.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// How much slower than the lower-quartile operation an operation may be
/// and still count as typical.
const TYPICAL_FACTOR: f64 = 10.0;

/// Which operations of a run are typical: no slower than
/// [`TYPICAL_FACTOR`] times the lower-quartile one. On `period_chain`
/// the cold restart tick and the warm-start fallbacks are 20 to 50 times
/// a warm-hit tick and there are 1 to 12 of them in 32 ticks depending on
/// the seed, so any statistic over all ticks is set by how many there
/// were (the median moves by 29 % between seeds, the mean by 80 %); the
/// mean over the typical ticks moves by 11–24 %. The lower quartile is
/// the yardstick because it stays a warm-hit tick until three ticks in
/// four take the cold path. On every other workload every operation is
/// typical.
pub fn typical(times: &[f64]) -> Vec<bool> {
    let cut = TYPICAL_FACTOR * percentile(&sorted(times), 0.25);
    times.iter().map(|&t| t <= cut).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_drops_only_the_far_outliers() {
        let chain = [9.6, 0.10, 0.19, 5.4, 0.27, 0.19, 0.41, 5.2, 0.26];
        assert_eq!(
            typical(&chain),
            [false, true, true, false, true, true, true, false, true],
            "lower quartile 0.19, cut 1.9"
        );
        // Half the ticks on the cold path: the median would be one of them.
        let rough = [9.1, 5.3, 0.10, 5.2, 0.18, 5.0, 0.26, 0.27];
        assert_eq!(
            typical(&rough),
            [false, false, true, false, true, false, true, true]
        );
        assert!(
            typical(&[9.6, 5.07, 4.99]).iter().all(|&t| t),
            "a cold run keeps its restart tick"
        );
        assert!(typical(&[2.8, 3.0, 2.9]).iter().all(|&t| t));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 4.0, 5.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        let v = sorted(&[10.0, 11.0, 9.0, 10.0, 500.0]);
        assert_eq!(median(&v), 10.0);
        assert_eq!(mad(&v), 1.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }
}
