//! The elbow rule for selecting `k`.

use crate::{Dataset, KMeans, KMeansError, KMeansModel};

/// Result of an elbow sweep over candidate `k` values.
#[derive(Debug, Clone, PartialEq)]
pub struct ElbowReport {
    /// Candidate cluster counts, ascending.
    pub ks: Vec<usize>,
    /// Inertia of the best restart at each candidate `k`.
    pub inertias: Vec<f64>,
    /// The selected `k`.
    pub chosen_k: usize,
    /// The sweep's fit at `chosen_k`: what `KMeans::new(chosen_k)` with
    /// the sweep's seed returns, so a caller need not refit it.
    pub model: KMeansModel,
}

/// Inertia improvement from each `k` to the next, normalized by the
/// inertia at the smallest `k`: `(I_k - I_{k+1}) / I_{k_min}`. The fixed
/// denominator keeps the rule stable once inertia approaches zero.
fn relative_gains(inertias: &[f64]) -> Vec<f64> {
    let base = inertias.first().copied().unwrap_or(0.0);
    inertias.windows(2).map(|w| if base > 0.0 { (w[0] - w[1]) / base } else { 0.0 }).collect()
}

/// Sweeps `k` over `k_min..=k_max` and picks the smallest `k` after which
/// increasing `k` no longer yields a relative inertia improvement of at
/// least `min_gain` (the paper's rule: "no significant benefit can be
/// achieved by increasing the value of k").
///
/// # Errors
///
/// Propagates clustering errors; additionally returns
/// [`KMeansError::ZeroK`] if `k_min == 0` or `k_min > k_max`, and
/// [`KMeansError::TooFewPoints`] if the dataset has fewer than `k_min`
/// rows (no candidate `k` is feasible).
///
/// # Examples
///
/// ```
/// use harmony_kmeans::{elbow_k, Dataset, KMeans};
///
/// let mut rows = Vec::new();
/// for c in [0.0_f64, 10.0, 20.0] {
///     for i in 0..10 {
///         rows.push(vec![c + (i as f64) * 0.01]);
///     }
/// }
/// let data = Dataset::from_rows(rows)?;
/// let report = elbow_k(&data, 1, 6, 0.2, 0)?;
/// assert_eq!(report.chosen_k, 3);
/// # Ok::<(), harmony_kmeans::KMeansError>(())
/// ```
pub fn elbow_k(
    data: &Dataset,
    k_min: usize,
    k_max: usize,
    min_gain: f64,
    seed: u64,
) -> Result<ElbowReport, KMeansError> {
    if k_min == 0 || k_min > k_max {
        return Err(KMeansError::ZeroK);
    }
    let k_max = k_max.min(data.len());
    if k_min > k_max {
        // Fewer points than k_min: no candidate k is feasible. Without
        // this guard the candidate loop below runs zero times and the
        // chosen_k lookup panics on an empty list.
        return Err(KMeansError::TooFewPoints { k: k_min, points: data.len() });
    }
    let mut models = (k_min..=k_max)
        .map(|k| KMeans::new(k).seed(seed).fit(data))
        .collect::<Result<Vec<_>, _>>()?;
    let ks: Vec<usize> = (k_min..=k_max).collect();
    let inertias: Vec<f64> = models.iter().map(KMeansModel::inertia).collect();
    // Choose the first k whose improvement over the *next* k is below the
    // threshold; default to k_max when every step is still a significant
    // gain.
    let chosen =
        relative_gains(&inertias).iter().position(|&gain| gain < min_gain).unwrap_or(ks.len() - 1);
    // `models` holds one fit per k in k_min..=k_max (non-empty after the
    // guard above), so `chosen` indexes it.
    let model = models.swap_remove(chosen);
    Ok(ElbowReport { chosen_k: ks[chosen], ks, inertias, model })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> Dataset {
        let mut rows = Vec::new();
        for c in [0.0_f64, 10.0, 20.0] {
            for i in 0..12 {
                rows.push(vec![c + (i as f64) * 0.02, c - (i as f64) * 0.01]);
            }
        }
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn elbow_finds_three_blobs() {
        let data = three_blobs();
        let report = elbow_k(&data, 1, 8, 0.2, 42).unwrap();
        assert_eq!(report.chosen_k, 3, "inertias: {:?}", report.inertias);
        assert_eq!(report.ks.len(), report.inertias.len());
    }

    #[test]
    fn elbow_hands_back_the_chosen_fit() {
        let data = three_blobs();
        for (min_gain, seed) in [(0.2, 42), (-1.0, 0), (2.0, 7)] {
            let report = elbow_k(&data, 1, 5, min_gain, seed).unwrap();
            let refit = KMeans::new(report.chosen_k).seed(seed).fit(&data).unwrap();
            assert_eq!(report.model, refit);
            assert_eq!(report.model.inertia().to_bits(), refit.inertia().to_bits());
        }
    }

    #[test]
    fn elbow_threshold_extremes() {
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(rows).unwrap();
        // min_gain below every possible gain → never trips → k_max.
        let report = elbow_k(&data, 1, 4, -1.0, 0).unwrap();
        assert_eq!(report.chosen_k, 4);
        // min_gain above every possible gain → trips immediately → k_min.
        let report2 = elbow_k(&data, 1, 4, 2.0, 0).unwrap();
        assert_eq!(report2.chosen_k, 1);
    }

    #[test]
    fn elbow_rejects_bad_range() {
        let data = three_blobs();
        assert!(matches!(elbow_k(&data, 0, 4, 0.1, 0), Err(KMeansError::ZeroK)));
        assert!(matches!(elbow_k(&data, 5, 4, 0.1, 0), Err(KMeansError::ZeroK)));
    }

    #[test]
    fn elbow_caps_k_at_dataset_size() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let report = elbow_k(&data, 1, 10, 2.0, 0).unwrap();
        assert_eq!(*report.ks.last().unwrap(), 3);
    }

    #[test]
    fn elbow_errors_when_dataset_smaller_than_k_min() {
        // Used to panic: capping k_max at the dataset size left an empty
        // candidate range, and choosing k from it unwrapped a None.
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        assert!(matches!(
            elbow_k(&data, 3, 10, 0.1, 0),
            Err(KMeansError::TooFewPoints { k: 3, points: 2 })
        ));
    }
}
