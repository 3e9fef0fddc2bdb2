//! Clustering-quality metrics and the elbow rule for selecting `k`.


use crate::dataset::distance_sq;
use crate::{Dataset, KMeans, KMeansError, KMeansModel};

/// Mean silhouette coefficient of a fitted model over its training data.
///
/// For each point, `a` is the mean distance to points sharing its cluster
/// and `b` the smallest mean distance to any other cluster; the silhouette
/// is `(b - a) / max(a, b)`. Values near 1 indicate tight, well-separated
/// clusters. Singleton clusters contribute 0, matching the usual
/// convention.
///
/// # Errors
///
/// Returns [`KMeansError::DimensionMismatch`] if `data` does not match the
/// model's dimension, or [`KMeansError::TooFewPoints`] when there are
/// fewer than 2 points or the model has a single cluster (silhouette is
/// undefined).
///
/// # Examples
///
/// ```
/// use harmony_kmeans::{silhouette_score, Dataset, KMeans};
///
/// let data = Dataset::from_rows(vec![
///     vec![0.0], vec![0.1], vec![10.0], vec![10.1],
/// ])?;
/// let model = KMeans::new(2).seed(0).fit(&data)?;
/// let s = silhouette_score(&data, &model)?;
/// assert!(s > 0.9, "well-separated blobs should be near 1, got {s}");
/// # Ok::<(), harmony_kmeans::KMeansError>(())
/// ```
pub fn silhouette_score(data: &Dataset, model: &KMeansModel) -> Result<f64, KMeansError> {
    if data.dim() != model.dim() {
        return Err(KMeansError::DimensionMismatch { expected: model.dim(), got: data.dim() });
    }
    if data.len() < 2 || model.k() < 2 {
        return Err(KMeansError::TooFewPoints { k: model.k(), points: data.len() });
    }
    let labels = model.assignments();
    let k = model.k();
    let sizes = model.cluster_sizes();
    let mut total = 0.0;
    for i in 0..data.len() {
        // Mean distance from point i to every cluster.
        let mut sums = vec![0.0f64; k];
        for j in 0..data.len() {
            if i == j {
                continue;
            }
            sums[labels[j]] += distance_sq(data.row(i), data.row(j)).sqrt();
        }
        let own = labels[i];
        if sizes[own] <= 1 {
            continue; // singleton contributes 0
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    Ok(total / data.len() as f64)
}

/// Davies–Bouldin index of a fitted model over its training data: the
/// mean, over clusters, of the worst-case ratio
/// `(S_i + S_j) / M_ij`, where `S` is the mean member-to-centroid
/// distance and `M` the centroid separation. **Lower is better**; unlike
/// the silhouette it costs `O(n·k)` rather than `O(n²)`, so it scales to
/// the full trace.
///
/// # Errors
///
/// Returns [`KMeansError::DimensionMismatch`] on a dataset/model
/// mismatch and [`KMeansError::TooFewPoints`] for single-cluster models.
///
/// # Examples
///
/// ```
/// use harmony_kmeans::{quality::davies_bouldin, Dataset, KMeans};
///
/// let data = Dataset::from_rows(vec![
///     vec![0.0], vec![0.1], vec![10.0], vec![10.1],
/// ])?;
/// let model = KMeans::new(2).seed(0).fit(&data)?;
/// let db = davies_bouldin(&data, &model)?;
/// assert!(db < 0.1, "tight separated blobs score near 0, got {db}");
/// # Ok::<(), harmony_kmeans::KMeansError>(())
/// ```
pub fn davies_bouldin(data: &Dataset, model: &KMeansModel) -> Result<f64, KMeansError> {
    if data.dim() != model.dim() {
        return Err(KMeansError::DimensionMismatch { expected: model.dim(), got: data.dim() });
    }
    let k = model.k();
    if k < 2 {
        return Err(KMeansError::TooFewPoints { k, points: data.len() });
    }
    let labels = model.assignments();
    let sizes = model.cluster_sizes();
    // Mean member→centroid distance per cluster.
    let mut scatter = vec![0.0f64; k];
    for (i, row) in data.iter().enumerate() {
        let c = labels[i];
        scatter[c] += distance_sq(row, &model.centroids()[c]).sqrt();
    }
    for (s, &n) in scatter.iter_mut().zip(&sizes) {
        if n > 0 {
            *s /= n as f64;
        }
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..k {
        if sizes[i] == 0 {
            continue;
        }
        let mut worst = 0.0f64;
        for j in 0..k {
            if i == j || sizes[j] == 0 {
                continue;
            }
            let m = distance_sq(&model.centroids()[i], &model.centroids()[j]).sqrt();
            if m > 0.0 {
                worst = worst.max((scatter[i] + scatter[j]) / m);
            }
        }
        total += worst;
        counted += 1;
    }
    Ok(total / counted.max(1) as f64)
}

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

impl ElbowReport {
    /// Inertia improvement from each `k` to the next, normalized by the
    /// inertia at the smallest `k`: `(I_k - I_{k+1}) / I_{k_min}`. The
    /// fixed denominator keeps the rule stable once inertia approaches
    /// zero.
    pub fn relative_gains(&self) -> Vec<f64> {
        relative_gains(&self.inertias)
    }
}

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
    let chosen = relative_gains(&inertias)
        .iter()
        .position(|&gain| gain < min_gain)
        .unwrap_or(ks.len() - 1);
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
    fn silhouette_high_for_true_k() {
        let data = three_blobs();
        let good = KMeans::new(3).seed(0).fit(&data).unwrap();
        let s3 = silhouette_score(&data, &good).unwrap();
        assert!(s3 > 0.9, "s3 = {s3}");
        let bad = KMeans::new(2).seed(0).fit(&data).unwrap();
        let s2 = silhouette_score(&data, &bad).unwrap();
        assert!(s3 > s2, "s3 {s3} should beat s2 {s2}");
    }

    #[test]
    fn silhouette_requires_two_clusters() {
        let data = three_blobs();
        let m = KMeans::new(1).seed(0).fit(&data).unwrap();
        assert!(matches!(silhouette_score(&data, &m), Err(KMeansError::TooFewPoints { .. })));
    }

    #[test]
    fn silhouette_dimension_check() {
        let data = three_blobs();
        let m = KMeans::new(2).seed(0).fit(&data).unwrap();
        let other = Dataset::from_rows(vec![vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            silhouette_score(&other, &m),
            Err(KMeansError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn davies_bouldin_prefers_true_k() {
        let data = three_blobs();
        let good = KMeans::new(3).seed(0).fit(&data).unwrap();
        let bad = KMeans::new(2).seed(0).fit(&data).unwrap();
        let db3 = davies_bouldin(&data, &good).unwrap();
        let db2 = davies_bouldin(&data, &bad).unwrap();
        assert!(db3 < db2, "db3 {db3} should beat db2 {db2}");
        assert!(db3 < 0.2, "tight blobs score near zero: {db3}");
    }

    #[test]
    fn davies_bouldin_requires_two_clusters() {
        let data = three_blobs();
        let m = KMeans::new(1).seed(0).fit(&data).unwrap();
        assert!(matches!(davies_bouldin(&data, &m), Err(KMeansError::TooFewPoints { .. })));
        let other = Dataset::from_rows(vec![vec![1.0], vec![2.0]]).unwrap();
        let m2 = KMeans::new(2).seed(0).fit(&data).unwrap();
        assert!(matches!(
            davies_bouldin(&other, &m2),
            Err(KMeansError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn elbow_finds_three_blobs() {
        let data = three_blobs();
        let report = elbow_k(&data, 1, 8, 0.2, 42).unwrap();
        assert_eq!(report.chosen_k, 3, "inertias: {:?}", report.inertias);
        assert_eq!(report.ks.len(), report.inertias.len());
        assert_eq!(report.relative_gains().len(), report.ks.len() - 1);
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
