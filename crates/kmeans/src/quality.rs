//! The elbow rule for selecting `k`.

use crate::{Dataset, KMeans, KMeansError, KMeansModel};

/// Result of an elbow sweep over candidate `k` values.
#[derive(Debug, Clone, PartialEq)]
pub struct ElbowReport {
    /// Inertia of the best restart at each `k` the sweep fitted, from
    /// `k_min` up: `inertias[i]` belongs to `k_min + i`. The sweep stops
    /// at the first flat step, so the last entry is `chosen_k + 1`'s, or
    /// `k_max`'s when no step was flat.
    pub inertias: Vec<f64>,
    /// The selected `k`.
    pub chosen_k: usize,
    /// The sweep's fit at `chosen_k`: what `KMeans::new(chosen_k)` with
    /// the sweep's seed returns, so a caller need not refit it.
    pub model: KMeansModel,
}

/// Sweeps `k` upward from `k_min` and picks the smallest `k` after which
/// increasing `k` no longer yields a relative inertia improvement of at
/// least `min_gain` (the paper's rule: "no significant benefit can be
/// achieved by increasing the value of k"). The improvement from `k` to
/// `k + 1` is `(I_k - I_{k+1}) / I_{k_min}`; the fixed denominator keeps
/// the rule stable once inertia approaches zero, and a zero `I_{k_min}`
/// makes every improvement zero. The sweep stops at the first flat step,
/// so it fits no `k` beyond `chosen_k + 1`; with no flat step it chooses
/// `k_max`, capped at the dataset size.
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
/// // k = 4 showed the step from 3 flat; k = 5 and 6 were never fitted.
/// assert_eq!(report.inertias.len(), 4);
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
    let fit = |k: usize| KMeans::new(k).seed(seed).fit(data);
    // Fewer rows than k_min: this fit returns `TooFewPoints`.
    let mut model = fit(k_min)?;
    let base = model.inertia();
    let mut inertias = vec![base];
    for k in k_min + 1..=k_max {
        let next = fit(k)?;
        let gain = if base > 0.0 { (model.inertia() - next.inertia()) / base } else { 0.0 };
        inertias.push(next.inertia());
        if gain < min_gain {
            return Ok(ElbowReport { inertias, chosen_k: k - 1, model });
        }
        model = next;
    }
    Ok(ElbowReport { inertias, chosen_k: k_max, model })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the exhaustive sweep, every `k` in `k_min..=k_max`
    /// fitted before the first flat step is looked for. Returns the
    /// chosen `k`, its fit and every inertia.
    fn full_sweep(
        data: &Dataset,
        k_min: usize,
        k_max: usize,
        min_gain: f64,
        seed: u64,
    ) -> Result<(usize, KMeansModel, Vec<f64>), KMeansError> {
        if k_min == 0 || k_min > k_max {
            return Err(KMeansError::ZeroK);
        }
        let k_max = k_max.min(data.len());
        if k_min > k_max {
            return Err(KMeansError::TooFewPoints { k: k_min, points: data.len() });
        }
        let mut models = (k_min..=k_max)
            .map(|k| KMeans::new(k).seed(seed).fit(data))
            .collect::<Result<Vec<_>, _>>()?;
        let inertias: Vec<f64> = models.iter().map(KMeansModel::inertia).collect();
        let base = inertias[0];
        let chosen = inertias
            .windows(2)
            .map(|w| if base > 0.0 { (w[0] - w[1]) / base } else { 0.0 })
            .position(|gain| gain < min_gain)
            .unwrap_or(models.len() - 1);
        Ok((k_min + chosen, models.swap_remove(chosen), inertias))
    }

    type Bits = (Vec<Vec<u64>>, Vec<usize>, u64);

    fn bits(m: &KMeansModel) -> Bits {
        let centroids =
            m.centroids().iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect();
        (centroids, m.assignments().to_vec(), m.inertia().to_bits())
    }

    /// `(rows, k_min, k_max)`: 1-D or 2-D rows that are continuous, on a
    /// half-unit lattice (duplicates and ties), or all one point (zero
    /// inertia at every `k`); `k_max` runs up to four past the row count.
    fn sweep_instance() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, usize)> {
        (1usize..=2, 1usize..30, 0u8..3)
            .prop_flat_map(|(dim, n, kind)| {
                let value =
                    (-4.0f64..4.0)
                        .prop_map(move |v| if kind == 1 { (v * 2.0).round() / 2.0 } else { v });
                (
                    prop::collection::vec(prop::collection::vec(value, dim), n),
                    Just(kind),
                    1usize..=3,
                    0usize..=n + 3,
                )
            })
            .prop_map(|(mut rows, kind, k_min, extra)| {
                if kind == 2 {
                    let first = rows[0].clone();
                    rows.fill(first);
                }
                (rows, k_min, k_min + extra)
            })
    }

    /// Thresholds at or below zero (never flat unless the gain is
    /// negative), exactly zero, inside the range real gains take, and at
    /// or above one (flat at the first step).
    fn min_gain() -> impl Strategy<Value = f64> {
        (0u8..4, 0.0f64..1.0).prop_map(|(mode, u)| match mode {
            0 => -u,
            1 => 0.0,
            2 => 0.3 * u,
            _ => 1.0 + u,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn early_stop_matches_full_sweep(
            (rows, k_min, k_max) in sweep_instance(),
            min_gain in min_gain(),
            seed in 0u64..1000,
        ) {
            let data = Dataset::from_rows(rows).unwrap();
            let oracle = full_sweep(&data, k_min, k_max, min_gain, seed);
            match (elbow_k(&data, k_min, k_max, min_gain, seed), oracle) {
                (Ok(report), Ok((chosen_k, model, inertias))) => {
                    prop_assert_eq!(report.chosen_k, chosen_k);
                    prop_assert_eq!(bits(&report.model), bits(&model));
                    // Fitted through the first flat step, or to the cap.
                    let fitted = (chosen_k + 2 - k_min).min(inertias.len());
                    let got: Vec<u64> = report.inertias.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = inertias[..fitted].iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got, want);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(false, "elbow_k {got:?} but full sweep {want:?}"),
            }
        }
    }

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
        // k = 4 showed the flat step; nothing beyond it was fitted.
        assert_eq!(report.inertias.len(), 4);
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
        // A threshold that never trips runs the sweep to its cap.
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let report = elbow_k(&data, 1, 10, -1.0, 0).unwrap();
        assert_eq!(report.inertias.len(), 3);
        assert_eq!(report.chosen_k, 3);
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
