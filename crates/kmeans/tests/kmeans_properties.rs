//! Property-based tests for the clustering substrate.

use harmony_kmeans::{Dataset, KMeans, Log10Transform};
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..4, 8usize..60).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, dim), n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Assignments cover every point, labels are in range, and the
    /// reported inertia matches a recomputation from the assignments.
    #[test]
    fn fit_invariants(rows in dataset_strategy(), k in 1usize..5, seed in 0u64..1000) {
        let data = Dataset::from_rows(rows.clone()).unwrap();
        prop_assume!(data.len() >= k);
        let model = KMeans::new(k).seed(seed).fit(&data).unwrap();
        prop_assert_eq!(model.assignments().len(), data.len());
        prop_assert!(model.assignments().iter().all(|&a| a < k));
        let mut inertia = 0.0;
        for (i, row) in rows.iter().enumerate() {
            let c = &model.centroids()[model.assignments()[i]];
            inertia += row.iter().zip(c).map(|(x, y)| (x - y) * (x - y)).sum::<f64>();
            // The assigned centroid is (weakly) the nearest one.
            for other in model.centroids() {
                let d_other: f64 =
                    row.iter().zip(other).map(|(x, y)| (x - y) * (x - y)).sum();
                let d_own: f64 = row.iter().zip(c).map(|(x, y)| (x - y) * (x - y)).sum();
                prop_assert!(d_own <= d_other + 1e-9);
            }
        }
        prop_assert!((inertia - model.inertia()).abs() < 1e-6 * (1.0 + inertia));
    }

    /// The centroid of each cluster is the mean of its members.
    #[test]
    fn centroids_are_cluster_means(rows in dataset_strategy(), seed in 0u64..1000) {
        let data = Dataset::from_rows(rows.clone()).unwrap();
        let k = 2.min(data.len());
        let model = KMeans::new(k).seed(seed).fit(&data).unwrap();
        for c in 0..k {
            let members: Vec<&Vec<f64>> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| model.assignments()[*i] == c)
                .map(|(_, r)| r)
                .collect();
            if members.is_empty() {
                continue;
            }
            for (j, &cv) in model.centroids()[c].iter().enumerate() {
                let mean: f64 =
                    members.iter().map(|r| r[j]).sum::<f64>() / members.len() as f64;
                prop_assert!((cv - mean).abs() < 1e-6 * (1.0 + mean.abs()), "dim {j}");
            }
        }
    }

    /// Log transform round-trips positive values through `10^y - offset`.
    #[test]
    fn log_roundtrip(x in 0.0f64..1e6, offset in 1e-9f64..1.0) {
        let t = Log10Transform::new(offset);
        let back = 10f64.powf(t.apply(x)) - offset;
        prop_assert!((back - x).abs() < 1e-6 * (1.0 + x));
    }
}
