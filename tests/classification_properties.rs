//! Property-based tests for the two-step task classifier.

use harmony::classify::{ClassifierConfig, Regime, TaskClassifier};
use harmony_model::{PriorityGroup, SimDuration};
use harmony_trace::{TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn fitted(seed: u64) -> (TaskClassifier, harmony_trace::Trace) {
    let config = TraceConfig::small().with_span(SimDuration::from_mins(45.0)).with_seed(seed);
    let trace = TraceGenerator::new(config).generate();
    let classifier = TaskClassifier::fit(
        trace.tasks(),
        &ClassifierConfig { k_per_group: Some([3, 3, 3]), ..Default::default() },
    )
    .expect("fit succeeds on generated traces");
    (classifier, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every task's run-time label stays within its own priority group,
    /// for any trace seed.
    #[test]
    fn labels_stay_within_priority_group(seed in 0u64..500) {
        let (classifier, trace) = fitted(seed);
        for task in trace.tasks().iter().take(300) {
            let label = classifier.class(classifier.initial_label(task));
            prop_assert_eq!(label.group, task.priority.group());
            let oracle = classifier.class(classifier.oracle_label(task));
            prop_assert_eq!(oracle.group, task.priority.group());
        }
    }

    /// Relabeling is monotone: once a task is labeled long, more running
    /// time never flips it back to short.
    #[test]
    fn relabeling_is_monotone(seed in 0u64..500) {
        let (classifier, trace) = fitted(seed);
        for task in trace.tasks().iter().take(100) {
            let mut was_long = false;
            for secs in [1.0, 60.0, 600.0, 3600.0, 86_400.0] {
                let label = classifier.class(classifier.relabel(task, SimDuration::from_secs(secs)));
                let is_long = label.regime == Regime::Long;
                prop_assert!(!was_long || is_long, "long → short flip at {secs}s");
                was_long = is_long;
            }
        }
    }

    /// Class statistics are internally consistent: counts sum to the
    /// trace size and every centroid is a valid resource point.
    #[test]
    fn class_stats_consistent(seed in 0u64..500) {
        let (classifier, trace) = fitted(seed);
        let total: usize = classifier.classes().iter().map(|c| c.stats.count).sum();
        prop_assert_eq!(total, trace.len());
        for class in classifier.classes() {
            prop_assert!(class.stats.mean_demand.is_valid());
            prop_assert!(class.stats.std_demand.is_valid());
            prop_assert!(class.stats.cv2_duration >= 0.0);
            prop_assert!(class.stats.mean_duration.as_secs() >= 0.0);
        }
    }

    /// The initial-label error equals the fraction of tasks whose oracle
    /// label is a long sub-class (everything starts short).
    #[test]
    fn initial_error_equals_long_mass(seed in 0u64..500) {
        let (classifier, trace) = fitted(seed);
        let err = classifier.initial_label_error(trace.tasks());
        let long_mass = trace
            .tasks()
            .iter()
            .filter(|t| {
                classifier.class(classifier.oracle_label(t)).regime == Regime::Long
            })
            .count() as f64
            / trace.len() as f64;
        prop_assert!((err - long_mass).abs() < 1e-12);
        // The design claim: this error is a minority of tasks.
        prop_assert!(err < 0.5, "err = {err}");
    }
}

#[test]
fn deterministic_fit_for_fixed_seed() {
    let (a, trace) = fitted(42);
    let b = TaskClassifier::fit(
        trace.tasks(),
        &ClassifierConfig { k_per_group: Some([3, 3, 3]), ..Default::default() },
    )
    .unwrap();
    assert_eq!(a.classes().len(), b.classes().len());
    for (ca, cb) in a.classes().iter().zip(b.classes()) {
        assert_eq!(ca, cb);
    }
}

#[test]
fn every_group_has_both_regimes_on_bimodal_data() {
    let (classifier, _) = fitted(7);
    for group in PriorityGroup::ALL {
        let has_short =
            classifier.classes().iter().any(|c| c.group == group && c.regime == Regime::Short);
        assert!(has_short, "{group} must have a short class");
    }
    // Long classes exist somewhere (bimodal durations).
    assert!(classifier.classes().iter().any(|c| c.regime == Regime::Long));
}
