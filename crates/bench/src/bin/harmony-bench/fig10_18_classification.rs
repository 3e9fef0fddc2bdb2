//! Figs. 10–18: the task-classification results (Section IX-A).
//!
//! * Figs. 10/11/12 — number of tasks per class (gratis/other/
//!   production);
//! * Figs. 13/15/17 — class centroids: mean ± std of CPU and memory;
//! * Figs. 14/16/18 — short/long sub-classes from the k=2 duration
//!   split.
//!
//! Also reports the run-time labeling error of the two-step scheme vs. a
//! one-shot clustering that includes duration as a feature (the design
//! ablation from DESIGN.md §5).

use harmony::classify::{ClassifierConfig, Regime, TaskClassifier};
use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::PriorityGroup;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let classifier = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).expect("fit");

    for group in PriorityGroup::ALL {
        section(&format!("Figs. 10-18 ({group}): classes, centroids (mean±std), short/long split"));
        let rows: Vec<Vec<String>> = classifier
            .classes()
            .iter()
            .filter(|c| c.group == group)
            .map(|c| {
                vec![
                    format!("{}", c.id),
                    format!("static{}", c.static_class),
                    match c.regime {
                        Regime::Short => "short".to_owned(),
                        Regime::Long => "long".to_owned(),
                    },
                    c.stats.count.to_string(),
                    fmt(c.stats.mean_demand.cpu),
                    fmt(c.stats.std_demand.cpu),
                    fmt(c.stats.mean_demand.mem),
                    fmt(c.stats.std_demand.mem),
                    fmt(c.stats.mean_duration.as_secs()),
                    fmt(c.stats.cv2_duration),
                ]
            })
            .collect();
        table(
            &[
                "class",
                "static",
                "regime",
                "tasks",
                "cpu_mean",
                "cpu_std",
                "mem_mean",
                "mem_std",
                "dur_mean_s",
                "dur_cv2",
            ],
            &rows,
        );
    }

    section("Characterization quality (paper: std << mean per class)");
    let tight = classifier
        .classes()
        .iter()
        .filter(|c| {
            c.stats.std_demand.cpu < c.stats.mean_demand.cpu
                && c.stats.std_demand.mem < c.stats.mean_demand.mem
        })
        .count();
    println!("classes with std < mean on both resources: {}/{}", tight, classifier.classes().len());

    section("Two-step vs one-shot labeling (run-time labeling error)");
    let two_step_err = classifier.initial_label_error(trace.tasks());
    println!("two-step initial-label error: {}", fmt(two_step_err));
    println!(
        "(the error equals the long-task mass that gets relabeled in place; a \
         one-shot clustering over (size, duration) cannot label at arrival at all, \
         since duration is unknown until the task finishes)"
    );
}
