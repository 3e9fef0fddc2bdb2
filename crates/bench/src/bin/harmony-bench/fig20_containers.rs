//! Fig. 20: total containers per priority group computed by HARMONY.
//!
//! Replays the trace through the monitoring → prediction → container-
//! manager pipeline (no simulator in the loop) and prints the container
//! counts the controller would reserve each period.

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::containers::ContainerManager;
use harmony::monitor::ArrivalMonitor;
use harmony::HarmonyConfig;
use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::{PriorityGroup, TaskClassId};

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let config = HarmonyConfig::default();
    let classifier = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).expect("fit");
    let manager = ContainerManager::new(&classifier, &config).expect("manager");
    let mut monitor = ArrivalMonitor::new(
        classifier.classes().len(),
        config.control_period,
        config.history_len,
        config.arima_min_history,
    );

    section("Fig. 20: containers per priority group per control period");
    let period = config.control_period;
    let mut rows = Vec::new();
    let mut chunk = Vec::new();
    let mut boundary = period;
    let mut period_idx = 0usize;
    for task in trace.tasks() {
        while task.arrival.as_secs() > boundary.as_secs() {
            rows.extend(flush_period(&mut monitor, &classifier, &manager, &mut chunk, period_idx));
            boundary += period;
            period_idx += 1;
        }
        chunk.push(*task);
    }
    rows.extend(flush_period(&mut monitor, &classifier, &manager, &mut chunk, period_idx));
    table(&["period", "gratis", "other", "production", "total"], &rows);
}

fn flush_period(
    monitor: &mut ArrivalMonitor,
    classifier: &TaskClassifier,
    manager: &ContainerManager,
    chunk: &mut Vec<harmony_model::Task>,
    period_idx: usize,
) -> Vec<Vec<String>> {
    monitor.record_period(chunk.iter(), classifier);
    chunk.clear();
    let rates = match monitor.forecast(1) {
        Ok(r) => r,
        Err(_) => return Vec::new(),
    };
    let mut per_group = [0usize; 3];
    for (n, class) in classifier.classes().iter().enumerate() {
        let count = manager.containers_for_rate(TaskClassId(n), rates[n][0]).unwrap_or(0);
        per_group[class.group.index()] += count;
    }
    vec![vec![
        period_idx.to_string(),
        per_group[PriorityGroup::Gratis.index()].to_string(),
        per_group[PriorityGroup::Other.index()].to_string(),
        per_group[PriorityGroup::Production.index()].to_string(),
        fmt(per_group.iter().sum::<usize>() as f64),
    ]]
}
