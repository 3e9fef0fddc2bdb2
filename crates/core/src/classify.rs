//! Two-step task characterization and run-time classification
//! (Section V).
//!
//! **Step 1** clusters tasks by *static* features — per priority group,
//! K-means over `(log10 cpu, log10 mem)` (sizes span orders of
//! magnitude, so clustering runs in log space). The number of clusters
//! per group is chosen with the elbow rule unless fixed.
//!
//! **Step 2** splits each static class into *short*/*long* sub-classes
//! with k=2 K-means on `log10(duration)`.
//!
//! Run-time labeling cannot see a task's duration, so every arriving
//! task is first labeled with its static class's **short** sub-class;
//! once its measured running time crosses the class's short/long
//! boundary, [`TaskClassifier::relabel`] moves it to the long sub-class.
//! "Since only a small fraction of tasks are long, the error caused by
//! the incorrect labeling is both small and short-lived."

use harmony_kmeans::{elbow_k, Dataset, KMeans, Log10Transform};
use harmony_model::{ClassStats, PriorityGroup, Resources, SimDuration, Task, TaskClassId};
use serde::{Deserialize, Serialize};

use crate::HarmonyError;

/// Duration regime of a task class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// The short sub-class (initial label for every arriving task).
    Short,
    /// The long sub-class (tasks relabeled after crossing the boundary).
    Long,
}

/// A final (static × duration) task class.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskClass {
    /// Stable identifier (dense, `0..classes().len()`).
    pub id: TaskClassId,
    /// Priority group of the member tasks.
    pub group: PriorityGroup,
    /// Index of the parent static class within the group.
    pub static_class: usize,
    /// Short or long sub-class.
    pub regime: Regime,
    /// Member statistics, ready for container sizing and queueing.
    pub stats: ClassStats,
    /// Centroid in clustering space `(log10 cpu, log10 mem)`.
    pub centroid_log: [f64; 2],
}

/// Classifier calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Fixed number of static classes per priority group; `None` selects
    /// per group with the elbow rule over `2..=k_max`.
    pub k_per_group: Option<[usize; 3]>,
    /// Elbow-sweep cap when `k_per_group` is `None`.
    pub k_max: usize,
    /// Elbow threshold: minimum relative inertia gain to keep adding
    /// clusters.
    pub elbow_min_gain: f64,
    /// Whether to run the second (duration) split.
    pub split_by_duration: bool,
    /// RNG seed for the K-means runs.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            k_per_group: None,
            k_max: 10,
            elbow_min_gain: 0.02,
            split_by_duration: true,
            seed: 2013,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct StaticClass {
    /// Centroid in log space.
    centroid: [f64; 2],
    /// Short/long boundary on duration (seconds); `None` when the class
    /// has a single duration regime.
    boundary_secs: Option<f64>,
    /// Final class id of the short (or only) sub-class.
    short_id: TaskClassId,
    /// Final class id of the long sub-class (equals `short_id` when not
    /// split).
    long_id: TaskClassId,
}

/// A fitted two-step task classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskClassifier {
    transform: Log10Transform,
    /// Static classes per priority group.
    static_classes: [Vec<StaticClass>; 3],
    classes: Vec<TaskClass>,
}

impl TaskClassifier {
    /// Fits the two-step classifier on observed tasks (durations are
    /// known here — this is the offline characterization step, run on
    /// historical data).
    ///
    /// # Errors
    ///
    /// * [`HarmonyError::InsufficientData`] if any priority group has no
    ///   tasks.
    /// * [`HarmonyError::Classification`] on clustering failures.
    pub fn fit(tasks: &[Task], config: &ClassifierConfig) -> Result<Self, HarmonyError> {
        let transform = Log10Transform::default();
        let mut static_classes: [Vec<StaticClass>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut classes: Vec<TaskClass> = Vec::new();

        for group in PriorityGroup::ALL {
            let members: Vec<&Task> =
                tasks.iter().filter(|t| t.priority.group() == group).collect();
            if members.is_empty() {
                return Err(HarmonyError::InsufficientData {
                    context: "task classifier: empty priority group",
                });
            }
            // Step 1: static clustering in log size space.
            let rows: Vec<Vec<f64>> = members
                .iter()
                .map(|t| vec![transform.apply(t.demand.cpu), transform.apply(t.demand.mem)])
                .collect();
            let data = Dataset::from_rows(rows)?;
            let model = match config.k_per_group {
                Some(ks) => {
                    let k = ks[group.index()].clamp(1, members.len());
                    KMeans::new(k).seed(config.seed).fit(&data)?
                }
                None => elbow_k(&data, 1, config.k_max, config.elbow_min_gain, config.seed)?.model,
            };
            let k = model.k();

            for c in 0..k {
                let member_idx: Vec<usize> = model
                    .assignments()
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| a == c)
                    .map(|(i, _)| i)
                    .collect();
                let centroid = [model.centroids()[c][0], model.centroids()[c][1]];
                let split = if config.split_by_duration {
                    split_by_duration(&member_idx, &members, config.seed)
                } else {
                    None
                };
                match split {
                    Some((boundary, short_members, long_members)) => {
                        let short_id = TaskClassId(classes.len());
                        classes.push(build_class(
                            short_id,
                            group,
                            c,
                            Regime::Short,
                            centroid,
                            &short_members,
                            &members,
                        ));
                        let long_id = TaskClassId(classes.len());
                        classes.push(build_class(
                            long_id,
                            group,
                            c,
                            Regime::Long,
                            centroid,
                            &long_members,
                            &members,
                        ));
                        static_classes[group.index()].push(StaticClass {
                            centroid,
                            boundary_secs: Some(boundary),
                            short_id,
                            long_id,
                        });
                    }
                    None => {
                        let id = TaskClassId(classes.len());
                        classes.push(build_class(
                            id,
                            group,
                            c,
                            Regime::Short,
                            centroid,
                            &member_idx,
                            &members,
                        ));
                        static_classes[group.index()].push(StaticClass {
                            centroid,
                            boundary_secs: None,
                            short_id: id,
                            long_id: id,
                        });
                    }
                }
            }
        }
        Ok(TaskClassifier { transform, static_classes, classes })
    }

    /// All final task classes, ordered by id.
    pub fn classes(&self) -> &[TaskClass] {
        &self.classes
    }

    /// One class by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class(&self, id: TaskClassId) -> &TaskClass {
        &self.classes[id.0]
    }

    /// The static class a task belongs to (nearest centroid in log-size
    /// space within its priority group) — uses static features only.
    pub fn classify_static(&self, task: &Task) -> usize {
        let group = task.priority.group();
        let point = [self.transform.apply(task.demand.cpu), self.transform.apply(task.demand.mem)];
        let mut best = (0usize, f64::INFINITY);
        for (i, sc) in self.static_classes[group.index()].iter().enumerate() {
            let d = (point[0] - sc.centroid[0]).powi(2) + (point[1] - sc.centroid[1]).powi(2);
            if d < best.1 {
                best = (i, d);
            }
        }
        best.0
    }

    /// The initial run-time label for an arriving task: the short
    /// sub-class of its static class (duration is unknown at arrival).
    pub fn initial_label(&self, task: &Task) -> TaskClassId {
        let group = task.priority.group();
        let sc = &self.static_classes[group.index()][self.classify_static(task)];
        sc.short_id
    }

    /// Relabels a task given its measured running time so far; returns
    /// the long sub-class once the short/long boundary is crossed.
    pub fn relabel(&self, task: &Task, running_for: SimDuration) -> TaskClassId {
        let group = task.priority.group();
        let sc = &self.static_classes[group.index()][self.classify_static(task)];
        match sc.boundary_secs {
            Some(b) if running_for.as_secs() > b => sc.long_id,
            _ => sc.short_id,
        }
    }

    /// The *oracle* label using the true duration — what run-time
    /// labeling converges to. Used to quantify relabeling error.
    pub fn oracle_label(&self, task: &Task) -> TaskClassId {
        self.relabel(task, task.duration)
    }

    /// Fraction of tasks whose initial label differs from the oracle
    /// label (the relabeling error the two-step design keeps small).
    pub fn initial_label_error(&self, tasks: &[Task]) -> f64 {
        if tasks.is_empty() {
            return 0.0;
        }
        let wrong = tasks.iter().filter(|t| self.initial_label(t) != self.oracle_label(t)).count();
        wrong as f64 / tasks.len() as f64
    }
}

/// k=2 K-means on log durations. Returns `(boundary_secs, short_member
/// indices, long member indices)`, or `None` when the class is too small
/// or homogeneous to split.
fn split_by_duration(
    member_idx: &[usize],
    members: &[&Task],
    seed: u64,
) -> Option<(f64, Vec<usize>, Vec<usize>)> {
    if member_idx.len() < 4 {
        return None;
    }
    let rows: Vec<Vec<f64>> =
        member_idx.iter().map(|&i| vec![members[i].duration.as_secs().max(1.0).log10()]).collect();
    let data = Dataset::from_rows(rows).ok()?;
    let model = KMeans::new(2).seed(seed).fit(&data).ok()?;
    let c0 = model.centroids()[0][0];
    let c1 = model.centroids()[1][0];
    if (c0 - c1).abs() < 0.3 {
        // Less than a factor-of-2 separation: effectively one regime.
        return None;
    }
    let (short_label, _long_label) = if c0 < c1 { (0, 1) } else { (1, 0) };
    let boundary = 10f64.powf((c0 + c1) / 2.0);
    let mut short = Vec::new();
    let mut long = Vec::new();
    for (pos, &i) in member_idx.iter().enumerate() {
        if model.assignments()[pos] == short_label {
            short.push(i);
        } else {
            long.push(i);
        }
    }
    if short.is_empty() || long.is_empty() {
        return None;
    }
    Some((boundary, short, long))
}

fn build_class(
    id: TaskClassId,
    group: PriorityGroup,
    static_class: usize,
    regime: Regime,
    centroid: [f64; 2],
    member_idx: &[usize],
    members: &[&Task],
) -> TaskClass {
    let n = member_idx.len().max(1) as f64;
    let mut mean = Resources::ZERO;
    let mut mean_dur = 0.0f64;
    for &i in member_idx {
        mean += members[i].demand;
        mean_dur += members[i].duration.as_secs();
    }
    mean = mean / n;
    mean_dur /= n;
    let mut var = Resources::ZERO;
    let mut var_dur = 0.0f64;
    for &i in member_idx {
        let d = members[i].demand - mean;
        var += Resources::new(d.cpu * d.cpu, d.mem * d.mem);
        var_dur += (members[i].duration.as_secs() - mean_dur).powi(2);
    }
    var = var / n;
    var_dur /= n;
    let cv2 = if mean_dur > 0.0 { var_dur / (mean_dur * mean_dur) } else { 0.0 };
    TaskClass {
        id,
        group,
        static_class,
        regime,
        stats: ClassStats {
            id,
            group,
            mean_demand: mean,
            std_demand: Resources::new(var.cpu.sqrt(), var.mem.sqrt()),
            mean_duration: SimDuration::from_secs(mean_dur),
            cv2_duration: cv2,
            count: member_idx.len(),
        },
        centroid_log: centroid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn classifier() -> (TaskClassifier, harmony_trace::Trace) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(5)).generate();
        let c = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).unwrap();
        (c, trace)
    }

    #[test]
    fn classes_cover_all_groups_and_ids_are_dense() {
        let (c, _) = classifier();
        assert!(!c.classes().is_empty());
        for (i, class) in c.classes().iter().enumerate() {
            assert_eq!(class.id, TaskClassId(i));
            assert!(class.stats.count > 0);
        }
        for g in PriorityGroup::ALL {
            assert!(c.classes().iter().any(|cl| cl.group == g), "missing group {g}");
        }
    }

    #[test]
    fn short_and_long_subclasses_exist() {
        let (c, _) = classifier();
        let shorts = c.classes().iter().filter(|cl| cl.regime == Regime::Short).count();
        let longs = c.classes().iter().filter(|cl| cl.regime == Regime::Long).count();
        assert!(shorts > 0);
        assert!(longs > 0, "bimodal durations should produce long sub-classes");
        // Long sub-classes have longer mean durations than their short
        // siblings.
        for long in c.classes().iter().filter(|cl| cl.regime == Regime::Long) {
            let sibling = c
                .classes()
                .iter()
                .find(|cl| {
                    cl.group == long.group
                        && cl.static_class == long.static_class
                        && cl.regime == Regime::Short
                })
                .expect("long class has a short sibling");
            assert!(long.stats.mean_duration > sibling.stats.mean_duration);
        }
    }

    #[test]
    fn initial_label_is_short_subclass() {
        let (c, trace) = classifier();
        for task in trace.tasks().iter().take(500) {
            let label = c.class(c.initial_label(task));
            assert_eq!(label.regime, Regime::Short);
            assert_eq!(label.group, task.priority.group());
        }
    }

    #[test]
    fn relabel_crosses_boundary() {
        let (c, trace) = classifier();
        // Find a task in a split class and push its running time past the
        // boundary.
        let task = trace
            .tasks()
            .iter()
            .find(|t| {
                let sc = &c.static_classes[t.priority.group().index()][c.classify_static(t)];
                sc.boundary_secs.is_some()
            })
            .expect("some class is split");
        let sc = &c.static_classes[task.priority.group().index()][c.classify_static(task)];
        let boundary = sc.boundary_secs.unwrap();
        assert_eq!(c.relabel(task, SimDuration::from_secs(boundary * 0.5)), sc.short_id);
        assert_eq!(c.relabel(task, SimDuration::from_secs(boundary * 2.0)), sc.long_id);
    }

    #[test]
    fn initial_label_error_is_small() {
        // The design claim: most tasks are short, so labeling everything
        // short first is mostly right.
        let (c, trace) = classifier();
        let err = c.initial_label_error(trace.tasks());
        assert!(err < 0.5, "initial label error should be bounded, got {err}");
        // And it matches the long-task fraction by construction.
        let empty_err = c.initial_label_error(&[]);
        assert_eq!(empty_err, 0.0);
    }

    #[test]
    fn fixed_k_is_respected() {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(5)).generate();
        let config = ClassifierConfig {
            k_per_group: Some([2, 3, 2]),
            split_by_duration: false,
            ..Default::default()
        };
        let c = TaskClassifier::fit(trace.tasks(), &config).unwrap();
        let per_group: Vec<usize> = PriorityGroup::ALL
            .iter()
            .map(|g| c.classes().iter().filter(|cl| cl.group == *g).count())
            .collect();
        assert_eq!(per_group, vec![2, 3, 2]);
        // Without the duration split every class is its own short class.
        assert!(c.classes().iter().all(|cl| cl.regime == Regime::Short));
    }

    #[test]
    fn empty_group_is_an_error() {
        let trace = TraceGenerator::new(TraceConfig::small()).generate();
        let only_gratis: Vec<_> = trace
            .tasks()
            .iter()
            .filter(|t| t.priority.group() == PriorityGroup::Gratis)
            .cloned()
            .collect();
        assert!(matches!(
            TaskClassifier::fit(&only_gratis, &ClassifierConfig::default()),
            Err(HarmonyError::InsufficientData { .. })
        ));
    }

    #[test]
    fn class_stats_capture_size_differences() {
        let (c, _) = classifier();
        // Across gratis classes, centroids must differ (cpu-heavy vs
        // small tasks were generated).
        let gratis: Vec<&TaskClass> =
            c.classes().iter().filter(|cl| cl.group == PriorityGroup::Gratis).collect();
        assert!(gratis.len() >= 2);
        let cpus: Vec<f64> = gratis.iter().map(|cl| cl.stats.mean_demand.cpu).collect();
        let max = cpus.iter().cloned().fold(0.0, f64::max);
        let min = cpus.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min * 2.0, "classes should separate sizes: {cpus:?}");
    }
}
