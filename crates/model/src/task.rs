//! Workload units: tasks, jobs, priorities, scheduling classes.
//!
//! This mirrors the Google cluster-trace data model analysed in Section III
//! of the paper: a *job* consists of one or more *tasks*; each task is
//! scheduled on a single machine and carries a normalized `(cpu, mem)`
//! demand, a priority in `0..=11`, and a scheduling (latency-sensitivity)
//! class in `0..=3`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ModelError, Resources, SimDuration, SimTime};

/// Opaque identifier of a task, unique within a trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub u64);

/// Opaque identifier of a job (a set of tasks submitted together).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A task priority in the Google-trace range `0..=11`.
///
/// Priorities are grouped into the three [`PriorityGroup`]s the paper works
/// at: *gratis* (0–1), *other* (2–8) and *production* (9–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Priority(u8);

impl Priority {
    /// Highest (production) priority.
    pub const MAX: Priority = Priority(11);

    /// Creates a priority, validating the trace range `0..=11`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PriorityOutOfRange`] for values above 11.
    pub fn new(level: u8) -> Result<Self, ModelError> {
        if level <= Self::MAX.0 {
            Ok(Priority(level))
        } else {
            Err(ModelError::PriorityOutOfRange(level))
        }
    }

    /// The raw level in `0..=11`.
    pub fn level(self) -> u8 {
        self.0
    }

    /// The coarse group this priority belongs to.
    pub fn group(self) -> PriorityGroup {
        PriorityGroup::of_level(self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The three coarse priority groups used throughout the paper
/// (Reiss et al.'s grouping of the 12 trace priorities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PriorityGroup {
    /// Priorities 0–1: free-tier / best-effort tasks.
    Gratis,
    /// Priorities 2–8: everything in between.
    Other,
    /// Priorities 9–11: revenue-generating, latency-sensitive tasks.
    Production,
}

impl PriorityGroup {
    /// All groups, lowest priority first.
    pub const ALL: [PriorityGroup; 3] =
        [PriorityGroup::Gratis, PriorityGroup::Other, PriorityGroup::Production];

    /// Maps a raw priority level to its group. Levels above 11 saturate to
    /// [`PriorityGroup::Production`].
    pub fn of_level(level: u8) -> Self {
        match level {
            0..=1 => PriorityGroup::Gratis,
            2..=8 => PriorityGroup::Other,
            _ => PriorityGroup::Production,
        }
    }

    /// A dense index in `0..3`, ordered gratis < other < production.
    pub fn index(self) -> usize {
        match self {
            PriorityGroup::Gratis => 0,
            PriorityGroup::Other => 1,
            PriorityGroup::Production => 2,
        }
    }

    /// The inclusive range of raw priority levels in this group.
    pub fn level_range(self) -> (u8, u8) {
        match self {
            PriorityGroup::Gratis => (0, 1),
            PriorityGroup::Other => (2, 8),
            PriorityGroup::Production => (9, 11),
        }
    }
}

impl fmt::Display for PriorityGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityGroup::Gratis => f.write_str("gratis"),
            PriorityGroup::Other => f.write_str("other"),
            PriorityGroup::Production => f.write_str("production"),
        }
    }
}

/// A latency-sensitivity class in `0..=3` (0 = batch, 3 = most
/// latency-sensitive, e.g. user-facing servers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SchedulingClass(u8);

impl SchedulingClass {
    /// Least latency-sensitive (batch).
    pub const BATCH: SchedulingClass = SchedulingClass(0);

    /// Creates a scheduling class, validating the range `0..=3`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SchedulingClassOutOfRange`] for values above 3.
    pub fn new(class: u8) -> Result<Self, ModelError> {
        if class <= 3 {
            Ok(SchedulingClass(class))
        } else {
            Err(ModelError::SchedulingClassOutOfRange(class))
        }
    }

    /// The raw class in `0..=3`.
    pub fn level(self) -> u8 {
        self.0
    }
}

impl fmt::Display for SchedulingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sc{}", self.0)
    }
}

/// One schedulable unit of work.
///
/// # Examples
///
/// ```
/// use harmony_model::{Priority, PriorityGroup, Resources, SchedulingClass, SimDuration,
///     SimTime, Task, TaskId, JobId};
///
/// let task = Task {
///     id: TaskId(1),
///     job: JobId(1),
///     arrival: SimTime::ZERO,
///     duration: SimDuration::from_secs(90.0),
///     demand: Resources::new(0.0125, 0.0159),
///     priority: Priority::new(0)?,
///     sched_class: SchedulingClass::BATCH,
/// };
/// assert_eq!(task.priority.group(), PriorityGroup::Gratis);
/// # Ok::<(), harmony_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Unique id within the trace.
    pub id: TaskId,
    /// The job this task belongs to.
    pub job: JobId,
    /// Submission time.
    pub arrival: SimTime,
    /// True execution time once placed on a machine. In the trace data
    /// model this is only known *after* the task finishes; run-time
    /// classifiers must not peek at it (see `harmony::classify`).
    pub duration: SimDuration,
    /// Maximum requested resources, normalized to the largest machine.
    pub demand: Resources,
    /// Priority level (0–11).
    pub priority: Priority,
    /// Latency-sensitivity class (0–3).
    pub sched_class: SchedulingClass,
}

impl Task {
    /// Validates the task's invariants: non-negative finite demand that
    /// fits in a normalized machine, and a finite duration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTask`] describing the violated
    /// invariant.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !self.demand.is_valid() {
            return Err(ModelError::InvalidTask {
                id: self.id,
                reason: format!("demand {} is not a valid resource vector", self.demand),
            });
        }
        if !self.demand.fits_within(Resources::ONE) {
            return Err(ModelError::InvalidTask {
                id: self.id,
                reason: format!("demand {} exceeds the largest machine", self.demand),
            });
        }
        if !self.duration.as_secs().is_finite() {
            return Err(ModelError::InvalidTask {
                id: self.id,
                reason: "duration is not finite".to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task() -> Task {
        Task {
            id: TaskId(7),
            job: JobId(3),
            arrival: SimTime::from_secs(12.0),
            duration: SimDuration::from_secs(100.0),
            demand: Resources::new(0.1, 0.2),
            priority: Priority::new(9).unwrap(),
            sched_class: SchedulingClass::new(2).unwrap(),
        }
    }

    #[test]
    fn priority_groups_cover_all_levels() {
        for level in 0..=11u8 {
            let p = Priority::new(level).unwrap();
            let expected = match level {
                0 | 1 => PriorityGroup::Gratis,
                2..=8 => PriorityGroup::Other,
                _ => PriorityGroup::Production,
            };
            assert_eq!(p.group(), expected, "level {level}");
        }
        assert!(Priority::new(12).is_err());
    }

    #[test]
    fn group_index_and_range_are_consistent() {
        for (i, g) in PriorityGroup::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
            let (lo, hi) = g.level_range();
            assert_eq!(PriorityGroup::of_level(lo), *g);
            assert_eq!(PriorityGroup::of_level(hi), *g);
        }
    }

    #[test]
    fn scheduling_class_bounds() {
        assert!(SchedulingClass::new(0).is_ok());
        assert!(SchedulingClass::new(3).is_ok());
        assert!(SchedulingClass::new(4).is_err());
        assert_eq!(SchedulingClass::BATCH.level(), 0);
        assert_eq!(SchedulingClass::new(3).unwrap().level(), 3);
    }

    #[test]
    fn task_validation() {
        let mut t = sample_task();
        assert!(t.validate().is_ok());
        t.demand = Resources::new(1.5, 0.1);
        assert!(t.validate().is_err());
        t.demand = Resources::new(f64::NAN, 0.1);
        assert!(t.validate().is_err());
    }

    #[test]
    fn display_impls() {
        let t = sample_task();
        assert_eq!(format!("{}", t.id), "task#7");
        assert_eq!(format!("{}", t.job), "job#3");
        assert_eq!(format!("{}", t.priority), "p9");
        assert_eq!(format!("{}", t.sched_class), "sc2");
        assert_eq!(format!("{}", PriorityGroup::Gratis), "gratis");
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample_task();
        let json = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
