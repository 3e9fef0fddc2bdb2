//! The dynamic-capacity-provisioning hook.

use harmony_model::{SimTime, Task};
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;

/// A borrowed, index-based view over a subset of the trace's task arena.
///
/// The engine stores every task once, in a flat slice, and hands
/// controllers *views* — either the whole slice (`dense`) or a list of
/// indices into it (`indexed`). This removes the per-control-period
/// `Vec<Task>` clones the seed engine paid for pending/running handoff:
/// at paper scale those clones alone dominated the control path.
///
/// The view is `Copy` and iterates `&Task` in the order of its index
/// list, so `for task in observation.pending { … }` call sites read
/// exactly as before.
#[derive(Debug, Clone, Copy)]
pub struct TaskView<'a> {
    tasks: &'a [Task],
    idxs: Option<&'a [u32]>,
}

impl<'a> TaskView<'a> {
    /// A view over a whole slice, in slice order.
    pub fn dense(tasks: &'a [Task]) -> Self {
        TaskView { tasks, idxs: None }
    }

    /// A view over `idxs` positions of the task arena, in `idxs` order.
    ///
    /// Indices out of range panic on iteration, like slice indexing.
    pub fn indexed(tasks: &'a [Task], idxs: &'a [u32]) -> Self {
        TaskView { tasks, idxs: Some(idxs) }
    }

    /// Number of tasks in the view.
    pub fn len(&self) -> usize {
        match self.idxs {
            Some(idxs) => idxs.len(),
            None => self.tasks.len(),
        }
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the viewed tasks in view order.
    pub fn iter(&self) -> TaskViewIter<'a> {
        TaskViewIter { view: *self, pos: 0 }
    }
}

impl Default for TaskView<'_> {
    fn default() -> Self {
        TaskView::dense(&[])
    }
}

/// Iterator over a [`TaskView`].
#[derive(Debug, Clone)]
pub struct TaskViewIter<'a> {
    view: TaskView<'a>,
    pos: usize,
}

impl<'a> Iterator for TaskViewIter<'a> {
    type Item = &'a Task;

    fn next(&mut self) -> Option<&'a Task> {
        let item = match self.view.idxs {
            Some(idxs) => &self.view.tasks[*idxs.get(self.pos)? as usize],
            None => self.view.tasks.get(self.pos)?,
        };
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TaskViewIter<'_> {}

impl<'a> IntoIterator for TaskView<'a> {
    type Item = &'a Task;
    type IntoIter = TaskViewIter<'a>;

    fn into_iter(self) -> TaskViewIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &TaskView<'a> {
    type Item = &'a Task;
    type IntoIter = TaskViewIter<'a>;

    fn into_iter(self) -> TaskViewIter<'a> {
        self.iter()
    }
}

/// What a controller observes at each control period.
#[derive(Debug)]
pub struct Observation<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The cluster (machine states, utilizations, energy so far).
    pub cluster: &'a Cluster,
    /// Tasks waiting to be scheduled, in priority-then-arrival order.
    pub pending: TaskView<'a>,
    /// Tasks that arrived during the last control period, in arrival
    /// order (the per-class arrival-rate monitor input).
    pub arrived_last_period: TaskView<'a>,
    /// Tasks currently executing on machines (their containers are
    /// occupied and their hosts cannot be powered off), in task-arena
    /// order.
    pub running: TaskView<'a>,
}

/// A capacity-provisioning decision: the number of machines of each type
/// that should be active (on or booting) after this control period.
///
/// The engine realizes the target by booting powered-off machines or
/// powering off idle ones; machines running tasks are drained naturally
/// (never killed), so the realized count may lag the target downwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlDecision {
    /// Target active machine count per type, indexed by
    /// [`harmony_model::MachineTypeId`]. Values are clamped to the
    /// per-type population.
    pub target_active: Vec<usize>,
    /// Whether the engine may migrate running tasks off machines in
    /// excess of the target so they can power down — Algorithm 1's
    /// re-packing step ("perform re-packing, turn off other machines").
    /// Only CBS requests this; CBP and the baseline leave placements
    /// alone.
    pub repack: bool,
}

impl ControlDecision {
    /// Keep everything as it is (an empty decision).
    pub fn unchanged(cluster: &Cluster) -> Self {
        ControlDecision { target_active: cluster.active_per_type(), repack: false }
    }

    /// A plain capacity target without re-packing.
    pub fn targets(target_active: Vec<usize>) -> Self {
        ControlDecision { target_active, repack: false }
    }

    /// A capacity target with re-packing enabled.
    pub fn targets_with_repack(target_active: Vec<usize>) -> Self {
        ControlDecision { target_active, repack: true }
    }
}

/// The forecast quality tier a controller's predictor ran at: the
/// graceful-degradation ladder steps down this list when a higher tier
/// produces unusable output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForecastTier {
    /// Full ARIMA fit (the paper's predictor).
    Arima,
    /// Moving-average fallback.
    MovingAverage,
    /// Last recorded observation, repeated.
    LastObservation,
}

/// What part of the control pipeline degraded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DegradationKind {
    /// A class's forecast fell back below the tier its history entitles
    /// (non-finite or outlier output from the higher tier).
    ForecastFallback {
        /// Dense class index.
        class: usize,
        /// The tier actually used.
        tier: ForecastTier,
    },
    /// The provisioning LP failed; the previous plan was re-actuated.
    LpReusedPreviousPlan,
    /// The provisioning LP failed with no previous plan to reuse; a
    /// greedy per-class sizing was actuated instead.
    LpGreedyFallback,
    /// The control step failed outright and capacity was held unchanged.
    ControlHold,
}

/// One degradation a controller survived, surfaced in
/// [`crate::SimReport::degradations`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// When the degradation occurred (the control tick's time).
    pub at: SimTime,
    /// Which rung of the ladder was taken.
    pub kind: DegradationKind,
    /// Human-readable cause (e.g. the underlying error message).
    pub detail: String,
}

/// A dynamic capacity provisioner, invoked once per control period.
pub trait Controller: std::fmt::Debug {
    /// How often [`Controller::decide`] runs.
    fn control_period(&self) -> harmony_model::SimDuration;

    /// Makes a provisioning decision from the current observation.
    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision;

    /// Drains the degradation events accumulated since the last call.
    /// The engine collects these after every [`Controller::decide`] into
    /// the run's [`crate::SimReport`]. Controllers without a degradation
    /// ladder keep the default (no events).
    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        Vec::new()
    }
}

/// A controller that never changes anything — used for open-loop replays
/// such as the Fig. 4 scheduling-delay analysis on a fully-on cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl Controller for NullController {
    fn control_period(&self) -> harmony_model::SimDuration {
        harmony_model::SimDuration::from_hours(1.0)
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        ControlDecision::unchanged(observation.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::MachineCatalog;

    #[test]
    fn null_controller_preserves_state() {
        let cluster = Cluster::new(MachineCatalog::table2().scaled(1000));
        let obs = Observation {
            now: SimTime::ZERO,
            cluster: &cluster,
            pending: TaskView::default(),
            arrived_last_period: TaskView::default(),
            running: TaskView::default(),
        };
        let d = NullController.decide(&obs);
        assert_eq!(d.target_active, vec![0, 0, 0, 0]);
        assert_eq!(d, ControlDecision::unchanged(&cluster));
        assert!(NullController.control_period().as_secs() > 0.0);
    }
}
