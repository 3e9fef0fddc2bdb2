//! Quota-coordinated scheduling for CBS.
//!
//! The CBS variant of HARMONY controls both provisioning *and*
//! scheduling. Each period the controller publishes, per task class,
//! the container total `Σ_m x_mn` from the rounded CBS-RELAX plan plus
//! the plan's machine-type preference order; the scheduler then:
//!
//! * admits a task only while its class has container slots left
//!   (the M/G/N container count of Section VI is the admission budget);
//! * places admitted tasks on the plan's preferred machine types first,
//!   falling back to any feasible machine — Algorithm 1's "the
//!   controller is free to schedule additional containers as long as the
//!   total number of containers for each n is at most x_mn".
//!
//! The ledger is *occupancy-aware*: slots held by still-running tasks
//! stay consumed across refreshes, so a refresh admits only
//! `max(0, Σ_m x_mn − running_n)` new placements.

use std::cell::RefCell;
use std::rc::Rc;

use harmony_model::{MachineTypeId, Task};
use harmony_sim::{Cluster, MachineId, Scheduler};

use crate::classify::TaskClassifier;

/// The shared (controller ↔ scheduler) quota ledger.
#[derive(Debug, Default)]
pub struct QuotaState {
    /// Remaining new-placement container slots per class.
    remaining: Vec<f64>,
    /// Containers currently held by running tasks per class.
    running: Vec<f64>,
    /// Per-class machine-type preference order (cheapest energy first).
    type_order: Vec<Vec<MachineTypeId>>,
}

impl QuotaState {
    /// Replaces the ledger with a fresh period's plan: per-class slot
    /// totals become `max(0, Σ_m quotas[m][n] − running[n])`.
    ///
    /// `running_per_class` is the controller's authoritative occupancy
    /// count (with short→long relabeling applied); it replaces the
    /// ledger's intra-period approximation, which labels tasks by their
    /// initial class only.
    pub fn refresh(
        &mut self,
        quotas: Vec<Vec<usize>>,
        type_order: Vec<Vec<MachineTypeId>>,
        running_per_class: &[f64],
    ) {
        let n_classes = quotas.iter().map(Vec::len).max().unwrap_or(0).max(running_per_class.len());
        self.running = running_per_class.to_vec();
        self.running.resize(n_classes, 0.0);
        let mut totals = vec![0.0f64; n_classes];
        for per_n in &quotas {
            for (n, &q) in per_n.iter().enumerate() {
                totals[n] += q as f64;
            }
        }
        self.remaining = totals
            .into_iter()
            .enumerate()
            .map(|(n, q)| (q - self.running[n]).max(0.0))
            .collect();
        self.type_order = type_order;
    }

    /// Remaining new-placement slots for a class; 0 when unset.
    pub fn remaining(&self, class: usize) -> f64 {
        self.remaining.get(class).copied().unwrap_or(0.0)
    }

    /// Containers currently held by running tasks of a class.
    pub fn running(&self, class: usize) -> f64 {
        self.running.get(class).copied().unwrap_or(0.0)
    }

    fn on_place(&mut self, class: usize) {
        if let Some(slot) = self.remaining.get_mut(class) {
            *slot = (*slot - 1.0).max(0.0);
        }
        if self.running.len() <= class {
            self.running.resize(class + 1, 0.0);
        }
        self.running[class] += 1.0;
    }

    fn on_finish(&mut self, class: usize) {
        if let Some(slot) = self.running.get_mut(class) {
            *slot = (*slot - 1.0).max(0.0);
        }
        // The freed container slot is available again this period.
        if self.remaining.len() <= class {
            self.remaining.resize(class + 1, 0.0);
        }
        self.remaining[class] += 1.0;
    }

    fn order_for(&self, class: usize) -> &[MachineTypeId] {
        self.type_order.get(class).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A scheduler that admits tasks against their class's container budget
/// and places them on the plan's preferred machine types first.
#[derive(Debug)]
pub struct QuotaScheduler {
    classifier: Rc<TaskClassifier>,
    state: Rc<RefCell<QuotaState>>,
    classes: ClassCache,
}

impl QuotaScheduler {
    /// Creates the scheduler over a shared quota ledger.
    pub fn new(classifier: Rc<TaskClassifier>, state: Rc<RefCell<QuotaState>>) -> Self {
        QuotaScheduler { classifier, state, classes: ClassCache::default() }
    }

    /// The task's initial class, labelled once per task: a queued task is
    /// refused many times before it is admitted.
    fn class_of(&mut self, task: &Task) -> usize {
        self.classes.get_or_label(task, &self.classifier)
    }
}

/// Initial classes by `TaskId`, in a dense array. The array grows to
/// cover an id only while its length stays within
/// [`ClassCache::SLACK`] times the number of tasks it holds (or
/// [`ClassCache::FLOOR`]), so memory follows the tasks seen, not the
/// largest id: a sparse or huge id is labelled on every call instead.
#[derive(Debug, Default)]
struct ClassCache {
    class: Vec<u32>,
    held: usize,
}

impl ClassCache {
    const UNSET: u32 = u32::MAX;
    const FLOOR: usize = 1 << 16;
    const SLACK: usize = 4;

    fn get_or_label(&mut self, task: &Task, classifier: &TaskClassifier) -> usize {
        let slot = usize::try_from(task.id.0).unwrap_or(usize::MAX);
        match self.class.get(slot) {
            Some(&c) if c != Self::UNSET => return c as usize,
            _ => {}
        }
        let class = classifier.initial_label(task).0;
        let Ok(stored) = u32::try_from(class) else { return class };
        let cap = (self.held + 1).saturating_mul(Self::SLACK).max(Self::FLOOR);
        if slot >= self.class.len() && slot < cap {
            self.class.resize(slot + 1, Self::UNSET);
        }
        if let Some(c) = self.class.get_mut(slot) {
            *c = stored;
            self.held += 1;
        }
        class
    }
}

impl Scheduler for QuotaScheduler {
    fn place(&mut self, task: &Task, cluster: &Cluster) -> Option<MachineId> {
        let class = self.class_of(task);
        let state = self.state.borrow();
        if state.remaining(class) < 1.0 {
            return None;
        }
        // Preferred types first, then every remaining type in catalog
        // order (the class budget, not the per-type split, is binding).
        let preferred = state.order_for(class);
        let rest =
            (0..cluster.catalog().len()).map(MachineTypeId).filter(|t| !preferred.contains(t));
        preferred
            .iter()
            .copied()
            .chain(rest)
            .find_map(|ty| cluster.first_fit_machine_of_type(ty, task.demand))
    }

    fn on_placed(&mut self, task: &Task, _machine: MachineId, _cluster: &Cluster) {
        let class = self.class_of(task);
        self.state.borrow_mut().on_place(class);
    }

    fn on_finished(&mut self, task: &Task, _machine: MachineId, _cluster: &Cluster) {
        let class = self.class_of(task);
        self.state.borrow_mut().on_finish(class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ClassifierConfig, TaskClassifier};
    use harmony_model::{MachineCatalog, SimTime, TaskId};
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn setup() -> (Rc<TaskClassifier>, Rc<RefCell<QuotaState>>, Cluster, harmony_trace::Trace) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(21)).generate();
        let classifier = Rc::new(
            TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).unwrap(),
        );
        let state = Rc::new(RefCell::new(QuotaState::default()));
        let mut cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        for ty in 0..4 {
            let (ids, ready) = cluster.power_on(MachineTypeId(ty), usize::MAX, SimTime::ZERO);
            for id in ids {
                cluster.boot_complete(id, ready);
            }
        }
        (classifier, state, cluster, trace)
    }

    /// Place + commit, mirroring the engine's sequence.
    fn place_commit(
        sched: &mut QuotaScheduler,
        task: &Task,
        cluster: &Cluster,
    ) -> Option<MachineId> {
        let id = sched.place(task, cluster)?;
        sched.on_placed(task, id, cluster);
        Some(id)
    }

    #[test]
    fn cached_class_is_the_initial_label() {
        let (classifier, _, _, trace) = setup();
        let mut cache = ClassCache::default();
        // Twice over: the first pass fills the cache, the second reads it.
        for _ in 0..2 {
            for task in trace.tasks() {
                let label = classifier.initial_label(task).0;
                assert_eq!(cache.get_or_label(task, &classifier), label, "{:?}", task.id);
            }
        }
        assert_eq!(cache.held, trace.len());
        assert!(cache.class.len() <= ClassCache::FLOOR.max(trace.len()));
    }

    #[test]
    fn far_task_ids_are_labelled_without_a_proportional_allocation() {
        let (classifier, _, _, trace) = setup();
        let mut cache = ClassCache::default();
        for far in [trace.len() as u64 * 1_000, 1 << 40, u64::MAX] {
            let task = Task { id: TaskId(far), ..trace.tasks()[0] };
            let label = classifier.initial_label(&task).0;
            for _ in 0..2 {
                assert_eq!(cache.get_or_label(&task, &classifier), label, "{far}");
            }
        }
        assert!(cache.class.len() <= ClassCache::FLOOR, "{}", cache.class.len());
    }

    #[test]
    fn zero_quota_blocks_placement() {
        let (classifier, state, cluster, trace) = setup();
        let mut sched = QuotaScheduler::new(classifier, state);
        let task = &trace.tasks()[0];
        assert!(sched.place(task, &cluster).is_none());
    }

    #[test]
    fn quota_admits_and_depletes() {
        let (classifier, state, cluster, trace) = setup();
        let n_classes = classifier.classes().len();
        let task = trace.tasks().iter().find(|t| t.demand.cpu < 0.05).unwrap();
        let class = classifier.initial_label(task).0;
        // Two slots for the class, split across types (totals matter).
        let mut quotas = vec![vec![0usize; n_classes]; 4];
        quotas[1][class] = 1;
        quotas[2][class] = 1;
        state.borrow_mut().refresh(quotas, vec![vec![MachineTypeId(1)]; n_classes], &[]);
        let mut sched = QuotaScheduler::new(classifier.clone(), state.clone());
        let m1 = place_commit(&mut sched, task, &cluster).unwrap();
        // Preference order says R515 first.
        assert_eq!(cluster.machine(m1).type_id(), MachineTypeId(1));
        let _m2 = place_commit(&mut sched, task, &cluster).unwrap();
        // Third placement exceeds the class budget.
        assert!(sched.place(task, &cluster).is_none());
        assert_eq!(state.borrow().remaining(class), 0.0);
        assert_eq!(state.borrow().running(class), 2.0);
        // Finishing a task frees a slot again.
        sched.on_finished(task, m1, &cluster);
        assert!(sched.place(task, &cluster).is_some());
        assert_eq!(state.borrow().running(class), 1.0);
    }

    #[test]
    fn refresh_accounts_for_running_containers() {
        let (classifier, state, cluster, trace) = setup();
        let n_classes = classifier.classes().len();
        let task = trace.tasks().iter().find(|t| t.demand.cpu < 0.05).unwrap();
        let class = classifier.initial_label(task).0;
        let mut quotas = vec![vec![0usize; n_classes]; 4];
        quotas[1][class] = 3;
        let order = vec![vec![MachineTypeId(1)]; n_classes];
        state.borrow_mut().refresh(quotas.clone(), order.clone(), &[]);
        let mut sched = QuotaScheduler::new(classifier, state.clone());
        // Occupy two slots.
        place_commit(&mut sched, task, &cluster).unwrap();
        place_commit(&mut sched, task, &cluster).unwrap();
        // New period, same quota of 3 with 2 still running: only 1 new
        // placement is allowed. The controller passes the occupancy.
        let mut running = vec![0.0; n_classes];
        running[class] = 2.0;
        state.borrow_mut().refresh(quotas, order, &running);
        assert_eq!(state.borrow().remaining(class), 1.0);
    }

    #[test]
    fn preference_order_is_respected() {
        let (classifier, state, cluster, trace) = setup();
        let n_classes = classifier.classes().len();
        let task = trace.tasks().iter().find(|t| t.demand.cpu < 0.05).unwrap();
        let class = classifier.initial_label(task).0;
        let mut quotas = vec![vec![0usize; n_classes]; 4];
        quotas[3][class] = 1;
        // Prefer the DL585 (type 3) explicitly.
        let mut order = vec![Vec::new(); n_classes];
        order[class] = vec![MachineTypeId(3), MachineTypeId(0)];
        state.borrow_mut().refresh(quotas, order, &[]);
        let mut sched = QuotaScheduler::new(classifier, state);
        let m = place_commit(&mut sched, task, &cluster).unwrap();
        assert_eq!(cluster.machine(m).type_id(), MachineTypeId(3));
    }

    #[test]
    fn fallback_to_feasible_type_when_preferred_is_unsuitable() {
        let (classifier, state, cluster, trace) = setup();
        let n_classes = classifier.classes().len();
        // A big task cannot land on an R210 even when the plan pointed
        // its class there — the class budget still admits it on a
        // feasible type (Algorithm 1's backfill step).
        let task = trace.tasks().iter().find(|t| t.demand.cpu > 0.3).unwrap();
        let class = classifier.initial_label(task).0;
        let mut quotas = vec![vec![0usize; n_classes]; 4];
        quotas[0][class] = 5;
        state.borrow_mut().refresh(quotas, vec![vec![MachineTypeId(0)]; n_classes], &[]);
        let mut sched = QuotaScheduler::new(classifier, state);
        let m = place_commit(&mut sched, task, &cluster).unwrap();
        assert_ne!(cluster.machine(m).type_id(), MachineTypeId(0));
    }
}
