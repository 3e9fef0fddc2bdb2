//! Pluggable task-placement policies.

use harmony_model::Task;

use crate::cluster::Cluster;
use crate::machine::MachineId;

/// A task scheduler: picks a machine for a task, or `None` to leave it
/// queued.
///
/// Implementations must only return machines where
/// [`crate::Machine::can_place`] holds; the engine re-checks and treats a
/// failed placement as "leave queued".
///
/// The `harmony` crate wraps these policies with per-(machine-type,
/// task-class) quota bookkeeping to realize the paper's CBS/CBP
/// coordination, so the trait also receives placement/completion
/// callbacks.
///
/// # Admission
///
/// A scheduler may gate placement by an *admission key* (CBS: the task's
/// class, admitted while its container quota lasts). The engine relies on
/// this contract to answer a drain pass from the previous one when
/// nothing that pass depended on has changed:
///
/// * [`place`](Scheduler::place) refuses every task whose
///   [`admission_key`](Scheduler::admission_key) does not
///   [`admit`](Scheduler::admits);
/// * a key can start admitting again only through
///   [`on_finished`](Scheduler::on_finished) of a task with that key, or
///   through a change made outside the engine during a control tick;
/// * when the key admits (or the task has none), `place` refuses only if
///   no `On` machine can host the task.
///
/// The defaults (no key, always admit) state only the last rule, which
/// every placement policy here keeps.
pub trait Scheduler: std::fmt::Debug {
    /// Chooses a machine for `task`, or `None` if nothing suitable is
    /// available right now.
    fn place(&mut self, task: &Task, cluster: &Cluster) -> Option<MachineId>;

    /// Invoked after the engine commits a placement.
    fn on_placed(&mut self, _task: &Task, _machine: MachineId, _cluster: &Cluster) {}

    /// Invoked when a task finishes and its resources are released.
    fn on_finished(&mut self, _task: &Task, _machine: MachineId, _cluster: &Cluster) {}

    /// The key `task` is admitted under, or `None` if the scheduler
    /// admits it unconditionally (see the trait's admission contract).
    fn admission_key(&mut self, _task: &Task) -> Option<u32> {
        None
    }

    /// Whether tasks with admission key `key` may be placed right now.
    fn admits(&self, _key: u32) -> bool {
        true
    }
}

/// First-Fit: the first `On` machine (in id order) with room.
///
/// Machine ids are contiguous per type, so id order is also "type 0
/// first" order — the classic heterogeneity-oblivious scan. Runs as a
/// pruned tree descent on an indexed cluster (identical machine choice
/// — see [`Cluster::first_fit_machine`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl Scheduler for FirstFit {
    fn place(&mut self, task: &Task, cluster: &Cluster) -> Option<MachineId> {
        cluster.first_fit_machine(task.demand)
    }
}

/// First-Fit over machine types sorted by decreasing energy efficiency
/// (capacity per peak watt) — the placement half of the
/// heterogeneity-oblivious baseline, which provisions and fills
/// "greedily ... in decreasing order of energy efficiency".
#[derive(Debug, Clone)]
pub struct EnergyEfficientFirstFit {
    order: Vec<harmony_model::MachineTypeId>,
}

impl EnergyEfficientFirstFit {
    /// Builds the policy for a cluster's catalog.
    pub fn new(cluster: &Cluster) -> Self {
        EnergyEfficientFirstFit { order: cluster.catalog().by_energy_efficiency() }
    }
}

impl Scheduler for EnergyEfficientFirstFit {
    fn place(&mut self, task: &Task, cluster: &Cluster) -> Option<MachineId> {
        self.order.iter().find_map(|&ty| cluster.first_fit_machine_of_type(ty, task.demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::{
        JobId, MachineCatalog, MachineTypeId, Priority, Resources, SchedulingClass, SimDuration,
        SimTime, TaskId,
    };

    fn cluster_all_on() -> Cluster {
        let mut c = Cluster::new(MachineCatalog::table2().scaled(1000)); // 7/2/1/1
        for ty in 0..4 {
            let (ids, ready) = c.power_on(MachineTypeId(ty), usize::MAX, SimTime::ZERO);
            for id in ids {
                c.boot_complete(id, ready);
            }
        }
        c
    }

    fn task(cpu: f64, mem: f64) -> Task {
        Task {
            id: TaskId(0),
            job: JobId(0),
            arrival: SimTime::ZERO,
            duration: SimDuration::from_secs(10.0),
            demand: Resources::new(cpu, mem),
            priority: Priority::new(0).unwrap(),
            sched_class: SchedulingClass::BATCH,
        }
    }

    #[test]
    fn first_fit_takes_lowest_id_with_room() {
        let mut c = cluster_all_on();
        let t = task(0.05, 0.05);
        let mut ff = FirstFit;
        let id = ff.place(&t, &c).unwrap();
        assert_eq!(id, MachineId(0));
        // Fill machine 0 (R210: 0.0833 cpu, 0.0625 mem) so it no longer fits.
        assert!(c.allocate(MachineId(0), Resources::new(0.05, 0.05), SimTime::ZERO));
        let id2 = ff.place(&t, &c).unwrap();
        assert_eq!(id2, MachineId(1));
    }

    #[test]
    fn first_fit_skips_small_types_for_big_tasks() {
        let mut ff = FirstFit;
        let c = cluster_all_on();
        // 0.2 CPU doesn't fit an R210 (0.083) or R515 (0.25 cpu? yes it
        // does fit R515). Use 0.3 cpu: only DL385 (0.5) and DL585 fit.
        let t = task(0.3, 0.2);
        let id = ff.place(&t, &c).unwrap();
        assert_eq!(c.machine(id).type_id(), MachineTypeId(2));
    }

    #[test]
    fn energy_efficient_prefers_efficient_type() {
        let c = cluster_all_on();
        let mut ee = EnergyEfficientFirstFit::new(&c);
        let t = task(0.01, 0.01);
        let id = ee.place(&t, &c).unwrap();
        let chosen = c.machine(id).type_id();
        let best = c.catalog().by_energy_efficiency()[0];
        assert_eq!(chosen, best);
    }

    #[test]
    fn all_return_none_when_nothing_fits() {
        let c = Cluster::new(MachineCatalog::table2().scaled(1000)); // all off
        let t = task(0.01, 0.01);
        assert!(FirstFit.place(&t, &c).is_none());
        assert!(EnergyEfficientFirstFit::new(&c).place(&t, &c).is_none());
    }
}
