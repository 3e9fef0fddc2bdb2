//! The heterogeneity-oblivious baseline (Section IX-B): keep the
//! bottleneck resource at a target utilization (80%), bringing machines
//! up "in decreasing order of energy efficiency".

use harmony_model::{Resources, SimDuration};
use harmony_sim::{ControlDecision, Controller, Observation};

/// The baseline dynamic-capacity provisioner.
///
/// Each control period it estimates total demand as the resources of
/// running plus pending tasks, targets `demand / utilization` capacity
/// on the bottleneck dimension, and fills that capacity greedily from
/// the most energy-efficient machine type down — ignoring task sizes
/// entirely, which is exactly the failure mode the paper attributes to
/// heterogeneity-oblivious provisioning.
#[derive(Debug, Clone)]
pub struct BaselineController {
    period: SimDuration,
    target_utilization: f64,
}

impl BaselineController {
    /// Creates the baseline with the paper's 80% utilization target.
    pub fn new(period: SimDuration) -> Self {
        Self::with_utilization(period, 0.8)
    }

    /// Creates the baseline with a custom bottleneck-utilization target.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_utilization <= 1`.
    pub fn with_utilization(period: SimDuration, target_utilization: f64) -> Self {
        assert!(
            target_utilization > 0.0 && target_utilization <= 1.0,
            "target utilization must be in (0, 1], got {target_utilization}"
        );
        BaselineController { period, target_utilization }
    }
}

impl Controller for BaselineController {
    fn control_period(&self) -> SimDuration {
        self.period
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let cluster = observation.cluster;
        // Purely utilization-reactive, like the paper's baseline: the
        // aggregate *used* resources set the target; queued task shapes
        // are never inspected (that is exactly the heterogeneity- and
        // backlog-obliviousness the paper critiques). The pending count
        // only nudges the estimate as generic backpressure.
        let mut demand: Resources = cluster.machines().iter().map(|m| m.used()).sum();
        if !observation.pending.is_empty() {
            // One average-task-equivalent per pending task, judged from
            // current usage — no per-task inspection. With nothing
            // running yet (cold start), a nominal slot of one tenth of
            // the average machine bootstraps the ramp-up.
            let running = cluster.machines().iter().map(|m| m.running_tasks()).sum::<usize>();
            let avg = if running > 0 {
                demand * (1.0 / running as f64)
            } else {
                cluster.catalog().total_capacity()
                    * (0.1 / cluster.catalog().total_machines() as f64)
            };
            demand += avg * observation.pending.len() as f64;
        }
        let needed = demand * (1.0 / self.target_utilization);

        // Fill capacity in decreasing energy-efficiency order.
        let order = cluster.catalog().by_energy_efficiency();
        let mut remaining = needed;
        let mut target = vec![0usize; cluster.catalog().len()];
        for ty_id in order {
            if remaining.cpu <= 0.0 && remaining.mem <= 0.0 {
                break;
            }
            let ty = cluster.catalog().machine_type(ty_id);
            let per_machine = ty.capacity;
            let needed_machines = (remaining.cpu / per_machine.cpu)
                .max(remaining.mem / per_machine.mem)
                .ceil()
                .max(0.0) as usize;
            let n = needed_machines.min(ty.count);
            target[ty_id.0] = n;
            remaining = (remaining - per_machine * n as f64).max(Resources::ZERO);
        }
        ControlDecision::targets(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::{
        JobId, MachineCatalog, MachineTypeId, Priority, SchedulingClass, SimTime, Task, TaskId,
    };
    use harmony_sim::{Cluster, TaskView};

    fn obs_with_pending(cluster: &Cluster, pending: &[Task]) -> ControlDecision {
        let mut ctl = BaselineController::new(SimDuration::from_mins(10.0));
        ctl.decide(&Observation {
            now: SimTime::ZERO,
            cluster,
            pending: TaskView::dense(pending),
            arrived_last_period: TaskView::default(),
            running: TaskView::default(),
        })
    }

    fn task(cpu: f64, mem: f64) -> Task {
        Task {
            id: TaskId(0),
            job: JobId(0),
            arrival: SimTime::ZERO,
            duration: SimDuration::from_secs(100.0),
            demand: Resources::new(cpu, mem),
            priority: Priority::new(0).unwrap(),
            sched_class: SchedulingClass::BATCH,
        }
    }

    #[test]
    fn no_demand_means_no_machines() {
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let d = obs_with_pending(&cluster, &[]);
        assert_eq!(d.target_active, vec![0, 0, 0, 0]);
    }

    /// Powers on one DL585 and loads it with `cpu`/`mem` usage.
    fn cluster_with_usage(divisor: usize, cpu: f64, mem: f64) -> Cluster {
        let mut cluster = Cluster::new(MachineCatalog::table2().scaled(divisor));
        let (ids, ready) = cluster.power_on(MachineTypeId(3), 1, SimTime::ZERO);
        cluster.boot_complete(ids[0], ready);
        assert!(cluster.allocate(ids[0], Resources::new(cpu, mem), ready));
        cluster
    }

    #[test]
    fn demand_fills_most_efficient_type_first() {
        let cluster = cluster_with_usage(100, 0.4, 0.25);
        let d = obs_with_pending(&cluster, &[]);
        let order = cluster.catalog().by_energy_efficiency();
        let best = order[0].0;
        assert!(d.target_active[best] > 0, "best type should be used: {:?}", d.target_active);
        // Usage 0.4/0.25 → needed 0.5/0.3125 at 80%; the best type alone
        // should cover it.
        let total: usize = d.target_active.iter().sum();
        assert_eq!(total, d.target_active[best]);
    }

    #[test]
    fn overflow_cascades_to_next_type() {
        // Scale the cluster down so one type cannot cover demand: usage
        // on the single DL585 plus 60 pending average-equivalents.
        let cluster = cluster_with_usage(1000, 0.9, 0.4); // 7/2/1/1 machines
        let pending: Vec<Task> = (0..60).map(|_| task(0.05, 0.02)).collect();
        // One running task of 0.9 cpu → avg-equivalent backpressure of
        // 60 * 0.9 = 54 cpu needed; far beyond any single type.
        let d = obs_with_pending(&cluster, &pending);
        let used_types = d.target_active.iter().filter(|&&n| n > 0).count();
        assert!(used_types >= 2, "{:?}", d.target_active);
    }

    #[test]
    fn utilization_target_scales_capacity() {
        let cluster = cluster_with_usage(100, 0.8, 0.8);
        let pending: Vec<Task> = (0..40).map(|_| task(0.02, 0.02)).collect();
        let mut strict = BaselineController::with_utilization(SimDuration::from_mins(10.0), 0.5);
        let mut loose = BaselineController::with_utilization(SimDuration::from_mins(10.0), 1.0);
        let obs = Observation {
            now: SimTime::ZERO,
            cluster: &cluster,
            pending: TaskView::dense(&pending),
            arrived_last_period: TaskView::default(),
            running: TaskView::default(),
        };
        let strict_total: usize = strict.decide(&obs).target_active.iter().sum();
        let loose_total: usize = loose.decide(&obs).target_active.iter().sum();
        assert!(strict_total >= loose_total);
    }

    #[test]
    #[should_panic(expected = "target utilization")]
    fn invalid_utilization_panics() {
        let _ = BaselineController::with_utilization(SimDuration::from_mins(1.0), 0.0);
    }
}
