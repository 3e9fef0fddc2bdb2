//! Simulation outputs: delay distributions, energy, time series.

use harmony_model::{PriorityGroup, SimTime};
use serde::{Deserialize, Serialize};

use crate::controller::DegradationEvent;
use crate::faults::FaultRecord;

/// One sampled point of cluster state over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Sample time.
    pub time: SimTime,
    /// Instantaneous cluster draw in watts.
    pub power_watts: f64,
    /// Active (on or booting) machines per type.
    pub active_per_type: Vec<usize>,
    /// Machines running at least one task, per type.
    pub used_per_type: Vec<usize>,
    /// Tasks waiting to be scheduled.
    pub pending_tasks: usize,
}

/// Summary statistics of a scheduling-delay sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayStats {
    /// Number of scheduled tasks in the sample.
    pub count: usize,
    /// Mean delay in seconds.
    pub mean: f64,
    /// Median delay in seconds.
    pub p50: f64,
    /// 90th percentile in seconds.
    pub p90: f64,
    /// 95th percentile in seconds.
    pub p95: f64,
    /// 99th percentile in seconds.
    pub p99: f64,
    /// Maximum observed delay in seconds.
    pub max: f64,
    /// Fraction of tasks scheduled immediately (zero delay).
    pub immediate_fraction: f64,
}

impl DelayStats {
    /// Computes stats from raw delays (seconds). Returns an all-zero
    /// record for an empty sample.
    pub fn from_delays(delays: &[f64]) -> Self {
        if delays.is_empty() {
            return DelayStats {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
                immediate_fraction: 0.0,
            };
        }
        let mut sorted = delays.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[idx - 1]
        };
        let immediate = sorted.iter().filter(|&&d| d <= 1e-9).count();
        DelayStats {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: q(0.5),
            p90: q(0.9),
            p95: q(0.95),
            p99: q(0.99),
            max: sorted[sorted.len() - 1],
            immediate_fraction: immediate as f64 / sorted.len() as f64,
        }
    }
}

/// The full outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Raw scheduling delays (seconds) per priority group, indexed by
    /// [`PriorityGroup::index`], recorded when a task is placed.
    pub delays_by_group: [Vec<f64>; 3],
    /// Tasks that ran to completion within the simulated span.
    pub tasks_completed: usize,
    /// Tasks still running when the simulation ended.
    pub tasks_running_at_end: usize,
    /// Tasks still waiting when the simulation ended (their delays are
    /// censored and not part of `delays_by_group`).
    pub tasks_pending_at_end: usize,
    /// Tasks whose demand fits no machine type in the catalog.
    pub tasks_unschedulable: usize,
    /// Tasks dropped after exhausting their fault-eviction retry budget
    /// (zero without fault injection).
    pub tasks_failed: usize,
    /// Total energy in watt-hours.
    pub total_energy_wh: f64,
    /// Energy cost in dollars under the configured price curve
    /// (integrated at sample granularity).
    pub energy_cost_dollars: f64,
    /// Machine on/off transitions.
    pub switch_count: usize,
    /// Switching cost in dollars (`Σ q_m`, Eq. 9).
    pub switch_cost_dollars: f64,
    /// Task migrations performed by re-packing (Algorithm 1).
    pub migrations: usize,
    /// Tasks evicted by priority preemption.
    pub evictions: usize,
    /// Injected faults actually applied during the run, in time order.
    pub faults: Vec<FaultRecord>,
    /// Degradation-ladder events the controller survived (forecast
    /// fallbacks, LP plan reuse, greedy sizing, holds), in time order.
    pub degradations: Vec<DegradationEvent>,
    /// Sampled cluster state over time.
    pub series: Vec<TimePoint>,
}

impl SimReport {
    /// Delay statistics for one priority group.
    pub fn delay_stats(&self, group: PriorityGroup) -> DelayStats {
        DelayStats::from_delays(&self.delays_by_group[group.index()])
    }

    /// Delay statistics over all groups combined.
    pub fn delay_stats_overall(&self) -> DelayStats {
        let all: Vec<f64> = self.delays_by_group.iter().flatten().copied().collect();
        DelayStats::from_delays(&all)
    }

    /// Fraction of placed tasks per priority group whose scheduling
    /// delay met the group's target (`targets_secs`, indexed by
    /// [`PriorityGroup::index`]); 1.0 for a group that placed nothing.
    pub fn slo_attainment(&self, targets_secs: [f64; 3]) -> [f64; 3] {
        let mut out = [1.0; 3];
        for (g, delays) in self.delays_by_group.iter().enumerate() {
            if !delays.is_empty() {
                out[g] = met_count(delays, targets_secs[g]) as f64 / delays.len() as f64;
            }
        }
        out
    }

    /// Task-weighted [`SimReport::slo_attainment`] over all groups.
    pub fn slo_attainment_overall(&self, targets_secs: [f64; 3]) -> f64 {
        let total: usize = self.delays_by_group.iter().map(Vec::len).sum();
        if total == 0 {
            return 1.0;
        }
        let met: usize =
            self.delays_by_group.iter().zip(targets_secs).map(|(d, t)| met_count(d, t)).sum();
        met as f64 / total as f64
    }

    /// Mean active machines over the sampled series.
    pub fn mean_active_machines(&self) -> f64 {
        if self.series.is_empty() {
            return 0.0;
        }
        let total: usize =
            self.series.iter().map(|p| p.active_per_type.iter().sum::<usize>()).sum();
        total as f64 / self.series.len() as f64
    }
}

/// Delays that met `target_secs`.
fn met_count(delays: &[f64], target_secs: f64) -> usize {
    delays.iter().filter(|&&d| d <= target_secs).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_stats_quantiles() {
        let delays: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = DelayStats::from_delays(&delays);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.immediate_fraction, 0.0);
    }

    #[test]
    fn delay_stats_immediate_fraction() {
        let s = DelayStats::from_delays(&[0.0, 0.0, 10.0, 0.0]);
        assert_eq!(s.immediate_fraction, 0.75);
    }

    #[test]
    fn delay_stats_empty() {
        let s = DelayStats::from_delays(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.immediate_fraction, 0.0);
    }

    #[test]
    fn delay_stats_single_sample_is_every_quantile() {
        let s = DelayStats::from_delays(&[7.5]);
        assert_eq!(s.count, 1);
        // With one sample, ceil(p·1) clamps to rank 1 for every p.
        assert_eq!(s.p50, 7.5);
        assert_eq!(s.p90, 7.5);
        assert_eq!(s.p95, 7.5);
        assert_eq!(s.p99, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.immediate_fraction, 0.0);
    }

    #[test]
    fn delay_stats_even_length_p50_takes_lower_median() {
        // n = 4: rank = ceil(0.5·4) = 2 → the lower of the two middle
        // samples, not their midpoint. This pins the convention so a
        // refactor to interpolation cannot slip in silently.
        let s = DelayStats::from_delays(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50, 2.0);
        // n = 2: rank = ceil(1.0) = 1 → the smaller sample.
        let s = DelayStats::from_delays(&[10.0, 20.0]);
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.p90, 20.0, "rank ceil(1.8)=2");
    }

    #[test]
    fn report_rollups() {
        let report = SimReport {
            delays_by_group: [vec![0.0, 2.0], vec![4.0], vec![]],
            tasks_completed: 3,
            tasks_running_at_end: 0,
            tasks_pending_at_end: 0,
            tasks_unschedulable: 0,
            tasks_failed: 0,
            total_energy_wh: 100.0,
            energy_cost_dollars: 2.0,
            switch_count: 4,
            switch_cost_dollars: 0.5,
            migrations: 0,
            evictions: 0,
            faults: Vec::new(),
            degradations: Vec::new(),
            series: vec![
                TimePoint {
                    time: SimTime::ZERO,
                    power_watts: 10.0,
                    active_per_type: vec![2, 0],
                    used_per_type: vec![1, 0],
                    pending_tasks: 0,
                },
                TimePoint {
                    time: SimTime::from_secs(60.0),
                    power_watts: 20.0,
                    active_per_type: vec![4, 0],
                    used_per_type: vec![2, 0],
                    pending_tasks: 1,
                },
            ],
        };
        assert_eq!(report.mean_active_machines(), 3.0);
        assert_eq!(report.delay_stats(PriorityGroup::Gratis).count, 2);
        assert_eq!(report.delay_stats_overall().count, 3);
        assert_eq!(report.delay_stats(PriorityGroup::Production).count, 0);
    }

    #[test]
    fn slo_attainment_follows_targets() {
        let mut report = SimReport {
            // One production task an hour late, one on time; gratis all fine.
            delays_by_group: [vec![10.0, 20.0], Vec::new(), vec![15.0 + 3600.0, 1.0]],
            tasks_completed: 4,
            tasks_running_at_end: 0,
            tasks_pending_at_end: 0,
            tasks_unschedulable: 0,
            tasks_failed: 0,
            total_energy_wh: 0.0,
            energy_cost_dollars: 0.0,
            switch_count: 0,
            switch_cost_dollars: 0.0,
            migrations: 0,
            evictions: 0,
            faults: Vec::new(),
            degradations: Vec::new(),
            series: Vec::new(),
        };
        let targets = [600.0, 120.0, 15.0];
        assert_eq!(report.slo_attainment(targets), [1.0, 1.0, 0.5]);
        assert!((report.slo_attainment_overall(targets) - 0.75).abs() < 1e-12);
        // A report that placed nothing attains everything.
        report.delays_by_group = Default::default();
        assert_eq!(report.slo_attainment(targets), [1.0; 3]);
        assert_eq!(report.slo_attainment_overall(targets), 1.0);
    }
}
