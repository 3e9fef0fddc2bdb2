//! Trace-analysis series behind the paper's Figs. 1–7 and 19.

use harmony_model::{PriorityGroup, Resources, SimDuration, SimTime};

use crate::Trace;

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Examples
///
/// ```
/// use harmony_trace::stats::Cdf;
///
/// let cdf = Cdf::from_values(vec![1.0, 2.0, 2.0, 10.0]);
/// assert_eq!(cdf.fraction_at_most(2.0), 0.75);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// assert_eq!(cdf.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF, dropping NaN samples and sorting the rest.
    pub fn from_values(mut values: Vec<f64>) -> Self {
        values.retain(|v| !v.is_nan());
        values.sort_by(f64::total_cmp);
        Cdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// `n` evenly-spaced `(value, cumulative_fraction)` points for
    /// plotting.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (1..=n)
            .map(|i| {
                let p = i as f64 / n as f64;
                (self.quantile(p), p)
            })
            .collect()
    }
}

/// Total resource demand of tasks alive at each bin boundary, assuming
/// each task occupies its demand from arrival to arrival+duration
/// (Figs. 1–2: total CPU and memory demand over time).
pub fn demand_over_time(trace: &Trace, bin: SimDuration) -> Vec<(SimTime, Resources)> {
    assert!(bin.as_secs() > 0.0, "bin must be positive");
    // Sweep events: +demand at arrival, -demand at finish.
    let mut events: Vec<(f64, Resources, bool)> = Vec::with_capacity(trace.len() * 2);
    for t in trace.tasks() {
        let start = t.arrival.as_secs();
        let end = start + t.duration.as_secs();
        events.push((start, t.demand, true));
        events.push((end, t.demand, false));
    }
    events.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let span = trace.span().as_secs();
    let mut out = Vec::new();
    let mut current = Resources::ZERO;
    let mut ev = 0usize;
    let mut t = 0.0;
    while t <= span + 1e-9 {
        while ev < events.len() && events[ev].0 <= t {
            if events[ev].2 {
                current += events[ev].1;
            } else {
                current -= events[ev].1;
            }
            ev += 1;
        }
        out.push((SimTime::from_secs(t), current.max(Resources::ZERO)));
        t += bin.as_secs();
    }
    out
}

/// Per-group CDFs of task durations in seconds (Fig. 6), indexed by
/// [`PriorityGroup::index`].
pub fn duration_cdf_by_group(trace: &Trace) -> [Cdf; 3] {
    let mut buckets: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for t in trace.tasks() {
        buckets[t.priority.group().index()].push(t.duration.as_secs());
    }
    buckets.map(Cdf::from_values)
}

/// Per-group arrival-rate series in tasks/second per bin (Fig. 19),
/// indexed by [`PriorityGroup::index`].
pub fn arrival_rate_series(trace: &Trace, bin: SimDuration) -> [Vec<f64>; 3] {
    assert!(bin.as_secs() > 0.0, "bin must be positive");
    let n_bins = (trace.span().as_secs() / bin.as_secs()).ceil().max(1.0) as usize;
    let mut out: [Vec<f64>; 3] = [vec![0.0; n_bins], vec![0.0; n_bins], vec![0.0; n_bins]];
    for t in trace.tasks() {
        let idx = ((t.arrival.as_secs() / bin.as_secs()) as usize).min(n_bins - 1);
        out[t.priority.group().index()][idx] += 1.0;
    }
    for series in &mut out {
        for v in series.iter_mut() {
            *v /= bin.as_secs();
        }
    }
    out
}

/// A deterministic subsample of task `(cpu, mem)` sizes in one priority
/// group (Fig. 7 scatter plots). Takes every k-th task so the subsample
/// is reproducible without an RNG.
pub fn size_scatter(trace: &Trace, group: PriorityGroup, max_points: usize) -> Vec<(f64, f64)> {
    let all: Vec<(f64, f64)> =
        trace.tasks_in_group(group).map(|t| (t.demand.cpu, t.demand.mem)).collect();
    if all.len() <= max_points || max_points == 0 {
        return all;
    }
    let step = all.len() / max_points;
    all.into_iter().step_by(step.max(1)).take(max_points).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, TraceGenerator};
    use harmony_model::{JobId, Priority, SchedulingClass, Task, TaskId};

    fn mk_task(id: u64, at: f64, dur: f64, cpu: f64, level: u8) -> Task {
        Task {
            id: TaskId(id),
            job: JobId(0),
            arrival: SimTime::from_secs(at),
            duration: SimDuration::from_secs(dur),
            demand: Resources::new(cpu, cpu / 2.0),
            priority: Priority::new(level).unwrap(),
            sched_class: SchedulingClass::BATCH,
        }
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::from_values(vec![3.0, 1.0, 2.0, f64::NAN]);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 2.0 / 3.0);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        let pts = cdf.points(3);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2], (3.0, 1.0));
        assert!(Cdf::from_values(vec![]).is_empty());
        assert_eq!(Cdf::from_values(vec![]).fraction_at_most(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn cdf_quantile_empty_panics() {
        Cdf::from_values(vec![]).quantile(0.5);
    }

    #[test]
    fn demand_sweep_tracks_alive_tasks() {
        let trace = Trace::new(
            vec![mk_task(0, 0.0, 100.0, 0.2, 0), mk_task(1, 50.0, 100.0, 0.3, 0)],
            SimDuration::from_secs(200.0),
        );
        let series = demand_over_time(&trace, SimDuration::from_secs(50.0));
        // t=0: task0 alive (0.2). t=50: both (0.5). t=100: task0 done at
        // exactly 100 (event <= t applies) → only task1 (0.3).
        // t=150: task1 done → 0. t=200: 0.
        let cpus: Vec<f64> = series.iter().map(|(_, r)| r.cpu).collect();
        assert!((cpus[0] - 0.2).abs() < 1e-12);
        assert!((cpus[1] - 0.5).abs() < 1e-12);
        assert!((cpus[2] - 0.3).abs() < 1e-12);
        assert!(cpus[3].abs() < 1e-12);
        assert!(cpus[4].abs() < 1e-12);
    }

    #[test]
    fn demand_fluctuates_on_generated_trace() {
        let trace = TraceGenerator::new(TraceConfig::small()).generate();
        let series = demand_over_time(&trace, SimDuration::from_mins(10.0));
        let cpus: Vec<f64> = series.iter().map(|(_, r)| r.cpu).collect();
        let max = cpus.iter().cloned().fold(0.0, f64::max);
        let min = cpus.iter().skip(2).cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 0.0);
        assert!(max > min * 1.2, "demand should fluctuate: {min}..{max}");
    }

    #[test]
    fn duration_cdfs_ordered_by_group() {
        let trace = TraceGenerator::new(TraceConfig::small()).generate();
        let cdfs = duration_cdf_by_group(&trace);
        // Production median >= gratis median per the calibration.
        let gratis_p90 = cdfs[0].quantile(0.9);
        let prod_p90 = cdfs[2].quantile(0.9);
        assert!(prod_p90 > gratis_p90, "{prod_p90} vs {gratis_p90}");
    }

    #[test]
    fn arrival_rates_sum_to_task_count() {
        let trace = TraceGenerator::new(TraceConfig::small()).generate();
        let bin = SimDuration::from_mins(10.0);
        let series = arrival_rate_series(&trace, bin);
        let total: f64 = series.iter().map(|s| s.iter().sum::<f64>()).sum::<f64>() * bin.as_secs();
        assert!((total - trace.len() as f64).abs() < 1e-6);
        let counts = trace.group_counts();
        for g in PriorityGroup::ALL {
            let group_total: f64 = series[g.index()].iter().sum::<f64>() * bin.as_secs();
            assert!((group_total - counts[g.index()] as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn scatter_subsamples_deterministically() {
        let trace = TraceGenerator::new(TraceConfig::small()).generate();
        let a = size_scatter(&trace, PriorityGroup::Gratis, 100);
        let b = size_scatter(&trace, PriorityGroup::Gratis, 100);
        assert_eq!(a, b);
        assert!(a.len() <= 100);
        let all = size_scatter(&trace, PriorityGroup::Gratis, usize::MAX);
        assert_eq!(all.len(), trace.group_counts()[0]);
    }
}
