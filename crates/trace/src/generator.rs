//! The workload generator.

use harmony_model::{
    JobId, Priority, PriorityGroup, Resources, SchedulingClass, SimDuration, SimTime, Task, TaskId,
};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::{DurationConfig, SizeMode, TraceConfig};
use crate::random::{lognormal, poisson, standard_normal};
use crate::Trace;

/// Generates deterministic synthetic traces from a [`TraceConfig`].
///
/// Jobs arrive per priority group as a non-homogeneous Poisson process
/// (diurnal rate modulated by lognormal noise, sampled per bin); each job
/// brings a geometric number of tasks that share a size mode — tasks of
/// one application look alike — but draw sizes and durations
/// independently.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator for the given calibration.
    pub fn new(config: TraceConfig) -> Self {
        TraceGenerator { config }
    }

    /// The calibration this generator uses.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generates the trace. Deterministic for a fixed config (seed
    /// included).
    pub fn generate(&self) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut tasks: Vec<Task> = Vec::new();
        let mut next_task = 0u64;
        let mut next_job = 0u64;
        let span_secs = self.config.span.as_secs();
        let bin_secs = self.config.bin.as_secs();

        for group in PriorityGroup::ALL {
            let arrivals = *self.config.arrival(group);
            let modes = self.config.modes(group).to_vec();
            let durations = *self.config.duration(group);
            let mut t = 0.0f64;
            while t < span_secs {
                let bin_end = (t + bin_secs).min(span_secs);
                let width = bin_end - t;
                // Diurnal modulation peaking at `peak_hour`.
                let hour = (t / 3600.0) % 24.0;
                let phase = (hour - arrivals.peak_hour) / 24.0 * std::f64::consts::TAU;
                let diurnal = 1.0 + arrivals.diurnal_amplitude * phase.cos();
                // Multiplicative noise, mean-corrected so the long-run
                // rate stays at base.
                let noise = lognormal(
                    &mut rng,
                    -0.5 * arrivals.noise_sigma * arrivals.noise_sigma,
                    arrivals.noise_sigma,
                );
                let rate = (arrivals.base_jobs_per_sec * diurnal * noise).max(0.0);
                let jobs = poisson(&mut rng, rate * width);
                for _ in 0..jobs {
                    let job = JobId(next_job);
                    next_job += 1;
                    let arrival = SimTime::from_secs(t + rng.gen::<f64>() * width);
                    // Geometric task count with the configured mean.
                    let p_stop = 1.0 / arrivals.mean_tasks_per_job.max(1.0);
                    let mut n_tasks = 1usize;
                    while rng.gen::<f64>() > p_stop && n_tasks < 500 {
                        n_tasks += 1;
                    }
                    let mode = pick_mode(&mut rng, &modes);
                    let priority = sample_priority(&mut rng, group);
                    let sched_class = sample_sched_class(&mut rng, group);
                    for _ in 0..n_tasks {
                        let demand = sample_size(&mut rng, mode);
                        let duration = sample_duration(&mut rng, &durations);
                        tasks.push(Task {
                            id: TaskId(next_task),
                            job,
                            arrival,
                            duration,
                            demand,
                            priority,
                            sched_class,
                        });
                        next_task += 1;
                    }
                }
                t = bin_end;
            }
        }

        // Ids are unique, so the key is a total order and the unstable
        // sort, which needs no n/2 merge buffer, gives the stable order.
        tasks.sort_unstable_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
        // Re-number so task ids follow arrival order; stable and handy
        // for debugging.
        for (i, task) in tasks.iter_mut().enumerate() {
            task.id = TaskId(i as u64);
        }
        Trace::new(tasks, self.config.span)
    }
}

#[expect(
    clippy::expect_used,
    reason = "Invariant: every built-in TraceConfig ships non-empty mode lists; an empty user-supplied list is a configuration bug worth a loud panic."
)]
fn pick_mode<'m, R: Rng>(rng: &mut R, modes: &'m [SizeMode]) -> &'m SizeMode {
    let total: f64 = modes.iter().map(|m| m.weight).sum();
    let mut target = rng.gen::<f64>() * total;
    for m in modes {
        target -= m.weight;
        if target <= 0.0 {
            return m;
        }
    }
    modes.last().expect("config has at least one mode")
}

fn sample_size<R: Rng>(rng: &mut R, mode: &SizeMode) -> Resources {
    let draw = |rng: &mut R, median: f64| -> f64 {
        if mode.spread == 0.0 {
            median
        } else {
            // Base-10 lognormal around the median; CPU and memory
            // independent (Section III-D).
            (median * 10f64.powf(mode.spread * standard_normal(rng))).clamp(1e-4, 1.0)
        }
    };
    Resources::new(draw(rng, mode.cpu_median), draw(rng, mode.mem_median))
}

fn sample_duration<R: Rng>(rng: &mut R, cfg: &DurationConfig) -> SimDuration {
    let long = rng.gen::<f64>() < cfg.long_fraction;
    let (median, sigma) = if long {
        (cfg.long_median_secs, cfg.long_sigma)
    } else {
        (cfg.short_median_secs, cfg.short_sigma)
    };
    let secs = lognormal(rng, median.ln(), sigma).clamp(1.0, cfg.max_secs);
    SimDuration::from_secs(secs)
}

#[expect(
    clippy::expect_used,
    reason = "Invariant: PriorityGroup::level_range only yields in-range levels."
)]
fn sample_priority<R: Rng>(rng: &mut R, group: PriorityGroup) -> Priority {
    let (lo, hi) = group.level_range();
    Priority::new(rng.gen_range(lo..=hi)).expect("group ranges are valid priorities")
}

#[expect(
    clippy::expect_used,
    reason = "Invariant: every literal below is within SchedulingClass's 0..=3."
)]
fn sample_sched_class<R: Rng>(rng: &mut R, group: PriorityGroup) -> SchedulingClass {
    // Scheduling class correlates with priority group (Section III):
    // batchy work dominates gratis, latency-sensitive classes dominate
    // production.
    let class = match group {
        PriorityGroup::Gratis => {
            if rng.gen::<f64>() < 0.8 {
                0
            } else {
                1
            }
        }
        PriorityGroup::Other => rng.gen_range(0..=2),
        PriorityGroup::Production => {
            if rng.gen::<f64>() < 0.6 {
                3
            } else {
                2
            }
        }
    };
    SchedulingClass::new(class).expect("classes 0..=3 are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        TraceGenerator::new(TraceConfig::small()).generate()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceGenerator::new(TraceConfig::small().with_seed(7)).generate();
        let b = TraceGenerator::new(TraceConfig::small().with_seed(7)).generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.tasks()[10], b.tasks()[10]);
        let c = TraceGenerator::new(TraceConfig::small().with_seed(8)).generate();
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn tasks_sorted_and_ids_sequential() {
        let t = small_trace();
        for (i, w) in t.tasks().windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "unsorted at {i}");
        }
        for (i, task) in t.tasks().iter().enumerate() {
            assert_eq!(task.id, TaskId(i as u64));
        }
    }

    #[test]
    fn arrivals_within_span() {
        let t = small_trace();
        let span = TraceConfig::small().span;
        for task in t.tasks() {
            assert!(task.arrival.as_secs() <= span.as_secs());
            assert!(task.arrival >= SimTime::ZERO);
        }
    }

    #[test]
    fn all_tasks_valid() {
        let t = small_trace();
        for task in t.tasks() {
            task.validate().expect("generated task must satisfy invariants");
            assert!(task.demand.cpu >= 1e-4 && task.demand.cpu <= 1.0);
            assert!(task.duration.as_secs() >= 1.0);
        }
    }

    #[test]
    fn majority_of_tasks_are_short() {
        // Section III-D: more than 50% of tasks run under 100 s.
        let t = small_trace();
        let short = t.tasks().iter().filter(|t| t.duration.as_secs() < 100.0).count() as f64;
        let frac = short / t.len() as f64;
        assert!(frac > 0.5, "short fraction = {frac}");
    }

    #[test]
    fn gratis_exact_mode_mass_is_prominent() {
        let t = small_trace();
        let gratis: Vec<&Task> = t.tasks_in_group(PriorityGroup::Gratis).collect();
        let exact =
            gratis.iter().filter(|t| t.demand == Resources::new(0.0125, 0.0159)).count() as f64;
        let frac = exact / gratis.len() as f64;
        assert!((0.3..0.55).contains(&frac), "exact-mode fraction = {frac}");
    }

    #[test]
    fn size_span_exceeds_two_orders_of_magnitude() {
        let t = small_trace();
        let cpus: Vec<f64> = t.tasks().iter().map(|t| t.demand.cpu).collect();
        let max = cpus.iter().cloned().fold(0.0, f64::max);
        let min = cpus.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 100.0, "span {}x", max / min);
    }

    #[test]
    fn production_durations_dominate() {
        let t = TraceGenerator::new(TraceConfig::small().with_seed(3)).generate();
        let mean = |g: PriorityGroup| {
            let ds: Vec<f64> = t.tasks_in_group(g).map(|t| t.duration.as_secs()).collect();
            ds.iter().sum::<f64>() / ds.len() as f64
        };
        assert!(
            mean(PriorityGroup::Production) > 3.0 * mean(PriorityGroup::Gratis),
            "production tasks should be much longer on average"
        );
    }

    #[test]
    fn jobs_group_multiple_tasks() {
        let t = small_trace();
        let mut per_job = std::collections::BTreeMap::new();
        for task in t.tasks() {
            *per_job.entry(task.job).or_insert(0usize) += 1;
        }
        let avg = t.len() as f64 / per_job.len() as f64;
        assert!(avg > 2.0, "mean tasks/job = {avg}");
        assert!(per_job.values().all(|&n| n <= 500));
    }

    #[test]
    fn priorities_match_groups() {
        let t = small_trace();
        for task in t.tasks() {
            let (lo, hi) = task.priority.group().level_range();
            assert!((lo..=hi).contains(&task.priority.level()));
        }
    }
}
