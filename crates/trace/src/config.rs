//! Generator calibration, with defaults matching the paper's Section III
//! workload analysis.

use harmony_model::{PriorityGroup, SimDuration};

/// One mode of a per-group task-size mixture model.
///
/// Sizes are sampled per dimension as `median · 10^(σ·Z)` (a base-10
/// lognormal around the median), independently for CPU and memory —
/// Section III-D: "There is usually no correlation between CPU
/// requirement and memory requirements." A mode with `spread == 0`
/// produces the exact median, which is how the dominant gratis mode
/// (43% of gratis tasks at exactly `(0.0125, 0.0159)`) is expressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeMode {
    /// Relative weight of the mode within its group (normalized by sum).
    pub weight: f64,
    /// Median normalized CPU demand.
    pub cpu_median: f64,
    /// Median normalized memory demand.
    pub mem_median: f64,
    /// Lognormal spread in decades (base-10 sigma) around the medians.
    pub spread: f64,
}

/// Arrival-process calibration for one priority group: a non-homogeneous
/// Poisson process with diurnal modulation and multiplicative noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Mean job arrival rate in jobs per second.
    pub base_jobs_per_sec: f64,
    /// Mean number of tasks per job (geometric distribution).
    pub mean_tasks_per_job: f64,
    /// Diurnal swing in `[0, 1)`: rate varies by `±amplitude` over a day.
    pub diurnal_amplitude: f64,
    /// Hour of day at which the rate peaks.
    pub peak_hour: f64,
    /// Per-bin multiplicative lognormal noise (base-e sigma).
    pub noise_sigma: f64,
}

/// Bimodal (short/long) duration calibration for one priority group —
/// Section III-D: "tasks are either short or long" and "more than 50% of
/// the tasks are short (less than 100 seconds)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationConfig {
    /// Fraction of tasks drawn from the long mode.
    pub long_fraction: f64,
    /// Median of the short mode in seconds.
    pub short_median_secs: f64,
    /// Lognormal sigma (base e) of the short mode.
    pub short_sigma: f64,
    /// Median of the long mode in seconds.
    pub long_median_secs: f64,
    /// Lognormal sigma (base e) of the long mode.
    pub long_sigma: f64,
    /// Hard cap on duration in seconds (the trace span bounds what the
    /// paper can observe; production tasks reach 17 days).
    pub max_secs: f64,
}

/// Full generator calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// RNG seed; traces are fully deterministic per seed.
    pub seed: u64,
    /// Total simulated span.
    pub span: SimDuration,
    /// Width of the rate-modulation bins used by the arrival sampler.
    pub bin: SimDuration,
    /// Per-group arrival calibration, indexed by [`PriorityGroup::index`].
    pub arrivals: [ArrivalConfig; 3],
    /// Per-group size mixture, indexed by [`PriorityGroup::index`].
    pub size_modes: [Vec<SizeMode>; 3],
    /// Per-group duration calibration, indexed by
    /// [`PriorityGroup::index`].
    pub durations: [DurationConfig; 3],
}

impl TraceConfig {
    /// The default 29-day calibration mirroring the paper's analysis
    /// window, at a task volume (~10⁵–10⁶ tasks) that keeps experiments
    /// laptop-scale. Relative group shares, size spreads, and duration
    /// shapes follow Section III; see DESIGN.md §6 for the substitution
    /// note.
    pub fn google_like() -> Self {
        TraceConfig {
            seed: 2013,
            span: SimDuration::from_days(29.0),
            bin: SimDuration::from_mins(5.0),
            arrivals: [
                // Gratis: high volume of small, short tasks.
                ArrivalConfig {
                    base_jobs_per_sec: 0.020,
                    mean_tasks_per_job: 5.0,
                    diurnal_amplitude: 0.35,
                    peak_hour: 14.0,
                    noise_sigma: 0.25,
                },
                // Other: the middle band.
                ArrivalConfig {
                    base_jobs_per_sec: 0.016,
                    mean_tasks_per_job: 5.0,
                    diurnal_amplitude: 0.45,
                    peak_hour: 15.0,
                    noise_sigma: 0.30,
                },
                // Production: fewer, longer-lived tasks.
                ArrivalConfig {
                    base_jobs_per_sec: 0.004,
                    mean_tasks_per_job: 4.0,
                    diurnal_amplitude: 0.25,
                    peak_hour: 13.0,
                    noise_sigma: 0.20,
                },
            ],
            size_modes: [Self::gratis_modes(), Self::other_modes(), Self::production_modes()],
            durations: [
                // Gratis: mostly short; 90% under ~10 h.
                DurationConfig {
                    long_fraction: 0.12,
                    short_median_secs: 40.0,
                    short_sigma: 1.0,
                    long_median_secs: 2.0 * 3600.0,
                    long_sigma: 1.1,
                    max_secs: 3.0 * 86_400.0,
                },
                // Other: similar, slightly longer tails.
                DurationConfig {
                    long_fraction: 0.15,
                    short_median_secs: 60.0,
                    short_sigma: 1.0,
                    long_median_secs: 3.0 * 3600.0,
                    long_sigma: 1.2,
                    max_secs: 5.0 * 86_400.0,
                },
                // Production: long-lived services up to 17 days.
                DurationConfig {
                    long_fraction: 0.40,
                    short_median_secs: 90.0,
                    short_sigma: 1.1,
                    long_median_secs: 20.0 * 3600.0,
                    long_sigma: 1.4,
                    max_secs: 17.0 * 86_400.0,
                },
            ],
        }
    }

    /// A 2-hour, high-rate configuration for fast tests and examples.
    pub fn small() -> Self {
        let mut c = Self::google_like();
        c.span = SimDuration::from_hours(2.0);
        c.bin = SimDuration::from_mins(2.0);
        for a in &mut c.arrivals {
            a.base_jobs_per_sec *= 4.0;
        }
        c
    }

    /// The closed-loop controller-evaluation configuration: 3 days at a
    /// rate that loads a 1/20-scale Table II cluster to a meaningful
    /// fraction of capacity.
    pub fn evaluation() -> Self {
        let mut c = Self::google_like();
        c.span = SimDuration::from_days(3.0);
        for a in &mut c.arrivals {
            a.base_jobs_per_sec *= 2.0;
        }
        c
    }

    /// The paper-scale workload: the full 29-day window at 2.5x the
    /// `google_like` arrival rates, which lands above a million tasks —
    /// the volume the paper's 10,000-machine Table II cluster absorbs.
    /// Pairs with `MachineCatalog::table2()` unscaled and the indexed
    /// sim engine (DESIGN.md §16).
    pub fn paper_scale() -> Self {
        let mut c = Self::google_like();
        for a in &mut c.arrivals {
            a.base_jobs_per_sec *= 2.5;
        }
        c
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the span.
    pub fn with_span(mut self, span: SimDuration) -> Self {
        self.span = span;
        self
    }

    fn gratis_modes() -> Vec<SizeMode> {
        vec![
            // The dominant exact mode: 43% of gratis tasks at
            // (0.0125, 0.0159) — Section III-D.
            SizeMode { weight: 0.43, cpu_median: 0.0125, mem_median: 0.0159, spread: 0.0 },
            SizeMode { weight: 0.27, cpu_median: 0.004, mem_median: 0.003, spread: 0.12 },
            SizeMode { weight: 0.15, cpu_median: 0.02, mem_median: 0.015, spread: 0.18 },
            // CPU-intensive large tasks.
            SizeMode { weight: 0.08, cpu_median: 0.12, mem_median: 0.008, spread: 0.18 },
            // Memory-intensive large tasks.
            SizeMode { weight: 0.05, cpu_median: 0.008, mem_median: 0.10, spread: 0.18 },
            // The rare giants, skewed per Section III-D ("large tasks are
            // either CPU-intensive or memory-intensive"), ~1000x the
            // smallest.
            SizeMode { weight: 0.013, cpu_median: 0.40, mem_median: 0.05, spread: 0.12 },
            SizeMode { weight: 0.007, cpu_median: 0.05, mem_median: 0.35, spread: 0.12 },
        ]
    }

    fn other_modes() -> Vec<SizeMode> {
        vec![
            SizeMode { weight: 0.35, cpu_median: 0.01, mem_median: 0.012, spread: 0.18 },
            SizeMode { weight: 0.30, cpu_median: 0.03, mem_median: 0.025, spread: 0.18 },
            SizeMode { weight: 0.15, cpu_median: 0.10, mem_median: 0.02, spread: 0.18 },
            SizeMode { weight: 0.12, cpu_median: 0.015, mem_median: 0.12, spread: 0.18 },
            SizeMode { weight: 0.05, cpu_median: 0.35, mem_median: 0.06, spread: 0.15 },
            SizeMode { weight: 0.03, cpu_median: 0.04, mem_median: 0.32, spread: 0.15 },
        ]
    }

    fn production_modes() -> Vec<SizeMode> {
        vec![
            // Production is dominated by modest long-running services;
            // the cluster's true giants live in the batch tiers (the
            // trace's biggest tasks are low-priority).
            SizeMode { weight: 0.32, cpu_median: 0.02, mem_median: 0.025, spread: 0.18 },
            SizeMode { weight: 0.32, cpu_median: 0.06, mem_median: 0.05, spread: 0.18 },
            SizeMode { weight: 0.20, cpu_median: 0.15, mem_median: 0.05, spread: 0.15 },
            SizeMode { weight: 0.13, cpu_median: 0.04, mem_median: 0.18, spread: 0.15 },
            SizeMode { weight: 0.02, cpu_median: 0.40, mem_median: 0.08, spread: 0.12 },
            SizeMode { weight: 0.01, cpu_median: 0.06, mem_median: 0.40, spread: 0.12 },
        ]
    }

    /// The arrival calibration for a priority group.
    pub fn arrival(&self, group: PriorityGroup) -> &ArrivalConfig {
        &self.arrivals[group.index()]
    }

    /// The size mixture for a priority group.
    pub fn modes(&self, group: PriorityGroup) -> &[SizeMode] {
        &self.size_modes[group.index()]
    }

    /// The duration calibration for a priority group.
    pub fn duration(&self, group: PriorityGroup) -> &DurationConfig {
        &self.durations[group.index()]
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::google_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_google_like() {
        let c = TraceConfig::default();
        assert_eq!(c.span, SimDuration::from_days(29.0));
        assert_eq!(c, TraceConfig::google_like());
    }

    #[test]
    fn gratis_dominant_mode_matches_paper() {
        let c = TraceConfig::google_like();
        let modes = c.modes(PriorityGroup::Gratis);
        let dominant = &modes[0];
        assert_eq!(dominant.cpu_median, 0.0125);
        assert_eq!(dominant.mem_median, 0.0159);
        assert_eq!(dominant.spread, 0.0);
        assert!((dominant.weight - 0.43).abs() < 1e-12);
    }

    #[test]
    fn mode_weights_roughly_normalized() {
        let c = TraceConfig::google_like();
        for g in PriorityGroup::ALL {
            let total: f64 = c.modes(g).iter().map(|m| m.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{g}: {total}");
        }
    }

    #[test]
    fn size_span_covers_three_orders_of_magnitude() {
        let c = TraceConfig::google_like();
        for g in PriorityGroup::ALL {
            let medians: Vec<f64> = c.modes(g).iter().map(|m| m.cpu_median).collect();
            let max = medians.iter().cloned().fold(0.0, f64::max);
            let min = medians.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(max / min >= 10.0, "{g}: medians span {max}/{min}");
        }
        // Across groups plus spread, the full range exceeds 1000x; check
        // gratis alone: 0.4 / 0.004 = 100x at medians, >1000x with
        // spread tails.
        let g = c.modes(PriorityGroup::Gratis);
        assert!(
            g.iter().map(|m| m.cpu_median).fold(0.0, f64::max)
                / g.iter().map(|m| m.cpu_median).fold(f64::INFINITY, f64::min)
                >= 100.0
        );
    }

    #[test]
    fn production_has_longest_tails() {
        let c = TraceConfig::google_like();
        let prod = c.duration(PriorityGroup::Production);
        assert!((prod.max_secs - 17.0 * 86_400.0).abs() < 1.0);
        assert!(prod.long_fraction > c.duration(PriorityGroup::Gratis).long_fraction);
    }

    #[test]
    fn variants_scale_sensibly() {
        let small = TraceConfig::small();
        assert_eq!(small.span, SimDuration::from_hours(2.0));
        let eval = TraceConfig::evaluation();
        assert_eq!(eval.span, SimDuration::from_days(3.0));
        assert!(
            eval.arrival(PriorityGroup::Gratis).base_jobs_per_sec
                > TraceConfig::google_like().arrival(PriorityGroup::Gratis).base_jobs_per_sec
        );
        let seeded = TraceConfig::small().with_seed(99);
        assert_eq!(seeded.seed, 99);
        let paper = TraceConfig::paper_scale();
        assert_eq!(paper.span, SimDuration::from_days(29.0));
        // ≥ 1M expected tasks: sum over groups of jobs/s × tasks/job ×
        // span.
        let expected: f64 =
            paper.arrivals.iter().map(|a| a.base_jobs_per_sec * a.mean_tasks_per_job).sum::<f64>()
                * paper.span.as_secs();
        assert!(expected >= 1.0e6, "paper-scale expects {expected} tasks");
    }
}
