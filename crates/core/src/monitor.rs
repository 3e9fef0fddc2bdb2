//! Per-class arrival-rate monitoring and prediction (the paper's task
//! analysis + prediction modules).

use harmony_forecast::{Arima, Forecaster, MovingAverage};
use harmony_model::{SimDuration, Task, TaskClassId};
use harmony_sim::ForecastTier;
use harmony_telemetry::{self as telemetry, keys};
use serde::{Deserialize, Serialize};

use crate::classify::TaskClassifier;
use crate::HarmonyError;

/// Forecast outputs above this multiple of the largest observed rate are
/// rejected as model blow-ups and the next ladder tier is tried instead.
const OUTLIER_FACTOR: f64 = 10.0;

/// One class's forecast plus the quality tier that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassForecast {
    /// Predicted arrival rates (tasks/second), one per horizon period;
    /// always finite and non-negative.
    pub rates: Vec<f64>,
    /// The ladder tier that produced `rates`.
    pub tier: ForecastTier,
    /// Why the class ran below the tier its history length entitles
    /// (`None` when it ran at full entitlement).
    pub degraded: Option<String>,
}

/// Monitors the arrival rate of every task class, one sample per control
/// period, and forecasts future rates.
#[derive(Debug)]
pub struct ArrivalMonitor {
    period: SimDuration,
    history_len: usize,
    arima_min_history: usize,
    /// Rate history (tasks/second) per class.
    history: Vec<Vec<f64>>,
}

impl ArrivalMonitor {
    /// Creates a monitor for `n_classes` classes sampling once per
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `history_len == 0`.
    pub fn new(
        n_classes: usize,
        period: SimDuration,
        history_len: usize,
        arima_min_history: usize,
    ) -> Self {
        assert!(period.as_secs() > 0.0, "control period must be positive");
        assert!(history_len > 0, "history length must be positive");
        ArrivalMonitor {
            period,
            history_len,
            arima_min_history,
            history: vec![Vec::new(); n_classes],
        }
    }

    /// Number of classes tracked.
    pub fn n_classes(&self) -> usize {
        self.history.len()
    }

    /// Records one control period's arrivals, labeling each task with
    /// its initial (short) class.
    ///
    /// Tasks whose label falls outside the monitor's class range (a
    /// stale or mismatched classifier) are **not** silently ignored:
    /// they are excluded from the rate history, counted into the
    /// `monitor.dropped_arrivals` telemetry counter, logged, and the
    /// number dropped this period is returned so callers can react.
    pub fn record_period<'a, I>(&mut self, arrived: I, classifier: &TaskClassifier) -> usize
    where
        I: IntoIterator<Item = &'a Task>,
    {
        let mut counts = vec![0usize; self.history.len()];
        let mut dropped = 0usize;
        for task in arrived {
            let label = classifier.initial_label(task);
            match counts.get_mut(label.0) {
                Some(c) => *c += 1,
                None => dropped += 1,
            }
        }
        if dropped > 0 {
            telemetry::global().counter(keys::MONITOR_DROPPED_ARRIVALS).add(dropped as u64);
            eprintln!(
                "harmony: monitor dropped {dropped} arrival(s) with out-of-range \
                 class labels (classifier has more classes than the monitor?)"
            );
        }
        let secs = self.period.as_secs();
        for (class, count) in counts.into_iter().enumerate() {
            let h = &mut self.history[class];
            h.push(count as f64 / secs);
            let len = h.len();
            if len > self.history_len {
                h.drain(..len - self.history_len);
            }
        }
        dropped
    }

    /// The recorded rate history (tasks/second) of one class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn history(&self, class: TaskClassId) -> &[f64] {
        &self.history[class.0]
    }

    /// Number of recorded periods so far (same for every class).
    #[cfg(test)]
    pub fn periods_recorded(&self) -> usize {
        self.history.first().map_or(0, Vec::len)
    }

    /// The full rate history of every class — the monitor's checkpoint
    /// payload (see `harmony::online`).
    pub fn histories(&self) -> &[Vec<f64>] {
        &self.history
    }

    /// Replaces the rate histories wholesale — the checkpoint-restore
    /// path. Rejects payloads whose class count differs from the
    /// monitor's, whose per-class lengths are unequal, or that exceed the
    /// configured history bound (a truncated-on-write checkpoint can
    /// never be longer than `history_len`).
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::InvalidConfig`] describing the mismatch.
    pub fn restore_histories(&mut self, histories: Vec<Vec<f64>>) -> Result<(), HarmonyError> {
        if histories.len() != self.history.len() {
            return Err(HarmonyError::InvalidConfig {
                reason: format!(
                    "history class count {} does not match monitor's {}",
                    histories.len(),
                    self.history.len()
                ),
            });
        }
        let len = histories.first().map_or(0, Vec::len);
        if histories.iter().any(|h| h.len() != len) {
            return Err(HarmonyError::InvalidConfig {
                reason: "per-class history lengths differ".into(),
            });
        }
        if len > self.history_len {
            return Err(HarmonyError::InvalidConfig {
                reason: format!(
                    "history length {len} exceeds the configured bound {}",
                    self.history_len
                ),
            });
        }
        self.history = histories;
        Ok(())
    }

    /// Appends raw rate samples to one class's history, bypassing
    /// [`ArrivalMonitor::record_period`] — lets tests feed corrupted
    /// (non-finite) histories to the forecast guard.
    #[cfg(test)]
    pub(crate) fn inject_history(&mut self, class: usize, values: &[f64]) {
        self.history[class].extend_from_slice(values);
    }

    /// Forecasts arrival rates for the next `horizon` periods, one
    /// series per class.
    ///
    /// Convenience wrapper over [`ArrivalMonitor::forecast_tiered`] that
    /// drops the tier annotations.
    ///
    /// # Errors
    ///
    /// Infallible in practice (the ladder's last rung is total); the
    /// `Result` is kept for signature stability.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>, HarmonyError> {
        Ok(self.forecast_tiered(horizon).into_iter().map(|c| c.rates).collect())
    }

    /// Forecasts arrival rates for the next `horizon` periods, walking
    /// the graceful-degradation ladder per class: ARIMA (when the
    /// history is long enough) → moving average → last observation.
    ///
    /// A tier's output is rejected — and the next rung tried — when it
    /// contains non-finite values or an outlier above
    /// `OUTLIER_FACTOR`× the largest observed rate (a blown-up model
    /// fit must not drive provisioning). The final rates are always
    /// finite and non-negative; a class whose history itself is
    /// corrupted (non-finite) degrades to zero-rate last-observation
    /// output rather than poisoning the LP.
    ///
    /// The ARIMA rung of every entitled class is fitted in one
    /// [`Arima::fit_many`] batch, whose fits are bit-identical to lone
    /// ones; then each class walks its ladder.
    pub fn forecast_tiered(&self, horizon: usize) -> Vec<ClassForecast> {
        let entitled: Vec<&[f64]> =
            self.history.iter().map(Vec::as_slice).filter(|h| self.arima_entitled(h)).collect();
        let mut arima = auto_forecasts(&entitled, horizon).into_iter();
        let forecasts: Vec<ClassForecast> = self
            .history
            .iter()
            .map(|h| {
                let fit = if self.arima_entitled(h) { arima.next() } else { None };
                self.forecast_class(h, fit, horizon)
            })
            .collect();
        record_tier_counts(&forecasts);
        forecasts
    }

    /// [`ArrivalMonitor::forecast_tiered`]; `workers` is ignored. Kept
    /// for callers that still pass a worker count.
    pub fn forecast_tiered_with_workers(
        &self,
        horizon: usize,
        _workers: usize,
    ) -> Vec<ClassForecast> {
        self.forecast_tiered(horizon)
    }

    /// Whether a history is long enough for the ARIMA rung.
    fn arima_entitled(&self, h: &[f64]) -> bool {
        !h.is_empty() && h.len() >= self.arima_min_history
    }

    /// Walks the forecast ladder for one class's history, given the
    /// ARIMA rung's outcome when the class is entitled to it.
    fn forecast_class(
        &self,
        h: &[f64],
        arima: Option<Result<Vec<f64>, HarmonyError>>,
        horizon: usize,
    ) -> ClassForecast {
        if h.is_empty() {
            return ClassForecast {
                rates: vec![0.0; horizon],
                tier: ForecastTier::LastObservation,
                degraded: None,
            };
        }
        let cap =
            h.iter().copied().filter(|v| v.is_finite()).fold(0.0, f64::max) * OUTLIER_FACTOR + 1e-9;
        let entitled =
            if arima.is_some() { ForecastTier::Arima } else { ForecastTier::MovingAverage };
        let mut reason: Option<String> = None;
        let mut note = |why: String| {
            if reason.is_none() {
                reason = Some(why);
            }
        };
        let (rates, tier) = 'ladder: {
            match arima {
                Some(Ok(fc)) if usable(&fc, cap) => break 'ladder (fc, ForecastTier::Arima),
                Some(Ok(_)) => note("ARIMA forecast non-finite or outlier".into()),
                Some(Err(e)) => note(format!("ARIMA failed: {e}")),
                None => {}
            }
            match fallback_forecast(h, horizon) {
                Ok(fc) if usable(&fc, cap) => break 'ladder (fc, ForecastTier::MovingAverage),
                Ok(_) => note("moving average non-finite or outlier".into()),
                Err(e) => note(format!("moving average failed: {e}")),
            }
            // Last rung: repeat the most recent finite
            // observation (zero when none exists). Total.
            let last = h.iter().rev().copied().find(|v| v.is_finite()).unwrap_or(0.0);
            (vec![last; horizon], ForecastTier::LastObservation)
        };
        let degraded = if tier == entitled { None } else { reason };
        ClassForecast {
            rates: rates
                .into_iter()
                .map(|v| if v.is_finite() { v.max(0.0) } else { 0.0 })
                .collect(),
            tier,
            degraded,
        }
    }
}

/// Tallies which ladder rung each class's forecast ran at (one local
/// pass, then a single registry update per tier used).
fn record_tier_counts(forecasts: &[ClassForecast]) {
    let (mut arima, mut moving_average, mut last_observation, mut degraded) = (0u64, 0, 0, 0);
    for class in forecasts {
        match class.tier {
            ForecastTier::Arima => arima += 1,
            ForecastTier::MovingAverage => moving_average += 1,
            ForecastTier::LastObservation => last_observation += 1,
        }
        if class.degraded.is_some() {
            degraded += 1;
        }
    }
    let registry = telemetry::global();
    for (name, n) in [
        (keys::FORECAST_TIER_ARIMA, arima),
        (keys::FORECAST_TIER_MOVING_AVERAGE, moving_average),
        (keys::FORECAST_TIER_LAST_OBSERVATION, last_observation),
        (keys::FORECAST_DEGRADED, degraded),
    ] {
        if n > 0 {
            registry.counter(name).add(n);
        }
    }
}

/// A forecast series is usable when every value is finite and none blows
/// past the outlier cap.
fn usable(fc: &[f64], cap: f64) -> bool {
    fc.iter().all(|v| v.is_finite() && *v <= cap)
}

/// The ARIMA rung's forecast for each history, fitted as one batch.
fn auto_forecasts(histories: &[&[f64]], horizon: usize) -> Vec<Result<Vec<f64>, HarmonyError>> {
    // A small fixed order keeps the per-tick fitting cost bounded.
    match Arima::new(2, 0, 1) {
        Ok(model) => model
            .with_mean()
            .fit_many(histories)
            .into_iter()
            .map(|fit| Ok(fit?.forecast(horizon)))
            .collect(),
        Err(e) => histories.iter().map(|_| Err(e.clone().into())).collect(),
    }
}

fn fallback_forecast(history: &[f64], horizon: usize) -> Result<Vec<f64>, HarmonyError> {
    let window = history.len().clamp(1, 6);
    Ok(MovingAverage::new(window)?.forecast(history, horizon)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifierConfig;
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn setup() -> (TaskClassifier, harmony_trace::Trace) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(9)).generate();
        let c = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).unwrap();
        (c, trace)
    }

    #[test]
    fn records_rates_per_class() {
        let (classifier, trace) = setup();
        let period = SimDuration::from_mins(10.0);
        let mut monitor = ArrivalMonitor::new(classifier.classes().len(), period, 100, 24);
        // Feed the whole trace in 10-minute chunks.
        let mut chunk = Vec::new();
        let mut boundary = period;
        for task in trace.tasks() {
            if task.arrival.as_secs() > boundary.as_secs() {
                monitor.record_period(&chunk, &classifier);
                chunk.clear();
                boundary += period;
            }
            chunk.push(*task);
        }
        monitor.record_period(&chunk, &classifier);
        assert!(monitor.periods_recorded() >= 10);
        // Total recorded rate mass equals the trace size.
        let total: f64 = (0..monitor.n_classes())
            .map(|c| monitor.history(TaskClassId(c)).iter().sum::<f64>() * period.as_secs())
            .sum();
        assert!((total - trace.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_labels_are_counted_not_silently_dropped() {
        // Regression: a monitor built for fewer classes than the
        // classifier produces (a stale classifier after refit) used to
        // swallow those arrivals without a trace, silently zeroing the
        // affected classes' rates.
        let (classifier, trace) = setup();
        assert!(classifier.classes().len() > 1, "test needs multiple classes");
        let period = SimDuration::from_mins(10.0);
        let mut monitor = ArrivalMonitor::new(1, period, 100, 24);
        let tasks = &trace.tasks()[..200];
        let before = harmony_telemetry::global().snapshot().counter(keys::MONITOR_DROPPED_ARRIVALS);
        let dropped = monitor.record_period(tasks, &classifier);
        assert!(dropped > 0, "seed trace must spread over >1 class");
        // The drop surfaces in the telemetry snapshot (delta-based: the
        // global registry is shared across parallel tests).
        let after = harmony_telemetry::global().snapshot().counter(keys::MONITOR_DROPPED_ARRIVALS);
        assert_eq!(after - before, dropped as u64);
        // Only in-range arrivals reach the rate history.
        let recorded = monitor.history(TaskClassId(0)).iter().sum::<f64>() * period.as_secs();
        assert!((recorded - (tasks.len() - dropped) as f64).abs() < 1e-6);

        // A monitor sized to the classifier drops nothing.
        let mut full = ArrivalMonitor::new(classifier.classes().len(), period, 100, 24);
        assert_eq!(full.record_period(tasks, &classifier), 0);
    }

    #[test]
    fn history_is_bounded() {
        let (classifier, trace) = setup();
        let mut monitor =
            ArrivalMonitor::new(classifier.classes().len(), SimDuration::from_mins(1.0), 5, 3);
        for _ in 0..12 {
            monitor.record_period(&trace.tasks()[..50], &classifier);
        }
        assert_eq!(monitor.periods_recorded(), 5);
    }

    #[test]
    fn forecast_shapes_and_nonnegativity() {
        let (classifier, trace) = setup();
        let mut monitor =
            ArrivalMonitor::new(classifier.classes().len(), SimDuration::from_mins(10.0), 50, 8);
        for i in 0..10 {
            let lo = i * 100;
            let hi = (lo + 100).min(trace.len());
            monitor.record_period(&trace.tasks()[lo..hi], &classifier);
        }
        let fc = monitor.forecast(3).unwrap();
        assert_eq!(fc.len(), classifier.classes().len());
        for series in &fc {
            assert_eq!(series.len(), 3);
            assert!(series.iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    }

    #[test]
    fn non_finite_history_still_yields_finite_forecast() {
        // Regression: a corrupted (NaN/∞) history must never reach the
        // LP as a non-finite rate — the ladder degrades instead.
        let mut monitor = ArrivalMonitor::new(2, SimDuration::from_mins(10.0), 50, 24);
        monitor.inject_history(0, &[f64::NAN, f64::INFINITY, 1.0, f64::NAN]);
        monitor.inject_history(1, &[0.5, 0.6, 0.7]);
        let fc = monitor.forecast_tiered(4);
        for class in &fc {
            assert_eq!(class.rates.len(), 4);
            assert!(
                class.rates.iter().all(|v| v.is_finite() && *v >= 0.0),
                "forecast leaked a non-finite rate: {:?}",
                class.rates
            );
        }
        // Class 0's moving average is poisoned by NaN, so it lands on
        // the last-observation rung with the reason recorded.
        assert_eq!(fc[0].tier, ForecastTier::LastObservation);
        assert!(fc[0].degraded.is_some());
        assert_eq!(fc[0].rates, vec![1.0; 4]);
        // Class 1's clean short history runs at its entitled tier.
        assert_eq!(fc[1].tier, ForecastTier::MovingAverage);
        assert!(fc[1].degraded.is_none());
    }

    #[test]
    fn usable_rejects_nan_inf_and_outliers() {
        assert!(usable(&[0.0, 1.0, 2.0], 10.0));
        assert!(!usable(&[f64::NAN], 10.0));
        assert!(!usable(&[f64::INFINITY], 10.0));
        assert!(!usable(&[11.0], 10.0), "outliers above the cap are rejected");
        assert!(usable(&[-5.0], 10.0), "negatives pass here; the final clamp zeroes them");
    }

    #[test]
    fn forecast_with_no_history_is_zero() {
        let monitor = ArrivalMonitor::new(3, SimDuration::from_mins(10.0), 10, 5);
        let fc = monitor.forecast(2).unwrap();
        assert_eq!(fc, vec![vec![0.0, 0.0]; 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = ArrivalMonitor::new(1, SimDuration::ZERO, 10, 5);
    }

    #[test]
    fn histories_roundtrip_through_restore() {
        let (classifier, trace) = setup();
        let mut monitor =
            ArrivalMonitor::new(classifier.classes().len(), SimDuration::from_mins(10.0), 50, 8);
        for i in 0..6 {
            let lo = i * 100;
            let hi = (lo + 100).min(trace.len());
            monitor.record_period(&trace.tasks()[lo..hi], &classifier);
        }
        let saved = monitor.histories().to_vec();
        let mut fresh =
            ArrivalMonitor::new(classifier.classes().len(), SimDuration::from_mins(10.0), 50, 8);
        fresh.restore_histories(saved.clone()).unwrap();
        assert_eq!(fresh.histories(), monitor.histories());
        assert_eq!(fresh.periods_recorded(), 6);
        // The restored monitor forecasts identically.
        assert_eq!(fresh.forecast(3).unwrap(), monitor.forecast(3).unwrap());
    }

    #[test]
    fn restore_rejects_malformed_payloads() {
        let mut monitor = ArrivalMonitor::new(2, SimDuration::from_mins(10.0), 4, 3);
        // Wrong class count.
        assert!(monitor.restore_histories(vec![vec![1.0]]).is_err());
        // Ragged lengths.
        assert!(monitor.restore_histories(vec![vec![1.0, 2.0], vec![1.0]]).is_err());
        // Over the configured bound.
        assert!(monitor.restore_histories(vec![vec![0.0; 5], vec![0.0; 5]]).is_err());
        // A valid payload still lands.
        monitor.restore_histories(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(monitor.periods_recorded(), 2);
    }
}
