//! Zero-dependency process metrics for the HARMONY stack.
//!
//! A [`Registry`] maps metric names to three kinds of instruments:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, drops, pivots),
//! * [`Gauge`] — last-written / high-watermark `f64` (queue depths),
//! * [`Histogram`] — fixed-bucket distribution of `f64` samples
//!   (stage latencies), observed through a [`Timer`] span guard on the
//!   monotonic clock.
//!
//! Everything records through atomics, so `harmonyd`'s
//! thread-per-connection model can count requests without taking the
//! service `RwLock`, and the sim engine's event loop can flush local
//! tallies without contention. Registration (first use of a name) takes
//! a short lock on the registry map; recording through the returned
//! `Arc` handle is lock-free.
//!
//! Most call sites use the process-wide registry via [`global()`]:
//!
//! ```
//! use harmony_telemetry as telemetry;
//!
//! telemetry::global().counter("doc.example.events").inc();
//! let _span = telemetry::global().timer("doc.example.seconds");
//! // ... timed work; the histogram records when `_span` drops ...
//! # drop(_span);
//! let snap = telemetry::global().snapshot();
//! assert!(snap.counter("doc.example.events") >= 1);
//! ```
//!
//! Metric names are dot-separated lowercase paths, `<subsystem>.<what>`
//! with a `_seconds` suffix for duration histograms (see DESIGN.md §9).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub mod keys;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-written `f64` with a high-watermark helper.
///
/// Stored as IEEE-754 bits in an `AtomicU64`; `set_max` uses a CAS loop
/// and ignores NaN samples so a poisoned observation cannot wedge the
/// watermark.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge { bits: AtomicU64::new(0) }
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (NaN is ignored).
    pub fn set_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Adds `v` to an `f64` accumulated as bits in an `AtomicU64`.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f64::from_bits(cur) + v;
        match cell.compare_exchange_weak(cur, next.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Default histogram bounds for `_seconds` metrics: a 1–2–5 ladder from
/// 1µs to 10s. Samples above 10s land in the overflow bucket.
pub const DURATION_BOUNDS: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0,
];

/// A fixed-bucket distribution of `f64` samples.
///
/// Bucket `i` counts samples `<= bounds[i]`; one extra overflow bucket
/// counts the rest. Bounds are fixed at registration, so `observe` is a
/// binary search plus two atomic adds — safe to call from any thread.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    ///
    /// Non-finite and unsorted bounds are filtered/sorted defensively so
    /// a bad call site degrades the resolution, not the process.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one sample (NaN is counted in the overflow bucket and
    /// excluded from the sum so the mean stays finite).
    pub fn observe(&self, v: f64) {
        let idx =
            if v.is_nan() { self.bounds.len() } else { self.bounds.partition_point(|b| *b < v) };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if !v.is_nan() {
            atomic_f64_add(&self.sum_bits, v);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A span guard that records its lifetime into a histogram on drop.
///
/// Obtained from [`Registry::timer`]; uses [`Instant`] (monotonic), so
/// wall-clock steps cannot produce negative or skewed samples.
#[derive(Debug)]
pub struct Timer {
    histogram: Option<Arc<Histogram>>,
    start: Instant,
}

impl Timer {
    #[expect(
        clippy::disallowed_methods,
        reason = "a Timer is the sanctioned way to measure real time: it records into a histogram and never feeds a decision"
    )]
    fn new(histogram: Arc<Histogram>) -> Self {
        Timer { histogram: Some(histogram), start: Instant::now() }
    }

    /// Stops the span now, records it, and returns the elapsed seconds.
    pub fn stop(mut self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        if let Some(h) = self.histogram.take() {
            h.observe(elapsed);
        }
        elapsed
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(h) = self.histogram.take() {
            h.observe(self.start.elapsed().as_secs_f64());
        }
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// `Registry::new` is `const`, so a registry can live in a `static`
/// ([`global()`] does exactly that). Lookups clone an `Arc` handle under
/// a short map lock; all recording happens on the handle without locks.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Recovers the guard from a poisoned lock: metrics maps hold plain
/// atomics whose invariants cannot be violated mid-update, so a panic
/// elsewhere never leaves them in a state worth refusing to read.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// An empty registry (usable in `static` position).
    pub const fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_owned(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::new());
                map.insert(name.to_owned(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram registered under `name`, creating it with the given
    /// bucket bounds on first use (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                map.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// A running [`Timer`] recording into the `name` histogram with the
    /// default [`DURATION_BOUNDS`].
    pub fn timer(&self, name: &str) -> Timer {
        Timer::new(self.histogram(name, &DURATION_BOUNDS))
    }

    /// Times `f` into the `name` histogram and returns its result.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let timer = self.timer(name);
        let out = f();
        drop(timer);
        out
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            lock(&self.counters).iter().map(|(name, c)| (name.clone(), c.get())).collect();
        let gauges = lock(&self.gauges).iter().map(|(name, g)| (name.clone(), g.get())).collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                bounds: h.bounds.clone(),
                buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            })
            .collect();
        Snapshot { counters, gauges, histograms }
    }

    /// Zeroes every registered metric in place (handles stay valid).
    /// Intended for tests and for `--metrics` runs that want a clean
    /// window; not used on the serving path.
    pub fn reset(&self) {
        for c in lock(&self.counters).values() {
            c.reset();
        }
        for g in lock(&self.gauges).values() {
            g.reset();
        }
        for h in lock(&self.histograms).values() {
            h.reset();
        }
    }
}

/// The process-wide registry all HARMONY subsystems record into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// A point-in-time copy of a registry's metrics, detached from the
/// atomics so it can be serialized or asserted on at leisure.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states, ordered by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The named counter's value (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram's state, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; `buckets[bounds.len()]` is overflow.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket holding the sample of that rank. Ranks landing in the
    /// overflow bucket are capped to the largest finite bound. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Same rank convention as `DelayStats::from_delays`: the
        // ceil(q*n)-th smallest sample, clamped to [1, n].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.bounds.last().copied().unwrap_or(0.0),
                };
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_and_add() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(4);
        assert_eq!(r.counter("a").get(), 5);
        assert_eq!(r.counter("other").get(), 0, "fresh names start at zero");
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("t");
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("t").get(), 8000);
    }

    #[test]
    fn gauge_set_and_watermark() {
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5, "set_max never lowers");
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
        g.set_max(f64::NAN);
        assert_eq!(g.get(), 7.0, "NaN is ignored");
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // On the boundary → lower bucket; just above → next bucket.
        h.observe(1.0);
        h.observe(1.0000001);
        h.observe(4.0);
        h.observe(4.5); // overflow
        h.observe(0.0);
        let snap = snapshot_of(&h);
        assert_eq!(snap.buckets, vec![2, 1, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 10.5000001).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_nan_and_unsorted_bounds() {
        let h = Histogram::new(&[5.0, 1.0, f64::INFINITY, 1.0]);
        assert_eq!(h.bounds, vec![1.0, 5.0], "bounds sorted, deduped, finite");
        h.observe(f64::NAN);
        h.observe(2.0);
        let snap = snapshot_of(&h);
        assert_eq!(snap.buckets, vec![0, 1, 1], "NaN lands in overflow");
        assert_eq!(snap.count, 2);
        assert!((snap.sum - 2.0).abs() < 1e-12, "NaN excluded from sum");
    }

    #[test]
    fn histogram_quantiles_follow_bucket_upper_bounds() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 0.5, 1.5, 3.0, 7.0] {
            h.observe(v);
        }
        let snap = snapshot_of(&h);
        // ranks: q50 → 3rd of 5 → bucket(1.5) → bound 2.0
        assert_eq!(snap.quantile(0.5), 2.0);
        assert_eq!(snap.quantile(0.0), 1.0, "q=0 clamps to rank 1");
        assert_eq!(snap.quantile(1.0), 8.0);
        assert_eq!(snap.quantile(0.2), 1.0, "both 0.5 samples in first bucket");
    }

    #[test]
    fn histogram_quantile_caps_overflow_to_last_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0);
        let snap = snapshot_of(&h);
        assert_eq!(snap.quantile(0.99), 2.0);
        assert_eq!(snap.mean(), 100.0, "mean uses the true sum");
    }

    #[test]
    fn empty_histogram_quantile_and_mean_are_zero() {
        let snap = snapshot_of(&Histogram::new(&[1.0]));
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn timer_records_into_histogram() {
        let r = Registry::new();
        {
            let _span = r.timer("work_seconds");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let elapsed = r.timer("work_seconds").stop();
        assert!(elapsed >= 0.0);
        let snap = r.snapshot();
        let h = snap.histogram("work_seconds").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.sum >= 0.002, "first span slept 2ms, sum={}", h.sum);
    }

    #[test]
    fn time_closure_returns_value_and_records() {
        let r = Registry::new();
        let out = r.time("f_seconds", || 42);
        assert_eq!(out, 42);
        assert_eq!(r.snapshot().histogram("f_seconds").unwrap().count, 1);
    }

    #[test]
    fn snapshot_reflects_all_kinds_and_reset_zeroes() {
        let r = Registry::new();
        let c = r.counter("events");
        c.add(3);
        r.gauge("depth").set(9.0);
        r.histogram("lat", &DURATION_BOUNDS).observe(0.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("events"), 3);
        assert_eq!(snap.gauge("depth"), Some(9.0));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);

        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("events"), 0);
        assert_eq!(snap.gauge("depth"), Some(0.0));
        assert_eq!(snap.histogram("lat").unwrap().count, 0);
        c.inc();
        assert_eq!(r.counter("events").get(), 1, "old handles stay live after reset");
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("telemetry.test.global").inc();
        assert!(global().snapshot().counter("telemetry.test.global") >= 1);
    }

    fn snapshot_of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            name: "h".to_owned(),
            count: h.count(),
            sum: h.sum(),
            bounds: h.bounds.clone(),
            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}
