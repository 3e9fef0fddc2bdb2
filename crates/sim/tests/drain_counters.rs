//! The drain's count-only telemetry (`sim.drain_passes`,
//! `sim.drain_visits`, `sim.drain_limit_hits`) repeats exactly across
//! two runs of one seed.
//!
//! The counters live in the process-global registry, so this file holds
//! one test: no other run in the binary can add to them between reads.

use harmony_model::MachineCatalog;
use harmony_sim::{FaultPlan, FirstFit, Simulation, SimulationConfig};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

const KEYS: [&str; 3] = ["sim.drain_passes", "sim.drain_visits", "sim.drain_limit_hits"];

/// One saturated run with faults and a low failure limit; returns what
/// it added to each drain counter.
fn run_once(trace: &Trace) -> [u64; 3] {
    let registry = harmony_telemetry::global();
    let before = KEYS.map(|k| registry.counter(k).get());
    let plan = FaultPlan::scenario("mixed", 5, trace.span()).expect("known scenario");
    let config = SimulationConfig::new(MachineCatalog::table2().scaled(800))
        .all_machines_on()
        .drain_failure_limit(4)
        .with_faults(plan);
    let report = Simulation::new(config, trace, Box::new(FirstFit)).run();
    assert!(report.tasks_pending_at_end > 0, "the cluster must saturate");
    let after = KEYS.map(|k| registry.counter(k).get());
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn drain_counts_repeat_across_runs_of_one_seed() {
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(11)).generate();
    let first = run_once(&trace);
    let [passes, visits, limit_hits] = first;
    assert!(passes > 0 && visits >= passes && limit_hits > 0, "{first:?}");
    assert!(limit_hits <= passes, "{first:?}");
    assert_eq!(run_once(&trace), first, "{KEYS:?}");
}
