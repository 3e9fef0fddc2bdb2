//! Regression: the event loop must be bit-reproducible.
//!
//! Two identically-seeded runs have to produce byte-identical
//! `SimReport`s — checkpoint/resume replay (DESIGN.md §8) and the
//! parallel-pipeline plan equality tests both rest on this, and it is
//! exactly the invariant hash-map iteration order would silently break
//! (the `HashMap`/`HashSet` ban in the root `clippy.toml` guards the
//! source side; this test guards the behavior).

use harmony_model::MachineCatalog;
use harmony_sim::{FaultPlan, FirstFit, Simulation, SimulationConfig};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

fn run_once(trace: &Trace, seed: u64) -> String {
    let plan = FaultPlan::scenario("mixed", seed, trace.span()).expect("known scenario");
    let config = SimulationConfig::new(MachineCatalog::table2().scaled(50))
        .all_machines_on()
        .with_faults(plan);
    let report = Simulation::new(config, trace, Box::new(FirstFit)).run();
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn identically_seeded_runs_are_byte_identical() {
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(11)).generate();
    let a = run_once(&trace, 42);
    let b = run_once(&trace, 42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the same report bytes");
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the comparison above has teeth: a different
    // fault seed must actually change the serialized report.
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(11)).generate();
    let a = run_once(&trace, 42);
    let c = run_once(&trace, 43);
    assert_ne!(a, c, "fault seed must influence the run");
}
